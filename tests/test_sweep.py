"""The leaf-to-root sweep skips children that hold 0, bit for bit.

``Tree.sweep_up`` gives each vertex the sum of ``lift`` over its children's
values plus its own seed value, and carries only the nonzero or seeded
vertices of a generation while they are fewer than half of it.  Every
caller's output, per vertex and for the roots alone, and seeds in every
generation, are checked here against the dense sweep, kept below as the
oracle, byte for byte, on one-byte and on int64 child counts of the same
forests.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwising import Tree, capacity_recursion, lyons_field, lyons_plus, survival
from gwising.tree import segment_sums
from gwising.validate import leaf_counts

BETAS = (0.0, 0.05, 0.9, 3.0, 20.0)
CAPACITY_ORDERS = (1.5, 2.0, 3.0)
# forests are kept below this many expected vertices
MAX_EXPECTED_VERTICES = 3000


def dense_sweep_up(self, seeds, lift, out=None):
    ids, own = seeds
    seeded = np.zeros(self.num_vertices, dtype=own.dtype)
    seeded[ids] = own
    lo = int(self.gen_offsets[self.n])
    values = seeded[lo:]
    if out is not None:
        out[lo:] = values
    for k in range(self.n - 1, -1, -1):
        lo, mid, hi = (int(x) for x in self.gen_offsets[k:k + 3])
        cur = slice(lo, mid)
        sums = segment_sums(lift(values), self.num_children[cur])
        values = sums + seeded[cur]
        if out is not None:
            out[cur] = values
    return values


@contextmanager
def dense_sweep():
    with mock.patch.object(Tree, "sweep_up", dense_sweep_up):
        yield


def bottom_slice(tree):
    return slice(int(tree.gen_offsets[tree.n]), tree.num_vertices)


def bottom_seeds(tree, leaves):
    """The nonzero entries of the bottom-generation values ``leaves``, as
    the seeds of a sweep."""
    at = np.flatnonzero(leaves)
    return at + bottom_slice(tree).start, leaves[at]


def fields_of(tree, p, rng):
    """One field per mode: Bernoulli(p) bits on every vertex, on the bottom
    generation only, and ones on the bottom generation."""
    whole = (rng.random(tree.num_vertices) < p).astype(np.uint8)
    leaves = np.zeros(tree.num_vertices, dtype=np.uint8)
    leaves[bottom_slice(tree)] = whole[bottom_slice(tree)]
    plus = np.zeros(tree.num_vertices, dtype=np.uint8)
    plus[bottom_slice(tree)] = 1
    return [whole, leaves, plus]


def capacity_phi(tree, beta, p, roots_only=False):
    base = math.tanh(beta) if beta > 0 else 0.5
    return capacity_recursion(tree, base, p, roots_only=roots_only)


def outputs(tree, beta, flds):
    """Every sweep caller's per-vertex output on one forest, given one field
    per mode, then the root values of the two that give them alone."""
    out = [lyons_field(tree, fld, beta) for fld in flds]
    out += [lyons_plus(tree, beta), survival(tree, flds[1]), leaf_counts(tree)]
    out += [capacity_phi(tree, beta, q) for q in CAPACITY_ORDERS]
    out += [lyons_field(tree, fld, beta, roots_only=True) for fld in flds]
    out += [capacity_phi(tree, beta, q, roots_only=True) for q in CAPACITY_ORDERS]
    return out


def arenas(tree):
    """The forest with one-byte child counts and with int64 ones."""
    assert tree.num_children.dtype == np.uint8
    return [tree, Tree(tree.gen_offsets, tree.num_children.astype(np.int64))]


def assert_same_bytes(tree, beta, flds):
    with dense_sweep():
        want = outputs(arenas(tree)[1], beta, flds)
    for arena in arenas(tree):
        got = outputs(arena, beta, flds)
        with dense_sweep():
            assert [w.tobytes() for w in outputs(arena, beta, flds)] == \
                [w.tobytes() for w in want]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        # the root values alone are the per-vertex ones' first entries
        per_vertex = got[:3] + got[6:9]
        for whole, roots in zip(per_vertex, got[9:]):
            assert roots.tobytes() == whole[:tree.num_roots].tobytes()


def random_forest(rng, width, zero_mass, roots, depth):
    """A forest whose laws put mass on 1..width (and on 0 when asked), one
    law per generation, cut at the depth where it would grow too large."""
    degrees = np.arange(0 if zero_mass else 1, width + 1)
    counts, size, expected = [], roots, roots
    for _ in range(depth):
        probs = rng.dirichlet(np.full(len(degrees), 0.3))
        mean = float(degrees @ probs)
        if expected * (1 + mean) > MAX_EXPECTED_VERTICES and counts:
            break
        c = rng.choice(degrees, p=probs, size=size)
        counts.append(c)
        size = int(c.sum())
        expected *= max(mean, 1.0)
        if size == 0:
            break
    return Tree.from_offspring_counts(counts)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 12), zero_mass=st.booleans(),
       roots=st.integers(1, 40), depth=st.integers(1, 9),
       log10_p=st.floats(-6.0, 0.0), beta=st.sampled_from(BETAS))
def test_sweep_matches_dense_sweep_bitwise(seed, width, zero_mass, roots, depth,
                                           log10_p, beta):
    rng = np.random.default_rng(seed)
    tree = random_forest(rng, width, zero_mass, roots, depth)
    assert_same_bytes(tree, beta, fields_of(tree, 10.0 ** log10_p, rng))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 12), zero_mass=st.booleans(),
       roots=st.integers(1, 40), depth=st.integers(1, 9), log10_p=st.floats(-4.0, 0.0))
def test_seeds_in_every_generation_match_dense_sweep_bitwise(seed, width, zero_mass,
                                                             roots, depth, log10_p):
    # Bernoulli(p) seeds plus one vertex per generation, so that every
    # generation holds a seed, on vertices with children and without
    rng = np.random.default_rng(seed)
    tree = random_forest(rng, width, zero_mass, roots, depth)
    picked = rng.random(tree.num_vertices) < 10.0 ** log10_p
    offsets = tree.gen_offsets
    picked[rng.integers(offsets[:-1], offsets[1:])] = True
    ids = np.flatnonzero(picked)
    # own values spread over many binades, so that the order of a sum shows
    own = rng.random(len(ids)) * 10.0 ** rng.integers(-6, 3, size=len(ids))

    def sweep():
        # a lift that is not linear, so that a misrouted sum shows
        out = np.zeros(tree.num_vertices)
        roots = tree.sweep_up((ids, own), np.log1p, out=out)
        return out, roots

    for tree in arenas(tree):
        got = sweep()
        with dense_sweep():
            want = sweep()
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert got[1].tobytes() == got[0][:tree.num_roots].tobytes()
        assert (got[0][ids] != 0).all()


def marked_fields(tree, leaves, internal):
    """One field per mode: marks on the bottom-generation offsets
    ``leaves``, those and the ids ``internal`` for WHOLE_TREE, and ones on
    the bottom generation."""
    bottom = bottom_slice(tree)
    leaf_bits = np.zeros(tree.num_vertices, dtype=np.uint8)
    leaf_bits[bottom.start + np.asarray(leaves, dtype=np.int64)] = 1
    whole = leaf_bits.copy()
    whole[np.asarray(internal, dtype=np.int64)] = 1
    plus = np.zeros(tree.num_vertices, dtype=np.uint8)
    plus[bottom] = 1
    return [whole, leaf_bits, plus]


def forest(*counts):
    return Tree.from_offspring_counts([np.array(c, dtype=np.int64) for c in counts])


HAND_FORESTS = {
    # roots with 12 and 3 children over 40 paths: 11 and 3 live children
    # under them, in a generation that stays mostly zero
    "wide parents": (forest([12, 3] + [1] * 40, [1] * 55),
                     [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14], [5, 62]),
    # lone-vertex trees among the roots, childless vertices in generation 1
    "childless and lone": (forest([0, 3, 0, 1, 2] + [1] * 20,
                                  [0, 2, 1, 0, 4, 0] + [1] * 20, [1] * 27),
                           [0, 2, 4, 6], [0, 1, 25, 29]),
    "lone roots only": (forest([0, 0, 0]), [1], [0]),
}


@pytest.mark.parametrize("beta", (0.05, 0.9, 20.0))
@pytest.mark.parametrize("name", list(HAND_FORESTS))
def test_roots_only_matches_per_vertex_and_dense_sweep_bitwise(name, beta):
    tree, leaves, internal = HAND_FORESTS[name]
    assert_same_bytes(tree, beta, marked_fields(tree, leaves, internal))


def wide_parent_forest(rng, width, live, first_live, others):
    """Root 0 has ``width`` leaf children, ``live`` of them marked (the
    first one among them when ``first_live``); ``others`` roots with one
    unmarked leaf child each keep the bottom generation mostly zero."""
    tree = Tree.from_offspring_counts([np.array([width] + [1] * others)])
    marked = rng.choice(np.arange(1, width) if first_live else np.arange(width),
                        size=live - first_live, replace=False)
    h = np.zeros(tree.num_vertices, dtype=np.uint8)
    h[tree.num_roots + marked] = 1
    if first_live:
        h[tree.num_roots] = 1
    return tree, h


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(3, 30), data=st.data(),
       beta=st.sampled_from(BETAS[1:]), first_live=st.booleans())
def test_parents_with_many_live_children_keep_dense_sums(seed, width, data, beta,
                                                         first_live):
    # three or more live children, whose plain sum would differ from the
    # dense one, or two among more than 8, where reduceat sums pairwise
    live = data.draw(st.integers(2 if width > 8 else 3, width))
    rng = np.random.default_rng(seed)
    tree, h = wide_parent_forest(rng, width, live, first_live, others=2 * width + 1)
    # leaf values spread over many binades, so that the order of the sum shows
    x = rng.random(tree.num_vertices) * 10.0 ** rng.integers(-6, 3, size=tree.num_vertices)
    leaves = (x * h)[bottom_slice(tree)]

    def sweeps():
        out = np.zeros(tree.num_vertices)
        roots = tree.sweep_up(bottom_seeds(tree, leaves), lambda child: child * 1.0,
                              out=out)
        return [lyons_field(tree, h, beta), lyons_field(tree, h, beta, roots_only=True),
                out, roots]

    got = sweeps()
    with dense_sweep():
        want = sweeps()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert got[1].tobytes() == got[0][:tree.num_roots].tobytes()
    assert got[3].tobytes() == got[2][:tree.num_roots].tobytes()


def uniform_bottom_forest(rng, most, childless):
    """Twenty roots with one or two children each, whose children have 1 to
    ``most`` children, one of them ``most``; with ``childless``, one of them
    none, so that it is a leaf in generation n-1."""
    top = rng.integers(1, 3, size=20)
    below = rng.integers(1, most + 1, size=int(top.sum()))
    below[-1] = most
    if childless:
        below[0] = 0
    return forest(top, below)


@pytest.mark.parametrize("beta", (0.05, 0.9, 20.0))
@pytest.mark.parametrize("childless", [False, True])
@pytest.mark.parametrize("most", [9, 10, 11, 12, 40, 65])
def test_uniform_bottom_matches_dense_sweep_bitwise(most, childless, beta):
    # a bottom of one value throughout: the plus boundary, the capacity's
    # leaves, survival's uint8 seeds and the leaf counts; beyond eight
    # children reduceat sums pairwise, a leaf in generation n-1 seeds it, and
    # from about 30 children on the table would outnumber the bottom
    rng = np.random.default_rng([most, childless])
    tree = uniform_bottom_forest(rng, most, childless)
    assert_same_bytes(tree, beta, fields_of(tree, 1.0, rng))


@pytest.mark.parametrize("most", [1, 12, 40, 65])
@pytest.mark.parametrize("seeded", [False, True])
def test_uniform_bottom_is_lifted_once_unless_generation_n_minus_1_is_seeded(most, seeded):
    # the name dates from when a seeded generation n-1 skipped the table; it
    # no longer does, and both cases are lifted once: seeds in generation n-1
    # are added after the table's sums.  Beyond the table's size the bottom
    # is lifted vertex by vertex
    rng = np.random.default_rng(most)
    tree = uniform_bottom_forest(rng, most, childless=False)
    lo, mid = (int(x) for x in tree.gen_offsets[1:3])
    ids = np.arange(lo if seeded else mid, tree.num_vertices)
    own = np.full(len(ids), 0.5)
    if seeded:
        own[:mid - lo] = rng.random(mid - lo)
    seen = []

    def lift(child):
        seen.append(len(child))
        return np.log1p(child)

    def sweep():
        out = np.zeros(tree.num_vertices)
        roots = tree.sweep_up((ids, own), lift, out=out)
        return out, roots

    got = sweep()
    once = most * (most + 1) // 2 <= tree.num_vertices - mid
    assert once == (most <= 12)
    assert seen[0] == (1 if once else tree.num_vertices - mid)
    with dense_sweep():
        want = sweep()
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("others", [65, 66])
def test_uniform_bottom_table_is_no_larger_than_the_bottom(others):
    # one root of 12 children beside ``others`` roots of one: the table's
    # 78 sums fit a bottom of 78 vertices, not one of 77
    tree = forest([12] + [1] * others)
    bottom = bottom_slice(tree)
    ids = np.arange(bottom.start, tree.num_vertices)
    seen = []

    def lift(child):
        seen.append(len(child))
        return child * 0.75

    def sweep():
        return tree.sweep_up((ids, np.full(len(ids), 0.1)), lift)

    got = sweep()
    assert seen == [1 if 12 + others >= 78 else 12 + others]
    with dense_sweep():
        assert got.tobytes() == sweep().tobytes()


def test_bottom_of_zeros_of_both_signs_is_lifted_vertex_by_vertex():
    # 0.0 == -0.0, but a lone child's -0.0 keeps its sign in its parent's sum
    tree = forest([1] * 10, [1] * 10)
    bottom = np.arange(int(tree.gen_offsets[2]), tree.num_vertices)
    own = np.zeros(len(bottom))
    own[3] = -0.0
    out = np.zeros(tree.num_vertices)
    tree.sweep_up((bottom, own), lambda child: child * 2.0, out=out)
    assert not out.any()
    assert [math.copysign(1.0, x) for x in out[10:20]] == [1.0] * 3 + [-1.0] + [1.0] * 6


def test_plain_sum_of_three_live_children_differs_from_the_dense_sum():
    # the reason the sweep sums such parents over their whole segment
    a, b, c = 0.1, 0.2, 0.3
    tree = Tree.from_offspring_counts([np.array([3] + [1] * 7)])
    leaves = np.zeros(10)
    leaves[:3] = a, b, c
    got = tree.sweep_up(bottom_seeds(tree, leaves), lambda child: child)
    assert got[0] == a + (b + c) != (a + b) + c


def test_sweep_lifts_only_live_children_until_half_are_live():
    # one marked leaf under a deep path among many unmarked ones: every step
    # lifts at most the one live child
    others = 50
    counts = [np.ones(others + 1, dtype=np.int64)] * 4
    tree = Tree.from_offspring_counts(counts)
    leaves = np.zeros(others + 1)
    leaves[-1] = 1.0
    seen = []

    def lift(child):
        seen.append(len(child))
        return child

    values = np.zeros(tree.num_vertices)
    roots = tree.sweep_up(bottom_seeds(tree, leaves), lift, out=values)
    assert seen == [1] * 4
    assert values[others] == 1.0 and values[:others].sum() == 0.0
    assert roots.tobytes() == values[:others + 1].tobytes()
    # a generation at least half live goes dense, and so does every one
    # above; a bottom of ones throughout is lifted as one value
    seen.clear()
    tree.sweep_up(bottom_seeds(tree, np.ones(others + 1)), lift)
    assert seen == [1] + [others + 1] * 3
