import warnings

import numpy as np
import pytest
from scipy import stats

from gwising import (FieldMode, Tree, gamma_profile, lyons_field,
                     plus_boundary_field, prune, sample_field, sample_gw,
                     survival)
from gwising.fields import GAP_CHUNK, _gap_ids, to_dot
from gwising.validate import gibbs_bruteforce


def binary_tree(depth):
    return Tree.from_offspring_counts(
        [np.full(2**k, 2, dtype=np.int64) for k in range(depth)])


def test_zero_probability_gives_zero_field(rng):
    t = binary_tree(3)
    for mode in (FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY):
        assert not sample_field(t, mode, 0.0, rng).any()


def test_leaves_only_support(rng):
    t = binary_tree(3)
    fld = sample_field(t, FieldMode.LEAVES_ONLY, 1.0, rng)
    depths = np.repeat(np.arange(t.n + 1), t.generation_sizes())
    assert np.all(fld[depths == 3] == 1)
    assert not fld[depths < 3].any()


class ZeroUniforms:
    """A stand-in stream whose uniforms are all 0."""

    def random(self, size):
        return np.zeros(size)


class NoStream:
    """A stand-in stream that must not be drawn from."""

    def random(self, size):
        raise AssertionError("the stream was drawn from")


@pytest.mark.parametrize("p", [1e-3, 0.018, 0.3, 0.5, 0.7, 0.97])
@pytest.mark.parametrize("mode", [FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY])
def test_mark_count_is_binomial(p, mode):
    # one draw over a star of 200,000 leaves: at p = 0.5 the gaps take two
    # chunks or more; the root is in the whole tree's set only
    t = Tree.from_offspring_counts([np.array([200_000])])
    size = t.num_vertices if mode is FieldMode.WHOLE_TREE else 200_000
    h = sample_field(t, mode, p, np.random.default_rng(31))
    assert h.dtype == np.uint8 and not h.flags.writeable
    assert set(np.unique(h).tolist()) <= {0, 1}
    if mode is FieldMode.LEAVES_ONLY:
        assert h[0] == 0
    assert abs(int(h.sum()) - size * p) < 5 * np.sqrt(size * p * (1 - p))


@pytest.mark.parametrize("p", [0.05, 0.3, 0.7])
def test_first_mark_is_geometric(p):
    # the first mark of a leaves-only field on 200 leaves, over 10,000 draws,
    # against P(first = k) = p (1 - p)^k; the last bin takes the rest
    t = Tree.from_offspring_counts([np.array([200])])
    rng = np.random.default_rng(37)
    draws = 10_000
    firsts = np.array([np.argmax(np.append(sample_field(t, FieldMode.LEAVES_ONLY, p, rng)[1:], 1))
                       for _ in range(draws)])
    probs = p * (1 - p) ** np.arange(200)
    bins = int(np.sum(draws * probs >= 5))
    observed = np.bincount(np.minimum(firsts, bins), minlength=bins + 1)
    expected = draws * np.append(probs[:bins], 1 - probs[:bins].sum())
    assert stats.chisquare(observed, expected).pvalue > 1e-3


@pytest.mark.parametrize("q", [1e-3, 0.3, 0.5])
def test_gap_ids_are_sorted_distinct_and_in_range(q):
    size = 300_000
    chunks = list(_gap_ids(np.random.default_rng(41), size, q))
    ids = np.concatenate(chunks)
    assert ids.dtype == np.int64
    assert np.all(np.diff(ids) > 0)
    assert ids.size == 0 or (ids[0] >= 0 and ids[-1] < size)
    if size * q > GAP_CHUNK:
        assert len(chunks) > 1
    # the field sets exactly these ids, or clears them on the complement
    # route, which p = 1/2 does not take
    t = Tree.from_offspring_counts([np.array([size - 1])])
    for p, rare in ((q, 1), (1 - q, 0))[:1 + (q < 0.5)]:
        h = sample_field(t, FieldMode.WHOLE_TREE, p, np.random.default_rng(41))
        assert np.array_equal(np.flatnonzero(h == rare), ids)


def test_zero_and_one_draw_nothing():
    t = binary_tree(3)
    for mode, size in ((FieldMode.WHOLE_TREE, 15), (FieldMode.LEAVES_ONLY, 8)):
        assert not sample_field(t, mode, 0.0, NoStream()).any()
        assert int(sample_field(t, mode, 1.0, NoStream()).sum()) == size


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1.0 - 2**-53])
def test_extreme_probabilities_draw_without_warnings(p):
    t = Tree.from_offspring_counts([np.array([1000])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode, size in ((FieldMode.WHOLE_TREE, 1001), (FieldMode.LEAVES_ONLY, 1000)):
            h = sample_field(t, mode, p, np.random.default_rng(43))
            assert int(h.sum()) == (size if p > 0.5 else 0)


def test_a_uniform_of_zero_marks_nothing():
    # U = 0 is an infinite gap, so no vertex is marked; a comparison u < p
    # would mark every vertex of the set
    t = binary_tree(3)
    for mode in (FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY):
        assert not sample_field(t, mode, 1e-300, ZeroUniforms()).any()


def test_plus_boundary_is_deterministic_ones_on_leaves():
    t = binary_tree(2)
    fld = plus_boundary_field(t)
    assert fld.tolist() == [0, 0, 0, 1, 1, 1, 1]
    assert fld.dtype == np.uint8 and not fld.flags.writeable


@pytest.mark.parametrize("counts", [
    [[2], [2, 2]],
    # childless vertices at depths 1 and 2 carry no bit
    [[3], [0, 2, 1], [1, 0, 2]],
])
def test_plus_boundary_is_the_leaves_only_field_at_p_one(counts):
    t = Tree.from_offspring_counts([np.array(c) for c in counts])
    want = sample_field(t, FieldMode.LEAVES_ONLY, 1.0, NoStream())
    got = plus_boundary_field(t)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def test_per_leaf_empirical_rate(rng):
    # fixed tree with 11 internal vertices over 100 leaves; each vertex the
    # mode covers (the leaves, or the whole tree) carries a Bernoulli(0.3)
    # bit, every other vertex 0
    t = Tree.from_offspring_counts([np.array([10]), np.full(10, 10)])
    reps = 10**5
    se = np.sqrt(0.3 * 0.7 / reps)
    for mode, first in ((FieldMode.LEAVES_ONLY, 11), (FieldMode.WHOLE_TREE, 0)):
        hits = np.zeros(t.num_vertices)
        for _ in range(reps):
            hits += sample_field(t, mode, 0.3, rng)
        rates = hits[first:] / reps
        assert not hits[:first].any()
        assert np.all(np.abs(rates - 0.3) < 4 * se)
        assert abs(rates.mean() - 0.3) < 3 * se / np.sqrt(rates.size)


def test_survival_examples():
    t = binary_tree(2)
    zero = np.zeros(7, dtype=np.uint8)
    assert not survival(t, zero).any()
    h = np.zeros(7, dtype=np.uint8)
    h[3] = 1  # first leaf of the left subtree
    y = survival(t, h)
    assert y.tolist() == [1, 1, 0, 1, 0, 0, 0]
    assert not y.flags.writeable


@pytest.mark.parametrize("width", [256, 300])
def test_survival_counts_past_a_byte(width):
    # the root's first child has ``width`` marked leaves, a count that wraps
    # in a byte at 256; its second child has one unmarked leaf
    t = Tree.from_offspring_counts([np.array([2]), np.array([width, 1])])
    h = np.zeros(t.num_vertices, dtype=np.uint8)
    h[3:3 + width] = 1
    y = survival(t, h)
    assert y.dtype == np.uint8 and not y.flags.writeable
    assert y[0] == y[1] == 1 and y[2] == 0
    assert set(np.unique(y).tolist()) == {0, 1}


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, bool, np.int64, np.float64])
def test_marks_are_the_same_whatever_the_field_dtype(rng, half13, dtype):
    # a one-byte field is scanned through a bool view, any other as it is;
    # a nonzero byte other than 1 is a mark in both
    t = sample_gw(half13, 6, rng)
    bits = sample_field(t, FieldMode.WHOLE_TREE, 0.3, rng)
    h = bits.astype(dtype)
    if np.dtype(dtype).itemsize == 1 and dtype is not bool:
        h[bits == 1] = rng.choice([1, 2, 127], size=int(bits.sum())).astype(dtype)
    assert np.array_equal(survival(t, h), survival(t, bits))
    assert np.array_equal(lyons_field(t, h, 0.7), lyons_field(t, bits, 0.7))


def test_survival_monotone_along_ancestry(rng, half13):
    t = sample_gw(half13, 5, rng)
    fld = sample_field(t, FieldMode.LEAVES_ONLY, 0.2, rng)
    y = survival(t, fld)
    assert np.all(y[1:] <= y[t.parent[1:]])


def test_prune_plus_boundary_is_identity():
    t = binary_tree(3)
    pruned, mapping = prune(t, plus_boundary_field(t))
    assert pruned == t
    assert mapping.tolist() == list(range(t.num_vertices))


def test_prune_all_zero_field_is_empty():
    t = binary_tree(3)
    zero = np.zeros(15, dtype=np.uint8)
    assert prune(t, zero) is None


def test_prune_single_marked_leaf_gives_path():
    t = binary_tree(2)
    h = np.zeros(7, dtype=np.uint8)
    h[3] = 1
    pruned, mapping = prune(t, h)
    assert pruned.generation_sizes().tolist() == [1, 1, 1]
    assert mapping[0] == 0 and mapping[1] == 1 and mapping[3] == 2
    assert mapping[2] == -1


def test_prune_rejects_whole_tree_fields(rng):
    t = binary_tree(2)
    fld = sample_field(t, FieldMode.WHOLE_TREE, 1.0, rng)
    with pytest.raises(ValueError):
        prune(t, fld)


def test_prune_rejects_a_mark_above_the_bottom():
    # root 0 over 1 and 2, leaf 3 under 1, leaf 4 under 2; vertex 1 and
    # leaf 3 marked.  Pruned by its leaf bits alone, the root ratio would
    # read 0.449 at beta 0.7, against the full recursion's 1.046.
    t = Tree.from_offspring_counts([np.array([2]), np.array([1, 1])])
    h = np.array([0, 1, 0, 1, 0], dtype=np.uint8)
    assert lyons_field(t, h, 0.7)[0] == pytest.approx(1.046077667173934)
    with pytest.raises(ValueError, match="above the bottom"):
        prune(t, h)


def test_whole_tree_draw_without_internal_marks_prunes_like_leaves_only(rng, half12):
    # prune reads the bits, not the mode they were drawn in: a whole-tree
    # draw that happens to mark no internal vertex prunes as the same bits
    # laid out as a leaves-only field, and one that marks an internal vertex
    # is refused
    p, kept = 0.3, 0
    for _ in range(40):
        t = sample_gw(half12, 4, rng)
        bottom = int(t.gen_offsets[t.n])
        while True:
            whole = sample_field(t, FieldMode.WHOLE_TREE, p, rng)
            if not whole[:bottom].any():
                break
            with pytest.raises(ValueError, match="above the bottom"):
                prune(t, whole)
        leaves = np.zeros(t.num_vertices, dtype=np.uint8)
        leaves[bottom:] = whole[bottom:]
        got, want = prune(t, whole), prune(t, leaves)
        if want is None:
            assert got is None
            continue
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        kept += 1
    assert kept > 0


# two trees with four leaves each, of 7 and 5 vertices: a field of one has
# the other's bottom-generation length, and not its vertex count
FIELD_CONSUMERS = {
    "lyons_field": lambda t, h: lyons_field(t, h, 0.7),
    "survival": survival,
    "prune": prune,
    "to_dot": to_dot,
    "gibbs_bruteforce": lambda t, h: gibbs_bruteforce(t, h, 0.7),
}


@pytest.mark.parametrize("consumer", sorted(FIELD_CONSUMERS))
def test_field_of_another_tree_is_refused(consumer):
    binary, star = binary_tree(2), Tree.from_offspring_counts([np.array([4])])
    for tree, other in ((binary, star), (star, binary)):
        bits = np.zeros(other.num_vertices, dtype=np.uint8)
        bits[other.gen_offsets[other.n]:] = 1
        with pytest.raises(ValueError, match="bits, the tree"):
            FIELD_CONSUMERS[consumer](tree, bits)


def test_prune_rejects_forests():
    # the only marked leaf sits under root 1, which root 0 cannot speak for
    t = Tree.from_offspring_counts([np.array([1, 1]), np.array([0, 0])])
    h = np.zeros(t.num_vertices, dtype=np.uint8)
    h[3] = 1
    with pytest.raises(ValueError, match="forest"):
        prune(t, h)


def test_pruned_vertex_set_matches_definitional_scan(rng, half12):
    # kept vertices = those with at least one marked bottom leaf below
    for _ in range(30):
        t = sample_gw(half12, 5, rng)
        fld = sample_field(t, FieldMode.LEAVES_ONLY, 0.3, rng)
        marked = np.zeros(t.num_vertices, dtype=np.int64)
        bottom = slice(int(t.gen_offsets[t.n]), int(t.gen_offsets[t.n + 1]))
        marked[bottom] = fld[bottom]
        counts = np.zeros(t.num_vertices, dtype=np.int64)
        counts[bottom] = marked[bottom]
        for v in range(int(t.gen_offsets[t.n]) - 1, -1, -1):
            counts[v] = counts[t.parent == v].sum() if t.num_children[v] else marked[v]
        outcome = prune(t, fld)
        keep = counts > 0
        if outcome is None:
            assert not keep[0]
            continue
        _, mapping = outcome
        assert np.array_equal(mapping >= 0, keep)


def test_prune_idempotent(rng, half12):
    for _ in range(20):
        t = sample_gw(half12, 4, rng)
        fld = sample_field(t, FieldMode.LEAVES_ONLY, 0.4, rng)
        outcome = prune(t, fld)
        if outcome is None:
            continue
        pruned, _ = outcome
        again, mapping = prune(pruned, plus_boundary_field(pruned))
        assert again == pruned
        assert np.array_equal(mapping, np.arange(pruned.num_vertices))


def test_prune_monotone_in_field(rng, half12):
    for _ in range(20):
        t = sample_gw(half12, 4, rng)
        fld = sample_field(t, FieldMode.LEAVES_ONLY, 0.3, rng)
        h2 = fld.copy()
        leaves = np.arange(t.gen_offsets[t.n], t.gen_offsets[t.n + 1])
        h2[int(rng.choice(leaves))] = 1
        kept1 = survival(t, fld).astype(bool)
        kept2 = survival(t, h2).astype(bool)
        assert np.all(kept2 | ~kept1)


def test_empty_rate_matches_gamma0(rng, half12):
    reps, n, p = 4000, 4, 0.2
    gamma0 = gamma_profile(half12, p, n).gamma[0]
    empties = 0
    for _ in range(reps):
        t = sample_gw(half12, n, rng)
        if prune(t, sample_field(t, FieldMode.LEAVES_ONLY, p, rng)) is None:
            empties += 1
    se = np.sqrt(gamma0 * (1 - gamma0) / reps)
    assert abs(empties / reps - gamma0) < 3 * se


def test_dot_overlay_marks_fields_and_branches(rng):
    t = binary_tree(2)
    h = np.zeros(7, dtype=np.uint8)
    h[3] = 1
    dot = to_dot(t, h, survival(t, h))
    assert dot.startswith("digraph tree {")
    assert "doublecircle" in dot
    assert "color=red, style=dashed" in dot
    assert dot.count("->") == 6


def test_dot_refuses_survival_bits_of_another_size():
    t = binary_tree(2)
    for length in (20, 3):
        with pytest.raises(ValueError, match="bits, the tree"):
            to_dot(t, None, np.ones(length, dtype=bool))
