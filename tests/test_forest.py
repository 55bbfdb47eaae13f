"""Forests: several trees in one breadth-first arena, swept together.

The arena builder and the samplers are checked against the per-generation
loops they replaced; the recursions are checked tree by tree against the
same trees swept alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwising import (OffspringPmf, Tree, capacity_recursion, lyons_field,
                     sample_gw, sample_inhomogeneous_bp)
from gwising.validate import random_small_tree

HALF123 = OffspringPmf.from_dict({1: 0.4, 2: 0.4, 3: 0.2})
# a top degree past one byte
WIDE = OffspringPmf.from_dict({1: 0.9, 300: 0.1})


def reference_arena(counts_per_gen):
    """The per-generation loop that built arenas before, for any root count:
    (parent, gen_offsets, num_children)."""
    counts = [np.asarray(c, dtype=np.int64) for c in counts_per_gen]
    sizes = [len(counts[0])]
    kept = []
    for c in counts:
        nxt = int(c.sum())
        if nxt == 0:
            break
        kept.append(c)
        sizes.append(nxt)
    num_children = np.concatenate(kept + [np.zeros(sizes[-1], dtype=np.int64)])
    gen_offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(gen_offsets[-1])
    parent = np.full(total, -1, dtype=np.int64)
    for k in range(len(sizes) - 1):
        lo, hi = gen_offsets[k], gen_offsets[k + 1]
        c = num_children[lo:hi]
        parent[gen_offsets[k + 1]:gen_offsets[k + 2]] = np.repeat(np.arange(lo, hi), c)
    return parent, gen_offsets, num_children


def reference_counts(pmfs, rng):
    """The one-root sampling loop: one sample_many per generation, stopping
    when a generation dies out."""
    counts, size = [], 1
    for pmf in pmfs:
        c = pmf.sample_many(rng, size)
        counts.append(c)
        size = int(c.sum())
        if size == 0:
            break
    return counts or [np.zeros(1, dtype=np.int64)]


def assert_arena(tree, arena):
    for got, want in zip((tree.parent, tree.gen_offsets, tree.num_children), arena):
        np.testing.assert_array_equal(got, want)


def forest_of(trees):
    """The trees as one forest, and each tree's vertex ids in the forest.

    Tree i's generation k sits in forest generation k after generation k of
    the trees before it."""
    depth = max(t.n for t in trees)
    empty = np.zeros(0, dtype=np.int64)
    forest = Tree.from_offspring_counts(
        [np.concatenate([t.offspring_of_generation(k) if k <= t.n else empty
                         for t in trees]) for k in range(depth + 1)])
    ids, before = [], np.zeros(depth + 1, dtype=np.int64)
    for t in trees:
        ids.append(np.concatenate([forest.gen_offsets[k] + before[k]
                                   + np.arange(t.generation_size(k))
                                   for k in range(t.n + 1)]))
        before[: t.n + 1] += t.generation_sizes()
    return forest, ids


@settings(max_examples=80, deadline=None)
@given(data=st.data(), roots=st.integers(1, 5), depth=st.integers(0, 5))
def test_arena_builder_matches_per_generation_loop(data, roots, depth):
    counts = [np.array(data.draw(st.lists(st.integers(0, 3), min_size=roots,
                                          max_size=roots)), dtype=np.int64)]
    for _ in range(depth):
        size = int(counts[-1].sum())
        counts.append(np.array(data.draw(st.lists(st.integers(0, 3), min_size=size,
                                                  max_size=size)), dtype=np.int64))
    tree = Tree.from_offspring_counts(counts)
    assert_arena(tree, reference_arena(counts))
    assert tree.num_roots == roots


def test_arena_builder_rejects_bad_counts():
    with pytest.raises(ValueError):
        Tree.from_offspring_counts([np.zeros(0, dtype=np.int64)])
    with pytest.raises(ValueError):
        Tree.from_offspring_counts([np.array([2]), np.array([1])])
    with pytest.raises(ValueError):
        Tree.from_offspring_counts([np.array([1, -1])])
    # the generation sums to 0, but the negative count is not a dead line
    with pytest.raises(ValueError):
        Tree.from_offspring_counts([np.array([2]), np.array([1, -1])])


def test_counts_narrow_to_one_byte_below_256_after_the_sign_check():
    assert Tree.from_offspring_counts([np.array([255])]).num_children.dtype == np.uint8
    assert Tree.from_offspring_counts([np.array([256])]).num_children.dtype == np.int64
    # as one byte, -1 would read 255
    for counts in ([np.array([-1])], [np.array([1]), np.array([-1])],
                   [np.array([1, 0]), np.array([-1])]):
        with pytest.raises(ValueError, match="negative child count"):
            Tree.from_offspring_counts(counts)


def test_sampled_counts_are_one_byte_unless_a_law_reaches_256(rng):
    assert sample_gw(HALF123, 4, rng, roots=3).num_children.dtype == np.uint8
    assert sample_inhomogeneous_bp([], rng, roots=3).num_children.dtype == np.uint8
    assert sample_gw(WIDE, 2, rng, roots=3).num_children.dtype == np.int64
    mixed = sample_inhomogeneous_bp([HALF123, WIDE, HALF123], rng, roots=3)
    assert mixed.num_children.dtype == np.int64


def test_sampler_of_no_generations_gives_the_roots_alone(rng):
    forest = sample_inhomogeneous_bp([], rng, roots=3)
    assert forest.n == 0 and forest.num_vertices == 3
    assert forest.num_children.tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="at least one root"):
        sample_inhomogeneous_bp([HALF123], rng, roots=0)


def test_one_root_samplers_reproduce_the_per_generation_loop():
    dying = OffspringPmf.from_dict({0: 0.35, 1: 0.3, 2: 0.35})
    for seed in range(25):
        for sample, laws in ((lambda rng: sample_gw(HALF123, 6, rng), [HALF123] * 6),
                             (lambda rng: sample_inhomogeneous_bp([dying] * 8, rng),
                              [dying] * 8)):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_arena(sample(rng), reference_arena(reference_counts(laws, ref_rng)))
            assert rng.random() == ref_rng.random()  # draw for draw


def test_forest_sampler_layout(rng):
    forest = sample_gw(HALF123, 4, rng, roots=7)
    assert forest.num_roots == 7 and forest.n == 4
    assert np.all(forest.parent[:7] == -1) and np.all(forest.parent[7:] >= 0)
    assert forest.leaves_only_at_bottom


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_trees=st.integers(1, 6),
       same_depth=st.booleans(), with_lone_roots=st.booleans(),
       beta=st.floats(0.05, 2.0), p=st.sampled_from([1.5, 2.0, 3.0]))
def test_forest_sweeps_equal_per_tree_sweeps(seed, num_trees, same_depth,
                                             with_lone_roots, beta, p):
    rng = np.random.default_rng(seed)
    if same_depth:
        depth = int(rng.integers(1, 5))
        trees = [sample_gw(HALF123, depth, rng) for _ in range(num_trees)]
    else:
        trees = [random_small_tree(rng, max_vertices=30) for _ in range(num_trees)]
    if with_lone_roots:  # a forest may hold depth-0 trees among deeper ones
        for _ in range(2):
            trees.insert(int(rng.integers(0, len(trees) + 1)),
                         Tree.from_offspring_counts([np.zeros(1, dtype=np.int64)]))
    forest, ids = forest_of(trees)
    fields = [(rng.random(t.num_vertices) < 0.4).astype(np.uint8) for t in trees]
    h = np.zeros(forest.num_vertices, dtype=np.uint8)
    for bits, where in zip(fields, ids):
        h[where] = bits
    base = float(rng.uniform(0.5, 1.5))

    r_forest = lyons_field(forest, h, beta)
    phi_forest = capacity_recursion(forest, base, p)
    got_r, want_r, got_phi, want_phi = [], [], [], []
    for t, bits, where in zip(trees, fields, ids):
        got_r.append(r_forest[where])
        want_r.append(lyons_field(t, bits, beta))
        got_phi.append(phi_forest[where])
        want_phi.append(capacity_recursion(t, base, p))
    got = np.concatenate(got_r + got_phi)
    want = np.concatenate(want_r + want_phi)
    np.testing.assert_array_equal(got, want)

