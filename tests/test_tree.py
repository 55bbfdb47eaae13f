import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwising import OffspringPmf, PopulationCapError, Tree, sample_gw, sample_inhomogeneous_bp
from gwising.distributions import PmfError
from gwising.tree import GATHER_MIN_PARENTS, _generation_size, _sparse_sums, segment_sums
from gwising.validate import (ExplosionGuardError, count_trees, enumerate_trees,
                              gw_probability, leaf_counts)


def binary_tree(depth):
    return Tree.from_offspring_counts(
        [np.full(2**k, 2, dtype=np.int64) for k in range(depth)])


def test_segment_sums_handles_zero_segments():
    values = np.array([1.0, 2.0, 3.0])
    counts = np.array([2, 0, 1])
    assert segment_sums(values, counts).tolist() == [3.0, 0.0, 3.0]
    assert segment_sums(np.array([1.0, 1.0]), np.array([1, 1])).tolist() == [1.0, 1.0]
    assert segment_sums(np.zeros(0), np.zeros(0, dtype=int)).size == 0
    # values left over past the last segment, or missing from it, are refused
    with pytest.raises(ValueError, match="sum to 2, not to the 3 values"):
        segment_sums(np.array([1.0, 2.0, 3.0]), np.array([1, 1]))
    with pytest.raises(ValueError, match="sum to 1, not to the 2 values"):
        segment_sums(np.array([1.0, 2.0]), np.array([0, 1]))
    with pytest.raises(ValueError, match=f"sum to {GATHER_MIN_PARENTS}, not"):
        segment_sums(np.ones(GATHER_MIN_PARENTS + 1), np.ones(GATHER_MIN_PARENTS, dtype=int))


@settings(max_examples=100, deadline=None)
@given(head=st.lists(st.integers(0, 6), max_size=8),
       tail=st.lists(st.integers(0, 6), max_size=8), seed=st.integers(0, 2**32 - 1))
def test_segment_sums_equal_each_segment_summed_alone(head, tail, seed):
    # empty segments first, in the middle and last
    counts = np.array([0, *head, 0, *tail, 0], dtype=np.int64)
    rng = np.random.default_rng(seed)
    size = int(counts.sum())
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size=size)
    ends = np.cumsum(counts)
    want = [np.add.reduceat(values[end - c:end], [0])[0] if c else 0.0
            for c, end in zip(counts, ends)]
    np.testing.assert_array_equal(segment_sums(values, counts), want)


def _spread(rng, size, dtype):
    """Values over many binades with both signs and some -0.0, or int64s of
    any size."""
    if dtype == np.int64:
        return rng.integers(-2**62, 2**62, size=size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 31, size=size)
    values[rng.random(size) < 0.05] = -0.0
    return values


@settings(max_examples=30, deadline=None)
@given(extra=st.integers(0, 3000), kind=st.sampled_from(["random", "ones", "twos"]),
       dtype=st.sampled_from([np.float64, np.int64]), seed=st.integers(0, 2**32 - 1))
def test_segment_sums_by_gathers_equal_reduceat(extra, kind, dtype, seed):
    # at and above GATHER_MIN_PARENTS segments of one or two values the
    # gathers give np.add.reduceat's bits; one segment fewer, reduceat runs
    rng = np.random.default_rng(seed)
    for parents in (GATHER_MIN_PARENTS + extra, GATHER_MIN_PARENTS - 1):
        counts = {"random": rng.integers(1, 3, size=parents),
                  "ones": np.ones(parents, dtype=np.int64),
                  "twos": np.full(parents, 2, dtype=np.int64)}[kind]
        ends = np.cumsum(counts)
        values = _spread(rng, int(ends[-1]), dtype)
        got = segment_sums(values, counts)
        assert got.dtype == values.dtype
        assert got.tobytes() == np.add.reduceat(values, ends - counts).tobytes()
        assert not np.shares_memory(got, values)


def _one_or_two_counts(rng, parents, twos):
    """One or two per parent, ``twos`` of them two: the first and the last
    parent, and others at random."""
    counts = np.ones(parents, dtype=np.int64)
    counts[[0, -1]] = 2
    counts[1 + rng.choice(parents - 2, size=twos - 2, replace=False)] = 2
    return counts


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
@pytest.mark.parametrize("parents", [GATHER_MIN_PARENTS - 1, GATHER_MIN_PARENTS,
                                     GATHER_MIN_PARENTS + 1, 8 * GATHER_MIN_PARENTS + 3])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_segment_sums_by_compress_equal_reduceat(parents, shift, dtype):
    # one two-child parent fewer than an eighth, an eighth, and one more:
    # the first values by a boolean compress, then by a gather
    rng = np.random.default_rng([parents, shift + 1])
    counts = _one_or_two_counts(rng, parents, parents // 8 + shift)
    ends = np.cumsum(counts)
    values = _spread(rng, int(ends[-1]), dtype)
    got = segment_sums(values, counts)
    assert got.dtype == values.dtype
    assert got.tobytes() == np.add.reduceat(values, ends - counts).tobytes()
    assert not np.shares_memory(got, values)


@pytest.mark.parametrize("parents", [GATHER_MIN_PARENTS - 1, GATHER_MIN_PARENTS])
@pytest.mark.parametrize("kind", ["one or two", "a childless parent", "a parent of three"])
def test_sparse_parents_equal_the_prefix_sum_search(parents, kind):
    # at GATHER_MIN_PARENTS parents of one or two children each the parents
    # are found among the second children, one fewer by the prefix sum
    rng = np.random.default_rng(parents)
    counts = _one_or_two_counts(rng, parents, parents // 3)
    if kind != "one or two":
        counts[[5, 9]] = (0, 2) if kind == "a childless parent" else (3, 1)
    lo, mid = 40, 40 + parents
    hi = mid + int(counts.sum())
    # a twentieth of the children live, both of the first parent's among them
    at = np.union1d(rng.choice(np.arange(mid, hi), size=(hi - mid) // 20, replace=False),
                    [mid, mid + 1])
    values = rng.random(len(at))
    ids, sums = _sparse_sums(at, values, lambda child: child * 1.0, counts, lo, mid, hi)
    parent = np.cumsum(counts).searchsorted(at - mid, side="right")
    first = np.flatnonzero(np.diff(parent, prepend=-1))
    assert ids.tolist() == (parent[first] + lo).tolist()
    assert sums.tobytes() == np.add.reduceat(values, first).tobytes()
    assert len(first) < len(at)


def test_arena_layout():
    t = Tree.from_offspring_counts([np.array([2]), np.array([1, 3])])
    assert t.n == 2
    assert t.num_vertices == 7
    assert t.generation_sizes().tolist() == [1, 2, 4]
    assert t.parent.tolist() == [-1, 0, 0, 1, 2, 2, 2]
    assert t.leaves_only_at_bottom


def test_sample_gw_dirac1_gives_path(rng):
    t = sample_gw(OffspringPmf.dirac(1), 5, rng)
    assert t.num_vertices == 6
    assert t.generation_sizes().tolist() == [1] * 6


def test_sample_gw_dirac2_gives_complete_binary(rng):
    t = sample_gw(OffspringPmf.dirac(2), 3, rng)
    assert t.num_vertices == 15
    assert t == binary_tree(3)


def test_sample_gw_rejects_extinction_mass(rng):
    with pytest.raises(PmfError):
        sample_gw(OffspringPmf.from_dict({0: 0.5, 2: 0.5}), 3, rng)


def test_sample_gw_rejects_a_negative_depth(rng):
    with pytest.raises(ValueError, match="depth n must be nonnegative, got -2"):
        sample_gw(OffspringPmf.from_dict({1: 0.5, 2: 0.5}), -2, rng)


def test_sample_gw_population_cap(rng):
    with pytest.raises(PopulationCapError) as info:
        sample_gw(OffspringPmf.dirac(3), 20, rng, max_vertices=1000)
    assert info.value.partial_sizes[0] == 1
    assert sum(info.value.partial_sizes) > 1000


def test_generation_growth_martingale(rng, half13):
    # E|t_k| = nu^k: the normalized sizes have mean one at every level.
    reps, n = 10**4, 10
    nu = half13.mean()
    sizes = np.empty((reps, n + 1))
    for i in range(reps):
        sizes[i] = sample_gw(half13, n, rng).generation_sizes()
    norm = sizes / nu ** np.arange(n + 1)
    for k in range(1, n + 1):
        se = norm[:, k].std(ddof=1) / np.sqrt(reps)
        assert abs(norm[:, k].mean() - 1.0) < 3 * se


def test_sample_inhomogeneous_examples(rng):
    pmfs = [OffspringPmf.dirac(2), OffspringPmf.dirac(1), OffspringPmf.dirac(1)]
    t = sample_inhomogeneous_bp(pmfs, rng)
    assert t.num_vertices == 7
    assert t.generation_sizes().tolist() == [1, 2, 2, 2]
    path = sample_inhomogeneous_bp([OffspringPmf.dirac(1)] * 4, rng)
    assert path.generation_sizes().tolist() == [1] * 5


def test_sample_inhomogeneous_dies_early(rng):
    pmfs = [OffspringPmf.dirac(2), OffspringPmf.from_dict({0: 1.0})]
    t = sample_inhomogeneous_bp(pmfs, rng)
    assert t.n == 1
    assert t.num_vertices == 3


@pytest.mark.parametrize("extra", [0, 1])
def test_generation_size_is_exact_at_the_uint32_wrap(extra):
    # 16,843,009 one-byte counts of 255 sum to 2^32 - 1, the largest uint32;
    # one more count passes it, where a uint32 sum wraps
    counts = np.full((2**32 - 1) // 255 + extra, 255, dtype=np.uint8)
    assert _generation_size(counts, 255) == 255 * len(counts)
    assert (int(counts.sum(dtype=np.uint32)) == 255 * len(counts)) == (extra == 0)


def test_leaves_under_examples():
    t = binary_tree(3)
    assert leaf_counts(t)[0] == 8
    assert leaf_counts(t)[t.num_vertices - 1] == 1
    path = Tree.from_offspring_counts([np.array([1]), np.array([1])])
    assert leaf_counts(path)[0] == 1


def test_leaf_counts_conservation(rng, half13):
    t = sample_gw(half13, 6, rng)
    counts = leaf_counts(t)
    for v in range(t.num_vertices):
        kids = np.flatnonzero(t.parent == v)
        if len(kids):
            assert counts[v] == counts[kids].sum()


def test_enumerate_depth1():
    pmf = OffspringPmf.from_dict({1: 0.3, 2: 0.7})
    items = list(enumerate_trees(pmf, 1))
    assert len(items) == 2
    probs = sorted(p for _, p in items)
    assert probs == pytest.approx([0.3, 0.7])


def test_enumerate_probabilities_sum_to_one(half12):
    items = list(enumerate_trees(half12, 2))
    assert len(items) == 6
    assert sum(p for _, p in items) == pytest.approx(1.0, abs=1e-12)
    items3 = list(enumerate_trees(half12, 3))
    assert sum(p for _, p in items3) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_dirac2_single_tree():
    items = list(enumerate_trees(OffspringPmf.dirac(2), 2))
    assert len(items) == 1
    tree, prob = items[0]
    assert prob == 1.0
    assert tree == binary_tree(2)


def test_enumeration_guard():
    pmf = OffspringPmf.from_dict({1: 0.25, 2: 0.25, 3: 0.5})
    assert count_trees(pmf, 2) == 3 + 9 + 27
    with pytest.raises(ExplosionGuardError):
        list(enumerate_trees(pmf, 9))


def test_gw_probability_matches_mass_product(half12):
    t = Tree.from_offspring_counts([np.array([2]), np.array([1, 2])])
    assert gw_probability(t, half12) == pytest.approx(0.5**3)


def test_deep_recursions_have_no_stack_limit():
    # generation sweeps, not call recursion: depth 10^4 works
    import gwising
    deep = path_depth = 10**4
    path = Tree.from_offspring_counts([np.ones(1, dtype=np.int64)] * deep)
    assert path.n == path_depth
    assert leaf_counts(path)[0] == 1
    r = gwising.lyons_plus(path, 0.9)
    assert np.isfinite(r[0]) and r[0] > 0
    assert gwising.capacity_recursion(path, 1.0, 2.0)[0] == pytest.approx(1.0 / deep)
