"""Rooted trees in a flat breadth-first arena, plus branching-process samplers.

Vertices are integer ids in breadth-first order, so each generation occupies a
contiguous slice.  Children of consecutive vertices are themselves
consecutive, so per-parent aggregation reduces to segment sums, and every
leaf-to-root recursion in the package is one call of ``Tree.sweep_up``: a
linear sweep over generation slices (no call stack, depths up to 10^4 are
fine).  A sampler draws a tree, or a forest of independent trees, from one
stream into one arena, one generation at a time; the population cap bounds
that whole arena.

The sweep keeps only the generation in hand, and skips the children that
hold exactly 0 while fewer than half of their generation hold anything else:
it then carries the live vertices' ids and values alone, with the dense
sweep's result bit for bit.  A vertex's value is the sum of ``lift`` over
its children's values plus its own seed value, which is 0 unless the caller
seeds it; that asks one thing of every caller, ``lift(0) == 0``.  It returns
the root values, and writes every vertex's value into an arena-sized array
only when the caller passes one.  With a sparse field most ratios are 0
(r(u) != 0 exactly when a field-carrying vertex sits below u), so a scan
that reads the roots alone lifts and sums mostly on the vertices of the
pruned tree, and never builds a float array over the arena.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import OffspringPmf, PmfError, _setstate_frozen

DEFAULT_POPULATION_CAP = 10**8
# in a generation of at least this many parents, each with one or two
# children, segment_sums sums by gathers and a sparse step finds the parents
# among the second children alone; below it one np.add.reduceat call, or one
# prefix sum of the counts, is cheaper
GATHER_MIN_PARENTS = 2048


class PopulationCapError(RuntimeError):
    """Sampling a branching process exceeded the vertex cap.

    Aborting (rather than truncating) keeps the sampled law intact; the
    partial per-generation sizes are attached for the error report.
    """

    def __init__(self, cap: int, partial_sizes: list[int]):
        super().__init__(
            f"population cap {cap} exceeded after generations of sizes {partial_sizes}"
        )
        self.cap = cap
        self.partial_sizes = partial_sizes


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum ``values`` over consecutive segments of the given lengths, which
    must sum to ``len(values)``; always a new array.

    ``np.add.reduceat`` starts a segment from its first value and adds to it
    the sum of the rest, which numpy forms pairwise; only for one or two
    values is that the sum in order.  At least ``GATHER_MIN_PARENTS``
    segments, each of one or two values, are summed without it: each
    segment's first value, plus its second where it has one, the same
    addition, so the bits match.  The first values are taken by one boolean
    compress when at most an eighth of the segments have two, else by a
    gather: the compress is the faster up to an eighth and the gather from
    a half on, at 2,048 to 80,000 segments.  Every other call (fewer segments, where its one call is
    cheaper, or an empty segment, or one of three or more) is one
    ``np.add.reduceat`` over the nonempty segments, with zeros written for
    the empty ones (plain ``reduceat`` gets those wrong).  The sum of a
    segment therefore depends on its own values alone, not on where it sits.
    """
    values = np.asarray(values)
    counts = np.asarray(counts)
    if len(counts) >= GATHER_MIN_PARENTS and counts.min() >= 1:
        pairs = _one_or_two(counts, len(values))
        if pairs is not None:
            two, second = pairs
            if 8 * len(two) <= len(counts):
                first = np.ones(len(values), dtype=bool)
                first[second] = False
                out = values[first]
            else:
                # in place: from about 20,000 parents on, one more array
                # alive during the gathers made every call fault in about a
                # hundred pages
                starts = np.cumsum(counts, dtype=np.int64)
                starts -= counts
                out = values[starts]
            out[two] += values[second]
            return out
    starts = np.cumsum(counts, dtype=np.int64)
    total = int(starts[-1]) if len(starts) else 0
    if total != len(values):
        raise ValueError(
            f"segment lengths sum to {total}, not to the {len(values)} values")
    starts -= counts
    nonempty = counts > 0
    if nonempty.all():  # the same sums, without the masking copies
        return np.add.reduceat(values, starts)
    out = np.zeros(len(counts), dtype=values.dtype)
    if values.size:
        out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


def _one_or_two(counts: np.ndarray, children: int):
    """When each of ``counts`` is 1 or 2 and they sum to ``children``, the
    offsets of the two-child parents and of their second children, else
    None; ``counts`` must be positive, or nonnegative and sum to
    ``children``.  The i-th two-child parent j has its first child at j + i
    and its second at j + i + 1, so neither needs a prefix sum."""
    if counts.max() > 2:
        return None
    two = np.flatnonzero(counts == 2)
    if len(counts) + len(two) != children:  # some parent has no child
        return None
    second = np.arange(1, len(two) + 1)
    second += two
    return two, second


def _whole(at, values, lo, hi) -> np.ndarray:
    """The values of the generation ``lo..hi``, given those at ``at``: a
    slice over it, or sorted ids with 0 at every other vertex."""
    if isinstance(at, slice) or len(at) == hi - lo:
        return values
    whole = np.zeros(hi - lo, dtype=values.dtype)
    whole[at - lo] = values
    return whole


def _merge_seeded(at, sums, seeded):
    """Sorted ids ``at`` with their sums, joined by the ``seeded`` ids among
    them and beside them; a seeded vertex without a live child gets a zero
    sum."""
    merged = np.union1d(at, seeded)
    if len(merged) == len(at):
        return at, sums
    full = np.zeros(len(merged), dtype=sums.dtype)
    full[merged.searchsorted(at)] = sums
    return merged, full


def _sparse_sums(at, values, lift, counts, lo, mid, hi):
    """The parents (sorted ids) of the live children ``at`` of generation
    ``mid..hi``, which hold ``values``, and their child sums; ``counts`` are
    the child counts of the parents' generation ``lo..mid``."""
    if not len(at):
        return at, values
    lifted = lift(values)
    rel = at - mid
    if 10 * len(at) > hi - mid:  # above a tenth live, a parent map beats the search
        parent = np.repeat(np.arange(mid - lo), counts)[rel]
    elif mid - lo >= GATHER_MIN_PARENTS and (pairs := _one_or_two(counts, hi - mid)):
        # a child's parent is its offset less the second children up to it
        parent = rel - pairs[1].searchsorted(rel, side="right")
    else:
        parent = np.cumsum(counts, dtype=np.int64).searchsorted(rel, side="right")
    first = np.flatnonzero(np.concatenate(([True], parent[1:] != parent[:-1])))
    sums = np.add.reduceat(lifted, first)
    if (parent[2:] == parent[:-2]).any():
        # three or more live children: the dense step's sum needs the
        # zeros in their places, so their whole segments are summed
        ends = np.cumsum(counts, dtype=np.int64)
        runs = np.diff(np.append(first, len(at)))
        wide = runs > 2
        j = parent[first[wide]]
        seg = counts[j]
        segment = np.zeros(int(seg.sum()), dtype=lifted.dtype)
        # a child's place in ``segment``: its segment's place there plus
        # its offset from its parent's first child
        shift = np.repeat(np.cumsum(seg, dtype=np.int64) - ends[j], runs[wide])
        member = np.repeat(wide, runs)
        segment[rel[member] + shift] = lifted[member]
        sums[wide] = segment_sums(segment, seg)
    return parent[first] + lo, sums


def _uniform_sums(values, lift, counts, mid, hi):
    """The child sums of the parents, with child counts ``counts``, of a
    whole generation ``mid..hi`` that holds one nonzero value everywhere,
    given as ``values``, by a table of the sums of 0..d copies of its lift,
    d the most children of a parent; None for any other generation, or when
    the table's d(d + 1) / 2 values outnumber the generation."""
    # a nonzero value equal to another has its bits, where 0.0 == -0.0
    if not 0 < len(values) == hi - mid or not values[0] or (values != values[0]).any():
        return None
    most = int(counts.max())
    size = most * (most + 1) // 2
    if size > hi - mid:
        return None
    lifted = lift(values[:1])
    # by segment_sums itself: reduceat sums three or more values pairwise
    table = segment_sums(np.repeat(lifted, size), np.arange(most + 1))
    return table[counts]


@dataclass(frozen=True, eq=False)
class Tree:
    """Immutable rooted tree (or forest) of depth ``n`` stored breadth-first.

    ``gen_offsets[k]`` is the first id of generation k (length n+2, last
    entry = vertex count) and ``num_children[v]`` the child count of v; the
    children of consecutive vertices are consecutive ids.  ``num_children``
    is ``uint8`` when every count is below 256, else int64; every prefix sum
    of it is taken with ``dtype=np.int64``, as numpy would take a ``uint8``
    one in ``uint64``, which mixed with int64 gives float64.  ``parent[v]`` is
    v's parent id (-1 for a root), derived on first use, since the
    leaf-to-root sweeps need only the generation slices and the child
    counts.  A forest holds its roots as generation 0; every sweep then runs
    over all of its trees at once, one generation slice at a time, and
    returns the root values.
    """

    gen_offsets: np.ndarray
    num_children: np.ndarray
    __setstate__ = _setstate_frozen

    def __post_init__(self):
        for arr in (self.gen_offsets, self.num_children):
            arr.setflags(write=False)

    @cached_property
    def parent(self) -> np.ndarray:
        parent = np.concatenate([
            np.full(self.num_roots, -1, dtype=np.int64),
            np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.num_children)])
        parent.setflags(write=False)
        return parent

    @property
    def n(self) -> int:
        """Depth: the largest generation index."""
        return len(self.gen_offsets) - 2

    @property
    def num_vertices(self) -> int:
        return int(self.gen_offsets[-1])

    @property
    def num_roots(self) -> int:
        return int(self.gen_offsets[1])

    def generation_size(self, k: int) -> int:
        return int(self.gen_offsets[k + 1] - self.gen_offsets[k])

    def generation_sizes(self) -> np.ndarray:
        return np.diff(self.gen_offsets)

    def offspring_of_generation(self, k: int) -> np.ndarray:
        """Child counts of generation-k vertices, in arena order."""
        return self.num_children[self.gen_offsets[k]:self.gen_offsets[k + 1]]

    def sweep_up(self, seeds, lift, out=None) -> np.ndarray:
        """The leaf-to-root sweep: one generation at a time from generation
        n-1 up to the roots; returns the root values.

        ``seeds`` is a pair ``(ids, own)`` of sorted distinct arena ids, in
        any generations, and their own values; every other vertex's own value
        is 0.  A vertex of generation n holds its own value.  With ``cur`` the
        slice of generation k, each step gives the vertices of generation k
        ``segment_sums(lift(values of generation k+1), num_children[cur])``
        plus their own values; a childless vertex above the bottom holds its
        own value alone.  ``lift`` takes the values alone.  Only the values of
        the generation in hand are kept; ``out``, an arena-sized array of
        zeros when given, receives every vertex's value.

        Skip rule: while fewer than half of generation k+1 are live (nonzero,
        or seeded), the step carries only their ids and values: only those
        children are lifted, and only their parents and the seeded vertices of
        generation k get a sum (a seeded vertex without a live child a zero
        one).  A parent with one or two live children takes their plain sum:
        ``segment_sums`` sums one or two values in order, from the first, and
        adding a zero to a nonzero value changes none of its bits, so the
        dense step gives the same.  ``np.add.reduceat`` sums three or more
        values pairwise, not in order, so a parent with three or more live
        children is summed over its whole child segment by ``segment_sums``,
        zeros included.  The first generation with at least half of it live
        takes the dense step, and so does every one above it.

        Uniform bottom: when every vertex of generation n is seeded with one
        nonzero value and d(d + 1) / 2, d the most children of a vertex, is at
        most the size of generation n, the first step lifts that value once
        and reads each child sum from a table of the sums of 0..d copies of
        it.  ``segment_sums`` builds the table from d(d + 1) / 2 copies, so
        each entry has the dense step's bits, and the table is no larger than
        the step it replaces.

        The result is bit for bit the dense sweep's, provided the caller meets
        the contract: ``lift`` maps 0 to 0.
        """
        offsets = self.gen_offsets.tolist()
        ids, own = seeds
        first = int(ids.searchsorted(offsets[-2]))
        at, values = ids[first:], own[first:]
        # the seeds above the bottom by generation, cut only when there are any
        cuts = ids.searchsorted(offsets[:-1]).tolist() if first else []
        above = {k: (ids[a:b], own[a:b]) for k, (a, b) in enumerate(zip(cuts, cuts[1:]))
                 if a < b}
        if out is not None:
            out[at] = values
        for k in range(self.n - 1, -1, -1):
            lo, mid, hi = offsets[k:k + 3]
            cur = slice(lo, mid)
            counts = self.num_children[cur]
            seeded = above.get(k)
            if isinstance(at, slice) or 2 * len(at) >= hi - mid:
                sums = _uniform_sums(values, lift, counts, mid, hi) if k == self.n - 1 else None
                if sums is None:
                    sums = segment_sums(lift(_whole(at, values, mid, hi)), counts)
                at, values = cur, sums
            else:
                at, values = _sparse_sums(at, values, lift, counts, lo, mid, hi)
                if seeded:
                    at, values = _merge_seeded(at, values, seeded[0])
            if seeded:
                ids_k, own_k = seeded
                values[ids_k - lo if at is cur else at.searchsorted(ids_k)] += own_k
            if out is not None:
                out[at] = values
        return _whole(at, values, 0, offsets[1])

    @property
    def leaves_only_at_bottom(self) -> bool:
        """True when every vertex above generation n has at least one child."""
        return bool(np.all(self.num_children[: self.gen_offsets[self.n]] > 0))

    # -- construction -------------------------------------------------------

    @classmethod
    def from_offspring_counts(cls, counts_per_gen: list[np.ndarray]) -> "Tree":
        """Build from per-generation child counts; generation 0 holds the roots.

        One root gives a tree; R roots give a forest of R trees sharing one
        arena, interleaved generation by generation, with root i at id i.
        Trailing generations of size zero are trimmed, so lines that die out
        early produce an arena of smaller depth.  The arena takes a fixed
        number of array operations whatever its depth.
        """
        counts = [np.asarray(c, dtype=np.int64) for c in counts_per_gen]
        if not counts or len(counts[0]) == 0:
            raise ValueError("generation 0 must hold at least one root")
        # one zero per child of the last generation (none when the lines
        # died out) follows the given counts
        lengths = [len(c) for c in counts]
        given = sum(lengths)
        num_children = _arena(counts, given + max(int(counts[-1].sum()), 0))
        flat = num_children[:given]
        if flat.min() < 0:  # before the counts narrow, where -1 would be 255
            raise ValueError("negative child count")
        totals = segment_sums(flat, lengths).tolist()
        if lengths[1:] != totals[:-1]:
            raise ValueError("offspring array length does not match generation size")
        depth = totals.index(0) if 0 in totals else len(counts)
        gen_offsets = np.cumsum([0, lengths[0], *totals[:depth]])
        return cls(gen_offsets, num_children.astype(_count_dtype(int(flat.max())),
                                                    copy=False))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "parent": [int(p) for p in self.parent]}

    def __eq__(self, other) -> bool:
        """Structural equality: same shape with the same child ordering."""
        return (isinstance(other, Tree) and self.n == other.n
                and np.array_equal(self.parent, other.parent))

    def __hash__(self):
        return hash((self.n, self.parent.tobytes()))


def sample_gw(pmf: OffspringPmf, n: int, rng: np.random.Generator,
              max_vertices: int = DEFAULT_POPULATION_CAP, roots: int = 1) -> Tree:
    """Galton-Watson tree of depth exactly ``n``, or a forest of ``roots``
    independent ones, drawn from the stream ``rng``.

    Requires a pmf with no mass at 0, so that every vertex above the bottom
    generation has at least one child and every tree reaches depth ``n``
    surely.
    """
    if not pmf.no_zero:
        raise PmfError("offspring law must put no mass at 0")
    if n < 0:
        raise ValueError(f"depth n must be nonnegative, got {n}")
    return sample_inhomogeneous_bp([pmf] * n, rng, max_vertices, roots)


def sample_inhomogeneous_bp(pmfs: list[OffspringPmf], rng: np.random.Generator,
                            max_vertices: int = DEFAULT_POPULATION_CAP,
                            roots: int = 1) -> Tree:
    """Branching process where ``pmfs[k]`` governs vertices at depth k, started
    from ``roots`` independent roots drawn from the stream ``rng``.

    Each generation is one ``sample_many`` call for all of its vertices, in
    arena order, into a buffer of one byte per count when the law's top
    degree is below 256.  The arena has depth at most ``len(pmfs)``; it is
    shallower only if some law permits zero children and a whole generation
    dies out.  ``max_vertices`` caps the whole arena.
    """
    if roots < 1:
        raise ValueError("generation 0 must hold at least one root")
    counts = []
    size = total = roots
    sizes = [roots]
    for pmf in pmfs:
        top = pmf.max_degree
        c = pmf.sample_many(rng, size, out=np.empty(size, _count_dtype(top)))
        counts.append(c)
        size = _generation_size(c, top)
        total += size
        sizes.append(size)
        if total > max_vertices:
            raise PopulationCapError(max_vertices, sizes)
        if size == 0:
            sizes.pop()  # the lines died out: no empty generation
            break
    # the sizes are the counts' own sums, so Tree.from_offspring_counts'
    # checks are skipped
    return Tree(np.cumsum([0, *sizes]), _arena(counts, total))


def _generation_size(counts: np.ndarray, top: int) -> int:
    """The sum of child counts of at most ``top`` each.  One-byte counts are
    summed as uint32 while they cannot wrap it, faster than numpy's default
    sum of a uint8 array, which runs through uint64; otherwise as int64."""
    if counts.dtype == np.uint8 and len(counts) * top < 1 << 32:
        return int(counts.sum(dtype=np.uint32))
    return int(counts.sum(dtype=np.int64))


def _count_dtype(top: int) -> np.dtype:
    """The type of child counts up to ``top``: one byte below 256, else int64."""
    return np.dtype(np.uint8 if top < 256 else np.int64)


def _arena(counts: list[np.ndarray], total: int) -> np.ndarray:
    """``total`` child counts: the arrays ``counts`` one after another, then
    zeros, ``uint8`` when every array is, else int64.  The counts are
    written straight into the zeroed arena, so its zeros are never copied."""
    num_children = np.zeros(total, dtype=np.result_type(np.uint8, *counts))
    if counts:
        np.concatenate(counts, out=num_children[:sum(map(len, counts))])
    return num_children
