"""Rooted trees in a flat breadth-first arena, plus branching-process samplers.

Vertices are integer ids in breadth-first order, so each generation occupies a
contiguous slice.  Children of consecutive vertices are themselves
consecutive, so per-parent aggregation reduces to segment sums, and every
leaf-to-root recursion in the package is one call of ``Tree.sweep_up``: a
linear sweep over generation slices (no call stack, depths up to 10^4 are
fine).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import OffspringPmf, PmfError

DEFAULT_POPULATION_CAP = 10**8
# enumerate_trees refuses a (law, depth) with more trees than this
MAX_ENUMERATED_TREES = 10**6


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


class ExplosionGuardError(RuntimeError):
    """Exhaustive enumeration would produce too many trees."""


class TreeFormatError(ValueError):
    """A serialized tree does not describe a breadth-first arena."""


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum ``values`` over consecutive segments of the given lengths.

    One ``np.add.reduceat`` over the nonempty segments, with zeros written
    for the empty ones (plain ``reduceat`` gets those wrong).  The sum of a
    segment therefore depends on its own values alone, not on where it sits.
    """
    values = np.asarray(values)
    counts = np.asarray(counts)
    starts = np.cumsum(counts) - counts
    nonempty = counts > 0
    if nonempty.all():  # the same sums, without the masking copies
        return np.add.reduceat(values, starts)
    out = np.zeros(len(counts), dtype=values.dtype)
    if values.size:
        out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


@dataclass(frozen=True, eq=False)
class Tree:
    """Immutable rooted tree (or forest) of depth ``n`` stored breadth-first.

    ``gen_offsets[k]`` is the first id of generation k (length n+2, last
    entry = vertex count) and ``num_children[v]`` the child count of v; v's
    children form the contiguous block starting at ``child_start[v]``, and
    ``parent[v]`` is v's parent id (-1 for a root).  Both are derived on
    first use, since the leaf-to-root sweeps need only the generation slices
    and the child counts.  A forest holds its roots as generation 0; every
    sweep then runs over all of its trees at once, one generation slice at a
    time, and reads the root values ``[:num_roots]``.
    """

    gen_offsets: np.ndarray
    num_children: np.ndarray

    def __post_init__(self):
        for arr in (self.gen_offsets, self.num_children):
            arr.setflags(write=False)

    @cached_property
    def child_start(self) -> np.ndarray:
        # breadth-first order keeps the children of consecutive vertices
        # consecutive across generation boundaries too: v's block starts after
        # the roots and the children of every earlier vertex (for the bottom
        # generation, at the vertex count)
        start = self.num_roots + np.cumsum(self.num_children) - self.num_children
        start.setflags(write=False)
        return start

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

    def generation(self, k: int) -> np.ndarray:
        return np.arange(self.gen_offsets[k], self.gen_offsets[k + 1])

    def generation_size(self, k: int) -> int:
        return int(self.gen_offsets[k + 1] - self.gen_offsets[k])

    def generation_sizes(self) -> np.ndarray:
        return np.diff(self.gen_offsets)

    def depths(self) -> np.ndarray:
        return np.repeat(np.arange(self.n + 1), self.generation_sizes())

    def children(self, v: int) -> np.ndarray:
        start = int(self.child_start[v])
        return np.arange(start, start + int(self.num_children[v]))

    def offspring_of_generation(self, k: int) -> np.ndarray:
        """Child counts of generation-k vertices, in arena order."""
        return self.num_children[self.gen_offsets[k]:self.gen_offsets[k + 1]]

    def sweep_up(self, values: np.ndarray, lift, combine) -> np.ndarray:
        """The leaf-to-root sweep: fill ``values`` in place, one generation
        at a time from generation n-1 up to the roots, and return it.

        With ``cur`` the slice of generation k and ``nxt`` that of k+1, each
        step sets ``values[cur] = combine(segment_sums(lift(values[nxt], nxt),
        num_children[cur]), cur)``.  The bottom generation keeps the values
        it came with; a childless vertex above it gets ``combine`` of a zero
        child sum.
        """
        for k in range(self.n - 1, -1, -1):
            lo, mid, hi = (int(x) for x in self.gen_offsets[k:k + 3])
            cur, nxt = slice(lo, mid), slice(mid, hi)
            values[cur] = combine(segment_sums(lift(values[nxt], nxt),
                                               self.num_children[cur]), cur)
        return values

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
        flat = np.concatenate(counts)
        if np.any(flat < 0):
            raise ValueError("negative child count")
        lengths = np.array([len(c) for c in counts])
        totals = segment_sums(flat, lengths)
        if np.any(lengths[1:] != totals[:-1]):
            raise ValueError("offspring array length does not match generation size")
        dead = np.flatnonzero(totals == 0)
        depth = int(dead[0]) if dead.size else len(counts)
        sizes = np.concatenate([lengths[:1], totals[:depth]])
        gen_offsets = np.concatenate([[0], np.cumsum(sizes)])
        num_children = np.zeros(int(gen_offsets[-1]), dtype=np.int64)
        internal = int(gen_offsets[-2])
        num_children[:internal] = flat[:internal]
        return cls(gen_offsets, num_children)

    @classmethod
    def from_parent_array(cls, parent, n: int) -> "Tree":
        """Rebuild from a breadth-first parent array (JSON form)."""
        parent = np.asarray(parent, dtype=np.int64)
        if parent.size == 0 or parent[0] != -1 or np.any(parent[1:] < 0):
            raise TreeFormatError("parent array must start with -1 and be nonnegative after")
        if np.any(parent[1:] >= np.arange(1, parent.size)):
            raise TreeFormatError("parents must precede children")
        if parent.size > 1 and np.any(np.diff(parent[1:]) < 0):
            raise TreeFormatError("vertices must be in breadth-first order")
        num_children = np.zeros(parent.size, dtype=np.int64)
        np.add.at(num_children, parent[1:], 1)
        # generation boundaries: children of a breadth-first slice form the
        # next contiguous slice
        counts_per_gen = []
        lo, hi = 0, 1
        while hi < parent.size:
            counts = num_children[lo:hi]
            nxt = hi + int(counts.sum())
            if np.any(parent[hi:nxt] < lo) or np.any(parent[hi:nxt] >= hi):
                raise TreeFormatError("generations must be contiguous")
            counts_per_gen.append(counts)
            lo, hi = hi, nxt
        depth = len(counts_per_gen)
        if depth != n:
            raise TreeFormatError(f"declared depth {n} but deepest vertex is {depth}")
        if np.any(num_children[lo:hi]):
            raise TreeFormatError("bottom generation must be childless")
        return cls.from_offspring_counts(counts_per_gen or [np.zeros(1, dtype=np.int64)])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "parent": [int(p) for p in self.parent]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tree":
        return cls.from_parent_array(data["parent"], data["n"])

    def __eq__(self, other) -> bool:
        """Structural equality: same shape with the same child ordering."""
        return (isinstance(other, Tree) and self.n == other.n
                and np.array_equal(self.parent, other.parent))

    def __hash__(self):
        return hash((self.n, self.parent.tobytes()))


def sample_gw(pmf: OffspringPmf, n: int, rng: np.random.Generator,
              max_vertices: int = DEFAULT_POPULATION_CAP, roots: int = 1) -> Tree:
    """Galton-Watson tree of depth exactly ``n``, or a forest of ``roots``
    independent ones.

    Requires a pmf with no mass at 0, so that every vertex above the bottom
    generation has at least one child and every tree reaches depth ``n``
    surely.
    """
    if not pmf.no_zero:
        raise PmfError("offspring law must put no mass at 0")
    return sample_inhomogeneous_bp([pmf] * n, rng, max_vertices, roots)


def sample_inhomogeneous_bp(pmfs: list[OffspringPmf], rng: np.random.Generator,
                            max_vertices: int = DEFAULT_POPULATION_CAP,
                            roots: int = 1) -> Tree:
    """Branching process where ``pmfs[k]`` governs vertices at depth k, started
    from ``roots`` independent roots.

    Each generation is one ``sample_many`` call for all of its vertices, in
    arena order.  The arena has depth at most ``len(pmfs)``; it is shallower
    only if some law permits zero children and a whole generation dies out.
    ``max_vertices`` caps the whole arena.
    """
    counts = []
    size = total = roots
    sizes = [roots]
    for pmf in pmfs:
        c = pmf.sample_many(rng, size)
        counts.append(c)
        size = int(c.sum())
        total += size
        sizes.append(size)
        if total > max_vertices:
            raise PopulationCapError(max_vertices, sizes)
        if size == 0:
            break
    if not counts:
        counts = [np.zeros(roots, dtype=np.int64)]
    return Tree.from_offspring_counts(counts)


def subtree(tree: Tree, v: int) -> Tree:
    """Copy of v and its descendants, re-rooted so v sits at depth 0."""
    counts_per_gen = []
    current = np.array([v], dtype=np.int64)
    while current.size:
        counts = tree.num_children[current]
        counts_per_gen.append(counts)
        starts = tree.child_start[current]
        current = np.concatenate(
            [np.arange(s, s + c) for s, c in zip(starts, counts)]
        ).astype(np.int64) if counts.sum() else np.empty(0, dtype=np.int64)
    return Tree.from_offspring_counts(counts_per_gen)


def leaf_counts(tree: Tree) -> np.ndarray:
    """Per-vertex count of bottom-generation descendants (self included at
    the bottom); the numerator of the uniform flow."""
    counts = np.zeros(tree.num_vertices, dtype=np.int64)
    counts[tree.gen_offsets[tree.n]:] = 1
    return tree.sweep_up(counts, lambda child, _: child, lambda sums, _: sums)


def count_trees(pmf: OffspringPmf, depth: int) -> int:
    """Number of depth-``depth`` trees with out-degrees in the pmf's support."""
    count = 1
    for _ in range(depth):
        count = sum(count**int(d) for d in pmf.degrees if d > 0)
    return count


def enumerate_trees(pmf: OffspringPmf, depth: int):
    """Yield every depth-``depth`` tree with degrees in the support, with its
    exact Galton-Watson probability prod_u mu(d_u) over internal vertices.

    Probabilities sum to 1 whenever the support has no mass at 0.  Guarded by
    ``MAX_ENUMERATED_TREES`` to keep the enumeration from exploding.
    """
    if count_trees(pmf, depth) > MAX_ENUMERATED_TREES:
        raise ExplosionGuardError(
            f"more than {MAX_ENUMERATED_TREES} trees of depth {depth} for this support"
        )
    degrees = [int(d) for d in pmf.degrees if d > 0]

    def shapes(d: int):
        # a shape is the tuple of child shapes; leaves are empty tuples
        if d == 0:
            yield ()
            return
        below = list(shapes(d - 1))
        for root_deg in degrees:
            yield from itertools.product(below, repeat=root_deg)

    for shape in shapes(depth):
        tree = tree_from_shape(shape)
        yield tree, gw_probability(tree, pmf)


def tree_from_shape(shape: tuple) -> Tree:
    """Build the arena for a nested-tuple shape (children given in order)."""
    counts_per_gen = []
    level = [shape]
    while level and any(len(s) for s in level):
        counts_per_gen.append(np.array([len(s) for s in level], dtype=np.int64))
        level = [c for s in level for c in s]
    if not counts_per_gen:
        counts_per_gen = [np.zeros(1, dtype=np.int64)]
    return Tree.from_offspring_counts(counts_per_gen)


def gw_probability(tree: Tree, pmf: OffspringPmf) -> float:
    """Exact probability of the tree under the Galton-Watson law."""
    prob = 1.0
    for v in range(tree.gen_offsets[tree.n] if tree.n > 0 else 0):
        prob *= pmf.mass(int(tree.num_children[v]))
    return prob
