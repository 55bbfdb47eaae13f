"""Bernoulli external fields on trees and the pruning of dead branches.

A field is a ``uint8`` array of one bit per vertex of the tree it is drawn
on, in arena order; it holds no other data, so every function that takes one
takes the tree too, and checks that the two match.  Pruning keeps exactly the
vertices that have a field-carrying leaf among their depth-n descendants;
dead branches are removed wholesale.  Pruned trees are rebuilt as fresh
contiguous arenas so that the downstream recursions stay cache-linear, and
the old-to-new index mapping is returned for traceability.

A random field is drawn by its rarer outcome: with q = min(p, 1 - p), the
stream's uniforms become geometric gaps between the vertices that take that
outcome (the marks when p <= 1/2, the unmarked vertices otherwise).  A
sparse field then costs about 13 ns per rarer-outcome vertex, not a uniform
per vertex.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tree import Tree, segment_sums


# the most gaps drawn at once: 512 KiB of doubles, which stay in a core's L2
# cache through the passes over them
GAP_CHUNK = 1 << 16


class FieldMode(enum.Enum):
    WHOLE_TREE = "whole_tree"
    LEAVES_ONLY = "leaves_only"


def _checked_field(tree: Tree, h: np.ndarray) -> np.ndarray:
    """The one check of a field against the tree it is used with, which must
    give it one bit per vertex."""
    if len(h) != tree.num_vertices:
        raise ValueError(f"the field has {len(h)} bits, the tree "
                         f"{tree.num_vertices} vertices")
    return h


def _marked_ids(bits: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(bits)``, a one-byte field scanned through a bool
    view: numpy returns at once only over a run of zeros in a ``uint8``
    array, and scans a bool one about seven times faster.  Both views read a
    byte as set when it is nonzero, so the ids are the same."""
    bits = np.asarray(bits)
    return np.flatnonzero(bits.view(bool) if bits.dtype.itemsize == 1 else bits)


def _gap_ids(rng: np.random.Generator, size: int, q: float):
    """The ids in ``range(size)`` of independent Bernoulli(q) events, for
    0 < q <= 1/2, as sorted arrays, one chunk of uniforms at a time.

    Uniform U gives the gap G = floor(log U / log1p(-q)) to the next event,
    so P(G >= k) = (1 - q)^k; U = 0 gives no further event.  Every chunk
    holds the same number of uniforms, fixed by ``size`` and ``q`` alone;
    together they fall short of the events with probability at most about
    3e-5.  Chunks are drawn until a gap passes the end.
    """
    mean = size * q
    need = int(mean + 4.0 * math.sqrt(mean)) + 16
    # as few equal chunks as hold ``need`` uniforms
    chunks = -(-need // GAP_CHUNK)
    chunk = -(-need // chunks)
    log_miss = math.log1p(-q)
    start = 0
    while start < size:
        gaps = rng.random(chunk)
        with np.errstate(divide="ignore", over="ignore"):
            np.log(gaps, out=gaps)
            np.divide(gaps, log_miss, out=gaps)
        # a gap of ``size`` or more ends the set, and is exact as an int64;
        # the gaps become integers in their own buffer
        ids = gaps.view(np.int64)
        np.minimum(gaps, size, out=ids, casting="unsafe")
        # an event's id is start - 1 plus the running sum of G + 1
        ids += 1
        ids[0] += start - 1
        np.cumsum(ids, out=ids)
        yield ids[:np.searchsorted(ids, size)]
        start = int(ids[-1]) + 1


def sample_field(tree: Tree, mode: FieldMode, p: float,
                 rng: np.random.Generator) -> np.ndarray:
    """The read-only field of independent Bernoulli(p) bits on the mode's
    vertex set, zeros elsewhere.

    The set is the whole arena for WHOLE_TREE and the bottom generation for
    LEAVES_ONLY, in arena order.  The stream gives the positions of the
    set's rarer outcome by geometric gaps (``_gap_ids``): the marks when
    p <= 1/2, else the unmarked vertices, which costs about 13 ns per such
    vertex.  At p = 0 or 1 it draws nothing.  The plus boundary field is
    ``plus_boundary_field``.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("field probability must lie in [0, 1]")
    if mode not in (FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY):
        raise ValueError(f"unknown field mode {mode!r}")
    h = np.zeros(tree.num_vertices, dtype=np.uint8)
    bits = h if mode is FieldMode.WHOLE_TREE else h[tree.gen_offsets[tree.n]:]
    rare = p <= 0.5
    if not rare:
        bits.fill(1)
    if 0.0 < p < 1.0:
        for ids in _gap_ids(rng, len(bits), min(p, 1.0 - p)):
            bits[ids] = rare
    h.setflags(write=False)
    return h


def plus_boundary_field(tree: Tree) -> np.ndarray:
    """The read-only plus boundary field: ones on generation n, zeros above.
    It is the LEAVES_ONLY field at p = 1, and draws nothing."""
    h = np.zeros(tree.num_vertices, dtype=np.uint8)
    h[tree.gen_offsets[tree.n]:] = 1
    h.setflags(write=False)
    return h


def survival(tree: Tree, h: np.ndarray) -> np.ndarray:
    """The read-only per-vertex survival bits: whether the count of marked
    leaves below a vertex (itself, for a leaf) is positive.  The counts are
    int64, as a byte would wrap at 256; only bottom-generation bits are read."""
    bottom = int(tree.gen_offsets[tree.n])
    marked = _marked_ids(_checked_field(tree, h)[bottom:]) + bottom
    counts = np.zeros(tree.num_vertices, dtype=np.int64)
    tree.sweep_up((marked, np.ones(len(marked), dtype=np.int64)), lambda child: child,
                  out=counts)
    y = (counts > 0).view(np.uint8)
    y.setflags(write=False)
    return y


def prune(tree: Tree, h: np.ndarray) -> tuple[Tree, np.ndarray] | None:
    """Induced subtree on the surviving vertices.

    Returns ``(pruned_tree, mapping)`` where ``mapping[v]`` is the new id of
    old vertex v (-1 if pruned away), or ``None`` when the root itself dies.
    The empty outcome is a value, not an error.  Requires a leaf-supported
    field: a bit set above the bottom generation raises ValueError, since
    the survival indicators would then not describe the model's zero-ratio
    set.  Requires a single tree: a forest raises ValueError, since one root
    cannot stand for the survival of the others.
    """
    if _checked_field(tree, h)[:tree.gen_offsets[tree.n]].any():
        raise ValueError("pruning is defined for leaf-supported fields only, "
                         "but a bit is set above the bottom generation")
    if tree.num_roots > 1:
        raise ValueError("pruning is defined for a single tree, not a forest")
    y = survival(tree, h)
    if not y[0]:
        return None
    keep = y.astype(bool)
    mapping = np.full(tree.num_vertices, -1, dtype=np.int64)
    mapping[keep] = np.arange(int(keep.sum()))
    # children of all vertices are the ids num_roots..V-1, in parent order
    surviving_children = segment_sums(y[tree.num_roots:].astype(np.int64),
                                      tree.num_children)[keep]
    kept_per_gen = segment_sums(keep.astype(np.int64), tree.generation_sizes())
    # the bottom generation's all-zero counts end the arena at depth n
    counts_per_gen = np.split(surviving_children, np.cumsum(kept_per_gen)[:-1])
    return Tree.from_offspring_counts(counts_per_gen), mapping


def to_dot(tree: Tree, h: np.ndarray | None = None,
           surv: np.ndarray | None = None) -> str:
    """DOT rendering: the vertices whose field bit in ``h`` is set are
    doublecircled and, given the bits ``survival`` returns as ``surv``,
    surviving branches solid blue and dead branches dashed red.  Each of
    ``h`` and ``surv`` must hold one bit per vertex of ``tree``."""
    for bits in (h, surv):
        if bits is not None:
            _checked_field(tree, bits)
    lines = ["digraph tree {", "  node [shape=circle, label=\"\", width=0.12];"]
    for v in range(tree.num_vertices):
        attrs = []
        if h is not None and h[v]:
            attrs.append("shape=doublecircle")
        if surv is not None:
            attrs.append("color=blue" if surv[v] else "color=red")
        if attrs:
            lines.append(f"  v{v} [{', '.join(attrs)}];")
    for v in range(1, tree.num_vertices):
        u = int(tree.parent[v])
        style = ""
        if surv is not None:
            style = " [color=blue]" if surv[v] else " [color=red, style=dashed]"
        lines.append(f"  v{u} -> v{v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
