"""Bernoulli external fields on trees and the pruning of dead branches.

A field is a ``uint8`` array of one bit per vertex of the tree it is drawn
on, in arena order; it holds no other data, so every function that takes one
takes the tree too, and checks that the two match.  Pruning keeps exactly the
vertices that have a field-carrying leaf among their depth-n descendants;
dead branches are removed wholesale.  Pruned trees are rebuilt as fresh
contiguous arenas so that the downstream recursions stay cache-linear, and
the old-to-new index mapping is returned for traceability.
"""

from __future__ import annotations

import enum

import numpy as np

from .tree import Tree, segment_sums


class FieldMode(enum.Enum):
    WHOLE_TREE = "whole_tree"
    LEAVES_ONLY = "leaves_only"
    PLUS_BOUNDARY = "plus_boundary"


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


def sample_field(tree: Tree, mode: FieldMode, p: float,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """The read-only field of independent Bernoulli(p) bits on the mode's
    vertex set, zeros elsewhere.

    The stream draws one uniform per vertex of the set, in breadth-first
    order: the whole arena for WHOLE_TREE, the bottom generation for
    LEAVES_ONLY.  PLUS_BOUNDARY is the degenerate all-ones-on-leaves field;
    it ignores both ``p`` and the stream.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("field probability must lie in [0, 1]")
    h = np.zeros(tree.num_vertices, dtype=np.uint8)
    bottom = slice(int(tree.gen_offsets[tree.n]), int(tree.gen_offsets[tree.n + 1]))
    if mode is FieldMode.PLUS_BOUNDARY:
        h[bottom] = 1
    elif rng is None:
        raise ValueError("random field modes need a stream")
    elif mode in (FieldMode.WHOLE_TREE, FieldMode.LEAVES_ONLY):
        bits = h if mode is FieldMode.WHOLE_TREE else h[bottom]
        np.less(rng.random(len(bits)), p, out=bits.view(bool))
    else:
        raise ValueError(f"unknown field mode {mode!r}")
    h.setflags(write=False)
    return h


def plus_boundary_field(tree: Tree) -> np.ndarray:
    return sample_field(tree, FieldMode.PLUS_BOUNDARY, 1.0)


def survival(tree: Tree, h: np.ndarray) -> np.ndarray:
    """The read-only per-vertex survival bits, by a bottom-up OR: a leaf
    survives iff its field bit is set, an internal vertex iff some child
    survives.  Only the bottom-generation bits are read."""
    bottom = int(tree.gen_offsets[tree.n])
    marked = _marked_ids(_checked_field(tree, h)[bottom:]) + bottom
    y = np.zeros(tree.num_vertices, dtype=np.uint8)
    tree.sweep_up((marked, np.ones(len(marked), dtype=np.uint8)),
                  lambda child, _: child.astype(np.int64),
                  lambda sums, _: sums > 0, out=y)
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
