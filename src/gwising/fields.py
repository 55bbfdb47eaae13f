"""Bernoulli external fields on trees and the pruning of dead branches.

A field assigns a bit to every vertex.  Pruning keeps exactly the vertices
that have a field-carrying leaf among their depth-n descendants; dead branches
are removed wholesale.  Pruned trees are rebuilt as fresh contiguous arenas so
that the downstream recursions stay cache-linear, and the old-to-new index
mapping is returned for traceability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .tree import Tree, segment_sums


class FieldMode(enum.Enum):
    WHOLE_TREE = "whole_tree"
    LEAVES_ONLY = "leaves_only"
    PLUS_BOUNDARY = "plus_boundary"


@dataclass(frozen=True, eq=False)
class FieldAssignment:
    """Per-vertex {0,1} field on a specific tree."""

    tree: Tree
    mode: FieldMode
    h: np.ndarray

    def __post_init__(self):
        if len(self.h) != self.tree.num_vertices:
            raise ValueError("field length does not match the tree")
        self.h.setflags(write=False)

    def leaf_bits(self) -> np.ndarray:
        lo, hi = self.tree.gen_offsets[self.tree.n], self.tree.gen_offsets[self.tree.n + 1]
        return self.h[lo:hi]


def sample_field(tree: Tree, mode: FieldMode, p: float,
                 rng: np.random.Generator | None = None) -> FieldAssignment:
    """Independent Bernoulli(p) bits on the mode's vertex set, zeros elsewhere.

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
        return FieldAssignment(tree, mode, h)
    if rng is None:
        raise ValueError("random field modes need a stream")
    if mode is FieldMode.WHOLE_TREE:
        bits = slice(0, tree.num_vertices)
    elif mode is FieldMode.LEAVES_ONLY:
        bits = bottom
    else:
        raise ValueError(f"unknown field mode {mode!r}")
    np.less(rng.random(bits.stop - bits.start), p, out=h[bits].view(bool))
    return FieldAssignment(tree, mode, h)


def plus_boundary_field(tree: Tree) -> FieldAssignment:
    return sample_field(tree, FieldMode.PLUS_BOUNDARY, 1.0)


def survival(tree: Tree, fld: FieldAssignment) -> np.ndarray:
    """The read-only per-vertex survival bits, by a bottom-up OR: a leaf
    survives iff its field bit is set, an internal vertex iff some child
    survives.  Only the bottom-generation bits are read."""
    y = np.zeros(tree.num_vertices, dtype=np.uint8)
    tree.sweep_up(fld.leaf_bits(), lambda child, _: child.astype(np.int64),
                  lambda sums, _: sums > 0, out=y)
    y.setflags(write=False)
    return y


def prune(tree: Tree, fld: FieldAssignment) -> tuple[Tree, np.ndarray] | None:
    """Induced subtree on the surviving vertices.

    Returns ``(pruned_tree, mapping)`` where ``mapping[v]`` is the new id of
    old vertex v (-1 if pruned away), or ``None`` when the root itself dies.
    The empty outcome is a value, not an error.  Requires a leaf-supported
    field; with internal field bits the survival indicators would not describe
    the model's zero-ratio set.  Requires a single tree: a forest raises
    ValueError, since one root cannot stand for the survival of the others.
    """
    if fld.mode is FieldMode.WHOLE_TREE:
        raise ValueError("pruning is defined for leaf-supported fields only")
    if tree.num_roots > 1:
        raise ValueError("pruning is defined for a single tree, not a forest")
    y = survival(tree, fld)
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


def to_dot(tree: Tree, fld: FieldAssignment | None = None,
           surv: np.ndarray | None = None) -> str:
    """DOT rendering: field-carrying vertices are doublecircled and, given
    the bits ``survival`` returns as ``surv``, surviving branches solid blue
    and dead branches dashed red."""
    lines = ["digraph tree {", "  node [shape=circle, label=\"\", width=0.12];"]
    for v in range(tree.num_vertices):
        attrs = []
        if fld is not None and fld.h[v]:
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
