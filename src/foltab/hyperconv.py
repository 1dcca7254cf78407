"""Proof transformation turning any closed clausal tableau into a regular,
leaf-closed tableau with the hyper property (negative literals only at
leaves).  Each round splices out one inner node with a negative literal and
repairs the affected branches with the rest of its clause; a lexicographic
measure over the rounds is checked to decrease strictly.

Between rounds the tree is regular and leaf-closing, and no node before the
last selected node `nprime` in pre-order has an inner child with a negative
literal.  A round lifts the children of `n` to `nprime`, which only removes
an ancestor from the branches below `n` and so keeps regularity and
leaf-closing there; it then grafts the repaired clause below the leaves
that closed against `n` and simplifies only below those graft points.  The
nodes before `nprime` in pre-order are untouched, so the next selection
resumes at `nprime`.

A round touches only what it changes.  An index, kept exact across rounds,
holds the tree's leaves by literal, its inner nodes with a negative literal
counted by literal, and its node count.  A round reads its graft points
from the leaves, walking up from each leaf labeled with the complement of
`n`, and the last component of its measure from the counts, walking only
the subtrees still to be selected from (none when `nprime` is the root).
Its path and the head of its measure come from one walk up from `nprime`.
The rest of the clause at `nprime`, the subtrees of `n`'s siblings, moves
as it is into the last graft point, where simplification walks it once;
only further graft points get copies.  The index changes only where the
tree does: at `n`, at the graft points, and at the nodes simplification
drops or turns into leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import Literal
from .tableaux import (
    Node,
    ResourceLimitError,
    StructureError,
    Tableau,
    branch_of,
    is_closed,
    is_hyper,
    simplify_below,
)

OMEGA = float("inf")

DEFAULT_NODE_LIMIT = 10_000_000


class MeasureViolation(Exception):
    """The termination measure failed to decrease; indicates a bug."""


@dataclass
class ConversionRound:
    selected_path: tuple[int, ...]
    measure: tuple
    size_after: int


@dataclass
class ConversionTrace:
    rounds: list[ConversionRound] = field(default_factory=list)
    regular_splices: int = 0
    leaf_truncations: int = 0
    input_size: int = 0
    output_size: int = 0

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)


def measure_string(m: tuple) -> str:
    return " ".join("w" if x == OMEGA else str(int(x)) for x in m)


def _select(pending: list[Node]) -> Optional[tuple[Node, Node]]:
    """First node in pre-order with a child that is an inner node labeled
    with a negative literal, plus the leftmost such child.  `pending` is the
    stack of the pre-order walk; the selected node is popped from it before
    its children are pushed, so pushing it back resumes the walk there."""
    while pending:
        n = pending.pop()
        for c in n.children:
            if c.children and not c.literal.positive:
                return n, c
        pending.extend(reversed(n.children))
    return None


def _position(node: Node) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The child indices along the root-to-node path, and the right-sibling
    counts along it, the root's 0 first: the selected path and the head of
    the measure, from one walk up."""
    path: list[int] = []
    code: list[int] = []
    n = node
    while n.parent is not None:
        sibs = n.parent.children
        i = sibs.index(n)
        path.append(i)
        code.append(len(sibs) - 1 - i)
        n = n.parent
    code.append(0)
    path.reverse()
    code.reverse()
    return tuple(path), tuple(code)


class _Index:
    """The leaves of the tree by literal, its inner nodes with a negative
    literal counted by literal (a literal whose count falls to 0 is
    removed), and its node count.  A node is filed as a leaf or as inner
    when it enters, and `refresh` refiles a node whose children have
    changed; a node leaves as it was filed."""

    __slots__ = ("leaves", "negative", "size")

    def __init__(self, root: Node) -> None:
        self.leaves: dict[Literal, dict[Node, None]] = {}
        self.negative: dict[Literal, int] = {}
        self.size = 1  # the root
        for c in root.children:
            self.enter(c)

    def enter(self, top: Node) -> None:
        """File `top` and the nodes below it."""
        for n in top.pre_order():
            self.size += 1
            self._file(n, not n.children)

    def leave(self, top: Node) -> None:
        """Unfile `top` and the nodes below it."""
        for n in top.pre_order():
            self.size -= 1
            self._unfile(n)

    def refresh(self, n: Node) -> None:
        leaf = not n.children
        if (n in self.leaves.get(n.literal, ())) != leaf:
            self._unfile(n)
            self._file(n, leaf)

    def _file(self, n: Node, leaf: bool) -> None:
        lit = n.literal
        if leaf:
            self.leaves.setdefault(lit, {})[n] = None
        elif not lit.positive:
            self.negative[lit] = self.negative.get(lit, 0) + 1

    def _unfile(self, n: Node) -> None:
        lit = n.literal
        leaves = self.leaves.get(lit, {})
        if n in leaves:
            del leaves[n]
        elif not lit.positive:
            left = self.negative[lit] - 1
            if left:
                self.negative[lit] = left
            else:
                del self.negative[lit]

    def graft(self, m: Node, u: list[Node]) -> tuple[int, int]:
        """Give the leaf `m` the filed nodes `u` as its children, simplified
        against the branch down to `m`; returns (splices, truncations)."""
        dropped: list[Node] = []
        spl, tru, _ = simplify_below(m, u, branch_of(m), dropped)
        for d in dropped:
            self.leave(d)
        for d in dropped:
            self.refresh(d.parent)
        self.refresh(m)
        return spl, tru


def _negative_inner(tops: list[Node]) -> dict[Literal, int]:
    """The inner nodes with a negative literal in the subtrees of `tops`,
    counted by literal."""
    counts: dict[Literal, int] = {}
    for top in tops:
        for n in top.pre_order():
            if n.children and not n.literal.positive:
                counts[n.literal] = counts.get(n.literal, 0) + 1
    return counts


def hyper_convert(
    tab: Tableau,
    max_nodes: int = DEFAULT_NODE_LIMIT,
) -> tuple[Tableau, ConversionTrace]:
    """Convert a closed tableau to a leaf-closed, regular, hyper tableau
    whose clauses are clauses of the input tableau; the input is left as
    it is."""
    if not is_closed(tab):
        raise StructureError("hyper conversion requires a closed tableau")
    trace = ConversionTrace(input_size=tab.inner_size())
    work = tab.copy()
    root = work.root
    spl, tru, _ = simplify_below(root, root.children, {})
    trace.regular_splices += spl
    trace.leaf_truncations += tru
    index = _Index(root)
    pending = [root]
    prev: Optional[tuple] = None
    while True:
        sel = _select(pending)
        if sel is None:
            break
        nprime, n = sel
        path, code = _position(nprime)
        # every inner node with a negative literal lies below nprime or in a
        # subtree still on `pending`: those before nprime in pre-order have
        # none as children.  A literal is bad unless all its nodes lie there.
        elsewhere = _negative_inner(pending)
        bad = len(index.negative) - sum(
            1 for lit, k in elsewhere.items() if index.negative[lit] == k
        )
        measure = code + (OMEGA, bad)
        if prev is not None and not measure < prev:
            raise MeasureViolation(
                f"measure did not decrease: {measure_string(prev)} -> {measure_string(measure)}"
            )
        prev = measure

        # the edges leaving nprime are replaced by those leaving n; u, the
        # clause at nprime with n now a bare leaf and the subtrees of n's
        # siblings, is detached from the tree but stays filed until it is
        # grafted or dropped
        u = nprime.children
        nprime.set_children(n.children)
        n.children = []
        index.refresh(n)
        for c in u:
            c.parent = None
        # graft u under every leaf below nprime that complements n (no walk
        # up from a leaf of u reaches nprime): copies first, then u itself
        # at the last one
        grafts = []
        for m in index.leaves.get(n.literal.complement(), ()):
            a = m.parent
            while a is not None and a is not nprime:
                a = a.parent
            if a is nprime:
                grafts.append(m)
        for i, m in enumerate(grafts, 1):
            if i < len(grafts):
                clause = [c.copy_subtree()[0] for c in u]
                for c in clause:
                    index.enter(c)
            else:
                clause = u
            spl, tru = index.graft(m, clause)
            trace.regular_splices += spl
            trace.leaf_truncations += tru
        if not grafts:
            for c in u:
                index.leave(c)
        if index.size > max_nodes:
            raise ResourceLimitError(
                f"hyper conversion exceeded {max_nodes} nodes"
            )
        trace.rounds.append(ConversionRound(path, measure, index.size))
        pending.append(nprime)
    if not is_hyper(work):
        raise StructureError("conversion finished on a non-hyper tableau")
    trace.output_size = work.inner_size()
    return work, trace
