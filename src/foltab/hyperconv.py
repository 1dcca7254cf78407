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
that closed against `n` and repairs only below those graft points.  The
nodes before `nprime` in pre-order are untouched, so the next selection
resumes at `nprime`.

A round touches only what it changes.  An index, kept exact across rounds,
holds every node of the tree by the atom of its literal, and so the node
count, and its inner nodes with a negative literal by literal.  A round
reads its graft points from the index, walking up from each leaf labeled
with the complement of `n`, and the last component of its measure from
the inner nodes, walking only the subtrees still to be selected from (none
when `nprime` is the root).  Its path and the head of its measure come from one
walk up from `nprime`.  The rest of the clause at `nprime`, the subtrees of
`n`'s siblings, moves as it is into the last graft point; only further
graft points get copies.  At a graft point only the literals of the new
branch segment, from `nprime` down to the graft point, can break
regularity or leaf-closing in the clause, so the repair reads the clause
nodes carrying one of them or its complement from the index and visits
only those.  The index changes only where the tree does: at `n`, at the
graft points, and at the nodes the repair drops or turns into leaves.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .syntax import Literal
from .tableaux import (
    Branch,
    Node,
    ResourceLimitError,
    StructureError,
    clean_children,
    close_leaf,
    is_closed,
    is_hyper,
    simplify_in_place,
)

OMEGA = float("inf")

DEFAULT_NODE_LIMIT = 10_000_000


class MeasureViolation(Exception):
    """The termination measure failed to decrease; indicates a bug."""


class ConversionRound:
    def __init__(self, selected_path: tuple[int, ...], measure: tuple, size_after: int):
        self.selected_path = selected_path
        self.measure = measure
        self.size_after = size_after


class ConversionTrace:
    """What a conversion did, counted as it goes."""

    def __init__(self, input_size: int):
        self.rounds: list[ConversionRound] = []
        self.regular_splices = 0
        self.leaf_truncations = 0
        self.input_size = input_size
        self.output_size = 0

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
    """Every node of the tree but the root by the atom of its literal, with
    each node's group, the nodes of its atom; and its inner nodes with a
    negative literal by literal (a literal with none left is removed).  A
    node is filed when it enters, and `refresh` refiles a node whose
    children have changed."""

    __slots__ = ("atoms", "group", "negative")

    def __init__(self, root: Node) -> None:
        self.atoms: dict[Literal, dict[Node, None]] = {}
        self.group: dict[Node, dict[Node, None]] = {}
        self.negative: dict[Literal, dict[Node, None]] = {}
        for c in root.children:
            self.enter(c)

    def enter(self, top: Node) -> None:
        """File `top` and the nodes below it."""
        for n in top.pre_order():
            group = self.group[n] = self.atoms.setdefault(n.literal.atom(), {})
            group[n] = None
            if n.children and not n.literal.positive:
                self.negative.setdefault(n.literal, {})[n] = None

    def leave(self, top: Node) -> None:
        """Unfile `top` and the nodes below it."""
        for n in top.pre_order():
            del self.group.pop(n)[n]
            self._unfile_negative(n)

    def refresh(self, n: Node) -> None:
        lit = n.literal
        if lit.positive:
            return
        if n.children:
            self.negative.setdefault(lit, {})[n] = None
        else:
            self._unfile_negative(n)

    def _unfile_negative(self, n: Node) -> None:
        nodes = self.negative.get(n.literal)
        if nodes is not None and n in nodes:
            del nodes[n]
            if not nodes:
                del self.negative[n.literal]

    def graft(self, segment: list[Node], clause: list[Node]) -> tuple[int, int]:
        """Give the leaf `m`, the first node of `segment`, the detached,
        filed nodes `clause` as its children and make the tree below `m`
        regular and leaf-closing, as `simplify_in_place` would; returns
        (splices, truncations).

        `segment` is the branch from `m` up to the node `nprime` the clause
        was taken from, `nprime` excluded.  The clause lay below `nprime`,
        regular and leaf-closing, so only a literal of the segment can
        break it: a clause node repeating one is spliced at its parent, and
        an inner clause node complementing one is truncated.  The clause
        nodes that carry such a literal are read from the index, and the
        steps are taken in pre-order of the nodes they act at, skipping the
        nodes an earlier step removed."""
        m = segment[0]
        nprime = segment[-1].parent
        # nodes known not to be in the clause, and so neither is any node
        # below them: the segment, nprime, and the nodes of the walks up
        # that reach no top of the clause.  Most nodes that share an atom
        # with the segment hang off it, a step or two below.
        outside = dict.fromkeys(segment)
        outside[nprime] = None
        tops = {c: i for i, c in enumerate(clause)}
        # the segment nodes whose literals clause nodes repeat: the part of
        # the branch down to m that regularity below m is checked against
        on: Branch = {}
        # (position of the node acted at, 0 to truncate it or 1 to clean
        # its children, the clause node that calls for the step)
        steps: list[tuple[tuple[int, ...], int, Node]] = []
        group = self.group
        for a in segment:
            lit = a.literal
            for x in group[a]:
                p = x.parent
                if p in outside or p is not None and p.parent in outside:
                    continue
                repeats = x.literal.positive == lit.positive
                if not repeats and not x.children:
                    continue
                pos = _clause_position(x, tops, outside)
                if pos is None:
                    continue
                if repeats:
                    on[lit] = [a]
                    steps.append((pos[:-1], 1, x))
                else:
                    steps.append((pos, 0, x))
        m.set_children(clause)
        steps.sort(key=itemgetter(0, 1))
        splices = truncations = 0
        dropped: list[Node] = []
        for _, clean, x in steps:
            if x not in group:
                continue
            if clean:
                x = x.parent
                splices += clean_children(x, on, dropped)
            else:
                close_leaf(x, dropped)
                truncations += 1
            for d in dropped:
                self.leave(d)
            dropped.clear()
            self.refresh(x)
        self.refresh(m)
        return splices, truncations


def _clause_position(
    x: Node, tops: dict[Node, int], outside: dict[Node, None]
) -> Optional[tuple[int, ...]]:
    """The child indices on the path down to `x` from a top of a detached
    clause, the top's index in `tops` first; None if no walk up from `x`
    reaches one of `tops` without meeting a node of `outside`, and then
    the nodes of the walk are added to `outside`."""
    up = [x]
    while x not in outside and x.parent is not None:
        x = x.parent
        up.append(x)
    i = tops.get(x)
    if i is None:
        outside.update(dict.fromkeys(up))
        return None
    path = [i]
    for k in range(len(up) - 1, 0, -1):
        path.append(up[k].children.index(up[k - 1]))
    return tuple(path)


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
    root: Node,
    max_nodes: int = DEFAULT_NODE_LIMIT,
) -> tuple[Node, ConversionTrace]:
    """Convert the closed tableau `root` heads, in place, to a leaf-closed,
    regular, hyper tableau whose clauses are clauses of the input tableau;
    returns `root` with the trace."""
    if not is_closed(root):
        raise StructureError("hyper conversion requires a closed tableau")
    trace = ConversionTrace(root.inner_size())
    spl, tru = simplify_in_place(root)
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
            1 for lit, k in elsewhere.items() if len(index.negative[lit]) == k
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
        # up from a leaf of u reaches nprime), each with the segment its
        # walk up went through: copies first, then u itself at the last one
        grafts = []
        for m in index.group[n]:
            if m.children or m.literal.positive == n.literal.positive:
                continue
            segment = [m]
            a = m.parent
            while a is not None and a is not nprime:
                segment.append(a)
                a = a.parent
            if a is nprime:
                grafts.append(segment)
        for i, segment in enumerate(grafts, 1):
            if i < len(grafts):
                clause = [c.copy_subtree() for c in u]
                for c in clause:
                    index.enter(c)
            else:
                clause = u
            spl, tru = index.graft(segment, clause)
            trace.regular_splices += spl
            trace.leaf_truncations += tru
        if not grafts:
            for c in u:
                index.leave(c)
        size = len(index.group) + 1  # the root is not filed
        if size > max_nodes:
            raise ResourceLimitError(
                f"hyper conversion exceeded {max_nodes} nodes"
            )
        trace.rounds.append(ConversionRound(path, measure, size))
        pending.append(nprime)
    if not is_hyper(root):
        raise StructureError("conversion finished on a non-hyper tableau")
    trace.output_size = root.inner_size()
    return root, trace
