"""Proof transformation turning any closed clausal tableau into a regular,
leaf-closed tableau with the hyper property (negative literals only at
leaves).  Each round splices out one inner node with a negative literal and
repairs the affected branches with fresh copies of the old subtree; a
lexicographic measure over the rounds is checked to decrease strictly.

Each round does work in proportion to what it changes.  Between rounds the
tree is regular and leaf-closing, and no node before the last selected node
`nprime` in pre-order has an inner child with a negative literal.  A round
lifts the children of `n` to `nprime`, which only removes an ancestor from
the branches below `n` and so keeps regularity and leaf-closing there; it
then grafts copies of the repaired clause below the leaves that closed
against `n` and simplifies only below those graft points.  The nodes before
`nprime` in pre-order are untouched, so the next selection resumes at
`nprime`.
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


def node_path(root: Node, node: Node) -> tuple[int, ...]:
    path: list[int] = []
    n = node
    while n is not root:
        path.append(n.parent.children.index(n))
        n = n.parent
    return tuple(reversed(path))


def node_measure(root: Node, node: Node) -> tuple:
    """Right-sibling counts along the root-to-node path, then a symbol
    larger than every number, then the count of distinct negative literals
    on inner strict descendants of the node."""
    chain: list[Node] = []
    n = node
    while n is not None:
        chain.append(n)
        n = n.parent
    chain.reverse()
    code: list[float] = []
    for n in chain:
        if n.parent is None:
            code.append(0)
        else:
            sibs = n.parent.children
            code.append(len(sibs) - 1 - sibs.index(n))
    bad = badlits(node)
    return tuple(code) + (OMEGA, len(bad))


def badlits(node: Node) -> set:
    return {
        n.literal for n in node.pre_order() if n is not node and n.children and not n.literal.positive
    }


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


def _graft(nprime: Node, u: list[Node], comp: Literal) -> tuple[int, int, int]:
    """Give every leaf below `nprime` labeled `comp` simplified copies of
    the clause `u` as children; returns (splices, truncations, nodes
    added)."""
    splices = truncations = added = 0
    stack = list(reversed(nprime.children))
    while stack:
        m = stack.pop()
        if m.children:
            stack.extend(reversed(m.children))
        elif m.literal == comp:
            spl, tru, add = simplify_below(m, u, branch_of(m))
            splices += spl
            truncations += tru
            added += add
    return splices, truncations, added


def hyper_convert(
    tab: Tableau,
    max_nodes: int = DEFAULT_NODE_LIMIT,
) -> tuple[Tableau, ConversionTrace]:
    """Convert a closed tableau to a leaf-closed, regular, hyper tableau
    whose clauses are clauses of the input tableau."""
    if not is_closed(tab):
        raise StructureError("hyper conversion requires a closed tableau")
    trace = ConversionTrace(input_size=tab.inner_size())
    root = Node()
    spl, tru, below = simplify_below(root, tab.root.children, {})
    work = Tableau(root)
    trace.regular_splices += spl
    trace.leaf_truncations += tru
    size = below + 1  # and the root
    pending = [root]
    prev: Optional[tuple] = None
    while True:
        sel = _select(pending)
        if sel is None:
            break
        nprime, n = sel
        measure = node_measure(root, nprime)
        if prev is not None and not measure < prev:
            raise MeasureViolation(
                f"measure did not decrease: {measure_string(prev)} -> {measure_string(measure)}"
            )
        prev = measure
        path = node_path(root, nprime)

        # u is the clause at nprime with n as a bare leaf; the edges leaving
        # nprime are replaced by those leaving n, so the subtrees of n's
        # siblings leave the tree and serve as u's template as they are
        u = [Node(c.literal, c.side) if c is n else c for c in nprime.children]
        size -= sum(1 for c in u for _ in c.pre_order())
        nprime.set_children(n.children)
        # graft a copy of u under every leaf descendant that complements n
        spl, tru, added = _graft(nprime, u, n.literal.complement())
        trace.regular_splices += spl
        trace.leaf_truncations += tru
        size += added
        if size > max_nodes:
            raise ResourceLimitError(
                f"hyper conversion exceeded {max_nodes} nodes"
            )
        trace.rounds.append(ConversionRound(path, measure, size))
        pending.append(nprime)
    if not is_hyper(work):
        raise StructureError("conversion finished on a non-hyper tableau")
    trace.output_size = work.inner_size()
    return work, trace
