"""Tableau documents: a diff-friendly indented text format, one node per
line (`literal [side] -> targetdepth`), bit-exact round-tripping.
"""

from __future__ import annotations

import re
from typing import Optional

from .syntax import Signature
from .tableaux import Node, branch_walk
from .tptp import ParseError, _Parser, content_lines

_HEADER = "tableau"

_LINE_RE = re.compile(
    r"^(?P<indent> *)(?P<lit>.*?)(?:\s+\[(?P<side>[FG])\])?(?:\s+->\s+(?P<target>\d+))?\s*$"
)


def format_tableau(root: Node) -> str:
    lines = [_HEADER]
    depth_of = {}
    walk = branch_walk(root)
    next(walk)  # the root has no line
    for n, depth, target in walk:
        depth_of[n] = depth
        parts = ["  " * depth + str(n.literal)]
        if n.side is not None:
            parts.append(f"[{n.side}]")
        if target is not None:
            parts.append(f"-> {depth_of[target]}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_tableau(text: str) -> Node:
    """The root of the tableau of a document.  A declared target must be a complementary
    ancestor at the declared depth; it is checked after the last line and
    then dropped, since a target is always the nearest complementary
    ancestor."""
    body = content_lines(text)
    line_no, first, _ = next(body, (1, "", ""))
    if first != _HEADER:
        raise ParseError(f"expected {_HEADER!r} header", line_no, 1)
    root = Node()
    stack: list[Node] = [root]  # stack[d] = most recent node at depth d
    # (node, the node on its branch at its declared target depth, depth, line)
    targets: list[tuple[Node, Optional[Node], int, int]] = []
    sig = Signature()
    p = _Parser()
    for line_no, _, raw in body:
        m = _LINE_RE.match(raw)
        if m is None or not m.group("lit").strip():
            raise ParseError("malformed tableau line", line_no, 1)
        indent = len(m.group("indent"))
        if indent % 2 != 0:
            raise ParseError("indentation must be a multiple of two spaces", line_no, 1)
        depth = indent // 2
        if depth < 1 or depth > len(stack):
            raise ParseError(f"bad nesting depth {depth}", line_no, 1)
        try:
            p.load(m.group("lit"))
            lit = p.table_literal()
            p.at_end("trailing input after literal")
        except ParseError as e:
            raise ParseError(e.message, line_no, m.start("lit") + e.col) from None
        # arities are checked as in a clause file
        sig.extend_with_line(line_no, p.literals)
        node = Node(lit, m.group("side"))
        stack[depth - 1].add(node)
        del stack[depth:]
        stack.append(node)
        if m.group("target") is not None:
            digits = m.group("target").lstrip("0") or "0"
            # more digits than the line's own depth: no ancestor's (nor int()'s)
            tdepth = int(digits) if len(digits) <= len(str(depth)) else depth + 1
            targets.append((node, stack[tdepth] if tdepth <= depth else None, digits, line_no))
    for node, anc, tdepth, line_no in targets:
        if anc is None or anc.literal is None:
            raise ParseError(f"no ancestor at depth {tdepth}", line_no, 1)
        if anc.literal != node.literal.complement():
            raise ParseError(f"target at depth {tdepth} is not complementary", line_no, 1)
    return root

