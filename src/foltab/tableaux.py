"""Clausal tableaux: the tree structure, closedness and targets, the
regularity / leaf-closing simplification, grounding, side assignment,
the hyper predicate, and a small connection-driven prover.

Tableaux are built single-threaded and treated as immutable afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .syntax import (
    App,
    Clause,
    FreshNamer,
    InputError,
    Literal,
    Subst,
    Term,
    Var,
    apply_term,
    match_term,
    term_functions,
    term_vars,
)


class StructureError(Exception):
    """A tableau violates a structural precondition."""


class ResourceLimitError(Exception):
    """A size or node limit was exceeded."""


# ---------------------------------------------------------------------------
# Nodes and tableaux


class Node:
    __slots__ = ("literal", "side", "children", "parent", "target", "depth")

    def __init__(self, literal: Optional[Literal] = None, side: Optional[str] = None):
        self.literal = literal
        self.side = side
        self.children: list[Node] = []
        self.parent: Optional[Node] = None
        self.target: Optional[Node] = None
        self.depth = 0

    def add(self, child: "Node") -> None:
        child.parent = self
        self.children.append(child)
        # renumber the whole moved subtree; children may arrive with depths
        # from a previous position
        stack = [(child, self.depth + 1)]
        while stack:
            n, d = stack.pop()
            n.depth = d
            for c in n.children:
                c.parent = n
                stack.append((c, d + 1))

    def set_children(self, children: list["Node"]) -> None:
        self.children = []
        for c in children:
            self.add(c)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def ancestors(self) -> Iterator["Node"]:
        n = self.parent
        while n is not None:
            yield n
            n = n.parent

    def pre_order(self) -> Iterator["Node"]:
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.children))

    def copy_subtree(self) -> tuple["Node", dict[int, "Node"]]:
        """Fresh copy; returns the copy and a map id(original) -> copy.
        Targets are not copied (they are recomputed by simplification)."""
        mapping: dict[int, Node] = {}

        def go(n: Node, depth: int) -> Node:
            c = Node(n.literal, n.side)
            c.depth = depth
            mapping[id(n)] = c
            for ch in n.children:
                cc = go(ch, depth + 1)
                cc.parent = c
                c.children.append(cc)
            return c

        return go(self, self.depth), mapping

    def __repr__(self) -> str:
        return f"<Node {self.literal}>"


class Tableau:
    def __init__(self, root: Node, source: Optional[tuple[Clause, ...]] = None):
        self.root = root
        self.source = source
        _renumber_depths(root)

    def nodes(self) -> Iterator[Node]:
        return self.root.pre_order()

    def non_root_nodes(self) -> Iterator[Node]:
        it = self.root.pre_order()
        next(it)
        return it

    def size(self) -> int:
        return sum(1 for _ in self.nodes())

    def inner_size(self) -> int:
        """Number of inner nodes (nodes with children, root included)."""
        return sum(1 for n in self.nodes() if n.children)

    def is_ground(self) -> bool:
        return all(
            not term_vars_of_literal(n.literal) for n in self.non_root_nodes()
        )

    def copy(self) -> "Tableau":
        root, _ = self.root.copy_subtree()
        return Tableau(root, self.source)


def _renumber_depths(root: Node) -> None:
    root.depth = 0
    stack = [root]
    while stack:
        n = stack.pop()
        for c in n.children:
            c.parent = n
            c.depth = n.depth + 1
            stack.append(c)


def term_vars_of_literal(l: Optional[Literal]) -> set[str]:
    if l is None:
        return set()
    out: set[str] = set()
    for a in l.args:
        out |= term_vars(a)
    return out


def clause_at(node: Node) -> tuple[Literal, ...]:
    """The clause attached below `node`: its children's literals in order."""
    return tuple(c.literal for c in node.children)


def tableau_clauses(tab: Tableau) -> list[tuple[Literal, ...]]:
    return [clause_at(n) for n in tab.nodes() if n.children]


# ---------------------------------------------------------------------------
# Closedness, closing nodes, targets


def _closing_target(node: Node) -> Optional[Node]:
    """Nearest ancestor with complementary literal, if any."""
    if node.literal is None:
        return None
    comp = node.literal.complement()
    for anc in node.ancestors():
        if anc.literal == comp:
            return anc
    return None


def is_closing(node: Node) -> bool:
    return _closing_target(node) is not None


def compute_targets(tab: Tableau) -> None:
    for n in tab.non_root_nodes():
        n.target = _closing_target(n)


def is_closed(tab: Tableau) -> bool:
    """True iff every branch contains complementary literals.

    Also populates target pointers (nearest complementary ancestor)."""
    compute_targets(tab)

    def closed(n: Node, inherited: bool) -> bool:
        here = inherited or n.target is not None
        if not n.children:
            return here
        return all(closed(c, here) for c in n.children)

    return closed(tab.root, False)


def is_leaf_closing(tab: Tableau) -> bool:
    return all(not is_closing(n) for n in tab.nodes() if n.children)


def is_leaf_closed(tab: Tableau) -> bool:
    return (
        is_closed(tab)
        and is_leaf_closing(tab)
        and all(is_closing(n) for n in tab.nodes() if not n.children)
    )


def is_regular(tab: Tableau) -> bool:
    def walk(n: Node, seen: frozenset[Literal]) -> bool:
        if n.literal is not None and n.literal in seen:
            return False
        seen2 = seen | ({n.literal} if n.literal is not None else frozenset())
        return all(walk(c, seen2) for c in n.children)

    return walk(tab.root, frozenset())


# ---------------------------------------------------------------------------
# Simplification to regular, leaf-closing form


def simplify_in_place(
    root: Node, counts: Optional[dict[Literal, int]] = None
) -> tuple[int, int]:
    """Make the tree regular and leaf-closing; returns (splices, truncations).

    Regularity: a node repeating an ancestor literal causes the edges of its
    parent to be replaced by its own edges.  Leaf-closing: an inner closing
    node loses its outgoing edges.  Violations are fixed at first encounter
    in pre-order; neither operation can introduce a violation earlier in the
    walk, since both only shorten ancestor chains.

    Without `counts`, `root` is the root of the tree.  With `counts`, only
    the part below `root` is simplified, exactly as the whole-tree walk
    would do it on reaching `root`: `counts` must then map each literal to
    its number of occurrences on the path from the tree's root down to
    `root`, both included (the tree's root carries no literal).  The counts
    are back to their given values on return.
    """
    splices = 0
    truncations = 0
    if counts is None:
        counts = {}

    def visit(n: Node) -> None:
        nonlocal splices, truncations
        # splice irregular children until the clause below n is clean
        restart = True
        while restart:
            restart = False
            for c in n.children:
                if counts.get(c.literal, 0) > 0:
                    n.set_children(c.children)
                    splices += 1
                    restart = True
                    break
        for c in n.children:
            if c.children and counts.get(c.literal.complement(), 0) > 0:
                c.children = []  # closing inner node becomes a leaf
                truncations += 1
            counts[c.literal] = counts.get(c.literal, 0) + 1
            visit(c)
            counts[c.literal] -= 1

    visit(root)
    return splices, truncations


def simplify(tab: Tableau) -> Tableau:
    """Regular, leaf-closing copy of tab, for the same clausal formula;
    closed if tab is closed."""
    out = tab.copy()
    simplify_in_place(out.root)
    compute_targets(out)
    return out


# ---------------------------------------------------------------------------
# Instance checks and side assignment


def match_clause(
    instance: tuple[Literal, ...], general: Clause
) -> Optional[Subst]:
    """Matching substitution making `general` equal to `instance`, in order."""
    if len(instance) != len(general.literals):
        return None
    sigma: Subst = {}
    for g, i in zip(general.literals, instance):
        if g.positive != i.positive or g.predicate != i.predicate or len(g.args) != len(i.args):
            return None
        for ga, ia in zip(g.args, i.args):
            got = match_term(ga, ia, sigma)
            if got is None:
                return None
            sigma = got
    return sigma


def is_instance_of_any(instance: tuple[Literal, ...], clauses: Iterable[Clause]) -> bool:
    return any(match_clause(instance, c) is not None for c in clauses)


def assign_sides(
    tab: Tableau,
    f_clauses: Iterable[Clause],
    g_clauses: Iterable[Clause],
    tie: str = "F",
) -> Tableau:
    """Attach F/G side labels: a clause instance of f_clauses gets side F,
    of g_clauses side G; instances of both follow the tie policy."""
    if tie not in ("F", "G"):
        raise InputError(f"bad tie policy: {tie}")
    fcs = tuple(f_clauses)
    gcs = tuple(g_clauses)
    out = tab.copy()
    for n in out.nodes():
        if not n.children:
            continue
        inst = clause_at(n)
        in_f = is_instance_of_any(inst, fcs)
        in_g = is_instance_of_any(inst, gcs)
        if in_f and in_g:
            side = tie
        elif in_f:
            side = "F"
        elif in_g:
            side = "G"
        else:
            raise StructureError(
                f"tableau clause is an instance of neither side: {' | '.join(map(str, inst))}"
            )
        for c in n.children:
            c.side = side
    compute_targets(out)
    return out


# ---------------------------------------------------------------------------
# Grounding


def ground_tableau(
    tab: Tableau,
    namer: Optional[FreshNamer] = None,
    policy: str = "F",
) -> tuple[Tableau, frozenset[str], frozenset[str]]:
    """Instantiate remaining variables with dedicated fresh constants.

    policy 'F' puts every fresh constant on the F side, 'G' on the G side,
    'alternate' round-robins.  Returns (tableau, fresh_F, fresh_G)."""
    if policy not in ("F", "G", "alternate"):
        raise InputError(f"bad grounding policy: {policy}")
    if namer is None:
        reserved: set[str] = set()
        for n in tab.non_root_nodes():
            if n.literal is not None:
                reserved.add(n.literal.predicate)
                for a in n.literal.args:
                    reserved |= term_functions(a)
        namer = FreshNamer(reserved)
    # first-occurrence order over the pre-order walk keeps this deterministic
    ordered: list[str] = []
    for n in tab.non_root_nodes():
        if n.literal is None:
            continue
        for a in n.literal.args:
            for v in _vars_in_order(a):
                if v not in ordered:
                    ordered.append(v)
    sub: Subst = {}
    s1: list[str] = []
    s2: list[str] = []
    for i, v in enumerate(ordered):
        name = namer.fresh("g")
        sub[v] = App(name)
        if policy == "F" or (policy == "alternate" and i % 2 == 0):
            s1.append(name)
        else:
            s2.append(name)
    out = tab.copy()
    if sub:
        for n in out.non_root_nodes():
            n.literal = Literal(
                n.literal.positive,
                n.literal.predicate,
                tuple(apply_term(a, sub) for a in n.literal.args),
            )
    compute_targets(out)
    return out, frozenset(s1), frozenset(s2)


def _vars_in_order(t: Term) -> list[str]:
    if isinstance(t, Var):
        return [t.name]
    out: list[str] = []
    for a in t.args:
        for v in _vars_in_order(a):
            if v not in out:
                out.append(v)
    return out


# ---------------------------------------------------------------------------
# The hyper predicate


def is_hyper(tab: Tableau) -> bool:
    """True iff the nodes labeled with a negative literal are exactly the
    leaves."""
    for n in tab.non_root_nodes():
        if n.literal.positive == n.is_leaf:
            return False
    return True


def atomic_cut_clauses(tab: Tableau) -> list[tuple[Literal, ...]]:
    out = []
    for inst in tableau_clauses(tab):
        if len(inst) == 2 and inst[0] == inst[1].complement():
            out.append(inst)
    return out


# ---------------------------------------------------------------------------
# Proof search: iterative deepening, connection-driven extension,
# regularity pruning.  Deterministic for fixed inputs and limits.


@dataclass
class ProveResult:
    status: str  # proved | saturated | depth_limit | timeout | inference_limit
    tableau: Optional[Tableau] = None
    inferences: int = 0
    depth: int = 0

    @property
    def proved(self) -> bool:
        return self.status == "proved"


class _Deadline(Exception):
    pass


class _InferenceCap(Exception):
    pass


def prove(
    clauses: Iterable[Clause],
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
) -> ProveResult:
    """Search for a leaf-closed closed clausal tableau for the clause set.

    On 'saturated' the search space was exhausted without hitting the depth
    limit, so no closed tableau exists at any depth."""
    cls = tuple(clauses)
    if not cls:
        raise InputError("prove expects a nonempty clause list")
    for c in cls:
        if not c.literals:
            raise InputError("prove cannot represent the empty clause; refutation is trivial")

    deadline = time.monotonic() + timeout if timeout is not None else None
    binding: Subst = {}
    trail: list[str] = []
    counters = {"inf": 0}
    cutoff = [False]
    copies = [0]

    def walk(t: Term) -> Term:
        while isinstance(t, Var) and t.name in binding:
            t = binding[t.name]
        return t

    def resolve(t: Term) -> Term:
        t = walk(t)
        if isinstance(t, Var):
            return t
        if not t.args:
            return t
        return App(t.functor, tuple(resolve(a) for a in t.args))

    def occurs(name: str, t: Term) -> bool:
        t = walk(t)
        if isinstance(t, Var):
            return t.name == name
        return any(occurs(name, a) for a in t.args)

    def unify_terms(a: Term, b: Term) -> bool:
        a = walk(a)
        b = walk(b)
        if a == b:
            return True
        if isinstance(a, Var):
            if occurs(a.name, b):
                return False
            binding[a.name] = b
            trail.append(a.name)
            return True
        if isinstance(b, Var):
            return unify_terms(b, a)
        if a.functor != b.functor or len(a.args) != len(b.args):
            return False
        return all(unify_terms(x, y) for x, y in zip(a.args, b.args))

    def unify_complement(l1: Literal, l2: Literal) -> bool:
        if l1.positive == l2.positive or l1.predicate != l2.predicate:
            return False
        if len(l1.args) != len(l2.args):
            return False
        return all(unify_terms(x, y) for x, y in zip(l1.args, l2.args))

    def undo(mark: int) -> None:
        while len(trail) > mark:
            del binding[trail.pop()]

    def tick() -> None:
        counters["inf"] += 1
        if max_inferences is not None and counters["inf"] > max_inferences:
            raise _InferenceCap
        if deadline is not None and counters["inf"] % 256 == 0:
            if time.monotonic() > deadline:
                raise _Deadline

    def instantiate(c: Clause) -> tuple[Literal, ...]:
        copies[0] += 1
        k = copies[0]
        ren: dict[str, Term] = {}

        def rt(t: Term) -> Term:
            if isinstance(t, Var):
                got = ren.get(t.name)
                if got is None:
                    got = Var(f"{t.name}_{k}")
                    ren[t.name] = got
                return got
            if not t.args:
                return t
            return App(t.functor, tuple(rt(a) for a in t.args))

        return tuple(Literal(l.positive, l.predicate, tuple(rt(a) for a in l.args)) for l in c.literals)

    def resolved_literal(l: Literal) -> Literal:
        return Literal(l.positive, l.predicate, tuple(resolve(a) for a in l.args))

    def regular(children: list[Node]) -> bool:
        for ch in children:
            lit = resolved_literal(ch.literal)
            for anc in ch.ancestors():
                if anc.literal is not None and resolved_literal(anc.literal) == lit:
                    return False
        return True

    def solve(goals: list[Node], limit: int) -> bool:
        if not goals:
            return True
        goal, rest = goals[0], goals[1:]
        # reduction: close against an ancestor
        for anc in goal.ancestors():
            if anc.literal is None:
                continue
            tick()
            mark = len(trail)
            if unify_complement(goal.literal, anc.literal):
                goal.target = anc
                if solve(rest, limit):
                    return True
                goal.target = None
            undo(mark)
        # extension: attach a clause instance containing a closing literal
        if goal.depth + 1 > limit:
            cutoff[0] = True
            return False
        for c in cls:
            for idx in range(len(c.literals)):
                if c.literals[idx].positive == goal.literal.positive:
                    continue
                tick()
                mark = len(trail)
                lits = instantiate(c)
                if unify_complement(goal.literal, lits[idx]):
                    children = [Node(l) for l in lits]
                    goal.set_children(children)
                    children[idx].target = goal
                    if regular(children):
                        new_goals = [ch for i, ch in enumerate(children) if i != idx]
                        if solve(new_goals + rest, limit):
                            return True
                    goal.children = []
                undo(mark)
        return False

    try:
        for limit in range(1, max_depth + 1):
            cutoff[0] = False
            for c in cls:
                root = Node()
                children = [Node(l) for l in instantiate(c)]
                root.set_children(children)
                if regular(children) and solve(children, limit):
                    for n in root.pre_order():
                        if n.literal is not None:
                            n.literal = resolved_literal(n.literal)
                    tab = simplify(Tableau(root, cls))
                    return ProveResult("proved", tab, counters["inf"], limit)
            if not cutoff[0]:
                return ProveResult("saturated", None, counters["inf"], limit)
    except _Deadline:
        return ProveResult("timeout", None, counters["inf"], 0)
    except _InferenceCap:
        return ProveResult("inference_limit", None, counters["inf"], 0)
    return ProveResult("depth_limit", None, counters["inf"], max_depth)
