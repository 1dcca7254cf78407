"""Clausal tableaux: the tree structure, closedness and targets, the
regularity / leaf-closing simplification, grounding, side assignment,
the hyper predicate, and a small connection-driven prover.

A node stores its literal (None at the root), its side (F, G or None),
its children and its parent, and nothing else.  Its depth and its target
are facts of its position in the tree, and `branch_walk` yields both.

Every walker over a tableau's branches runs on `branch_walk`: one
iterative pre-order walk that keeps, per literal, the stack of the nodes
on the current branch labeled with it.  A node's target is its nearest
ancestor labeled with the complementary literal, the top of that
literal's stack, so the walk is linear in the size of the tree.

Tableaux are built single-threaded.  `simplify_below` works in place on
the nodes it is given; `simplify` and `hyper_convert` run it on a copy and
leave their input as it is, and `prove` runs it on the search tree of the
proof it found.  `ground_tableau` and `assign_sides` work in place too, on
the tableau their caller owns.

`prove` shares clause structure: a clause instance is the clause's own
literals and a copy number, kept beside the node the instance hangs from,
and the bindings are keyed by variable and copy (`syntax.unify_copies`).
The search renames nothing; the literals of a proof, with the variable v
of copy k named `v_k`, are built once the search has found it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

from .syntax import (
    App,
    Clause,
    CopyStore,
    FreshNamer,
    InputError,
    Literal,
    Subst,
    Var,
    apply_literal,
    equal_copies,
    is_ground,
    map_literal_terms,
    match_term,
    ordered_vars,
    resolve_copy,
    undo,
    unify_copies,
)


class StructureError(Exception):
    """A tableau violates a structural precondition."""


class ResourceLimitError(Exception):
    """A size or node limit was exceeded."""


# ---------------------------------------------------------------------------
# Nodes and tableaux


class Node:
    __slots__ = ("literal", "side", "children", "parent")

    def __init__(self, literal: Optional[Literal] = None, side: Optional[str] = None):
        self.literal = literal
        self.side = side
        self.children: list[Node] = []
        self.parent: Optional[Node] = None

    def add(self, child: "Node") -> None:
        child.parent = self
        self.children.append(child)

    def set_children(self, children: list["Node"]) -> None:
        self.children = []
        for c in children:
            self.add(c)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def pre_order(self) -> Iterator["Node"]:
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.children))

    def copy_subtree(self) -> tuple["Node", dict[int, "Node"]]:
        """Fresh copy; returns the copy and a map id(original) -> copy."""
        top = Node(self.literal, self.side)
        mapping = {id(self): top}
        below = self.pre_order()
        next(below)
        for n in below:
            c = mapping[id(n)] = Node(n.literal, n.side)
            c.parent = mapping[id(n.parent)]
            c.parent.children.append(c)
        return top, mapping

    def __repr__(self) -> str:
        return f"<Node {self.literal}>"


class Tableau:
    def __init__(self, root: Node):
        self.root = root

    def nodes(self) -> Iterator[Node]:
        return self.root.pre_order()

    def non_root_nodes(self) -> Iterator[Node]:
        it = self.root.pre_order()
        next(it)
        return it

    def inner_size(self) -> int:
        """Number of inner nodes (nodes with children, root included)."""
        return sum(1 for n in self.nodes() if n.children)

    def copy(self) -> "Tableau":
        root, _ = self.root.copy_subtree()
        return Tableau(root)


def shared(l: Literal, atoms: dict[Literal, Literal]) -> Literal:
    """The object for l's atom and sign, from `atoms`, which maps each atom
    of one tableau to itself: a negative literal is its atom's complement,
    so the walks find equal literals of the tableau by identity."""
    atom = l.atom()
    atom = atoms.setdefault(atom, atom)
    return atom if l.positive else atom.complement()


def clause_at(node: Node) -> tuple[Literal, ...]:
    """The clause attached below `node`: its children's literals in order."""
    return tuple(c.literal for c in node.children)


# ---------------------------------------------------------------------------
# The branch walk: closedness, targets, regularity, simplification

# the literals on a branch, each with its nodes on the branch, nearest last
Branch = dict[Literal, list[Node]]


def branch_walk(
    start: Node, on: Optional[Branch] = None
) -> Iterator[tuple[Node, int, Optional[Node]]]:
    """Each node below `start` in pre-order, with its depth below `start`
    and its target, the nearest ancestor labeled with the complementary
    literal.

    `on` holds the branch down to `start` (empty when `start` is the
    root); while the caller holds a node, it holds the
    branch down to that node, the node included, and it is back as given
    when the walk ends.  A node's children are read only after the caller
    has seen the node, so the caller may replace or drop them first."""
    if on is None:
        on = {}
    # start and the nodes below it on the branch, each with an iterator
    # over the children still to visit
    stack = [(start, iter(start.children))]
    while stack:
        n = next(stack[-1][1], None)
        if n is None:
            left = stack.pop()[0].literal
            if stack:  # left a node below start
                nodes = on[left]
                nodes.pop()
                if not nodes:
                    del on[left]
            continue
        closing = on.get(n.literal.complement())
        on.setdefault(n.literal, []).append(n)
        yield n, len(stack), closing[-1] if closing else None
        stack.append((n, iter(n.children)))


def is_closed(tab: Tableau) -> bool:
    """True iff every branch contains complementary literals."""
    closed = bool(tab.root.children)
    closing = 0  # depth of the highest node on the branch with a target, or 0
    for n, depth, target in branch_walk(tab.root):
        if not 0 < closing < depth:
            closing = 0 if target is None else depth
        if not closing and not n.children:
            closed = False
    return closed


# ---------------------------------------------------------------------------
# Simplification to regular, leaf-closing form


def clean_children(n: Node, on: Branch, dropped: Optional[list[Node]]) -> int:
    """Give n the children it keeps under regularity on the branch `on`:
    while one of them repeats a literal of the branch, they are replaced by
    that one's children, which it hands over.  Returns the number of
    replacements.  When `dropped` is a list, it receives the top of each
    subtree that leaves the tree, whose parent is still `n`."""
    children = n.children
    splices = 0
    while True:
        for c in children:
            c.parent = n
        for c in children:
            if on.get(c.literal):
                break
        else:
            n.children = children
            return splices
        if dropped is not None:
            dropped.extend(children)
        children, c.children = c.children, []
        splices += 1


def close_leaf(n: Node, dropped: Optional[list[Node]]) -> None:
    """The closing inner node `n` becomes a leaf; its children go to
    `dropped` when it is a list."""
    if dropped is not None:
        dropped.extend(n.children)
    n.children = []


def simplify_below(top: Node, children: list[Node], on: Branch) -> tuple[int, int]:
    """Make `children` the children of `top` and the tree below `top`
    regular and leaf-closing, in place, as the whole-tree walk makes it on
    reaching `top`, whose branch is `on`.  Returns (splices, truncations).

    Regularity: a node repeating a literal of its branch causes the edges of
    its parent to be replaced by its own edges.  Leaf-closing: an inner
    closing node loses its outgoing edges.  Violations are fixed at first
    encounter in pre-order; neither operation can introduce a violation
    earlier in the walk, since both only shorten ancestor chains.  The walk
    visits only the nodes it keeps."""
    top.children = children
    splices = truncations = 0
    for n, _, target in chain([(top, 0, None)], branch_walk(top, on)):
        if target is not None and n.children:
            close_leaf(n, None)
            truncations += 1
            continue
        splices += clean_children(n, on, None)
    return splices, truncations


def simplify(tab: Tableau) -> Tableau:
    """Regular, leaf-closing copy of tab, for the same clausal formula;
    closed if tab is closed."""
    out = tab.copy()
    simplify_below(out.root, out.root.children, {})
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
            if not match_term(ga, ia, sigma):
                return None
    return sigma


def shape(literals: Iterable[Literal]) -> tuple:
    """The (sign, predicate, arity) of each literal, in order: an instance
    of a clause has the clause's shape."""
    return tuple((l.positive, l.predicate, len(l.args)) for l in literals)


def by_shape(clauses: Iterable[Clause]) -> dict[tuple, list[Clause]]:
    """The clauses of each shape, in their order."""
    out: dict[tuple, list[Clause]] = {}
    for c in clauses:
        out.setdefault(shape(c.literals), []).append(c)
    return out


def assign_sides(
    tab: Tableau,
    f_clauses: Iterable[Clause],
    g_clauses: Iterable[Clause],
    tie: str = "F",
) -> Tableau:
    """Attach F/G side labels to the nodes of tab, in place, and return
    tab: a clause instance of f_clauses gets side F, of g_clauses side G;
    instances of both follow the tie policy.  An instance is matched only
    against the clauses of its shape, the only ones `match_clause` does not
    reject."""
    if tie not in ("F", "G"):
        raise InputError(f"bad tie policy: {tie}")
    fcs = by_shape(f_clauses)
    gcs = by_shape(g_clauses)
    for n in tab.nodes():
        if not n.children:
            continue
        inst = clause_at(n)
        key = shape(inst)
        in_f = any(match_clause(inst, c) is not None for c in fcs.get(key, ()))
        in_g = any(match_clause(inst, c) is not None for c in gcs.get(key, ()))
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
    return tab


# ---------------------------------------------------------------------------
# Grounding


def ground_tableau(
    tab: Tableau,
    namer: FreshNamer,
    policy: str = "F",
) -> tuple[Tableau, frozenset[str], frozenset[str]]:
    """Instantiate remaining variables with dedicated fresh constants from
    the run's `namer`, in place.

    policy 'F' puts every fresh constant on the F side, 'G' on the G side,
    'alternate' round-robins.  Returns (tab, fresh_F, fresh_G)."""
    if policy not in ("F", "G", "alternate"):
        raise InputError(f"bad grounding policy: {policy}")
    # first-occurrence order over the pre-order walk keeps this deterministic
    ordered = ordered_vars(
        a for n in tab.non_root_nodes() if n.literal is not None for a in n.literal.args
    )
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
    atoms: dict[Literal, Literal] = {}
    for n in tab.non_root_nodes():
        n.literal = shared(apply_literal(n.literal, sub), atoms)
    return tab, frozenset(s1), frozenset(s2)


# ---------------------------------------------------------------------------
# The hyper predicate


def is_hyper(tab: Tableau) -> bool:
    """True iff the nodes labeled with a negative literal are exactly the
    leaves."""
    for n in tab.non_root_nodes():
        if n.literal.positive == n.is_leaf:
            return False
    return True


# ---------------------------------------------------------------------------
# Proof search: iterative deepening, connection-driven extension,
# regularity pruning.  Deterministic for fixed inputs and limits.


@dataclass
class ProveResult:
    """What `prove` found; `tableau` is the proof, None unless proved."""

    status: str  # proved | saturated | depth_limit | timeout | inference_limit
    tableau: Optional[Tableau]
    inferences: int
    depth: int

    @property
    def proved(self) -> bool:
        return self.status == "proved"


def finish_proof(root: Node, binding: CopyStore, copy_of: dict[Node, int]) -> Tableau:
    """The proof the search closed below `root`, whose tree holds each
    clause's own literals and, in `copy_of`, the copy number of each clause
    instance: every literal is read in its copy through the bindings, a
    variable v of copy k is named `v_k`, each distinct term is made once,
    one literal object is shared per atom and sign, and the tree is
    simplified in place."""
    table: dict = {}
    atoms: dict[Literal, Literal] = {}
    tab = Tableau(root)
    for n in tab.non_root_nodes():
        k = copy_of[n.parent]
        n.literal = shared(
            map_literal_terms(n.literal, lambda t: resolve_copy(t, k, binding, table, _copy_var)),
            atoms,
        )
    simplify_below(root, root.children, {})
    return tab


def _copy_var(name: str, k: int) -> Var:
    """Variable `name` of clause copy k, as a proof names it."""
    return Var(f"{name}_{k}")


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
    limit, so no closed tableau exists at any depth.

    Counting: one inference per reduction attempt (each ancestor of a goal)
    and one per extension candidate (each literal of the opposite sign in
    the clause set, in clause order), including the candidates whose
    predicate or arity rules them out and which are therefore never
    unified.  Clause copies are numbered the same way: the k-th candidate
    counted is copy k, whose variables a proof names `X_k`, so the variable
    names of a proof do not depend on which candidates were skipped.  A
    copy is a number, not a renamed clause: the search keeps each clause's
    own literals with the copy number of their instance and binds
    variables by (name, copy), and nothing is renamed before a proof is
    found.  A search stopped by `max_inferences` reports
    `max_inferences + 1` inferences; the deadline is checked whenever the
    count reaches a multiple of 256.  When `timeout` or `max_inferences`
    stops the search, `depth` is the deepening limit it had reached.

    Deepening limit 1 is counted in closed form, not searched: a start
    clause's goals have no ancestor but the root and an extension needs
    depth 2, so no clause closes there, no inference is counted and each
    clause takes one copy number (with n clauses, the first copy of limit 2
    is copy n + 1).  A proof is finished (`finish_proof`) before it is
    returned."""
    cls = tuple(clauses)
    if not cls:
        raise InputError("prove expects a nonempty clause list")
    for c in cls:
        if not c.literals:
            raise InputError("prove cannot represent the empty clause; refutation is trivial")

    deadline = time.monotonic() + timeout if timeout is not None else None
    binding: CopyStore = {}
    trail: list[tuple[str, int]] = []
    # the copy number of the clause instance attached below each inner node
    # of the search tree, the root included
    copy_of: dict[Node, int] = {}
    inferences = 0
    copies = 0
    cutoff = False

    # a clause as the search reads it: its literals and, for each, whether
    # it is ground, the same in every copy
    templates = [(c.literals, tuple(all(map(is_ground, l.args)) for l in c.literals)) for c in cls]
    # candidates[s][(predicate, arity)]: the extension candidates of a goal
    # of sign s, as (ordinal, template, literal index), where the ordinal
    # numbers the literals of sign not s in clause order; total[s] counts them
    candidates: dict[bool, dict[tuple[str, int], list]] = {True: {}, False: {}}
    total = {True: 0, False: 0}
    for t in templates:
        for idx, l in enumerate(t[0]):
            s = not l.positive
            candidates[s].setdefault((l.predicate, len(l.args)), []).append((total[s], t, idx))
            total[s] += 1

    def tick(n: int) -> None:
        """Count n inferences, stopping at the cap or the deadline exactly
        where counting them one by one would have stopped."""
        nonlocal inferences
        start = inferences
        end = start + n
        capped = max_inferences is not None and end > max_inferences
        checked = max_inferences if capped else end
        if deadline is not None and checked // 256 > start // 256:
            if time.monotonic() > deadline:
                inferences = (start // 256 + 1) * 256
                raise _Deadline
        if capped:
            inferences = max_inferences + 1
            raise _InferenceCap
        inferences = end

    def regular(lits: tuple[Literal, ...], k: int, ground: tuple[bool, ...], path: list[Node]) -> bool:
        """No literal of `lits`, of copy k, equals the literal of a node of
        `path`, the nodes from the goal up, under the bindings; only
        literals of the same sign, predicate and arity are compared.  A
        ground literal equals its own object in every copy."""
        for lit, g in zip(lits, ground):
            for n in path:
                l = n.literal
                if l is not lit and (
                    l.predicate != lit.predicate or l.positive != lit.positive or len(l.args) != len(lit.args)
                ):
                    continue
                kl = copy_of[n.parent]
                if (l is lit and (g or kl == k)) or equal_copies(lit.args, k, l.args, kl, binding):
                    return False
        return True

    def closings(goals: list[Node], limit: int) -> Iterator[list[Node]]:
        """A choice point: the goals left after each way of closing the
        first of `goals`, in search order.  The bindings and children of a
        way hold while the caller works on the goals it yields."""
        nonlocal copies, cutoff
        goal, rest = goals[0], goals[1:]
        g = goal.literal
        kg = copy_of[goal.parent]
        # reduction: close against an ancestor, nearest first; an ancestor of
        # the wrong sign, predicate or arity is counted but not tried
        path = [goal]  # the nodes from the goal up
        untried = 0
        n = goal.parent
        while n.literal is not None:
            l = n.literal
            path.append(n)
            up = n.parent
            if l.predicate != g.predicate or l.positive == g.positive or len(l.args) != len(g.args):
                untried += 1
                n = up
                continue
            tick(untried + 1)
            untried = 0
            mark = len(trail)
            if not g.args or unify_copies(g.args, kg, l.args, copy_of[up], binding, trail):
                yield rest
            undo(binding, trail, mark)
            n = up
        if untried:
            tick(untried)
        # extension: attach a clause instance containing a closing literal
        # at the depth of the goal's children, the root being at depth 0
        if len(path) + 1 > limit:
            cutoff = True
            return
        counted = 0  # candidates counted so far, by ordinal
        for ordinal, (lits, ground), idx in candidates[g.positive].get((g.predicate, len(g.args)), ()):
            # the candidates skipped before this one are counted and numbered
            tick(ordinal - counted + 1)
            copies += ordinal - counted + 1
            counted = ordinal + 1
            k = copies
            mark = len(trail)
            if (
                not g.args or unify_copies(g.args, kg, lits[idx].args, k, binding, trail)
            ) and regular(lits, k, ground, path):
                children = [Node(l) for l in lits]
                for ch in children:
                    ch.parent = goal
                goal.children = children
                copy_of[goal] = k
                yield children[:idx] + children[idx + 1:] + rest
                goal.children = []
            undo(binding, trail, mark)
        # the goal is a leaf again, and the numbers kept beside the search
        # tree keep no node of an abandoned branch alive
        copy_of.pop(goal, None)
        skipped = total[g.positive] - counted
        if skipped:
            tick(skipped)
            copies += skipped

    def solve(goals: list[Node], limit: int) -> bool:
        """Whether every goal closes, searching depth first on a stack of
        choice points; a proof found keeps its bindings and children."""
        stack = [closings(goals, limit)]
        while stack:
            for rest in stack[-1]:
                if not rest:
                    return True
                stack.append(closings(rest, limit))
                break
            else:
                stack.pop()
        return False

    copies = len(templates)  # limit 1, in closed form
    limit = 0
    try:
        for limit in range(2, max_depth + 1):
            cutoff = False
            for lits, _ in templates:
                copies += 1
                root = Node()
                # a start clause is always regular: its only ancestor is the root
                root.set_children([Node(l) for l in lits])
                copy_of[root] = copies
                if solve(root.children, limit):
                    # the abandoned choice points never undo their bindings
                    # or take back their copy numbers
                    return ProveResult("proved", finish_proof(root, binding, copy_of), inferences, limit)
                del copy_of[root]
            if not cutoff:
                return ProveResult("saturated", None, inferences, limit)
    except _Deadline:
        return ProveResult("timeout", None, inferences, limit)
    except _InferenceCap:
        return ProveResult("inference_limit", None, inferences, limit)
    return ProveResult("depth_limit", None, inferences, max_depth)
