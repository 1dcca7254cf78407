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

A tableau is given by its root node.  Tableaux are built
single-threaded, and every stage that changes one changes it in place:
`simplify_in_place` on the whole tree below a root, which `prove` runs on
the nodes of the proof it found and `hyper_convert` on its input;
`ground_tableau`, `assign_sides` and `hyper_convert` on the tableau their
caller hands them.

`prove` shares clause structure and makes no node while it searches: a
literal of a clause instance is a branch cell holding the clause's own
literal, the copy number of the instance, a functor key and the cells
above and below it, and the bindings are keyed by variable and copy
(`syntax.unify_copies`).  The search renames nothing; the nodes of a
proof, whose literals name the variable v of copy k `v_k`, are made once
the search has found it.
"""

from __future__ import annotations

import time
from itertools import islice
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
    apply_term,
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
# Nodes


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

    def inner_size(self) -> int:
        """Number of inner nodes (nodes with children) below this node, the
        node included."""
        return sum(1 for n in self.pre_order() if n.children)

    def copy_subtree(self) -> "Node":
        """A fresh copy of the subtree below this node, the node included."""
        top = Node(self.literal, self.side)
        copies = {self: top}
        below = self.pre_order()
        next(below)
        for n in below:
            c = copies[n] = Node(n.literal, n.side)
            c.parent = copies[n.parent]
            c.parent.children.append(c)
        return top

    def __repr__(self) -> str:
        return f"<Node {self.literal}>"


def clause_at(node: Node) -> tuple[Literal, ...]:
    """The clause attached below `node`: its children's literals in order."""
    return tuple(c.literal for c in node.children)


# ---------------------------------------------------------------------------
# The branch walk: closedness, targets, regularity, simplification

# the literals on a branch, each with its nodes on the branch, nearest last
Branch = dict[Literal, list[Node]]


def branch_walk(
    root: Node, on: Optional[Branch] = None
) -> Iterator[tuple[Node, int, Optional[Node]]]:
    """Each node of the tree `root` heads in pre-order, `root` first, with
    its depth and its target, the nearest ancestor labeled with the
    complementary literal; the root has depth 0 and no target.

    `on`, empty when given, holds the branch: while the caller holds a
    node, it holds the literals of the branch down to that node, the node
    included, and it is empty again when the walk ends.  A node's children
    are read only after the caller has seen the node, so the caller may
    replace or drop them first."""
    if on is None:
        on = {}
    yield root, 0, None
    # the nodes of the branch, each with an iterator over the children
    # still to visit
    stack = [(root, iter(root.children))]
    while stack:
        n = next(stack[-1][1], None)
        if n is None:
            left = stack.pop()[0].literal
            if stack:  # left a node below the root
                nodes = on[left]
                nodes.pop()
                if not nodes:
                    del on[left]
            continue
        closing = on.get(n.literal.complement())
        on.setdefault(n.literal, []).append(n)
        yield n, len(stack), closing[-1] if closing else None
        stack.append((n, iter(n.children)))


def is_closed(root: Node) -> bool:
    """True iff every branch of the tableau `root` heads contains
    complementary literals."""
    closed = True
    closing = 0  # depth of the highest node on the branch with a target, or 0
    for n, depth, target in branch_walk(root):
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


def simplify_in_place(root: Node) -> tuple[int, int]:
    """Make the tree `root` heads regular and leaf-closing, in place.
    Returns (splices, truncations).

    Regularity: a node repeating a literal of its branch causes the edges of
    its parent to be replaced by its own edges.  Leaf-closing: an inner
    closing node loses its outgoing edges.  Violations are fixed at first
    encounter in pre-order; neither operation can introduce a violation
    earlier in the walk, since both only shorten ancestor chains.  The walk
    visits only the nodes it keeps."""
    on: Branch = {}
    splices = truncations = 0
    for n, _, target in branch_walk(root, on):
        if target is not None and n.children:
            close_leaf(n, None)
            truncations += 1
            continue
        splices += clean_children(n, on, None)
    return splices, truncations


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
    root: Node,
    f_clauses: Iterable[Clause],
    g_clauses: Iterable[Clause],
    tie: str = "F",
) -> Node:
    """Attach F/G side labels to the nodes of the tableau `root` heads, in
    place, and return `root`: a clause instance of f_clauses gets side F,
    of g_clauses side G; instances of both follow the tie policy.  An
    instance is matched only against the clauses of its shape, the only
    ones `match_clause` does not reject."""
    if tie not in ("F", "G"):
        raise InputError(f"bad tie policy: {tie}")
    fcs = by_shape(f_clauses)
    gcs = by_shape(g_clauses)
    for n in root.pre_order():
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
    return root


# ---------------------------------------------------------------------------
# Grounding


def ground_tableau(
    root: Node,
    namer: FreshNamer,
    policy: str = "F",
) -> tuple[Node, frozenset[str], frozenset[str]]:
    """Instantiate remaining variables with dedicated fresh constants from
    the run's `namer`, in place.

    policy 'F' puts every fresh constant on the F side, 'G' on the G side,
    'alternate' round-robins.  Returns (root, fresh_F, fresh_G)."""
    if policy not in ("F", "G", "alternate"):
        raise InputError(f"bad grounding policy: {policy}")
    # first-occurrence order over the pre-order walk keeps this deterministic
    ordered = ordered_vars(a for n in islice(root.pre_order(), 1, None) for a in n.literal.args)
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
    if sub:
        for n in islice(root.pre_order(), 1, None):
            n.literal = map_literal_terms(n.literal, lambda t: apply_term(t, sub))
    return root, frozenset(s1), frozenset(s2)


# ---------------------------------------------------------------------------
# The hyper predicate


def is_hyper(root: Node) -> bool:
    """True iff the nodes labeled with a negative literal are exactly the
    leaves of the tableau `root` heads."""
    for n in islice(root.pre_order(), 1, None):
        if n.literal.positive == n.is_leaf:
            return False
    return True


# ---------------------------------------------------------------------------
# Proof search: iterative deepening, connection-driven extension,
# regularity pruning.  Deterministic for fixed inputs and limits.


class ProveResult:
    """What `prove` found; `tableau` is the root of the proof, None unless
    proved."""

    def __init__(self, status: str, tableau: Optional[Node], inferences: int, depth: int):
        self.status = status  # proved | saturated | depth_limit | timeout | inference_limit
        self.tableau = tableau
        self.inferences = inferences
        self.depth = depth

    @property
    def proved(self) -> bool:
        return self.status == "proved"


def finish_proof(start: list, binding: CopyStore) -> Node:
    """The root of the proof the search closed from the branch cells
    `start` of its start clause: the nodes are made here, once, each
    literal read in its copy through the bindings, with a variable v of
    copy k named `v_k`, and the tree is simplified in place."""
    table: dict = {}
    root = Node()
    todo = [(root, start)]
    while todo:
        parent, cells = todo.pop()
        for lit, k, _, _, children in cells:
            # a literal whose arguments are all ground reads the same in every copy
            if not all(map(is_ground, lit.args)):
                lit = map_literal_terms(lit, lambda t: resolve_copy(t, k, binding, table, _copy_var))
            n = Node(lit)
            parent.add(n)
            if children:
                todo.append((n, children))
    simplify_in_place(root)
    return root


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

    The search makes no node.  A literal of a clause instance on the
    search tree is a branch cell, `[literal, copy, key, parent cell,
    children cells or None]`, where the key numbers the literal's sign,
    predicate and arity; a reduction and the regularity check compare
    keys, not names.  The open goals are a cons list `(cell, rest)`, so an
    extension adds the cells of its other literals in front of the goals
    left.  `finish_proof` makes the nodes of the proof found.

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
    inferences = 0
    copies = 0
    cutoff = False

    # functor keys: twice the number of the literal's (predicate, arity),
    # numbered in clause order, plus 1 when it is positive, so that the key
    # of the complement is key ^ 1
    numbers: dict[tuple[str, int], int] = {}
    # a clause as the search reads it: its literals, whether each is ground
    # (the same in every copy) and their keys
    templates = []
    for c in cls:
        ground = []
        keys = []
        for l in c.literals:
            args = l.args
            ground.append(all(map(is_ground, args)))
            keys.append(2 * numbers.setdefault((l.predicate, len(args)), len(numbers)) + l.positive)
        templates.append((c.literals, ground, keys))
    # candidates[key]: the extension candidates of a goal with that key, as
    # (ordinal, template, literal index), where the ordinal numbers the
    # literals of the opposite sign in clause order; total[s] counts them
    # for a goal of sign bit s
    candidates: list[list] = [[] for _ in range(2 * len(numbers))]
    total = [0, 0]
    for t in templates:
        for idx, key in enumerate(t[2]):
            s = 1 - (key & 1)
            candidates[key ^ 1].append((total[s], t, idx))
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

    def regular(lits: tuple[Literal, ...], k: int, ground: list[bool], keys: list[int], path: list) -> bool:
        """No literal of `lits`, of copy k, equals the literal of a cell of
        `path`, the cells from the goal up, under the bindings; only
        literals of the same key are compared.  A ground literal equals its
        own object in every copy."""
        for lit, g, key in zip(lits, ground, keys):
            for cell in path:
                if cell[2] != key:
                    continue
                l, kl = cell[0], cell[1]
                if (l is lit and (g or kl == k)) or equal_copies(lit.args, k, l.args, kl, binding):
                    return False
        return True

    def closings(goals: tuple, limit: int) -> Iterator[Optional[tuple]]:
        """A choice point: the goals left after each way of closing the
        first of `goals`, in search order, None when none is left.  The
        bindings and children of a way hold while the caller works on the
        goals it yields."""
        nonlocal copies, cutoff
        goal, rest = goals
        g, kg, key = goal[0], goal[1], goal[2]
        args = g.args
        # reduction: close against an ancestor, nearest first; an ancestor of
        # another key than the complement's is counted but not tried
        closing = key ^ 1
        path = [goal]  # the cells from the goal up
        untried = 0
        cell = goal[3]
        while cell is not None:
            path.append(cell)
            if cell[2] != closing:
                untried += 1
                cell = cell[3]
                continue
            tick(untried + 1)
            untried = 0
            mark = len(trail)
            if not args or unify_copies(args, kg, cell[0].args, cell[1], binding, trail):
                yield rest
            undo(binding, trail, mark)
            cell = cell[3]
        if untried:
            tick(untried)
        # extension: attach a clause instance containing a closing literal
        # at the depth of the goal's children, the root being at depth 0
        if len(path) + 1 > limit:
            cutoff = True
            return
        counted = 0  # candidates counted so far, by ordinal
        for ordinal, (lits, ground, keys), idx in candidates[key]:
            # the candidates skipped before this one are counted and numbered
            tick(ordinal - counted + 1)
            copies += ordinal - counted + 1
            counted = ordinal + 1
            k = copies
            mark = len(trail)
            if (
                not args or unify_copies(args, kg, lits[idx].args, k, binding, trail, k)
            ) and regular(lits, k, ground, keys, path):
                cells = [[l, k, kl, goal, None] for l, kl in zip(lits, keys)]
                goal[4] = cells
                closed = cells[idx]
                left = rest
                for cell in reversed(cells):
                    if cell is not closed:
                        left = (cell, left)
                yield left
                goal[4] = None
            undo(binding, trail, mark)
        skipped = total[key & 1] - counted
        if skipped:
            tick(skipped)
            copies += skipped

    def solve(goals: tuple, limit: int) -> bool:
        """Whether every goal closes, searching depth first on a stack of
        choice points; a proof found keeps its bindings and children."""
        stack = [closings(goals, limit)]
        while stack:
            for rest in stack[-1]:
                if rest is None:
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
            for lits, _, keys in templates:
                copies += 1
                # a start clause is always regular: its only ancestor is the root
                start = [[l, copies, key, None, None] for l, key in zip(lits, keys)]
                goals = None
                for cell in reversed(start):
                    goals = (cell, goals)
                if solve(goals, limit):
                    # the abandoned choice points never undo their bindings
                    # or clear their children
                    return ProveResult("proved", finish_proof(start, binding), inferences, limit)
            if not cutoff:
                return ProveResult("saturated", None, inferences, limit)
    except _Deadline:
        return ProveResult("timeout", None, inferences, limit)
    except _InferenceCap:
        return ProveResult("inference_limit", None, inferences, limit)
    return ProveResult("depth_limit", None, inferences, max_depth)
