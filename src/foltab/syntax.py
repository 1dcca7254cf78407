"""First-order syntax: terms, literals, clauses, formulas, and the
vocabulary / occurrence / unification machinery everything else builds on.

Terms, literals and formulas are immutable values.  The term kernel is the
one place that substitutes and unifies; the prover, proof import,
clausification, grounding and interpolation all use it:

- `apply_term` applies a substitution once, simultaneously;
- `walk`, `occurs`, `resolve` and `apply_literal` read a binding store;
- `unify_copies` extends a copy store, the prover's bindings of variables
  of numbered clause copies, and `undo` takes bindings back;
  `occurs_copy` and `equal_copies` read terms in their copies through it,
  and `resolve_copy` builds the terms they stand for, each distinct term
  once;
- `subterms` walks terms and `map_term` rebuilds them, outside in, in the
  one rebuild loop under `apply_term` and `resolve` too; literals are
  rebuilt only by `map_literal_terms`.  `is_ground` and `ordered_vars`
  inspect terms.

Every application carries a ground flag, set when it is made from the
flags of its arguments.  `is_ground` reads it, and `apply_term`,
`resolve`, `apply_literal`, `occurs`, the copy functions and
`ordered_vars` pass over a ground subterm without visiting it, so a
ground term or literal comes back as the same object at no cost in its
size, and a ground term is the same in every copy.

A binding store maps variable names to terms.  It is triangular: a bound
term may contain bound variables, and reading it follows them.  It is
acyclic: a variable is bound only after the occurs check, through the
store, has failed to find it in its term.  A copy store is the same with
(variable, copy) pairs for variables and (term, copy) pairs for terms.
Bindings made by `unify_copies` are recorded on a trail, and `undo`
removes them back to a mark, latest first.

Beside the term kernel, two formula walks carry the shape of formulas;
free variables, vocabulary, symbols, substitution and predicate renaming
are all written on them:

- `occurrences` reads: each literal and quantifier occurrence in
  pre-order, with its polarity and the names bound above it;
  `read_symbols` reads a formula's names, free variables, functions and
  signed predicates from it in one walk, and `vocabulary` is a view of
  that walk;
- `map_formula` rebuilds, bottom up, and calls its `binder` at each
  quantifier in pre-order (so fresh names are picked outside in).

`formula_subst` applies its substitution once, with `apply_term`: the
substitution is simultaneous, and following bindings in chains, as
`apply_literal` does, would apply it a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter, is_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union


class InputError(ValueError):
    """Malformed problem input: arity clash, namespace clash, bad value."""


# ---------------------------------------------------------------------------
# Terms

_set = object.__setattr__
_ground_of = attrgetter("_ground")


# Var, App and Literal compute their hash on first use and keep it in the
# `_hash` slot, so that hashing a deep term or literal is O(1) after the
# first time.  The slot is left unset by __init__ to keep construction (the
# prover builds far more terms than it hashes) cheap; the value is the hash
# of the field tuple, as the generated __hash__ would give.  An App hashed
# for the first time hashes its unhashed subterms first, bottom up on an
# explicit stack, so the tuple hash only reads cached values and hashing
# never recurses on term depth.  The parser hashes each application when it
# enters it in its term table, after its arguments.
#
# An App knows whether it is ground: __init__ sets `_ground` from the
# arguments' flags, in O(arity), since every subterm is made before the
# terms above it.  A variable's flag is the class attribute False.


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)
    _ground = False

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.name,))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return Var, (self.name,)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class App:
    """Function application; constants are 0-ary applications."""

    functor: str
    args: tuple["Term", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _ground: bool = field(init=False, repr=False, compare=False)

    def __init__(self, functor: str, args: tuple["Term", ...] = ()):
        _set(self, "functor", functor)
        _set(self, "args", args)
        _set(self, "_ground", all(map(_ground_of, args)))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        stack = [self]
        while stack:
            t = stack[-1]
            depth = len(stack)
            for a in t.args:
                if a.__class__ is App and not hasattr(a, "_hash"):
                    stack.append(a)
            if len(stack) == depth:  # every argument is hashed
                stack.pop()
                _set(t, "_hash", hash((t.functor, t.args)))
        return self._hash

    def __reduce__(self):
        return App, (self.functor, self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return f"{self.functor}({','.join(str(a) for a in self.args)})"


Term = Union[Var, App]


def subterms(*terms: Term) -> Iterator[Term]:
    """The subterm occurrences of `terms` in pre-order, left to right,
    each term itself included."""
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        yield t
        if t.__class__ is App and t.args:
            stack.extend(reversed(t.args))


def term_depth(t: Term) -> int:
    depth, level = 0, [t]
    while level:
        depth += 1
        level = [a for s in level if s.__class__ is App for a in s.args]
    return depth


def is_ground(t: Term) -> bool:
    return t._ground


def ordered_vars(terms: Iterable[Term]) -> list[str]:
    """Distinct variable names of `terms` in order of first occurrence,
    left to right and outside in."""
    out: dict[str, None] = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if t.__class__ is Var:
            out[t.name] = None
        elif not t._ground:
            stack.extend(reversed(t.args))
    return list(out)


# ---------------------------------------------------------------------------
# The term kernel: substitutions, binding stores, unification

Subst = dict[str, Term]

_REBUILD = object()


def _rebuild(t: Term, get: Callable, by_name: bool, again: bool) -> Term:
    """t with each outermost subterm s that has a replacement r replaced by
    r, or with `again` by r rebuilt in turn.  The replacement is get(s), or
    with `by_name` get(s.name) for a variable and none for an application;
    then a ground subterm cannot change and is not visited.  Subterms are
    read outside in, left to right; unchanged ones are shared."""
    out: list[Term] = []
    # a term to visit, or _REBUILD above an application to rebuild from `out`
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is _REBUILD:
            s = todo.pop()
            k = len(out) - len(s.args)
            args = tuple(out[k:])
            del out[k:]
            out.append(s if all(map(is_, args, s.args)) else App(s.functor, args))
            continue
        if not by_name:
            r = get(s)
        elif s.__class__ is Var:
            r = get(s.name)
        elif s._ground:
            out.append(s)
            continue
        else:
            r = None
        if r is not None:
            (todo if again else out).append(r)
        elif s.__class__ is App and s.args:
            todo.append(s)
            todo.append(_REBUILD)
            todo.extend(reversed(s.args))
        else:
            out.append(s)
    return out[0]


def map_term(t: Term, fn: Callable[[Term], Optional[Term]]) -> Term:
    """t with each outermost subterm s for which fn(s) is not None replaced
    by fn(s); fn is called outside in, left to right.  Unchanged subterms
    are shared with t."""
    return _rebuild(t, fn, False, False)


def apply_term(t: Term, subst: Subst) -> Term:
    """Apply a substitution once (no chain walking)."""
    return _rebuild(t, subst.get, True, False)


def walk(t: Term, store: Subst) -> Term:
    """Follow variable bindings in `store` until an unbound variable or an
    application."""
    while isinstance(t, Var) and t.name in store:
        t = store[t.name]
    return t


def occurs(name: str, t: Term, store: Subst) -> bool:
    """Whether variable `name` occurs in t under `store`, bindings followed."""
    stack = [t]
    while stack:
        t = walk(stack.pop(), store)
        if isinstance(t, Var):
            if t.name == name:
                return True
        elif not t._ground:
            stack.extend(t.args)
    return False


def resolve(t: Term, store: Subst) -> Term:
    """t with `store` applied in full: every bound variable is replaced by
    its binding, resolved in turn.  Unchanged subterms are shared."""
    return _rebuild(t, store.get, True, True)


def map_literal_terms(l: Literal, fn: Callable[[Term], Term]) -> Literal:
    """l with fn applied to each argument: the one literal rebuild.  l
    itself when every argument comes back unchanged."""
    args = tuple([fn(a) for a in l.args])
    if all(map(is_, args, l.args)):
        return l
    return Literal(l.positive, l.predicate, args)


def apply_literal(l: Literal, store: Subst) -> Literal:
    """l with `store` applied in full to its arguments; for an idempotent
    substitution this is the same as applying it once."""
    return map_literal_terms(l, lambda t: resolve(t, store)) if store else l


def undo(store: dict, trail: list, mark: int) -> None:
    """Remove the bindings recorded on `trail` after position `mark`."""
    while len(trail) > mark:
        del store[trail.pop()]


# Terms in numbered clause copies: the term t in copy k stands for t with
# each variable v renamed into copy k, and that variable is the pair
# (v, k).  A ground term is the same in every copy, so its copy number is
# never read.  Unification, the occurs check and equality build nothing;
# `resolve_copy` builds the term a copy stands for, once the store is
# final.

CopyStore = dict[tuple[str, int], tuple[Term, int]]


def occurs_copy(name: str, k: int, t: Term, kt: int, store: CopyStore) -> bool:
    """Whether variable (name, k) occurs in t in copy kt under `store`."""
    get = store.get
    stack = [(t, kt)]
    while stack:
        t, kt = stack.pop()
        while t.__class__ is Var:
            got = get((t.name, kt))
            if got is None:
                break
            t, kt = got
        if t.__class__ is Var:
            if kt == k and t.name == name:
                return True
        elif not t._ground:
            stack.extend([(a, kt) for a in t.args])
    return False


def unify_copies(
    xs: tuple[Term, ...], kx: int, ys: tuple[Term, ...], ky: int, store: CopyStore, trail: list
) -> bool:
    """Extend `store` to a unifier of each pair xs[i] in copy kx, ys[i] in
    copy ky, or fail; each binding made is recorded on `trail`.

    Pairs are solved left to right, outside in.  The left side is bound
    when it is a variable, else the right side when it is one; so of two
    variables the right one survives.  After a failure the store may hold
    some of the new bindings: undo to a mark taken before the call.

    Terms are compared by identity, a ground one in any copies, and
    variables by name and copy, never with the generated `==`, which
    recurses on term depth; equal applications that are distinct objects
    are decomposed, which binds nothing."""
    get = store.get
    todo = list(zip(xs, repeat(kx), ys, repeat(ky)))
    todo.reverse()
    while todo:
        a, ka, b, kb = todo.pop()
        while a.__class__ is Var:
            got = get((a.name, ka))
            if got is None:
                break
            a, ka = got
        while b.__class__ is Var:
            got = get((b.name, kb))
            if got is None:
                break
            b, kb = got
        if a is b and (ka == kb or a._ground):
            continue
        if a.__class__ is Var:
            if b.__class__ is Var and ka == kb and a.name == b.name:
                continue
            if not b._ground and occurs_copy(a.name, ka, b, kb, store):
                return False
            key = (a.name, ka)
            store[key] = (b, kb)
            trail.append(key)
        elif b.__class__ is Var:
            if not a._ground and occurs_copy(b.name, kb, a, ka, store):
                return False
            key = (b.name, kb)
            store[key] = (a, ka)
            trail.append(key)
        elif a.functor != b.functor or len(a.args) != len(b.args):
            return False
        elif a.args:
            todo.extend(zip(reversed(a.args), repeat(ka), reversed(b.args), repeat(kb)))
    return True


def equal_copies(
    xs: tuple[Term, ...], kx: int, ys: tuple[Term, ...], ky: int, store: CopyStore
) -> bool:
    """Whether xs in copy kx and ys in copy ky, of one length, stand for
    equal terms under `store`, compared as `unify_copies` compares them."""
    get = store.get
    todo = list(zip(xs, repeat(kx), ys, repeat(ky)))
    while todo:
        a, ka, b, kb = todo.pop()
        while a.__class__ is Var:
            got = get((a.name, ka))
            if got is None:
                break
            a, ka = got
        while b.__class__ is Var:
            got = get((b.name, kb))
            if got is None:
                break
            b, kb = got
        if a is b and (ka == kb or a._ground):
            continue
        if a.__class__ is Var or b.__class__ is Var:
            if a.__class__ is not b.__class__ or ka != kb or a.name != b.name:
                return False
        elif a.functor != b.functor or len(a.args) != len(b.args):
            return False
        else:
            todo.extend(zip(a.args, repeat(ka), b.args, repeat(kb)))
    return True


def resolve_copy(
    t: Term, k: int, store: CopyStore, table: dict, var: Callable[[str, int], Term]
) -> Term:
    """The term that t in copy k stands for under `store`, in full: a bound
    variable is replaced by its binding, read in the binding's copy, and
    an unbound variable v of copy j by var(v, j).

    `table` is the term table of one result and is kept across calls: a
    variable by name and copy, an application by functor and arguments.
    Each distinct term is made once, so equal terms come out as one object;
    a term of the input is kept when no equal one came first.  A term
    already read in a copy is found by identity, so reading it again
    visits none of its subterms."""
    get = store.get
    out: list[Term] = []
    todo: list = [(t, k)]
    while todo:
        s, ks = todo.pop()
        if s is _REBUILD:
            s, ks = todo.pop()
            n = len(out) - len(s.args)
            args = tuple(out[n:])
            del out[n:]
            key = (s.functor, args)
            r = table.get(key)
            if r is None:
                r = table[key] = s if all(map(is_, args, s.args)) else App(s.functor, args)
            table[id(s), ks] = r
            out.append(r)
            continue
        while s.__class__ is Var:
            got = get((s.name, ks))
            if got is None:
                break
            s, ks = got
        if s._ground:
            ks = 0
        r = table.get((id(s), ks))
        if r is not None:
            out.append(r)
        elif s.__class__ is Var:
            key = (s.name, ks)
            r = table.get(key)
            if r is None:
                r = table[key] = var(s.name, ks)
            out.append(r)
        else:
            todo.append((s, ks))
            todo.append((_REBUILD, 0))
            todo.extend([(a, ks) for a in reversed(s.args)])
    return out[0]


def match_term(pattern: Term, target: Term, sigma: Subst) -> bool:
    """One-way matching: extend `sigma`, in place, so that pattern*sigma ==
    target, and say whether that worked; on failure sigma may keep part of
    the extension."""
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            bound = sigma.get(p.name)
            if bound is None:
                sigma[p.name] = t
            elif bound != t:
                return False
        else:
            if not isinstance(t, App) or p.functor != t.functor or len(p.args) != len(t.args):
                return False
            stack.extend(zip(p.args, t.args))
    return True


# ---------------------------------------------------------------------------
# Formulas.  Literals are formula leaves; truth constants are separate leaves.


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Formula):
    positive: bool
    predicate: str
    args: tuple[Term, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _complement: "Literal" = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.positive, self.predicate, self.args))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return Literal, (self.positive, self.predicate, self.args)

    def complement(self) -> "Literal":
        """The literal of opposite sign, made once per literal object; the
        complement of the complement is this object."""
        try:
            return self._complement
        except AttributeError:
            c = Literal(not self.positive, self.predicate, self.args)
            object.__setattr__(self, "_complement", c)
            object.__setattr__(c, "_complement", self)
            return c

    def atom(self) -> "Literal":
        return self if self.positive else self.complement()

    def __str__(self) -> str:
        if self.predicate == "=" and len(self.args) == 2:
            return f"{self.args[0]} {'=' if self.positive else '!='} {self.args[1]}"
        body = self.predicate if not self.args else f"{self.predicate}({','.join(str(a) for a in self.args)})"
        return body if self.positive else "~" + body


@dataclass(frozen=True)
class Top(Formula):
    def __str__(self) -> str:
        return "$true"


@dataclass(frozen=True)
class Bottom(Formula):
    def __str__(self) -> str:
        return "$false"


TOP = Top()
BOTTOM = Bottom()


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class ForAll(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


def mk_and(parts: Iterable[Formula]) -> Formula:
    ps = tuple(parts)
    if not ps:
        return TOP
    if len(ps) == 1:
        return ps[0]
    return And(ps)


def mk_or(parts: Iterable[Formula]) -> Formula:
    ps = tuple(parts)
    if not ps:
        return BOTTOM
    if len(ps) == 1:
        return ps[0]
    return Or(ps)


# ---------------------------------------------------------------------------
# Clauses


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals; with conjunctive=True, a conjunction
    (as used in DNF matrices).  The empty disjunctive clause is false,
    the empty conjunctive clause is true."""

    literals: tuple[Literal, ...]
    conjunctive: bool = False

    def complemented(self) -> "Clause":
        return Clause(tuple(l.complement() for l in self.literals), not self.conjunctive)

    def __str__(self) -> str:
        if not self.literals:
            return "$true" if self.conjunctive else "$false"
        sep = " & " if self.conjunctive else " | "
        return sep.join(str(l) for l in self.literals)


def clause(literals: Iterable[Literal], conjunctive: bool = False) -> Clause:
    """Build a clause, dropping duplicate literals (first occurrence wins)."""
    return Clause(tuple(dict.fromkeys(literals)), conjunctive)


def literal_key(l: Literal):
    return (l.predicate, str(l.args), not l.positive)


def clause_formula(c: Clause) -> Formula:
    if c.conjunctive:
        return mk_and(c.literals)
    return mk_or(c.literals)


# ---------------------------------------------------------------------------
# The formula walks.  `occurrences` reads a formula and `map_formula`
# rebuilds one; every generic formula traversal below goes through them.
# Both keep an explicit stack, so nesting depth is not bounded by the
# interpreter's recursion limit.

# Polarities are bit sets: an occurrence under <=> has both.
POS, NEG, BOTH = 1, 2, 3
_FLIP = (0, NEG, POS, BOTH)


def occurrences(f: Formula) -> Iterator[tuple[Formula, int, frozenset[str]]]:
    """Each literal and quantifier occurrence of f once, in pre-order from
    left to right, as (occurrence, polarity, bound).

    For a literal the polarity is that of its atom: a negative literal in
    positive position has NEG.  `bound` holds the names bound above the
    occurrence; a quantifier's own variable is not among them."""
    stack: list[tuple[Formula, int, frozenset[str]]] = [(f, POS, frozenset())]
    while stack:
        g, pol, bound = stack.pop()
        cls = g.__class__
        if cls is Literal:
            yield g, (pol if g.positive else _FLIP[pol]), bound
        elif cls is And or cls is Or:
            for p in reversed(g.parts):
                stack.append((p, pol, bound))
        elif cls is Not:
            stack.append((g.body, _FLIP[pol], bound))
        elif cls is Implies:
            stack.append((g.rhs, pol, bound))
            stack.append((g.lhs, _FLIP[pol], bound))
        elif cls is Iff:
            stack.append((g.rhs, BOTH, bound))
            stack.append((g.lhs, BOTH, bound))
        elif cls is ForAll or cls is Exists:
            yield g, pol, bound
            stack.append((g.body, pol, bound | {g.var}))
        elif cls is not Top and cls is not Bottom:
            raise TypeError(f"not a formula: {g!r}")


def map_formula(
    f: Formula,
    literal: Callable[[Literal, object], Formula],
    binder: Optional[Callable[[str, object], tuple[str, object]]] = None,
    env: object = None,
) -> Formula:
    """f rebuilt bottom up, each literal l replaced by literal(l, env).

    `env` is passed down unchanged, except at a quantifier over v:
    binder(v, env) returns (w, env'), and the quantifier is rebuilt over w
    with env' for its body.  binder is called in pre-order, left to right;
    without it, quantifiers keep their variable and env.  Subformulas that
    come out unchanged are shared with f."""
    out: list[Formula] = []
    # (g, env, None) visits g; (g, _REBUILD, w) rebuilds g from `out`
    todo: list[tuple[Formula, object, Optional[str]]] = [(f, env, None)]
    while todo:
        g, e, w = todo.pop()
        cls = g.__class__
        if e is _REBUILD:
            if cls is And or cls is Or:
                k = len(out) - len(g.parts)
                parts = tuple(out[k:])
                del out[k:]
                out.append(g if all(map(is_, parts, g.parts)) else cls(parts))
            elif cls is Not:
                body = out.pop()
                out.append(g if body is g.body else Not(body))
            elif cls is Implies or cls is Iff:
                rhs = out.pop()
                lhs = out.pop()
                out.append(g if lhs is g.lhs and rhs is g.rhs else cls(lhs, rhs))
            else:
                body = out.pop()
                out.append(g if body is g.body and w == g.var else cls(w, body))
        elif cls is Literal:
            out.append(literal(g, e))
        elif cls is And or cls is Or:
            todo.append((g, _REBUILD, None))
            for p in reversed(g.parts):
                todo.append((p, e, None))
        elif cls is Not:
            todo.append((g, _REBUILD, None))
            todo.append((g.body, e, None))
        elif cls is Implies or cls is Iff:
            todo.append((g, _REBUILD, None))
            todo.append((g.rhs, e, None))
            todo.append((g.lhs, e, None))
        elif cls is ForAll or cls is Exists:
            w, inner = binder(g.var, e) if binder else (g.var, e)
            todo.append((g, _REBUILD, w))
            todo.append((g.body, inner, None))
        elif cls is Top or cls is Bottom:
            out.append(g)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return out[0]


# ---------------------------------------------------------------------------
# Free variables, polarity, vocabulary


def free_vars(f: Formula) -> set[str]:
    out: set[str] = set()
    for g, _, bound in occurrences(f):
        if g.__class__ is Literal:
            for s in subterms(*g.args):
                if s.__class__ is Var and s.name not in bound:
                    out.add(s.name)
    return out


class FormulaSymbols(NamedTuple):
    """What one walk of a formula reads off it."""

    names: frozenset[str]  # functions, predicates and variables, bound ones included
    free: frozenset[str]  # the free variables
    functions: frozenset[str]  # function symbols, constants included
    predicates: frozenset[tuple[str, str]]  # (predicate, polarity) pairs


def read_symbols(f: Formula) -> FormulaSymbols:
    """The symbol names, free variables, function symbols and signed
    predicates of f, from one `occurrences` walk."""
    names: set[str] = set()
    free: set[str] = set()
    funcs: set[str] = set()
    preds: set[tuple[str, str]] = set()
    for g, pol, bound in occurrences(f):
        if g.__class__ is Literal:
            names.add(g.predicate)
            if pol & POS:
                preds.add((g.predicate, "+"))
            if pol & NEG:
                preds.add((g.predicate, "-"))
            for s in subterms(*g.args):
                if s.__class__ is Var:
                    names.add(s.name)
                    if s.name not in bound:
                        free.add(s.name)
                else:
                    names.add(s.functor)
                    funcs.add(s.functor)
        else:
            names.add(g.var)
    return FormulaSymbols(frozenset(names), frozenset(free), frozenset(funcs), frozenset(preds))


def vocabulary(f: Formula) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    """Function symbols (constants included) and (predicate, polarity) pairs."""
    s = read_symbols(f)
    return s.functions, s.predicates


# ---------------------------------------------------------------------------
# Equality without recursion


def formula_equal(a: Formula, b: Formula) -> bool:
    """a == b, on an explicit stack: the generated __eq__ of formulas and
    terms recurses on their depth.  Literals and terms of different cached
    hashes differ, and an object equals itself without a look inside."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is Var:
            if x.name != y.name:
                return False
        elif cls is App or cls is Literal:
            if hash(x) != hash(y) or len(x.args) != len(y.args):
                return False
            if cls is App and x.functor != y.functor:
                return False
            if cls is Literal and (x.positive != y.positive or x.predicate != y.predicate):
                return False
            todo.extend(zip(x.args, y.args))
        elif cls is And or cls is Or:
            if len(x.parts) != len(y.parts):
                return False
            todo.extend(zip(x.parts, y.parts))
        elif cls is Not:
            todo.append((x.body, y.body))
        elif cls is Implies or cls is Iff:
            todo.extend(((x.lhs, y.lhs), (x.rhs, y.rhs)))
        elif cls is ForAll or cls is Exists:
            if x.var != y.var:
                return False
            todo.append((x.body, y.body))
    return True


# ---------------------------------------------------------------------------
# Maximal occurrences of member terms in an NNF


def smax_by(member: Callable[[Term], bool], f: Formula) -> list[Term]:
    """Terms t with member(t) that occur in f at a position not inside
    another member term, in order of first occurrence.  f must be
    quantifier-free NNF."""
    out: dict[Term, None] = {}
    todo: list = [f]
    while todo:
        g = todo.pop()
        cls = g.__class__
        if cls is And or cls is Or:
            todo.extend(reversed(g.parts))
        elif cls is Literal:
            todo.extend(reversed(g.args))
        elif cls is App or cls is Var:
            if member(g):
                out[g] = None
            elif cls is App:
                todo.extend(reversed(g.args))
        elif cls is not Top and cls is not Bottom:
            raise InputError("smax expects a quantifier-free NNF")
    return list(out)


def clause_vars(c: Clause) -> set[str]:
    return {s.name for l in c.literals for s in subterms(*l.args) if s.__class__ is Var}


def clause_sign_vars(c: Clause, positive: bool) -> set[str]:
    return clause_vars(Clause(tuple(l for l in c.literals if l.positive == positive)))


# ---------------------------------------------------------------------------
# Structure-preserving walks


def map_formula_terms(f: Formula, fn: Callable[[Term], Term]) -> Formula:
    return map_formula(f, lambda l, _: map_literal_terms(l, fn))


def formula_subst(f: Formula, subst: Subst) -> Formula:
    """Apply a substitution to free variable occurrences (capture-aware)."""
    if not subst:
        return f

    def binder(v: str, s: Subst) -> tuple[str, Subst]:
        return v, ({u: t for u, t in s.items() if u != v} if v in s else s)

    return map_formula(
        f, lambda l, s: map_literal_terms(l, lambda t: apply_term(t, s)), binder, subst
    )


def rename_predicates(f: Formula, mapping: dict[str, str]) -> Formula:
    return map_formula(
        f, lambda l, _: Literal(l.positive, mapping.get(l.predicate, l.predicate), l.args)
    )


# ---------------------------------------------------------------------------
# Signatures and fresh names


@dataclass
class Signature:
    functions: dict[str, int]
    predicates: dict[str, int]
    # the application objects checked, by identity, each kept alive here
    checked: dict[int, "App"] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def empty(cls) -> "Signature":
        return cls({}, {})

    def add_function(self, name: str, arity: int) -> None:
        if name in self.predicates:
            raise InputError(f"symbol used as both function and predicate: {name}")
        old = self.functions.get(name)
        if old is not None and old != arity:
            raise InputError(f"arity clash for function {name}: {old} vs {arity}")
        self.functions[name] = arity

    def add_predicate(self, name: str, arity: int) -> None:
        if name in self.functions:
            raise InputError(f"symbol used as both function and predicate: {name}")
        old = self.predicates.get(name)
        if old is not None and old != arity:
            raise InputError(f"arity clash for predicate {name}: {old} vs {arity}")
        self.predicates[name] = arity

    def extend_with_literal(self, l: Literal) -> None:
        self.add_predicate(l.predicate, len(l.args))
        self.extend_with_terms(l.args)

    def extend_with_line(self, line: int, literals: Iterable[Literal], terms: Iterable[Term] = ()) -> None:
        """Add the symbols of the literals, then of the terms, of line `line`
        of a document; a clash names the line."""
        try:
            for l in literals:
                self.extend_with_literal(l)
            self.extend_with_terms(terms)
        except InputError as e:
            raise InputError(f"{e} at line {line}") from None

    def extend_with_terms(self, terms: Iterable[Term]) -> None:
        """Add the function symbols of `terms`, in pre-order.  An application
        object checked before is skipped with its subterms, which were
        checked with it; the parser shares equal terms, so each term of a
        document is checked once."""
        checked = self.checked
        stack = list(terms)[::-1]
        while stack:
            t = stack.pop()
            if t.__class__ is App and id(t) not in checked:
                checked[id(t)] = t
                self.add_function(t.functor, len(t.args))
                stack.extend(reversed(t.args))

class FreshNamer:
    """Deterministic generator of names not colliding with a reserved set."""

    def __init__(self, reserved: Iterable[str] = ()):
        self._used = set(reserved)
        self._counters: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        n = self._counters.get(base, 0)
        while True:
            n += 1
            cand = f"{base}{n}"
            if cand not in self._used:
                break
        self._counters[base] = n
        self._used.add(cand)
        return cand
