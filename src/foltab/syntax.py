"""First-order syntax: terms, literals, clauses, formulas, and the
vocabulary / occurrence / unification machinery everything else builds on.

Terms, literals and formulas are immutable values.  The term kernel is the
one place that substitutes and unifies; the prover, proof import,
clausification, grounding and interpolation all use it:

- `apply_term` applies a substitution once, simultaneously;
- `walk`, `occurs`, `resolve` and `apply_literal` read a binding store;
- `bind`, `unify_args` and `undo` extend a binding store and take it back;
- `unify` returns an idempotent most general unifier;
- `is_ground` and `ordered_vars` inspect terms.

A binding store maps variable names to terms.  It is triangular: a bound
term may contain bound variables, and reading it follows them.  It is
acyclic: a variable is bound only after the occurs check, through the
store, has failed to find it in its term.  Bindings made by `bind` are
recorded on a trail, and `undo` removes them back to a mark, latest first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Iterable, Iterator, Optional, Union


class InputError(ValueError):
    """Malformed problem input: arity clash, namespace clash, bad value."""


# ---------------------------------------------------------------------------
# Terms


# Var, App and Literal compute their hash on first use and keep it in the
# `_hash` slot, so that hashing a deep term or literal is O(1) after the
# first time.  The slot is left unset by __init__ to keep construction (the
# prover builds far more terms than it hashes) as cheap as before; the value
# is the hash of the field tuple, as the generated __hash__ would give.


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

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

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.functor, self.args))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return App, (self.functor, self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.functor
        return f"{self.functor}({','.join(str(a) for a in self.args)})"


Term = Union[Var, App]


def const(name: str) -> App:
    return App(name)


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def term_functions(t: Term) -> set[str]:
    if isinstance(t, Var):
        return set()
    out = {t.functor}
    for a in t.args:
        out |= term_functions(a)
    return out


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    if not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def subterms(t: Term) -> Iterator[Term]:
    """All subterm occurrences in pre-order, including t itself."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def is_ground(t: Term) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            return False
        stack.extend(t.args)
    return True


def ordered_vars(terms: Iterable[Term]) -> list[str]:
    """Distinct variable names of `terms` in order of first occurrence,
    left to right and outside in."""
    out: dict[str, None] = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out[t.name] = None
        else:
            stack.extend(reversed(t.args))
    return list(out)


# ---------------------------------------------------------------------------
# The term kernel: substitutions, binding stores, unification

Subst = dict[str, Term]


def apply_term(t: Term, subst: Subst) -> Term:
    """Apply a substitution once (no chain walking)."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if not t.args:
        return t
    return App(t.functor, tuple(apply_term(a, subst) for a in t.args))


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
        else:
            stack.extend(t.args)
    return False


def resolve(t: Term, store: Subst) -> Term:
    """t with `store` applied in full: every bound variable is replaced by
    its binding, resolved in turn.  Unchanged subterms are shared."""
    while isinstance(t, Var):  # walk, inlined: this is the prover's hot path
        bound = store.get(t.name)
        if bound is None:
            return t
        t = bound
    if not t.args:
        return t
    args = tuple([resolve(a, store) for a in t.args])
    if all(map(is_, args, t.args)):
        return t
    return App(t.functor, args)


def apply_literal(l: Literal, store: Subst) -> Literal:
    """l with `store` applied in full to its arguments; for an idempotent
    substitution this is the same as applying it once."""
    if not store:
        return l
    return Literal(l.positive, l.predicate, tuple(resolve(a, store) for a in l.args))


def bind(store: Subst, trail: list[str], name: str, t: Term) -> bool:
    """Bind the unbound variable `name` to t and record it on `trail`,
    unless the occurs check fails."""
    if occurs(name, t, store):
        return False
    store[name] = t
    trail.append(name)
    return True


def undo(store: Subst, trail: list[str], mark: int) -> None:
    """Remove the bindings recorded on `trail` after position `mark`."""
    while len(trail) > mark:
        del store[trail.pop()]


def unify_args(
    xs: Iterable[Term], ys: Iterable[Term], store: Subst, trail: list[str]
) -> bool:
    """Extend `store` to a unifier of each pair xs[i], ys[i], or fail.

    Pairs are solved left to right, outside in.  The left side is bound
    when it is a variable, else the right side when it is one; so of two
    variables the right one survives.  After a failure the store may hold
    some of the new bindings: undo to a mark taken before the call."""
    stack = list(zip(xs, ys))
    stack.reverse()
    while stack:
        a, b = stack.pop()
        a = walk(a, store)
        b = walk(b, store)
        if a == b:
            continue
        if isinstance(a, Var):
            if not bind(store, trail, a.name, b):
                return False
        elif isinstance(b, Var):
            if not bind(store, trail, b.name, a):
                return False
        elif a.functor != b.functor or len(a.args) != len(b.args):
            return False
        else:
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    return True


def unify(t1: Term, t2: Term, subst: Optional[Subst] = None) -> Optional[Subst]:
    """Most general unifier with occurs check, or None.

    The returned substitution is idempotent.
    """
    store: Subst = dict(subst) if subst else {}
    if not unify_args((t1,), (t2,), store, []):
        return None
    return {v: resolve(t, store) for v, t in store.items()}


def match_term(pattern: Term, target: Term, subst: Optional[Subst] = None) -> Optional[Subst]:
    """One-way matching: substitution s with pattern*s == target, or None."""
    sigma: Subst = dict(subst) if subst else {}
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Var):
            bound = sigma.get(p.name)
            if bound is None:
                sigma[p.name] = t
            elif bound != t:
                return None
        else:
            if not isinstance(t, App) or p.functor != t.functor or len(p.args) != len(t.args):
                return None
            stack.extend(zip(p.args, t.args))
    return sigma


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
        return Literal(not self.positive, self.predicate, self.args)

    def atom(self) -> "Literal":
        return self if self.positive else self.complement()

    def __str__(self) -> str:
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
# Free variables, polarity, vocabulary


def free_vars(f: Formula) -> set[str]:
    out: set[str] = set()

    def walk(g: Formula, bound: frozenset[str]) -> None:
        if isinstance(g, Literal):
            for a in g.args:
                out.update(term_vars(a) - bound)
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p, bound)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, (Implies, Iff)):
            walk(g.lhs, bound)
            walk(g.rhs, bound)
        elif isinstance(g, (ForAll, Exists)):
            walk(g.body, bound | {g.var})
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, frozenset())
    return out


def polarity_vars(f: Formula) -> tuple[set[str], set[str]]:
    """Free variables with an occurrence in an atom of positive resp.
    negative polarity.  Occurrences under <=> count for both."""
    pos: set[str] = set()
    neg: set[str] = set()

    def walk(g: Formula, bound: frozenset[str], pol: bool) -> None:
        if isinstance(g, Literal):
            atom_pol = pol if g.positive else not pol
            vs: set[str] = set()
            for a in g.args:
                vs |= term_vars(a)
            (pos if atom_pol else neg).update(vs - bound)
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p, bound, pol)
        elif isinstance(g, Not):
            walk(g.body, bound, not pol)
        elif isinstance(g, Implies):
            walk(g.lhs, bound, not pol)
            walk(g.rhs, bound, pol)
        elif isinstance(g, Iff):
            for side in (g.lhs, g.rhs):
                walk(side, bound, pol)
                walk(side, bound, not pol)
        elif isinstance(g, (ForAll, Exists)):
            walk(g.body, bound | {g.var}, pol)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, frozenset(), True)
    return pos, neg


def vocabulary(f: Formula) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    """Function symbols (constants included) and (predicate, polarity) pairs."""
    funcs: set[str] = set()
    preds: set[tuple[str, str]] = set()

    def walk(g: Formula, pol: bool) -> None:
        if isinstance(g, Literal):
            atom_pol = pol if g.positive else not pol
            preds.add((g.predicate, "+" if atom_pol else "-"))
            for a in g.args:
                funcs.update(term_functions(a))
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p, pol)
        elif isinstance(g, Not):
            walk(g.body, not pol)
        elif isinstance(g, Implies):
            walk(g.lhs, not pol)
            walk(g.rhs, pol)
        elif isinstance(g, Iff):
            for side in (g.lhs, g.rhs):
                walk(side, pol)
                walk(side, not pol)
        elif isinstance(g, (ForAll, Exists)):
            walk(g.body, pol)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, True)
    return frozenset(funcs), frozenset(preds)


def formula_functions(f: Formula) -> frozenset[str]:
    return vocabulary(f)[0]


def formula_predicates(f: Formula) -> frozenset[str]:
    return frozenset(p for p, _ in vocabulary(f)[1])


# ---------------------------------------------------------------------------
# Maximal occurrences of terms from a set (or classifier) in an NNF


def smax_by(
    member: Callable[[Term], bool], f: Formula, sign: str = "all"
) -> set[Term]:
    """Terms t with member(t) that occur in f at a position not inside
    another member term; with sign 'positive'/'negative' only occurrences
    in literals of that sign count.  f must be quantifier-free NNF."""
    if sign not in ("all", "positive", "negative"):
        raise InputError(f"bad sign filter: {sign}")
    out: set[Term] = set()

    def scan_term(t: Term) -> None:
        if member(t):
            out.add(t)
            return
        if isinstance(t, App):
            for a in t.args:
                scan_term(a)

    def walk(g: Formula) -> None:
        if isinstance(g, Literal):
            if sign == "positive" and not g.positive:
                return
            if sign == "negative" and g.positive:
                return
            for a in g.args:
                scan_term(a)
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        else:
            raise InputError("smax expects a quantifier-free NNF")

    walk(f)
    return out


def smax(terms: Iterable[Term], f: Formula, sign: str = "all") -> set[Term]:
    tset = set(terms)
    for t in tset:
        if not (isinstance(t, Var) or is_ground(t)):
            raise InputError(f"smax members must be ground or variables: {t}")
    return smax_by(lambda t: t in tset, f, sign)


def clause_vars(c: Clause) -> set[str]:
    out: set[str] = set()
    for l in c.literals:
        for a in l.args:
            out |= term_vars(a)
    return out


def clause_sign_vars(c: Clause, positive: bool) -> set[str]:
    out: set[str] = set()
    for l in c.literals:
        if l.positive == positive:
            for a in l.args:
                out |= term_vars(a)
    return out


# ---------------------------------------------------------------------------
# Structure-preserving walks


def map_literal_terms(l: Literal, fn: Callable[[Term], Term]) -> Literal:
    return Literal(l.positive, l.predicate, tuple(fn(a) for a in l.args))


def map_formula_terms(f: Formula, fn: Callable[[Term], Term]) -> Formula:
    if isinstance(f, Literal):
        return map_literal_terms(f, fn)
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, And):
        return And(tuple(map_formula_terms(p, fn) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(map_formula_terms(p, fn) for p in f.parts))
    if isinstance(f, Not):
        return Not(map_formula_terms(f.body, fn))
    if isinstance(f, Implies):
        return Implies(map_formula_terms(f.lhs, fn), map_formula_terms(f.rhs, fn))
    if isinstance(f, Iff):
        return Iff(map_formula_terms(f.lhs, fn), map_formula_terms(f.rhs, fn))
    if isinstance(f, ForAll):
        return ForAll(f.var, map_formula_terms(f.body, fn))
    if isinstance(f, Exists):
        return Exists(f.var, map_formula_terms(f.body, fn))
    raise TypeError(f"not a formula: {f!r}")


def formula_subst(f: Formula, subst: Subst) -> Formula:
    """Apply a substitution to free variable occurrences (capture-aware)."""
    if isinstance(f, Literal):
        return map_literal_terms(f, lambda t: apply_term(t, subst))
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, And):
        return And(tuple(formula_subst(p, subst) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(formula_subst(p, subst) for p in f.parts))
    if isinstance(f, Not):
        return Not(formula_subst(f.body, subst))
    if isinstance(f, Implies):
        return Implies(formula_subst(f.lhs, subst), formula_subst(f.rhs, subst))
    if isinstance(f, Iff):
        return Iff(formula_subst(f.lhs, subst), formula_subst(f.rhs, subst))
    if isinstance(f, (ForAll, Exists)):
        inner = {v: t for v, t in subst.items() if v != f.var}
        body = formula_subst(f.body, inner) if inner else f.body
        return type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def rename_predicates(f: Formula, mapping: dict[str, str]) -> Formula:
    if isinstance(f, Literal):
        return Literal(f.positive, mapping.get(f.predicate, f.predicate), f.args)
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, And):
        return And(tuple(rename_predicates(p, mapping) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(rename_predicates(p, mapping) for p in f.parts))
    if isinstance(f, Not):
        return Not(rename_predicates(f.body, mapping))
    if isinstance(f, Implies):
        return Implies(rename_predicates(f.lhs, mapping), rename_predicates(f.rhs, mapping))
    if isinstance(f, Iff):
        return Iff(rename_predicates(f.lhs, mapping), rename_predicates(f.rhs, mapping))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, rename_predicates(f.body, mapping))
    raise TypeError(f"not a formula: {f!r}")


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Equality up to renaming of bound variables."""
    return _canon(f, {}, [0]) == _canon(g, {}, [0])


def _canon(f: Formula, env: Subst, counter: list[int]):
    if isinstance(f, Literal):
        return ("lit", f.positive, f.predicate, tuple(apply_term(a, env) for a in f.args))
    if isinstance(f, Top):
        return ("top",)
    if isinstance(f, Bottom):
        return ("bot",)
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        return (tag, tuple(_canon(p, env, counter) for p in f.parts))
    if isinstance(f, Not):
        return ("not", _canon(f.body, env, counter))
    if isinstance(f, Implies):
        return ("imp", _canon(f.lhs, env, counter), _canon(f.rhs, env, counter))
    if isinstance(f, Iff):
        return ("iff", _canon(f.lhs, env, counter), _canon(f.rhs, env, counter))
    if isinstance(f, (ForAll, Exists)):
        counter[0] += 1
        fresh = Var(f"#{counter[0]}")
        tag = "all" if isinstance(f, ForAll) else "ex"
        return (tag, _canon(f.body, {**env, f.var: fresh}, counter))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Signatures and fresh names


@dataclass
class Signature:
    functions: dict[str, int]
    predicates: dict[str, int]

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

    def extend_with_term(self, t: Term) -> None:
        if isinstance(t, App):
            self.add_function(t.functor, len(t.args))
            for a in t.args:
                self.extend_with_term(a)

    def extend_with_formula(self, f: Formula) -> None:
        if isinstance(f, Literal):
            self.add_predicate(f.predicate, len(f.args))
            for a in f.args:
                self.extend_with_term(a)
        elif isinstance(f, (Top, Bottom)):
            pass
        elif isinstance(f, (And, Or)):
            for p in f.parts:
                self.extend_with_formula(p)
        elif isinstance(f, Not):
            self.extend_with_formula(f.body)
        elif isinstance(f, (Implies, Iff)):
            self.extend_with_formula(f.lhs)
            self.extend_with_formula(f.rhs)
        elif isinstance(f, (ForAll, Exists)):
            self.extend_with_formula(f.body)
        else:
            raise TypeError(f"not a formula: {f!r}")

    @classmethod
    def of(cls, formulas: Iterable[Formula]) -> "Signature":
        sig = cls.empty()
        for f in formulas:
            sig.extend_with_formula(f)
        return sig


def formula_symbols(f: Formula) -> set[str]:
    """All symbol names occurring in f: functions, predicates and variables."""
    funcs, preds = vocabulary(f)
    out = set(funcs) | {p for p, _ in preds} | free_vars(f)
    out |= _bound_names(f)
    return out


def _bound_names(f: Formula) -> set[str]:
    if isinstance(f, (Literal, Top, Bottom)):
        return set()
    if isinstance(f, (And, Or)):
        out: set[str] = set()
        for p in f.parts:
            out |= _bound_names(p)
        return out
    if isinstance(f, Not):
        return _bound_names(f.body)
    if isinstance(f, (Implies, Iff)):
        return _bound_names(f.lhs) | _bound_names(f.rhs)
    if isinstance(f, (ForAll, Exists)):
        return {f.var} | _bound_names(f.body)
    raise TypeError(f"not a formula: {f!r}")


class FreshNamer:
    """Deterministic generator of names not colliding with a reserved set."""

    def __init__(self, reserved: Iterable[str] = ()):
        self._used = set(reserved)
        self._counters: dict[str, int] = {}

    def reserve(self, names: Iterable[str]) -> None:
        self._used.update(names)

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
