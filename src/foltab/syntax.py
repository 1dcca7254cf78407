"""First-order syntax: terms, literals, clauses, formulas, and the
vocabulary / occurrence / unification machinery everything else builds on.

Terms, literals and formulas are immutable values.  Variables,
applications and literals are hash-consed: while one of them is alive, a
value of the same class and fields is that object, wherever it is made
(the parsers, the prover, grounding, copies or unpickling).  So equal
terms and literals are one object, their `==` is identity, and sets and
dicts find them by identity.  Formulas and clauses are made anew each
time, and their `==` walks them down to their literals.

The term kernel is the one place that substitutes and unifies; the
prover, proof import, clausification, grounding and interpolation all use
it:

- `apply_term` applies a substitution once, simultaneously;
- the copy store is the one binding store: `unify_copies` extends it
  with bindings of variables of numbered clause copies, and `undo` takes
  bindings back; `occurs_copy` and `equal_copies` read terms in their
  copies through it, and `resolve_copy` builds the terms they stand for.
  The prover binds its clause copies there, and proof import binds the
  variables of a document as copy 0: they are rigid, so one copy serves
  every record;
- `subterms` walks terms and `map_term` rebuilds them, outside in, in the
  rebuild loop under `apply_term` too; literals are rebuilt only by
  `map_literal_terms`.  `is_ground` and `ordered_vars` inspect terms.

Every application carries a ground flag, set when it is made from the
flags of its arguments.  `is_ground` reads it, and `apply_term`, the copy
functions and `ordered_vars` pass over a ground subterm without visiting
it, so a ground term or literal comes back as the same object at no cost
in its size, and a ground term is the same in every copy.

A copy store maps (variable, copy) pairs to (term, copy) pairs.  It is
triangular: a bound term may contain bound variables, and reading it
follows them.  It is acyclic: a variable is bound only after the occurs
check, through the store, has failed to find it in its term.  Bindings
made by `unify_copies` are recorded on a trail, and `undo` removes them
back to a mark, latest first.

Beside the term kernel, two formula walks carry the shape of formulas;
free variables, vocabulary, symbols and predicate renaming are all written
on them:

- `occurrences` reads: each literal and quantifier occurrence in
  pre-order, with its polarity and the names bound above it;
  `read_symbols` reads a formula's names, free variables, functions and
  signed predicates from it in one walk, and `vocabulary` is a view of
  that walk;
- `map_formula` rebuilds, bottom up, replacing each literal; quantifiers
  keep their variables.

No formula is substituted into here: clausification (`normalize`) applies
the placeholders of free variables and the Skolem terms with `apply_term`
as its one walk reaches each literal.  The substitution is simultaneous,
and following bindings in chains, as `resolve_copy` does, would apply it a
second time.
"""

from __future__ import annotations

from _thread import RLock
from itertools import repeat
from operator import attrgetter, is_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union
from weakref import WeakValueDictionary


class InputError(ValueError):
    """Malformed problem input: arity clash, namespace clash, bad value."""


# ---------------------------------------------------------------------------
# Terms

_set = object.__setattr__
_new = object.__new__
_ground_of = attrgetter("_ground")

# Every value class names its compared fields in `_fields`, and `_Value`
# reads them for the whole value protocol: values hash as the tuple of
# their fields, print as the dataclasses they once were (`Var(name='X')`),
# and pickle as the flat list of their distinct parts (`_parts`), read back
# through the constructors, so a hash never moves to a process of another
# hash seed.  A value is its own copy and deep copy.  Every
# value computes its hash when it is made, from the hashes of its fields,
# which are made before it; `hash` reads the `_hash` slot.
#
# Var, App and Literal are shared.  Their __new__ looks a key up in
# `_table`, the one process-wide weak table, and makes a value only when no
# live value has that key: a variable's name; an application's functor, or
# a literal's sign and predicate, followed by the ids of the arguments.
# The arguments are shared already and the value keeps them alive, so an
# id stands for one argument as long as the entry lasts; a value that
# nothing else holds leaves the table.  The three key shapes (a string, a
# tuple starting with a string, one starting with a bool) never meet.
# Equal shared values are thus one object, and their == is identity.
# Formulas and clauses are not shared: their == walks their parts on an
# explicit stack and stops at shared ones, which are equal only when
# identical.
#
# An App knows whether it is ground: __new__ sets `_ground` from the
# arguments' flags, in O(arity), since every subterm is made before the
# terms above it.  A variable's flag is the class attribute False.

# the one live shared value of each key
_table: WeakValueDictionary = WeakValueDictionary()
_find = _table.get
_entering = RLock()


def _enter(key, v):
    """The value entered under `key`: v, unless another thread entered one
    first.  The lock keeps the check and the entry together."""
    with _entering:
        return _table.setdefault(key, v)


class _Value:
    """Base of the immutable values: assigning or deleting an attribute
    raises AttributeError.  Fields are set by object.__setattr__, and
    cached slots the same way."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()
    # the fields of a value as a tuple, read in one call; a class that
    # names its fields gets its own
    _values = staticmethod(lambda v: ())
    _shared = False

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields")
        if fields:
            get = attrgetter(*fields)
            cls._values = staticmethod(get if len(fields) > 1 else lambda v: (get(v),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the fields of x and y, of one class, then the pairs of distinct
        # parts still to compare
        x, y = self, other
        todo = []
        while True:
            for a, b in zip(x._values(x), y._values(y)):
                if a is b:
                    continue
                if a.__class__ is tuple:
                    if len(a) != len(b):
                        return False
                    for pair in zip(a, b):
                        if pair[0] is not pair[1]:
                            todo.append(pair)
                elif isinstance(a, _Value):
                    todo.append((a, b))
                elif a != b:
                    return False
            if not todo:
                return True
            x, y = todo.pop()
            if x.__class__ is not y.__class__ or x._shared:
                return False

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return _from_parts, (_parts(self),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        out: list[str] = []
        # a string to print as it is, or a value to print
        todo: list = [self]
        while todo:
            v = todo.pop()
            if v.__class__ is str:
                out.append(v)
                continue
            pieces: list = [f"{v.__class__.__name__}("]
            for k, (name, x) in enumerate(zip(v._fields, v._values(v))):
                pieces.append(f"{', ' if k else ''}{name}=")
                if x.__class__ is tuple:
                    pieces.append("(")
                    for j, p in enumerate(x):
                        if j:
                            pieces.append(", ")
                        pieces.append(p)
                    pieces.append(",)" if len(x) == 1 else ")")
                else:
                    pieces.append(x if isinstance(x, _Value) else repr(x))
            pieces.append(")")
            todo.extend(reversed(pieces))
        return "".join(out)


def _parts(v: _Value) -> list[tuple]:
    """The distinct parts of `v`, in post-order on an explicit stack, so `v`
    comes last: each as its class followed by its fields, where a part, or
    a tuple of parts, is written as its index, or a tuple of indices, in
    the list.  A value pickles as this flat list, so that pickling a deep
    value does not recurse."""
    index: dict[int, int] = {}
    out: list[tuple] = []
    stack = [v]
    while stack:
        w = stack[-1]
        if id(w) in index:
            stack.pop()
            continue
        fields = w._values(w)
        pending = [
            p for f in fields for p in (f if f.__class__ is tuple else (f,))
            if isinstance(p, _Value) and id(p) not in index
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        index[id(w)] = len(out)
        out.append((w.__class__, *[
            tuple([index[id(p)] for p in f]) if f.__class__ is tuple
            else index[id(f)] if isinstance(f, _Value)
            else f
            for f in fields
        ]))
    return out


def _from_parts(parts: list[tuple]) -> _Value:
    """The value that `_parts` wrote, made part by part through the
    constructors, so a shared value is the live object of its key."""
    made: list[_Value] = []
    for cls, *fields in parts:
        made.append(cls(*[
            tuple([made[k] for k in f]) if f.__class__ is tuple
            else made[f] if f.__class__ is int
            else f
            for f in fields
        ]))
    return made[-1]


class _Shared:
    """The == and hash of the shared classes: one object per value."""

    __slots__ = ()
    _shared = True
    __eq__ = object.__eq__
    __hash__ = _Value.__hash__


class Var(_Shared, _Value):
    __slots__ = ("name", "__weakref__")
    _fields = ("name",)
    _ground = False

    def __new__(cls, name: str):
        v = _find(name)
        if v is None:
            v = _new(cls)
            _set(v, "name", name)
            _set(v, "_hash", hash((name,)))
            v = _enter(name, v)
        return v

    def __str__(self) -> str:
        return self.name


class App(_Shared, _Value):
    """Function application; constants are 0-ary applications."""

    __slots__ = ("functor", "args", "_ground", "__weakref__")
    _fields = ("functor", "args")

    def __new__(cls, functor: str, args: tuple["Term", ...] = ()):
        key = (functor, *map(id, args))
        t = _find(key)
        if t is None:
            t = _new(cls)
            _set(t, "functor", functor)
            _set(t, "args", args)
            _set(t, "_ground", all(map(_ground_of, args)))
            _set(t, "_hash", hash((functor, args)))
            t = _enter(key, t)
        return t

    def __str__(self) -> str:
        return terms_text((self,))


Term = Union[Var, App]


def terms_text(terms: tuple[Term, ...], sep: str = ",") -> str:
    """The terms printed and joined by `sep`, on an explicit stack: the one
    term printer, under the __str__ of applications, literals and
    clauses."""
    out: list[str] = []
    # a string to print as it is, or a term to print
    todo: list = []
    for t in reversed(terms):
        todo.append(t)
        todo.append(sep)
    if todo:
        todo.pop()
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
        elif cls is Var:
            out.append(t.name)
        elif not t.args:
            out.append(t.functor)
        else:
            out.append(t.functor + "(")
            todo.append(")")
            for a in reversed(t.args):
                todo.append(a)
                todo.append(",")
            todo.pop()
    return "".join(out)


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
# The term kernel: substitutions, the copy store, unification

Subst = dict[str, Term]

_REBUILD = object()


def _rebuild(t: Term, get: Callable, by_name: bool) -> Term:
    """t with each outermost subterm s that has a replacement r replaced by
    r.  The replacement is get(s), or with `by_name` get(s.name) for a
    variable and none for an application; then a ground subterm cannot
    change and is not visited.  Subterms are read outside in, left to
    right; unchanged ones are shared."""
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
            out.append(r)
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
    return _rebuild(t, fn, False)


def apply_term(t: Term, subst: Subst) -> Term:
    """Apply a substitution once (no chain walking)."""
    return _rebuild(t, subst.get, True)


def map_literal_terms(l: Literal, fn: Callable[[Term], Term]) -> Literal:
    """l with fn applied to each argument: the one literal rebuild.  l
    itself when every argument comes back unchanged."""
    args = tuple([fn(a) for a in l.args])
    if all(map(is_, args, l.args)):
        return l
    return Literal(l.positive, l.predicate, args)


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
    variables by name and copy; one application in two copies is
    decomposed."""
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
    an unbound variable v of copy j by var(v, j); a ground term stands for
    itself.

    `table` is kept across calls: it maps the id of each term read, with
    its copy, to the result, so reading a term again in a copy visits none
    of its subterms.  The terms read must outlive it; the store and the
    clauses hold them."""
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
            r = table[id(s), ks] = s if all(map(is_, args, s.args)) else App(s.functor, args)
            out.append(r)
            continue
        while s.__class__ is Var:
            got = get((s.name, ks))
            if got is None:
                break
            s, ks = got
        r = s if s._ground else table.get((id(s), ks))
        if r is not None:
            out.append(r)
        elif s.__class__ is Var:
            r = table[id(s), ks] = var(s.name, ks)
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


class Formula(_Value):
    """Base of the formula classes."""

    __slots__ = ()


class Literal(_Shared, Formula):
    __slots__ = ("positive", "predicate", "args", "_complement", "__weakref__")
    _fields = ("positive", "predicate", "args")

    def __new__(cls, positive: bool, predicate: str, args: tuple[Term, ...] = ()):
        key = (positive, predicate, *map(id, args))
        l = _find(key)
        if l is None:
            l = _new(cls)
            _set(l, "positive", positive)
            _set(l, "predicate", predicate)
            _set(l, "args", args)
            _set(l, "_hash", hash((positive, predicate, args)))
            l = _enter(key, l)
        return l

    def complement(self) -> "Literal":
        """The literal of opposite sign, looked up once and then read from
        a slot; the complement of the complement is this object."""
        try:
            return self._complement
        except AttributeError:
            c = Literal(not self.positive, self.predicate, self.args)
            _set(self, "_complement", c)
            _set(c, "_complement", self)
            return c

    def atom(self) -> "Literal":
        return self if self.positive else self.complement()

    def __str__(self) -> str:
        if self.predicate == "=" and len(self.args) == 2:
            return terms_text(self.args, " = " if self.positive else " != ")
        body = f"{self.predicate}({terms_text(self.args)})" if self.args else self.predicate
        return body if self.positive else "~" + body


# Classes of the same fields share a base that sets them; each prints its
# own class name.


class _Truth(Formula):
    __slots__ = ()

    def __init__(self):
        _set(self, "_hash", hash(()))


class Top(_Truth):
    __slots__ = ()

    def __str__(self) -> str:
        return "$true"


class Bottom(_Truth):
    __slots__ = ()

    def __str__(self) -> str:
        return "$false"


TOP = Top()
BOTTOM = Bottom()


class _Junction(Formula):
    __slots__ = ("parts",)
    _fields = ("parts",)

    def __init__(self, parts: tuple[Formula, ...]):
        _set(self, "parts", parts)
        _set(self, "_hash", hash((parts,)))


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("body",)
    _fields = ("body",)

    def __init__(self, body: Formula):
        _set(self, "body", body)
        _set(self, "_hash", hash((body,)))


class _Connective(Formula):
    __slots__ = ("lhs", "rhs")
    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "_hash", hash((lhs, rhs)))


class Implies(_Connective):
    __slots__ = ()


class Iff(_Connective):
    __slots__ = ()


class _Quantifier(Formula):
    __slots__ = ("var", "body")
    _fields = ("var", "body")

    def __init__(self, var: str, body: Formula):
        _set(self, "var", var)
        _set(self, "body", body)
        _set(self, "_hash", hash((var, body)))


class ForAll(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


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


class Clause(_Value):
    """Disjunction of literals; with conjunctive=True, a conjunction
    (as used in DNF matrices).  The empty disjunctive clause is false,
    the empty conjunctive clause is true."""

    __slots__ = ("literals", "conjunctive")
    _fields = ("literals", "conjunctive")

    def __init__(self, literals: tuple[Literal, ...], conjunctive: bool = False):
        _set(self, "literals", literals)
        _set(self, "conjunctive", conjunctive)
        _set(self, "_hash", hash((literals, conjunctive)))

    def complemented(self) -> "Clause":
        return Clause(tuple(l.complement() for l in self.literals), not self.conjunctive)

    def __str__(self) -> str:
        if not self.literals:
            return "$true" if self.conjunctive else "$false"
        sep = " & " if self.conjunctive else " | "
        return sep.join(map(Literal.__str__, self.literals))


def clause(literals: Iterable[Literal]) -> Clause:
    """Build a disjunctive clause, dropping duplicate literals (first
    occurrence wins)."""
    return Clause(tuple(dict.fromkeys(literals)))


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


def map_formula(f: Formula, literal: Callable[[Literal], Formula]) -> Formula:
    """f rebuilt bottom up, each literal l replaced by literal(l).

    The literals are read in pre-order, left to right, and quantifiers keep
    their variables.  Subformulas that come out unchanged are shared with f."""
    out: list[Formula] = []
    # (g, False) visits g; (g, True) rebuilds g from `out`
    todo: list[tuple[Formula, bool]] = [(f, False)]
    while todo:
        g, rebuild = todo.pop()
        cls = g.__class__
        if rebuild:
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
                out.append(g if body is g.body else cls(g.var, body))
        elif cls is Literal:
            out.append(literal(g))
        elif cls is And or cls is Or:
            todo.append((g, True))
            for p in reversed(g.parts):
                todo.append((p, False))
        elif cls is Not or cls is ForAll or cls is Exists:
            todo.append((g, True))
            todo.append((g.body, False))
        elif cls is Implies or cls is Iff:
            todo.append((g, True))
            todo.append((g.rhs, False))
            todo.append((g.lhs, False))
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
    return {
        s.name
        for l in c.literals if l.positive == positive
        for s in subterms(*l.args) if s.__class__ is Var
    }


# ---------------------------------------------------------------------------
# Structure-preserving walks


def map_formula_terms(f: Formula, fn: Callable[[Term], Term]) -> Formula:
    return map_formula(f, lambda l: map_literal_terms(l, fn))


def rename_predicates(f: Formula, mapping: dict[str, str]) -> Formula:
    return map_formula(
        f, lambda l: Literal(l.positive, mapping.get(l.predicate, l.predicate), l.args)
    )


# ---------------------------------------------------------------------------
# Signatures and fresh names


class Signature:
    def __init__(self):
        self.functions: dict[str, int] = {}
        self.predicates: dict[str, int] = {}
        self.checked: set[App] = set()  # the applications checked

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
        checked before is skipped with its subterms, which were checked with
        it, so each distinct term is checked once."""
        checked = self.checked
        stack = list(terms)[::-1]
        while stack:
            t = stack.pop()
            if t.__class__ is App and t not in checked:
                checked.add(t)
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
