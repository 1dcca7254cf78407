"""Normal forms: the cnf/dnf functionals, Skolemization and clausification,
placeholder constants, equality axioms.

cnf() computes the prenex CNF in one iterative walk over the formula: it
pushes negation to the atoms, renames bound variables apart and pulls them
into the prefix in pre-order, and distributes the matrix into clauses as
each conjunction or disjunction is finished, with no intermediate formula.

skolemize_clausify() is the same walk with two more duties, so a run
freezes, Skolemizes and clausifies a side in one pass over it: the
placeholder substitution that `freeze_free_vars` draws is the walk's
initial renaming, and each existential, met in pre-order, is bound to its
Skolem term instead of a variable.  No frozen or Skolemized formula or
clause is ever built.

cnf() and dnf() are deterministic and dual-symmetric by construction:
dnf(F) is defined as the dual of cnf(~F), so the clause-level containment
and duality contracts hold structurally, not just up to equivalence.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Optional

from .syntax import (
    And,
    App,
    Bottom,
    Clause,
    Exists,
    ForAll,
    Formula,
    FormulaSymbols,
    FreshNamer,
    Iff,
    Implies,
    InputError,
    Literal,
    Not,
    Or,
    Signature,
    Subst,
    Top,
    Var,
    apply_term,
    free_vars,
    map_formula_terms,
    map_literal_terms,
    map_term,
)

DEFAULT_CLAUSE_LIMIT = 100_000


class ClauseLimitError(Exception):
    """Distribution exceeded the configured clause-count limit."""


# ---------------------------------------------------------------------------
# The cnf/dnf functionals


class PrenexNormalForm:
    def __init__(self, prefix: tuple[tuple[str, str], ...], matrix: tuple[Clause, ...], kind: str):
        self.prefix = prefix
        self.matrix = matrix
        self.kind = kind  # 'cnf' | 'dnf'

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.prefix, self.matrix, self.kind) == (other.prefix, other.matrix, other.kind)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"PrenexNormalForm(prefix={self.prefix!r}, matrix={self.matrix!r},"
            f" kind={self.kind!r})"
        )

    @property
    def universals(self) -> frozenset[str]:
        return frozenset(v for q, v in self.prefix if q == "forall")

    @property
    def existentials(self) -> frozenset[str]:
        return frozenset(v for q, v in self.prefix if q == "exists")

    def dual(self) -> "PrenexNormalForm":
        flipped = tuple(
            ("exists" if q == "forall" else "forall", v) for q, v in self.prefix
        )
        return PrenexNormalForm(
            flipped,
            tuple(c.complemented() for c in self.matrix),
            "dnf" if self.kind == "cnf" else "cnf",
        )


def wrap_prefix(prefix: Iterable[tuple[str, str]], matrix: Formula) -> Formula:
    out = matrix
    for q, v in reversed(tuple(prefix)):
        out = ForAll(v, out) if q == "forall" else Exists(v, out)
    return out


# On cnf's stack, (n, conjunctive, _JOIN) joins the clause lists of the
# last n subformulas read; ((g, renaming), positive, _PART) reads a part of
# a <=>, and ((key, renaming), n, _KEEP) keeps the clause list just read
# for it when the prefix still has n entries.
_JOIN = object()
_PART = object()
_KEEP = object()


def cnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    """Prenex CNF of f.  var(cnf(f)) and voc(cnf(f)) never grow.

    One walk reads each subformula of f at a polarity.  Negation goes to the
    atoms: A => B is read as ~A | B and A <=> B as (~A | B) & (~B | A).  Each
    quantifier, in pre-order, gets its variable or, if that name is free in
    f or taken, the first free of X_2, X_3, ...; it joins the prefix, and the
    literals it binds are renamed by one simultaneous substitution.  The
    clause lists of the parts of a conjunction are concatenated, those of a
    disjunction distributed left to right.  Only duplicate clauses are
    removed; tautologies are kept.  cnf does not Skolemize.

    Each part of a <=> is read at both polarities, so n nested <=> would
    read their innermost parts 2^n times.  A part read again at the same
    polarity and renaming takes the clause list of its first reading
    instead, when that reading added nothing to the prefix; a part with a
    quantifier below it is read again, for its fresh names."""
    prefix, matrix, _ = _cnf(f, max_clauses, free_vars(f), {})
    return PrenexNormalForm(prefix, matrix, "cnf")


def _cnf(f: Formula, max_clauses: int, used: set[str], env: Subst, namer: Optional[FreshNamer] = None):
    """The prefix and matrix of cnf(f) read from the renaming `env`, which
    maps free variables of f to terms, and the Skolem names drawn.  `used`
    holds the variable names the result may already contain, and the walk
    takes it over.

    With a `namer`, each existential of the prefix is Skolemized as it is
    met: a variable bound by it stands for a term sk(X1, ..., Xn) with sk
    drawn from the namer and X1, ..., Xn every universal earlier in the
    prefix, those of sibling parts included.  Its bound name is still
    picked, so the names bound after it are those of cnf."""
    suffix: dict[str, int] = {}  # the last suffix taken for each name

    def pick(name: str) -> str:
        if name in used:
            n = suffix.get(name, 2)
            while f"{name}_{n}" in used:
                n += 1
            suffix[name] = n
            name = f"{name}_{n}"
        used.add(name)
        return name

    prefix: list[tuple[str, str]] = []
    # the variables of the prefix, which with a namer are its universals:
    # the arguments of the next Skolem term
    universals: list[Var] = []
    skolems: list[str] = []
    # the clause lists of subformulas read, each clause as its literals
    done: list[list[tuple[Literal, ...]]] = []
    # the clause list of each part of a <=> read without a quantifier, by
    # the ids of the part and the renaming and the polarity; the entry
    # keeps the renaming alive, so that no other one takes its id
    kept: dict[tuple[int, bool, int], tuple[dict, list]] = {}
    # (g, positive, renaming) reads g at that polarity
    todo: list[tuple] = [(f, True, env)]
    while todo:
        g, pos, env = todo.pop()
        cls = g.__class__
        if env is _PART:
            g, env = g
            key = (id(g), pos, id(env))
            got = kept.get(key)
            if got is not None:
                done.append(got[1])
            else:
                todo.append(((key, env), len(prefix), _KEEP))
                todo.append((g, pos, env))
        elif env is _KEEP:
            if len(prefix) == pos:
                kept[g[0]] = (g[1], done[-1])
        elif env is _JOIN:
            k = len(done) - g
            parts = done[k:]
            del done[k:]
            if pos:
                joined = [c for cs in parts for c in cs]
            elif max_clauses >= 1 and all(len(cs) == 1 for cs in parts):
                # what distribution gives, in one step
                joined = [tuple(dict.fromkeys([l for cs in parts for l in cs[0]]))]
            else:
                # every clause is free of duplicates: a clause of the
                # product is a, then the literals of c that a lacks
                joined = [()]
                for cs in parts:
                    if len(joined) * len(cs) > max_clauses:
                        raise ClauseLimitError(f"distribution exceeds {max_clauses} clauses")
                    # equal literals are one object, so `not in a` compares
                    # by identity and hashes no literal
                    joined = [a + tuple([l for l in c if l not in a]) for a in joined for c in cs]
            # a list of at most one clause has no duplicate to remove
            done.append(joined if len(joined) < 2 else list(dict.fromkeys(joined)))
        elif cls is Literal:
            l = g if pos else g.complement()
            if env:
                l = map_literal_terms(l, lambda t: apply_term(t, env))
            done.append([(l,)])
        elif cls is Top or cls is Bottom:
            done.append([] if (cls is Top) == pos else [()])
        elif cls is Not:
            todo.append((g.body, not pos, env))
        elif cls is And or cls is Or:
            todo.append((len(g.parts), (cls is And) == pos, _JOIN))
            todo.extend((p, pos, env) for p in reversed(g.parts))
        elif cls is Implies:
            todo.append((2, not pos, _JOIN))
            todo.append((g.rhs, pos, env))
            todo.append((g.lhs, not pos, env))
        elif cls is Iff:
            # (lhs => rhs) & (rhs => lhs)
            todo.append((2, pos, _JOIN))
            for lhs, rhs in ((g.rhs, g.lhs), (g.lhs, g.rhs)):
                todo.append((2, not pos, _JOIN))
                todo.append(((rhs, env), pos, _PART))
                todo.append(((lhs, env), not pos, _PART))
        elif cls is ForAll or cls is Exists:
            v = g.var
            w = pick(v)
            universal = (cls is ForAll) == pos
            prefix.append(("forall" if universal else "exists", w))
            if universal or namer is None:
                t = Var(w)
                universals.append(t)
                # a name kept was unused, so it has an entry in env only
                # as a frozen variable, which the binding shadows
                if w == v and v not in env:
                    todo.append((g.body, pos, env))
                    continue
            else:
                name = namer.fresh("sk")
                skolems.append(name)
                t = App(name, tuple(universals))
            todo.append((g.body, pos, {**env, v: t}))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return tuple(prefix), tuple([Clause(ls) for ls in done[0]]), skolems


def dnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    """Prenex DNF of f, defined as the dual of cnf(~f)."""
    return cnf(Not(f), max_clauses).dual()


# ---------------------------------------------------------------------------
# Placeholder constants for free variables


def freeze_free_vars(
    namer: FreshNamer,
    free: tuple[AbstractSet[str], AbstractSet[str]],
) -> tuple[Subst, frozenset[str], dict[str, str]]:
    """Draw a dedicated fresh constant from the run's `namer` for each free
    variable of f and g, in sorted order.

    `free` holds the free variables of f and of g, as `read_symbols` gives
    them.  Returns (frozen, shared, mapping): frozen maps each variable to
    its placeholder constant, mapping is constant -> variable, and shared
    holds the constants standing for variables free in both f and g.  No
    formula is rebuilt: `skolemize_clausify` applies `frozen` as it walks.
    """
    fv_f, fv_g = free
    mapping: dict[str, str] = {}
    frozen: Subst = {}
    for v in sorted(fv_f | fv_g):
        c = namer.fresh(f"c_{v.lower()}_" if v.lower() != v else f"c_{v}_")
        mapping[c] = v
        frozen[v] = App(c)
    shared = frozenset(c for c, v in mapping.items() if v in fv_f and v in fv_g)
    return frozen, shared, mapping


def frozen_vocabulary(symbols: FormulaSymbols, mapping: dict[str, str]) -> frozenset[str]:
    """The function symbols of a formula with `symbols` once its free
    variables stand for the placeholder constants that `mapping` names:
    its own, and the placeholder constants of its free variables."""
    free = symbols.free
    return symbols.functions.union(c for c, v in mapping.items() if v in free)


def unfreeze(h: Formula, mapping: dict[str, str]) -> Formula:
    """Replace placeholder constants with their original variables."""
    variables = {App(c): Var(v) for c, v in mapping.items()}
    return map_formula_terms(h, lambda t: map_term(t, variables.get))


# ---------------------------------------------------------------------------
# Skolemization and clausification


class ClausificationResult:
    def __init__(
        self,
        clauses: tuple[Clause, ...],
        skolem_functions: frozenset[str],
        universal_vars: frozenset[str],
    ):
        self.clauses = clauses
        self.skolem_functions = skolem_functions
        self.universal_vars = universal_vars

    def has_empty_clause(self) -> bool:
        return any(not c.literals for c in self.clauses)


def skolemize_clausify(f: Formula, namer: FreshNamer, frozen: Optional[Subst] = None) -> ClausificationResult:
    """Prenex CNF with existential variables replaced by Skolem terms, in
    one walk of f.

    Without `frozen`, f must be a sentence.  With it, f is read with its
    free variables replaced as `frozen` says, which must cover them all;
    `freeze_free_vars` draws it, and the caller, who has read the free
    variables, vouches for that, so f is not walked to check it.  Skolem
    names come from the run's `namer`, so two calls sharing it never
    collide.
    """
    if frozen is None:
        if free_vars(f):
            raise InputError("skolemize_clausify expects a sentence")
        frozen = {}
    prefix, clauses, skolems = _cnf(f, DEFAULT_CLAUSE_LIMIT, set(), frozen, namer)
    universals = frozenset(v for q, v in prefix if q == "forall")
    return ClausificationResult(clauses, frozenset(skolems), universals)


# ---------------------------------------------------------------------------
# Equality axioms (equality treated as an ordinary predicate "=")

EQ = "="


def equality_axioms(sig: Signature) -> list[Clause]:
    """Reflexivity, symmetry, transitivity, and one substitutivity clause
    per argument position of every function and predicate in sig."""
    x, y, z = Var("X"), Var("Y"), Var("Z")

    def eq(a, b) -> Literal:
        return Literal(True, EQ, (a, b))

    def neq(a, b) -> Literal:
        return Literal(False, EQ, (a, b))

    out = [
        Clause((eq(x, x),)),
        Clause((neq(x, y), eq(y, x))),
        Clause((neq(x, y), neq(y, z), eq(x, z))),
    ]
    for name in sorted(sig.functions):
        arity = sig.functions[name]
        for i in range(arity):
            args = tuple(Var(f"X{k+1}") for k in range(arity))
            repl = tuple(Var("Y") if k == i else args[k] for k in range(arity))
            out.append(Clause((neq(args[i], Var("Y")), eq(App(name, args), App(name, repl)))))
    for name in sorted(sig.predicates):
        if name == EQ:
            continue
        arity = sig.predicates[name]
        for i in range(arity):
            args = tuple(Var(f"X{k+1}") for k in range(arity))
            repl = tuple(Var("Y") if k == i else args[k] for k in range(arity))
            out.append(
                Clause(
                    (
                        neq(args[i], Var("Y")),
                        Literal(False, name, args),
                        Literal(True, name, repl),
                    )
                )
            )
    return out
