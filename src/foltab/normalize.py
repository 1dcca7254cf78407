"""Normal forms: the cnf/dnf functionals, Skolemization and clausification,
placeholder constants, equality axioms.

cnf() computes the prenex CNF in one iterative walk over the formula: it
pushes negation to the atoms, renames bound variables apart and pulls them
into the prefix in pre-order, and distributes the matrix into clauses as
each conjunction or disjunction is finished, with no intermediate formula.

cnf() and dnf() are deterministic and dual-symmetric by construction:
dnf(F) is defined as the dual of cnf(~F), so the clause-level containment
and duality contracts hold structurally, not just up to equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

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
    apply_literal,
    apply_term,
    clause,
    formula_subst,
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


@dataclass(frozen=True)
class PrenexNormalForm:
    prefix: tuple[tuple[str, str], ...]
    matrix: tuple[Clause, ...]
    kind: str  # 'cnf' | 'dnf'

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


# (n, conjunctive, _JOIN) on cnf's stack joins the clause lists of the last
# n subformulas read
_JOIN = object()


def cnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    """Prenex CNF of f.  var(cnf(f)) and voc(cnf(f)) never grow.

    One walk reads each subformula of f at a polarity.  Negation goes to the
    atoms: A => B is read as ~A | B and A <=> B as (~A | B) & (~B | A).  Each
    quantifier, in pre-order, gets its variable or, if that name is free in
    f or taken, the first free of X_2, X_3, ...; it joins the prefix, and the
    literals it binds are renamed by one simultaneous substitution.  The
    clause lists of the parts of a conjunction are concatenated, those of a
    disjunction distributed left to right.  Only duplicate clauses are
    removed; tautologies are kept."""
    return _cnf(f, max_clauses, free_vars(f))  # which also rejects what is not a formula


def _cnf(f: Formula, max_clauses: int, used: set[str]) -> PrenexNormalForm:
    """cnf(f), with `used` the free variables of f, which it takes over."""
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
    done: list[list[Clause]] = []  # the clause lists of subformulas read
    # (g, positive, renaming) reads g at that polarity
    todo: list[tuple] = [(f, True, {})]
    while todo:
        g, pos, env = todo.pop()
        cls = g.__class__
        if env is _JOIN:
            k = len(done) - g
            parts = done[k:]
            del done[k:]
            if pos:
                joined = [c for cs in parts for c in cs]
            elif max_clauses >= 1 and all(len(cs) == 1 for cs in parts):
                # what distribution gives, in one step
                joined = [clause(l for cs in parts for l in cs[0].literals)]
            else:
                joined = [Clause(())]
                for cs in parts:
                    if len(joined) * len(cs) > max_clauses:
                        raise ClauseLimitError(f"distribution exceeds {max_clauses} clauses")
                    joined = [clause(a.literals + c.literals) for a in joined for c in cs]
            done.append(list(dict.fromkeys(joined)))
        elif cls is Literal:
            l = g if pos else g.complement()
            if env:
                l = map_literal_terms(l, lambda t: apply_term(t, env))
            done.append([Clause((l,))])
        elif cls is Top or cls is Bottom:
            done.append([] if (cls is Top) == pos else [Clause(())])
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
            todo.append((2, pos, _JOIN))
            todo.append((Implies(g.rhs, g.lhs), pos, env))
            todo.append((Implies(g.lhs, g.rhs), pos, env))
        else:
            w = pick(g.var)
            prefix.append(("forall" if (cls is ForAll) == pos else "exists", w))
            # a name kept was unused, so no entry of env is for it
            todo.append((g.body, pos, env if w == g.var else {**env, g.var: Var(w)}))
    return PrenexNormalForm(tuple(prefix), tuple(done[0]), "cnf")


def dnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    """Prenex DNF of f, defined as the dual of cnf(~f)."""
    return cnf(Not(f), max_clauses).dual()


# ---------------------------------------------------------------------------
# Placeholder constants for free variables


def freeze_free_vars(
    f: Formula,
    g: Formula,
    namer: FreshNamer,
    free: tuple[AbstractSet[str], AbstractSet[str]],
) -> tuple[Formula, Formula, frozenset[str], dict[str, str]]:
    """Replace free variables with dedicated fresh constants from the run's
    `namer`.

    `free` holds the free variables of f and of g.  Returns (f_c, g_c,
    shared, mapping) where mapping is constant -> variable and shared holds
    the constants standing for variables free in both f and g.
    """
    fv_f, fv_g = free
    mapping: dict[str, str] = {}
    sub: Subst = {}
    for v in sorted(fv_f | fv_g):
        c = namer.fresh(f"c_{v.lower()}_" if v.lower() != v else f"c_{v}_")
        mapping[c] = v
        sub[v] = App(c)
    shared = frozenset(c for c, v in mapping.items() if v in fv_f and v in fv_g)
    return formula_subst(f, sub), formula_subst(g, sub), shared, mapping


def frozen_vocabulary(symbols: FormulaSymbols, mapping: dict[str, str]) -> frozenset[str]:
    """The function symbols of a formula with `symbols` once
    `freeze_free_vars` has replaced its free variables as `mapping` says:
    its own, and the placeholder constants of its free variables."""
    free = symbols.free
    return symbols.functions.union(c for c, v in mapping.items() if v in free)


def unfreeze(h: Formula, mapping: dict[str, str]) -> Formula:
    """Replace placeholder constants with their original variables."""
    variables = {App(c): Var(v) for c, v in mapping.items()}
    return map_formula_terms(h, lambda t: map_term(t, variables.get))


# ---------------------------------------------------------------------------
# Skolemization and clausification


@dataclass(frozen=True)
class ClausificationResult:
    clauses: tuple[Clause, ...]
    skolem_functions: frozenset[str]
    universal_vars: frozenset[str]

    def has_empty_clause(self) -> bool:
        return any(not c.literals for c in self.clauses)


def skolemize_clausify(f: Formula, namer: FreshNamer) -> ClausificationResult:
    """Prenex CNF with existential variables replaced by Skolem terms.

    f must be a sentence.  Skolem names come from the run's `namer`, so two
    calls sharing it never collide.
    """
    used = free_vars(f)
    if used:
        raise InputError("skolemize_clausify expects a sentence")
    p = _cnf(f, DEFAULT_CLAUSE_LIMIT, used)
    sub: Subst = {}
    skolems: list[str] = []
    universals: list[str] = []
    for q, v in p.prefix:
        if q == "forall":
            universals.append(v)
        else:
            name = namer.fresh("sk")
            skolems.append(name)
            sub[v] = App(name, tuple(Var(u) for u in universals))
    if sub:
        clauses = tuple(clause(apply_literal(l, sub) for l in c.literals) for c in p.matrix)
    else:
        clauses = p.matrix
    return ClausificationResult(clauses, frozenset(skolems), frozenset(universals))


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
