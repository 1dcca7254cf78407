"""Normal forms: NNF, prenexing, the cnf/dnf functionals, dualization,
Skolemization and clausification, placeholder constants, equality axioms.

cnf() and dnf() are deterministic and dual-symmetric by construction:
dnf(F) is defined as the dual of cnf(~F), so the clause-level containment
and duality contracts hold structurally, not just up to equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import (
    And,
    App,
    Bottom,
    Clause,
    Exists,
    ForAll,
    Formula,
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
    TOP,
    BOTTOM,
    Var,
    apply_literal,
    clause,
    formula_subst,
    formula_symbols,
    free_vars,
    mk_and,
    mk_or,
)

DEFAULT_CLAUSE_LIMIT = 100_000


class ClauseLimitError(Exception):
    """Distribution exceeded the configured clause-count limit."""


# ---------------------------------------------------------------------------
# Negation normal form


def nnf(f: Formula) -> Formula:
    """Push negation to atoms and eliminate -> and <=>.

    Equivalent to f; the polarity of every atom occurrence is preserved.
    """
    if isinstance(f, (Literal, Top, Bottom)):
        return f
    if isinstance(f, And):
        return And(tuple(nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(nnf(p) for p in f.parts))
    if isinstance(f, Implies):
        return Or((nnf(Not(f.lhs)), nnf(f.rhs)))
    if isinstance(f, Iff):
        return And(
            (
                Or((nnf(Not(f.lhs)), nnf(f.rhs))),
                Or((nnf(Not(f.rhs)), nnf(f.lhs))),
            )
        )
    if isinstance(f, ForAll):
        return ForAll(f.var, nnf(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, nnf(f.body))
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Literal):
            return g.complement()
        if isinstance(g, Top):
            return BOTTOM
        if isinstance(g, Bottom):
            return TOP
        if isinstance(g, Not):
            return nnf(g.body)
        if isinstance(g, And):
            return Or(tuple(nnf(Not(p)) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(nnf(Not(p)) for p in g.parts))
        if isinstance(g, Implies):
            return And((nnf(g.lhs), nnf(Not(g.rhs))))
        if isinstance(g, Iff):
            return Or(
                (
                    And((nnf(g.lhs), nnf(Not(g.rhs)))),
                    And((nnf(g.rhs), nnf(Not(g.lhs)))),
                )
            )
        if isinstance(g, ForAll):
            return Exists(g.var, nnf(Not(g.body)))
        if isinstance(g, Exists):
            return ForAll(g.var, nnf(Not(g.body)))
    raise TypeError(f"not a formula: {f!r}")


def is_nnf(f: Formula, allow_quantifiers: bool = True) -> bool:
    if isinstance(f, (Literal, Top, Bottom)):
        return True
    if isinstance(f, (And, Or)):
        return all(is_nnf(p, allow_quantifiers) for p in f.parts)
    if isinstance(f, (ForAll, Exists)):
        return allow_quantifiers and is_nnf(f.body, allow_quantifiers)
    return False


# ---------------------------------------------------------------------------
# Standardization: bound variable names made unique, deterministically.
# Runs on NNF output; a pre-NNF pass would not survive <=> expansion,
# which duplicates binders.


def standardize(f: Formula, reserved: Iterable[str] = ()) -> Formula:
    used = set(reserved) | free_vars(f)

    def pick(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        n = 2
        while f"{name}_{n}" in used:
            n += 1
        fresh = f"{name}_{n}"
        used.add(fresh)
        return fresh

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Literal):
            if not env:
                return g
            sub: Subst = {v: Var(w) for v, w in env.items()}
            return formula_subst(g, sub)
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, And):
            return And(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Not):
            return Not(walk(g.body, env))
        if isinstance(g, Implies):
            return Implies(walk(g.lhs, env), walk(g.rhs, env))
        if isinstance(g, Iff):
            return Iff(walk(g.lhs, env), walk(g.rhs, env))
        if isinstance(g, (ForAll, Exists)):
            new = pick(g.var)
            return type(g)(new, walk(g.body, {**env, g.var: new}))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {})


# ---------------------------------------------------------------------------
# Prenexing


def prenex(f: Formula) -> tuple[tuple[tuple[str, str], ...], Formula]:
    """Pull quantifiers of a standardized NNF outward, in formula order.

    Returns (prefix, quantifier-free matrix)."""
    prefix: list[tuple[str, str]] = []

    def walk(g: Formula) -> Formula:
        if isinstance(g, (Literal, Top, Bottom)):
            return g
        if isinstance(g, And):
            return And(tuple(walk(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p) for p in g.parts))
        if isinstance(g, ForAll):
            prefix.append(("forall", g.var))
            return walk(g.body)
        if isinstance(g, Exists):
            prefix.append(("exists", g.var))
            return walk(g.body)
        raise InputError("prenex expects an NNF formula")

    matrix = walk(f)
    return tuple(prefix), matrix


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

    def matrix_formula(self) -> Formula:
        from .syntax import clause_formula

        if self.kind == "cnf":
            return mk_and(clause_formula(c) for c in self.matrix)
        return mk_or(clause_formula(c) for c in self.matrix)

    def formula(self) -> Formula:
        out = self.matrix_formula()
        for q, v in reversed(self.prefix):
            out = ForAll(v, out) if q == "forall" else Exists(v, out)
        return out


def matrix_cnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> tuple[Clause, ...]:
    """Naive distribution of a quantifier-free NNF into a clause list.

    Only duplicate clauses are removed; tautologies are kept."""

    def dedup(clauses: list[Clause]) -> list[Clause]:
        return list(dict.fromkeys(clauses))

    def go(g: Formula) -> list[Clause]:
        if isinstance(g, Literal):
            return [Clause((g,))]
        if isinstance(g, Top):
            return []
        if isinstance(g, Bottom):
            return [Clause(())]
        if isinstance(g, And):
            merged: list[Clause] = []
            for p in g.parts:
                merged.extend(go(p))
            return dedup(merged)
        if isinstance(g, Or):
            acc: list[Clause] = [Clause(())]
            for p in g.parts:
                cs = go(p)
                if len(acc) * len(cs) > max_clauses:
                    raise ClauseLimitError(
                        f"distribution exceeds {max_clauses} clauses"
                    )
                acc = [clause(a.literals + c.literals) for a in acc for c in cs]
            return dedup(acc)
        raise InputError("matrix distribution expects a quantifier-free NNF")

    return tuple(go(f))


def cnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    """Prenex CNF of f.  var(cnf(f)) and voc(cnf(f)) never grow."""
    g = standardize(nnf(f))
    prefix, matrix = prenex(g)
    return PrenexNormalForm(prefix, matrix_cnf(matrix, max_clauses), "cnf")


def dnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    """Prenex DNF of f, defined as the dual of cnf(~f)."""
    return cnf(Not(f), max_clauses).dual()


def dual(f: Formula) -> Formula:
    """Dual of a prenex formula with NNF matrix; equivalent to ~f."""

    def dual_matrix(g: Formula) -> Formula:
        if isinstance(g, Literal):
            return g.complement()
        if isinstance(g, Top):
            return BOTTOM
        if isinstance(g, Bottom):
            return TOP
        if isinstance(g, And):
            return Or(tuple(dual_matrix(p) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(dual_matrix(p) for p in g.parts))
        raise InputError("dual requires a prenex formula with NNF matrix")

    if isinstance(f, ForAll):
        return Exists(f.var, dual(f.body))
    if isinstance(f, Exists):
        return ForAll(f.var, dual(f.body))
    return dual_matrix(f)


# ---------------------------------------------------------------------------
# Placeholder constants for free variables


def freeze_free_vars(
    f: Formula, g: Formula, namer: Optional[FreshNamer] = None
) -> tuple[Formula, Formula, frozenset[str], dict[str, str]]:
    """Replace free variables with dedicated fresh constants.

    Returns (f_c, g_c, shared, mapping) where mapping is constant -> variable
    and shared holds the constants standing for variables free in both f and g.
    """
    if namer is None:
        namer = FreshNamer(formula_symbols(f) | formula_symbols(g))
    fv_f = free_vars(f)
    fv_g = free_vars(g)
    mapping: dict[str, str] = {}
    sub: Subst = {}
    for v in sorted(fv_f | fv_g):
        c = namer.fresh(f"c_{v.lower()}_" if v.lower() != v else f"c_{v}_")
        mapping[c] = v
        sub[v] = App(c)
    shared = frozenset(c for c, v in mapping.items() if v in fv_f and v in fv_g)
    return formula_subst(f, sub), formula_subst(g, sub), shared, mapping


# ---------------------------------------------------------------------------
# Skolemization and clausification


@dataclass(frozen=True)
class ClausificationResult:
    clauses: tuple[Clause, ...]
    skolem_functions: frozenset[str]
    universal_vars: frozenset[str]

    def has_empty_clause(self) -> bool:
        return any(not c.literals for c in self.clauses)


def skolemize_clausify(
    f: Formula,
    namer: Optional[FreshNamer] = None,
    max_clauses: int = DEFAULT_CLAUSE_LIMIT,
) -> ClausificationResult:
    """Prenex CNF with existential variables replaced by Skolem terms.

    f must be a sentence.  Skolem names come from `namer`, so two calls
    sharing one namer never collide.
    """
    if free_vars(f):
        raise InputError("skolemize_clausify expects a sentence")
    if namer is None:
        namer = FreshNamer(formula_symbols(f))
    p = cnf(f, max_clauses)
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
