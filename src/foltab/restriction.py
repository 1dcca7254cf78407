"""Decision procedures for the syntactic fragments: range-restriction in
its universal-variable and full (CNF+DNF) variants, Horn formulas, the
Horn-like NNF grammar, and the preconditions for interpolation with free
query variables.  Verdicts come with witnesses naming the offending clause
and item.
"""

from __future__ import annotations

from typing import Optional

from .normalize import PrenexNormalForm, cnf, dnf
from .syntax import (
    And,
    Bottom,
    Clause,
    Exists,
    ForAll,
    Formula,
    InputError,
    Literal,
    Not,
    Or,
    Top,
    clause_sign_vars,
    clause_vars,
    free_vars,
)


class Witness:
    def __init__(self, clause: Clause, offender: str, condition: str):
        self.clause = clause
        self.offender = offender
        self.condition = condition


class RestrictionReport:
    def __init__(self, verdict: bool, witnesses: tuple[Witness, ...] = ()):
        self.verdict = verdict
        self.witnesses = witnesses

    def __bool__(self) -> bool:
        return self.verdict


def _universal_witnesses(p: PrenexNormalForm) -> list[Witness]:
    """A witness for each universal variable of the prenex CNF p missing
    from the negative literals of a clause that contains it."""
    universals = p.universals
    witnesses: list[Witness] = []
    for c in p.matrix:
        bad = (clause_vars(c) & universals) - clause_sign_vars(c, positive=False)
        for v in sorted(bad):
            witnesses.append(Witness(c, v, "universal-not-in-negative"))
    return witnesses


def is_u_range_restricted(f: Formula) -> RestrictionReport:
    """Every universally quantified variable of the prenex CNF occurs in a
    negative literal of each clause containing it."""
    witnesses = _universal_witnesses(cnf(f))
    return RestrictionReport(not witnesses, tuple(witnesses))


def is_vgt_range_restricted(f: Formula) -> RestrictionReport:
    """The CNF condition on universal variables plus the DNF conditions:
    existential variables and all free variables must occur in positive
    literals of each conjunctive clause."""
    pc = cnf(f)
    pd = dnf(f)
    if pc.prefix != pd.prefix:
        raise AssertionError("cnf and dnf produced different prefixes")
    existentials = pc.existentials
    frees = free_vars(f)
    witnesses = _universal_witnesses(pc)
    for d in pd.matrix:
        pos = clause_sign_vars(d, positive=True)
        for v in sorted((clause_vars(d) & existentials) - pos):
            witnesses.append(Witness(d, v, "existential-not-in-positive"))
        for v in sorted(frees - pos):
            witnesses.append(Witness(d, v, "free-not-in-positive"))
    return RestrictionReport(not witnesses, tuple(witnesses))


def is_horn(f: Formula) -> bool:
    """Built from Horn clauses (at most one positive literal) with the
    connectives conjunction, exists and forall."""
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, And):
            todo.extend(g.parts)
        elif isinstance(g, (ForAll, Exists)):
            todo.append(g.body)
        elif not _is_horn_clause(g):
            return False
    return True


def _is_horn_clause(f: Formula) -> bool:
    if isinstance(f, (Top, Bottom, Literal)):
        return True
    if isinstance(f, Or):
        positives = 0
        for p in f.parts:
            if isinstance(p, Literal):
                positives += p.positive
            elif not isinstance(p, Bottom):
                return False
        return positives <= 1
    return False


def is_horn_like(f: Formula) -> bool:
    """NNF grammar: literal, true, false, conjunction of Horn-like formulas,
    or a disjunction of negative literals, false, and at most one Horn-like
    formula."""
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, And):
            todo.extend(g.parts)
        elif isinstance(g, Or):
            others = [
                p for p in g.parts
                if not (isinstance(p, Bottom) or isinstance(p, Literal) and not p.positive)
            ]
            if len(others) > 1:
                return False
            todo.extend(others)
        elif not isinstance(g, (Literal, Top, Bottom)):
            return False
    return True


def check_vx_preconditions(
    f: Formula,
    g: Formula,
    query_vars: Optional[frozenset[str]] = None,
) -> RestrictionReport:
    """Preconditions for range-restricted interpolation with free query
    variables X: f and ~g both pass the universal-variable restriction,
    cnf(f) has no all-negative clause, all-negative clauses of cnf(~g)
    contain all of X negatively, and X behaves like a universal variable
    in every clause of cnf(~g)."""
    xs_f = frozenset(free_vars(f))
    xs_g = frozenset(free_vars(g))
    if xs_f != xs_g:
        raise InputError("check_vx_preconditions requires var(F) = var(G)")
    xs = xs_f if query_vars is None else frozenset(query_vars)
    if query_vars is not None and xs != xs_f:
        raise InputError("query variable set must equal var(F) = var(G)")

    pf = cnf(f)
    neg_g = cnf(Not(g))
    witnesses = _universal_witnesses(pf)
    witnesses.extend(_universal_witnesses(neg_g))
    for c in pf.matrix:
        if c.literals and all(not l.positive for l in c.literals):
            witnesses.append(Witness(c, str(c), "all-negative-clause-in-f"))
    for c in neg_g.matrix:
        negvars = clause_sign_vars(c, positive=False)
        if c.literals and all(not l.positive for l in c.literals):
            for v in sorted(xs - negvars):
                witnesses.append(Witness(c, v, "query-var-missing-in-negative-clause"))
        for v in sorted((clause_vars(c) & xs) - negvars):
            witnesses.append(Witness(c, v, "query-var-not-in-negative"))
    return RestrictionReport(not witnesses, tuple(witnesses))


class Prop4Report:
    def __init__(
        self, vgt: bool, u_self: bool, u_negation: bool, universal: bool, existential: bool
    ):
        self.vgt = vgt
        self.u_self = u_self
        self.u_negation = u_negation
        self.universal = universal
        self.existential = existential

    @property
    def biconditional_ok(self) -> bool:
        return self.vgt == (self.u_self and self.u_negation)

    @property
    def universal_case_ok(self) -> Optional[bool]:
        if not self.universal:
            return None
        return self.vgt == self.u_self

    @property
    def existential_case_ok(self) -> Optional[bool]:
        if not self.existential:
            return None
        return self.vgt == self.u_negation

    @property
    def consistent(self) -> bool:
        return (
            self.biconditional_ok
            and self.universal_case_ok is not False
            and self.existential_case_ok is not False
        )


def prop4_check(f: Formula) -> Prop4Report:
    """Cross-check the relations between the two range-restriction notions
    on a sentence; used as a self-test and exposed on the CLI."""
    if free_vars(f):
        raise InputError("prop4_check expects a sentence")
    p = cnf(f)
    quants = {q for q, _ in p.prefix}
    return Prop4Report(
        vgt=is_vgt_range_restricted(f).verdict,
        u_self=is_u_range_restricted(f).verdict,
        u_negation=is_u_range_restricted(Not(f)).verdict,
        universal="exists" not in quants,
        existential="forall" not in quants,
    )
