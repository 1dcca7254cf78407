"""Craig-Lyndon interpolation from two-sided clausal tableaux.

The pipeline: freeze free variables to placeholder constants, Skolemize and
clausify both sides, prove, ground the proof, optionally hyper-convert it,
assign side labels, extract the ground interpolant, lift side-specific
ground terms to quantified variables, and restore the placeholders.  With
the hyper conversion in the loop the interpolant inherits range-restriction
and Horn properties from suitable inputs; a verification harness rechecks
every claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .hyperconv import ConversionTrace, hyper_convert
from .normalize import (
    DEFAULT_CLAUSE_LIMIT,
    freeze_free_vars,
    matrix_cnf,
    skolemize_clausify,
)
from .restriction import is_horn, is_horn_like, is_u_range_restricted, is_vgt_range_restricted
from .syntax import (
    And,
    App,
    BOTTOM,
    Bottom,
    Clause,
    Exists,
    ForAll,
    Formula,
    FreshNamer,
    InputError,
    Literal,
    Not,
    Or,
    TOP,
    Term,
    Top,
    Var,
    clause_formula,
    formula_symbols,
    free_vars,
    is_ground,
    map_formula_terms,
    mk_and,
    mk_or,
    rename_predicates,
    term_depth,
    vocabulary,
)
from .tableaux import (
    Node,
    ProveResult,
    StructureError,
    Tableau,
    assign_sides,
    compute_targets,
    ground_tableau,
    prove,
)


class NotProvedError(Exception):
    def __init__(self, result: ProveResult):
        self.result = result
        super().__init__(f"entailment not proved: {result.status}")


class RequirementError(Exception):
    def __init__(self, message: str, interpolant: Formula, report: "InterpolationReport"):
        self.interpolant = interpolant
        self.report = report
        super().__init__(message)


# ---------------------------------------------------------------------------
# Interpolation context


@dataclass
class InterpolationContext:
    """The data threaded through one interpolation run: both inputs, their
    clausal forms, the placeholder constants for shared free variables, and
    the two function-symbol sides that drive term classification."""

    f: Formula
    g: Formula
    f_clauses: tuple[Clause, ...]
    g_clauses: tuple[Clause, ...]
    shared_constants: frozenset[str]
    f_functions: frozenset[str]
    g_functions: frozenset[str]
    placeholder_map: dict[str, str] = field(default_factory=dict)

    def e_member(self, t: Term) -> bool:
        """F-side terms: outermost function symbol belongs to the F side."""
        return isinstance(t, App) and t.functor in self.f_functions

    def u_member(self, t: Term) -> bool:
        """G-side terms: outermost function symbol belongs to the G side."""
        return isinstance(t, App) and t.functor in self.g_functions

    def c_member(self, t: Term) -> bool:
        return isinstance(t, App) and not t.args and t.functor in self.shared_constants

    def v_member(self, t: Term) -> bool:
        # Stored for completeness: the union classifier is exercised only by
        # the invariant test suites, not by the pipeline itself.
        return self.e_member(t) or self.u_member(t) or self.c_member(t)


# ---------------------------------------------------------------------------
# Truth-value simplification


def simp_or(parts: Iterable[Formula]) -> Formula:
    """Truth-value simplification plus flattening and duplicate removal;
    keeps interpolants small without changing their clause sets."""
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, Top):
            return TOP
        if isinstance(p, Bottom):
            continue
        for q in p.parts if isinstance(p, Or) else (p,):
            if q not in out:
                out.append(q)
    return mk_or(out)


def simp_and(parts: Iterable[Formula]) -> Formula:
    out: list[Formula] = []
    for p in parts:
        if isinstance(p, Bottom):
            return BOTTOM
        if isinstance(p, Top):
            continue
        for q in p.parts if isinstance(p, And) else (p,):
            if q not in out:
                out.append(q)
    return mk_and(out)


def truth_simplify(f: Formula) -> Formula:
    """Remove truth constants from an NNF, bottom up."""
    if isinstance(f, And):
        return simp_and(truth_simplify(p) for p in f.parts)
    if isinstance(f, Or):
        return simp_or(truth_simplify(p) for p in f.parts)
    return f


# ---------------------------------------------------------------------------
# Ground interpolant extraction


def side_path_literals(node: Node, side: str) -> list[Literal]:
    """Literals with the given side on the path from the root to node,
    node included."""
    out = []
    n: Optional[Node] = node
    while n is not None:
        if n.literal is not None and n.side == side:
            out.append(n.literal)
        n = n.parent
    out.reverse()
    return out


def ipol_map(tab: Tableau) -> dict[Node, Formula]:
    """Truth-value-simplified interpolant value for every node of a
    leaf-closed, ground, two-sided tableau."""
    for n in tab.non_root_nodes():
        if n.side not in ("F", "G"):
            raise StructureError("interpolant extraction needs side labels on every node")
        if not all(is_ground(a) for a in n.literal.args):
            raise StructureError("interpolant extraction needs a ground tableau")
    compute_targets(tab)
    values: dict[Node, Formula] = {}

    def go(n: Node) -> Formula:
        if not n.children:
            t = n.target
            if t is None:
                raise StructureError("tableau is not leaf-closed: open leaf")
            if n.side == "F" and t.side == "F":
                v: Formula = BOTTOM
            elif n.side == "F":
                v = n.literal
            elif t.side == "F":
                v = n.literal.complement()
            else:
                v = TOP
        else:
            side = n.children[0].side
            parts = [go(c) for c in n.children]
            v = simp_or(parts) if side == "F" else simp_and(parts)
        values[n] = v
        return v

    if not tab.root.children:
        raise StructureError("empty tableau")
    go(tab.root)
    return values


def extract_ipol(tab: Tableau) -> Formula:
    """Ground interpolant: the interpolant value at the root."""
    return ipol_map(tab)[tab.root]


# ---------------------------------------------------------------------------
# Interpolant lifting


@dataclass(frozen=True)
class LiftResult:
    prefix: tuple[tuple[str, str], ...]
    matrix: Formula
    terms: tuple[Term, ...]  # the replaced terms, in prefix order


def lift_parts(
    h_grd: Formula, ctx: InterpolationContext, namer: Optional[FreshNamer] = None
) -> LiftResult:
    """Quantifier prefix and matrix of the lifted interpolant.

    Maximal occurrences of side-owned ground terms become fresh variables:
    existential for F-side terms, universal for G-side terms.  Subterms are
    quantified before their superterms (stable order: depth, then first
    occurrence)."""
    if namer is None:
        namer = FreshNamer(formula_symbols(h_grd))

    def member(t: Term) -> bool:
        return ctx.e_member(t) or ctx.u_member(t)

    occurrence: list[Term] = []

    def scan(t: Term) -> None:
        if member(t):
            if t not in occurrence:
                occurrence.append(t)
            return
        if isinstance(t, App):
            for a in t.args:
                scan(a)

    def walk_scan(g: Formula) -> None:
        if isinstance(g, Literal):
            for a in g.args:
                scan(a)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk_scan(p)
        elif isinstance(g, (Top, Bottom)):
            pass
        else:
            raise StructureError("lifting expects a quantifier-free NNF")

    walk_scan(h_grd)
    ordered = sorted(
        occurrence, key=lambda t: (term_depth(t), occurrence.index(t))
    )
    names = {t: namer.fresh("V") for t in ordered}
    prefix = tuple(
        ("exists" if ctx.e_member(t) else "forall", names[t]) for t in ordered
    )

    def replace(t: Term) -> Term:
        if member(t):
            return Var(names[t])
        if isinstance(t, App) and t.args:
            return App(t.functor, tuple(replace(a) for a in t.args))
        return t

    matrix = map_formula_terms(h_grd, replace)
    return LiftResult(prefix, matrix, tuple(ordered))


def lift(
    h_grd: Formula, ctx: InterpolationContext, namer: Optional[FreshNamer] = None
) -> Formula:
    lifted = lift_parts(h_grd, ctx, namer)
    return wrap_prefix(lifted.prefix, lifted.matrix)


def wrap_prefix(prefix: Iterable[tuple[str, str]], matrix: Formula) -> Formula:
    out = matrix
    for q, v in reversed(tuple(prefix)):
        out = ForAll(v, out) if q == "forall" else Exists(v, out)
    return out


def unfreeze(h: Formula, mapping: dict[str, str]) -> Formula:
    """Replace placeholder constants with their original variables."""

    def back(t: Term) -> Term:
        if isinstance(t, App):
            if not t.args and t.functor in mapping:
                return Var(mapping[t.functor])
            if t.args:
                return App(t.functor, tuple(back(a) for a in t.args))
        return t

    def walk(g: Formula) -> Formula:
        if isinstance(g, (ForAll, Exists)):
            return type(g)(g.var, walk(g.body))
        return map_formula_terms(g, back)

    return walk(h)


# ---------------------------------------------------------------------------
# Horn-like to Horn


def hornify(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> Formula:
    """Convert a Horn-like quantifier-free NNF into an equivalent
    conjunction of Horn clauses (truth-value simplification followed by
    distribution)."""
    if not is_horn_like(f):
        raise InputError("hornify expects a Horn-like NNF")
    g = truth_simplify(f)
    if isinstance(g, (Top, Bottom, Literal)):
        return g
    clauses = matrix_cnf(g, max_clauses)
    for c in clauses:
        if sum(1 for l in c.literals if l.positive) > 1:
            raise AssertionError("distribution of a Horn-like NNF produced a non-Horn clause")
    return mk_and(clause_formula(c) for c in clauses)


# ---------------------------------------------------------------------------
# The end-to-end pipeline


@dataclass
class InterpolationReport:
    proved: bool = False
    shortcut: Optional[str] = None
    prove_status: str = ""
    prove_inferences: int = 0
    tableau: Optional[Tableau] = None
    context: Optional[InterpolationContext] = None
    ground_interpolant: Optional[Formula] = None
    interpolant: Optional[Formula] = None
    hyper_applied: bool = False
    rounds: int = 0
    size_before: Optional[int] = None
    size_after: Optional[int] = None
    trace: Optional[ConversionTrace] = None
    lifted_terms: tuple[Term, ...] = ()
    require: frozenset[str] = frozenset()
    require_results: dict[str, bool] = field(default_factory=dict)
    verification: Optional["VerificationReport"] = None
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def size_ratio(self) -> Optional[float]:
        if self.size_before and self.size_after is not None:
            return self.size_after / self.size_before
        return None


# the checkers are looked up as module globals at call time, so that a
# wrapper installed on this module (as the benchmark's tracer does) sees them
_PROPERTY_CHECKS = {
    "u-rr": lambda h: is_u_range_restricted(h).verdict,
    "vgt-rr": lambda h: is_vgt_range_restricted(h).verdict,
    "horn": lambda h: is_horn(h),
}
REQUIRABLE = tuple(_PROPERTY_CHECKS)


def interpolate(
    f: Formula,
    g: Formula,
    require: Iterable[str] = (),
    use_hyper: Optional[bool] = None,
    side_tie: str = "F",
    ground_policy: str = "F",
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
    max_clauses: int = DEFAULT_CLAUSE_LIMIT,
    verify: bool = False,
) -> tuple[Formula, InterpolationReport]:
    """Construct a Craig-Lyndon interpolant of f and g (requires f |= g).

    `require` may list 'u-rr', 'vgt-rr' and 'horn'; requesting any of them
    switches the hyper proof transformation on, which is what makes the
    structural guarantees hold.  Failing a requested property raises
    RequirementError.
    """
    require = frozenset(require)
    for r in require:
        if r not in REQUIRABLE:
            raise InputError(f"unknown requirement: {r}")
    report = InterpolationReport(require=require)
    timings = report.timings_ms
    namer = FreshNamer(formula_symbols(f) | formula_symbols(g))

    t0 = time.perf_counter()
    f_c, g_c, shared, pmap = freeze_free_vars(f, g, namer)
    fres = skolemize_clausify(f_c, namer, max_clauses)
    gres = skolemize_clausify(Not(g_c), namer, max_clauses)
    timings["clausify"] = (time.perf_counter() - t0) * 1000

    fun_f = vocabulary(f_c)[0]
    fun_g = vocabulary(g_c)[0]

    s1 = s2 = frozenset()
    if fres.has_empty_clause() or gres.has_empty_clause():
        h: Formula = BOTTOM if fres.has_empty_clause() else TOP
        report.shortcut = "f-unsatisfiable" if isinstance(h, Bottom) else "g-valid"
        report.ground_interpolant = h
    else:
        t0 = time.perf_counter()
        result = prove(
            fres.clauses + gres.clauses,
            max_depth=max_depth,
            timeout=timeout,
            max_inferences=max_inferences,
        )
        timings["prove"] = (time.perf_counter() - t0) * 1000
        report.prove_status = result.status
        report.prove_inferences = result.inferences
        if not result.proved:
            raise NotProvedError(result)

        t0 = time.perf_counter()
        tab, s1, s2 = ground_tableau(result.tableau, namer, ground_policy)
        timings["ground"] = (time.perf_counter() - t0) * 1000
        report.size_before = tab.inner_size()

        do_hyper = use_hyper if use_hyper is not None else bool(require)
        if do_hyper:
            t0 = time.perf_counter()
            tab, trace = hyper_convert(tab)
            timings["hyper"] = (time.perf_counter() - t0) * 1000
            report.hyper_applied = True
            report.rounds = trace.total_rounds
            report.trace = trace
        report.size_after = tab.inner_size()
    report.proved = True

    ctx = InterpolationContext(
        f,
        g,
        fres.clauses,
        gres.clauses,
        shared,
        frozenset(fres.skolem_functions | (fun_f - fun_g) | s1),
        frozenset(gres.skolem_functions | (fun_g - fun_f) | s2),
        pmap,
    )
    report.context = ctx

    if report.shortcut is None:
        t0 = time.perf_counter()
        tab = assign_sides(tab, fres.clauses, gres.clauses, side_tie)
        report.tableau = tab
        h_grd = extract_ipol(tab)
        report.ground_interpolant = h_grd
        lifted = lift_parts(h_grd, ctx, namer)
        report.lifted_terms = lifted.terms
        matrix = lifted.matrix
        if "horn" in require:
            matrix = hornify(matrix, max_clauses)
        h = unfreeze(wrap_prefix(lifted.prefix, matrix), pmap)
        timings["extract"] = (time.perf_counter() - t0) * 1000
    report.interpolant = h

    if verify:
        t0 = time.perf_counter()
        report.verification = verify_interpolant(
            f, g, h, require, max_depth=max_depth * 4,
            timeout=None if timeout is None else timeout * 4,
            max_inferences=None if max_inferences is None else max_inferences * 4,
        )
        timings["verify"] = (time.perf_counter() - t0) * 1000
    _check_requirements(h, report)
    return h, report


def _check_requirements(h: Formula, report: InterpolationReport) -> None:
    for r in sorted(report.require):
        report.require_results[r] = _PROPERTY_CHECKS[r](h)
    failed = [r for r, ok in report.require_results.items() if not ok]
    if failed:
        raise RequirementError(
            f"interpolant misses requested properties: {', '.join(failed)}",
            h,
            report,
        )


# ---------------------------------------------------------------------------
# Verification harness


@dataclass
class VerificationReport:
    vocabulary_ok: bool
    variables_ok: bool
    f_entails_h: str  # pass | fail | inconclusive
    h_entails_g: str
    properties: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.vocabulary_ok
            and self.variables_ok
            and self.f_entails_h == "pass"
            and self.h_entails_g == "pass"
            and all(self.properties.values())
        )


def _universal_conjuncts(b: Formula) -> list[Formula]:
    """Split a universally quantified conjunction into its conjuncts;
    entailment distributes over them, which keeps the negated side small."""
    prefix: list[str] = []
    body = b
    while isinstance(body, ForAll):
        prefix.append(body.var)
        body = body.body
    if not isinstance(body, And):
        return [b]
    out: list[Formula] = []
    for p in body.parts:
        wrapped = p
        for v in reversed(prefix):
            wrapped = ForAll(v, wrapped)
        out.extend(_universal_conjuncts(wrapped))
    return out


def entails(
    a: Formula,
    b: Formula,
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
) -> str:
    """'pass' when a |= b was proved, 'fail' when refutation-impossible was
    established, 'inconclusive' on resource exhaustion."""
    statuses = [
        _entails_single(a, part, max_depth, timeout, max_inferences)
        for part in _universal_conjuncts(b)
    ]
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "inconclusive" for s in statuses):
        return "inconclusive"
    return "pass"


def _entails_single(
    a: Formula,
    b: Formula,
    max_depth: int,
    timeout: Optional[float],
    max_inferences: Optional[int],
) -> str:
    namer = FreshNamer(formula_symbols(a) | formula_symbols(b))
    a_c, b_c, _, _ = freeze_free_vars(a, b, namer)
    ares = skolemize_clausify(a_c, namer)
    bres = skolemize_clausify(Not(b_c), namer)
    if ares.has_empty_clause() or bres.has_empty_clause():
        return "pass"
    result = prove(
        ares.clauses + bres.clauses,
        max_depth=max_depth,
        timeout=timeout,
        max_inferences=max_inferences,
    )
    if result.proved:
        return "pass"
    if result.status == "saturated":
        return "fail"
    return "inconclusive"


def craig_conditions(f: Formula, g: Formula, h: Formula) -> tuple[bool, bool]:
    """Vocabulary (with predicate polarities) and free-variable inclusion."""
    fun_f, pred_f = vocabulary(f)
    fun_g, pred_g = vocabulary(g)
    fun_h, pred_h = vocabulary(h)
    voc_ok = fun_h <= (fun_f & fun_g) and pred_h <= (pred_f & pred_g)
    var_ok = free_vars(h) <= (free_vars(f) & free_vars(g))
    return voc_ok, var_ok


def verify_interpolant(
    f: Formula,
    g: Formula,
    h: Formula,
    required: Iterable[str] = (),
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
) -> VerificationReport:
    voc_ok, var_ok = craig_conditions(f, g, h)
    rep = VerificationReport(
        vocabulary_ok=voc_ok,
        variables_ok=var_ok,
        f_entails_h=entails(f, h, max_depth, timeout, max_inferences),
        h_entails_g=entails(h, g, max_depth, timeout, max_inferences),
    )
    for r in sorted(set(required)):
        if r not in _PROPERTY_CHECKS:
            raise InputError(f"unknown property: {r}")
        rep.properties[r] = _PROPERTY_CHECKS[r](h)
    return rep


# ---------------------------------------------------------------------------
# Predicate definability


def synthesize_definition(
    kb: Formula,
    query: Formula,
    targets: Iterable[str],
    **options,
) -> tuple[Formula, InterpolationReport]:
    """Right side of a definition of `query` under `kb` within the target
    vocabulary, through interpolation of kb & query against the variant
    with all non-target predicates renamed."""
    targets = frozenset(targets)
    if not targets:
        raise InputError("target predicate set must not be empty")
    preds = {p for p, _ in vocabulary(kb)[1]} | {p for p, _ in vocabulary(query)[1]}
    namer = FreshNamer(formula_symbols(kb) | formula_symbols(query))
    mapping = {p: namer.fresh(f"{p}_p") for p in sorted(preds - targets)}
    kb_primed = rename_predicates(kb, mapping)
    query_primed = rename_predicates(query, mapping)
    f = And((kb, query))
    g = Or((Not(kb_primed), query_primed))
    return interpolate(f, g, **options)
