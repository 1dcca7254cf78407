"""Craig-Lyndon interpolation from two-sided clausal tableaux.

The pipeline: freeze free variables to placeholder constants, Skolemize and
clausify both sides (one walk per side does all three), prove, ground the
proof, optionally hyper-convert it, assign side labels, extract the ground
interpolant, lift side-specific ground terms to quantified variables, and
restore the placeholders.  With the hyper conversion in the loop the
interpolant inherits range-restriction and Horn properties from suitable
inputs.

Every run keeps what it derived in its certificate
(`certificate.Certificate`), which the report holds.  With `verify`,
`verify_interpolant` rechecks every claim: the required properties on the
interpolant itself, and the Craig conditions and the two entailments from
that certificate, without proof search, without clausifying again and
without reading F and G again.  `entails`, which proves an entailment
with the prover, remains for an interpolant that comes without a
certificate, as in `foltab verify`.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from .certificate import Certificate, SharedSymbols, check_certificate
from .hyperconv import ConversionTrace, hyper_convert
from .normalize import (
    cnf,
    freeze_free_vars,
    frozen_vocabulary,
    skolemize_clausify,
    unfreeze,
    wrap_prefix,
)
from .restriction import (
    RestrictionReport,
    is_horn,
    is_horn_like,
    is_u_range_restricted,
    is_vgt_range_restricted,
)
from .syntax import (
    And,
    App,
    BOTTOM,
    Bottom,
    ForAll,
    Formula,
    FormulaSymbols,
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
    is_ground,
    map_formula_terms,
    map_term,
    mk_and,
    mk_or,
    read_symbols,
    rename_predicates,
    smax_by,
    term_depth,
)
from .tableaux import (
    Node,
    ProveResult,
    StructureError,
    assign_sides,
    branch_walk,
    ground_tableau,
    prove,
)


class NotProvedError(Exception):
    def __init__(self, result: ProveResult):
        self.result = result
        super().__init__(f"entailment not proved: {result.status}")


class RequirementError(Exception):
    def __init__(self, message: str, report: "InterpolationReport"):
        self.report = report
        super().__init__(message)


# ---------------------------------------------------------------------------
# Interpolation context


class InterpolationContext:
    """The term classes of one interpolation run: the placeholder constants
    for shared free variables, and the two function-symbol sides that
    drive term classification."""

    def __init__(
        self,
        shared_constants: frozenset[str],
        f_functions: frozenset[str],
        g_functions: frozenset[str],
    ):
        self.shared_constants = shared_constants
        self.f_functions = f_functions
        self.g_functions = g_functions

    def e_member(self, t: Term) -> bool:
        """F-side terms: outermost function symbol belongs to the F side."""
        return isinstance(t, App) and t.functor in self.f_functions

    def u_member(self, t: Term) -> bool:
        """G-side terms: outermost function symbol belongs to the G side."""
        return isinstance(t, App) and t.functor in self.g_functions


# ---------------------------------------------------------------------------
# Truth-value simplification


def _simp(parts: Iterable[Formula], cls: type, unit: type, zero: Formula) -> list[Formula]:
    """The parts of a `cls` flattened, without `unit`s and duplicates (the
    first occurrence wins); [zero] if one is `zero`."""
    out: dict[Formula, None] = {}
    for p in parts:
        if p.__class__ is zero.__class__:
            return [zero]
        if p.__class__ is unit:
            continue
        for q in p.parts if p.__class__ is cls else (p,):
            out.setdefault(q)
    return list(out)


def simp_or(parts: Iterable[Formula]) -> Formula:
    """Truth-value simplification plus flattening and duplicate removal;
    keeps interpolants small without changing their clause sets."""
    return mk_or(_simp(parts, Or, Bottom, TOP))


def simp_and(parts: Iterable[Formula]) -> Formula:
    return mk_and(_simp(parts, And, Top, BOTTOM))


def truth_simplify(f: Formula) -> Formula:
    """Remove truth constants from an NNF, bottom up."""
    out: list[Formula] = []
    # (g, False) visits g; (g, True) simplifies g from its parts in `out`
    todo: list[tuple[Formula, bool]] = [(f, False)]
    while todo:
        g, rebuild = todo.pop()
        if rebuild:
            k = len(out) - len(g.parts)
            parts = out[k:]
            del out[k:]
            out.append(simp_and(parts) if g.__class__ is And else simp_or(parts))
        elif g.__class__ is And or g.__class__ is Or:
            todo.append((g, True))
            todo.extend((p, False) for p in reversed(g.parts))
        else:
            out.append(g)
    return out[0]


# ---------------------------------------------------------------------------
# Ground interpolant extraction


def ipol_map(root: Node) -> dict[Node, Formula]:
    """Truth-value-simplified interpolant value for every node of the
    leaf-closed, ground, two-sided tableau `root` heads.  The side labels
    and groundness are checked on the walk down, the leaves on the way
    back up."""
    rows = branch_walk(root)
    walk = [next(rows)]
    for row in rows:
        n = row[0]
        if n.side not in ("F", "G"):
            raise StructureError("interpolant extraction needs side labels on every node")
        if not all(is_ground(a) for a in n.literal.args):
            raise StructureError("interpolant extraction needs a ground tableau")
        walk.append(row)
    if not root.children:
        raise StructureError("empty tableau")
    values: dict[Node, Formula] = {}
    # in reverse pre-order every node comes after its children
    for n, _, t in reversed(walk):
        if n.children:
            parts = [values[c] for c in n.children]
            v = simp_or(parts) if n.children[0].side == "F" else simp_and(parts)
        elif t is None:
            raise StructureError("tableau is not leaf-closed: open leaf")
        elif n.side == "F":
            v = BOTTOM if t.side == "F" else n.literal
        else:
            v = n.literal.complement() if t.side == "F" else TOP
        values[n] = v
    return values


def extract_ipol(root: Node) -> Formula:
    """Ground interpolant: the interpolant value at the root."""
    return ipol_map(root)[root]


# ---------------------------------------------------------------------------
# Interpolant lifting


class LiftResult:
    def __init__(
        self, prefix: tuple[tuple[str, str], ...], matrix: Formula, terms: tuple[Term, ...]
    ):
        self.prefix = prefix
        self.matrix = matrix
        self.terms = terms  # the replaced terms, in prefix order


def lift_parts(h_grd: Formula, ctx: InterpolationContext, namer: FreshNamer) -> LiftResult:
    """Quantifier prefix and matrix of the lifted interpolant.

    Maximal occurrences of side-owned ground terms become fresh variables,
    named by the run's `namer`: existential for F-side terms, universal for
    G-side terms.  Subterms are quantified before their superterms (stable
    order: depth, then first occurrence)."""
    # a stable sort keeps the order of first occurrence within each depth
    ordered = sorted(
        smax_by(lambda t: ctx.e_member(t) or ctx.u_member(t), h_grd), key=term_depth
    )
    # every maximal member occurrence is a key, and a key is a member term
    variables = {t: Var(namer.fresh("V")) for t in ordered}
    prefix = tuple(
        ("exists" if ctx.e_member(t) else "forall", variables[t].name) for t in ordered
    )
    matrix = map_formula_terms(h_grd, lambda t: map_term(t, variables.get))
    return LiftResult(prefix, matrix, tuple(ordered))


# ---------------------------------------------------------------------------
# Horn-like to Horn


def hornify(f: Formula) -> Formula:
    """Convert a Horn-like quantifier-free NNF into an equivalent
    conjunction of Horn clauses (truth-value simplification followed by
    distribution)."""
    if not is_horn_like(f):
        raise InputError("hornify expects a Horn-like NNF")
    g = truth_simplify(f)
    if isinstance(g, (Top, Bottom, Literal)):
        return g
    clauses = cnf(g).matrix
    for c in clauses:
        if sum(1 for l in c.literals if l.positive) > 1:
            raise AssertionError("distribution of a Horn-like NNF produced a non-Horn clause")
    return mk_and(clause_formula(c) for c in clauses)


# ---------------------------------------------------------------------------
# The end-to-end pipeline


class InterpolationReport:
    """One run: its certificate, which no other field copies, its term
    classes, its interpolant, the hyper conversion and the verdicts; the
    run fills it in as it goes."""

    def __init__(self):
        self.certificate: Optional[Certificate] = None
        self.context: Optional[InterpolationContext] = None
        self.interpolant: Optional[Formula] = None
        self.size_before: Optional[int] = None
        self.size_after: Optional[int] = None
        self.trace: Optional[ConversionTrace] = None
        self.require_results: dict[str, bool] = {}
        self.verification: Optional[VerificationReport] = None
        self.timings_ms: dict[str, float] = {}

    @property
    def size_ratio(self) -> Optional[float]:
        if self.size_before and self.size_after is not None:
            return self.size_after / self.size_before
        return None


# the requirable properties, each checker giving a verdict with the witnesses
# against it; the checkers are looked up as module globals at call time, so
# that a wrapper installed on this module (as the benchmark's tracer does)
# sees them
PROPERTY_CHECKS = {
    "u-rr": lambda h: is_u_range_restricted(h),
    "vgt-rr": lambda h: is_vgt_range_restricted(h),
    "horn": lambda h: RestrictionReport(is_horn(h)),
}


def requirements(names: Iterable[str]) -> frozenset[str]:
    """The requirable properties named; an unknown name is an InputError."""
    out = frozenset(names)
    unknown = sorted(out - PROPERTY_CHECKS.keys())
    if unknown:
        raise InputError(f"unknown requirement: {', '.join(unknown)}")
    return out


def interpolate(
    f: Formula,
    g: Formula,
    require: Iterable[str] = (),
    use_hyper: bool = False,
    side_tie: str = "F",
    ground_policy: str = "F",
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
    verify: bool = False,
) -> tuple[Formula, InterpolationReport]:
    """Construct a Craig-Lyndon interpolant of f and g (requires f |= g).

    `require` may list 'u-rr', 'vgt-rr' and 'horn'; requesting any of them
    switches the hyper proof transformation on, which is what makes the
    structural guarantees hold; `use_hyper` switches it on without them.
    Failing a requested property raises RequirementError.
    """
    require = requirements(require)
    report = InterpolationReport()
    timings = report.timings_ms
    sf, sg = read_symbols(f), read_symbols(g)
    namer = FreshNamer(sf.names | sg.names)

    t0 = time.perf_counter()
    frozen, shared, pmap = freeze_free_vars(namer, (sf.free, sg.free))
    fres = skolemize_clausify(f, namer, frozen)
    gres = skolemize_clausify(Not(g), namer, frozen)
    timings["clausify"] = (time.perf_counter() - t0) * 1000

    fun_f = frozen_vocabulary(sf, pmap)
    fun_g = frozen_vocabulary(sg, pmap)

    s1 = s2 = frozenset()
    shortcut = tab = lifted = matrix = None
    if fres.has_empty_clause() or gres.has_empty_clause():
        h: Formula = BOTTOM if fres.has_empty_clause() else TOP
        shortcut = "f-unsatisfiable" if isinstance(h, Bottom) else "g-valid"
        h_grd = h
    else:
        clauses = fres.clauses + gres.clauses
        if not clauses:
            # F & ~G has no clause, so it is satisfiable: the search would
            # saturate at once
            raise NotProvedError(ProveResult("saturated", None, 0, 0))
        t0 = time.perf_counter()
        result = prove(
            clauses,
            max_depth=max_depth,
            timeout=timeout,
            max_inferences=max_inferences,
        )
        timings["prove"] = (time.perf_counter() - t0) * 1000
        if not result.proved:
            raise NotProvedError(result)

        t0 = time.perf_counter()
        tab, s1, s2 = ground_tableau(result.tableau, namer, ground_policy)
        timings["ground"] = (time.perf_counter() - t0) * 1000

        if use_hyper or require:
            t0 = time.perf_counter()
            tab, trace = hyper_convert(tab)
            timings["hyper"] = (time.perf_counter() - t0) * 1000
            report.trace = trace
            report.size_before, report.size_after = trace.input_size, trace.output_size
        else:
            report.size_before = report.size_after = tab.inner_size()

    ctx = InterpolationContext(
        shared,
        frozenset(fres.skolem_functions | (fun_f - fun_g) | s1),
        frozenset(gres.skolem_functions | (fun_g - fun_f) | s2),
    )
    report.context = ctx

    if shortcut is None:
        t0 = time.perf_counter()
        tab = assign_sides(tab, fres.clauses, gres.clauses, side_tie)
        h_grd = extract_ipol(tab)
        lifted = lift_parts(h_grd, ctx, namer)
        matrix = lifted.matrix
        # a matrix that is not Horn-like fails the requirement check below
        if "horn" in require and is_horn_like(matrix):
            matrix = hornify(matrix)
        h = wrap_prefix(lifted.prefix, matrix)
        if pmap:  # else there is no placeholder to restore
            h = unfreeze(h, pmap)
        timings["extract"] = (time.perf_counter() - t0) * 1000
    report.interpolant = h
    report.certificate = Certificate(
        fres.clauses, gres.clauses, pmap, shared_symbols(sf, sg), shortcut,
        tab, h_grd, lifted, matrix,
    )

    if verify:
        t0 = time.perf_counter()
        report.verification = verify_interpolant(f, g, h, require, certificate=report.certificate)
        timings["verify"] = (time.perf_counter() - t0) * 1000
    _check_requirements(h, require, report)
    return h, report


def _check_requirements(h: Formula, require: frozenset[str], report: InterpolationReport) -> None:
    if report.verification is not None:  # it has checked the same properties
        report.require_results.update(report.verification.properties)
    for r in sorted(require - report.require_results.keys()):
        report.require_results[r] = PROPERTY_CHECKS[r](h).verdict
    failed = [r for r, ok in report.require_results.items() if not ok]
    if failed:
        raise RequirementError(
            f"interpolant misses requested properties: {', '.join(failed)}", report
        )


# ---------------------------------------------------------------------------
# Verification harness


class VerificationReport:
    def __init__(
        self,
        vocabulary_ok: bool,
        variables_ok: bool,
        f_entails_h: str,
        h_entails_g: str,
    ):
        self.vocabulary_ok = vocabulary_ok
        self.variables_ok = variables_ok
        self.f_entails_h = f_entails_h  # pass | fail | inconclusive
        self.h_entails_g = h_entails_g
        self.properties: dict[str, bool] = {}  # the required properties' verdicts

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
    out: list[Formula] = []
    todo = [b]
    while todo:
        g = todo.pop()
        prefix: list[tuple[str, str]] = []
        body = g
        while isinstance(body, ForAll):
            prefix.append(("forall", body.var))
            body = body.body
        if isinstance(body, And):
            todo.extend(wrap_prefix(prefix, p) for p in reversed(body.parts))
        else:
            out.append(g)
    return out


def entails(
    a: Formula,
    b: Formula,
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
) -> str:
    """'pass' when a |= b was proved, 'fail' when refutation-impossible was
    established, 'inconclusive' on resource exhaustion.

    The free variables of both sides are frozen and a is clausified once;
    each universal conjunct of b is then refuted on its own against the
    clauses of a, and the first one found satisfiable fails the whole."""
    sa, sb = read_symbols(a), read_symbols(b)
    namer = FreshNamer(sa.names | sb.names)
    frozen, _, _ = freeze_free_vars(namer, (sa.free, sb.free))
    ares = skolemize_clausify(a, namer, frozen)
    if ares.has_empty_clause():
        return "pass"
    verdict = "pass"
    for part in _universal_conjuncts(b):
        bres = skolemize_clausify(Not(part), namer, frozen)
        if bres.has_empty_clause():
            continue
        clauses = ares.clauses + bres.clauses
        if not clauses:  # a is valid and the part unsatisfiable
            return "fail"
        result = prove(
            clauses,
            max_depth=max_depth,
            timeout=timeout,
            max_inferences=max_inferences,
        )
        if result.status == "saturated":
            return "fail"
        if not result.proved:
            verdict = "inconclusive"
    return verdict


def shared_symbols(sf: FormulaSymbols, sg: FormulaSymbols) -> SharedSymbols:
    """The function symbols, the (predicate, polarity) pairs and the free
    variables that the formulas read as `sf` and `sg` have in common."""
    return sf.functions & sg.functions, sf.predicates & sg.predicates, sf.free & sg.free


def craig_conditions(h: Formula, common: SharedSymbols) -> tuple[bool, bool]:
    """Vocabulary (with predicate polarities) and free-variable inclusion
    of h in the `common` symbols of F and G."""
    functions, predicates, variables = common
    s = read_symbols(h)
    return s.functions <= functions and s.predicates <= predicates, s.free <= variables


def verify_interpolant(
    f: Formula,
    g: Formula,
    h: Formula,
    required: Iterable[str] = (),
    max_depth: int = 30,
    timeout: Optional[float] = None,
    certificate: Optional[Certificate] = None,
) -> VerificationReport:
    """The Craig conditions, F |= h, h |= G and the required properties of
    h.  The entailments are read from the `certificate` of the run that
    made h when there is one, without proof search, and proved with
    `entails` under the limits given otherwise; the certificate also holds
    the symbols F and G have in common, so that only h is read for the
    Craig conditions."""
    required = requirements(required)
    if certificate is None:
        common = shared_symbols(read_symbols(f), read_symbols(g))
        f_h = entails(f, h, max_depth, timeout)
        h_g = entails(h, g, max_depth, timeout)
    else:
        common = certificate.shared_symbols
        f_h, h_g = check_certificate(certificate, h)
    voc_ok, var_ok = craig_conditions(h, common)
    rep = VerificationReport(
        vocabulary_ok=voc_ok,
        variables_ok=var_ok,
        f_entails_h=f_h,
        h_entails_g=h_g,
    )
    for r in sorted(required):
        rep.properties[r] = PROPERTY_CHECKS[r](h).verdict
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
    skb, sq = read_symbols(kb), read_symbols(query)
    preds = {p for p, _ in skb.predicates | sq.predicates}
    namer = FreshNamer(skb.names | sq.names)
    mapping = {p: namer.fresh(f"{p}_p") for p in sorted(preds - targets)}
    kb_primed = rename_predicates(kb, mapping)
    query_primed = rename_predicates(query, mapping)
    f = And((kb, query))
    g = Or((Not(kb_primed), query_primed))
    return interpolate(f, g, **options)
