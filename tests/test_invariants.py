"""Cross-module invariants checked on pipeline output corpora: the
per-node interpolant-shape properties that drive the range-restriction
guarantees, the structure lemma about negative clauses in hyper tableaux,
and the term-level clause preservation property of the cnf functional."""

import random

import pytest

from foltab.interpolation import (
    InterpolationContext,
    interpolate,
    ipol_map,
    synthesize_definition,
)
from foltab.normalize import cnf, dnf
from foltab.restriction import check_vx_preconditions, is_u_range_restricted
from foltab.syntax import (
    And,
    App,
    Formula,
    Literal,
    Term,
    clause_formula,
    is_ground,
    mk_and,
    smax_by,
)
from foltab.tableaux import Tableau, clause_at, is_hyper
from helpers import (
    gen_urr_instance,
    gen_vx_instance,
    random_nnf,
    reference_smax_by,
    side_path_literals,
)


def _vmax(ctx: InterpolationContext, f: Formula, sign: str = "all") -> set[Term]:
    """The maximal V-terms of f; with a sign, only those in literals of
    that sign, as the recursive scan in helpers.py filters them."""
    def v_member(t: Term) -> bool:
        # side-owned terms and the shared placeholder constants
        return (
            ctx.e_member(t)
            or ctx.u_member(t)
            or (isinstance(t, App) and not t.args and t.functor in ctx.shared_constants)
        )

    return reference_smax_by(v_member, f, sign)


def _check_inv_c(tab: Tableau, ctx: InterpolationContext) -> None:
    values = ipol_map(tab)
    for node in tab.nodes():
        path_f = mk_and(side_path_literals(node, "F"))
        allowed_from_path = _vmax(ctx, path_f, "positive")
        for c in cnf(values[node]).matrix:
            cf = clause_formula(c)
            negs = _vmax(ctx, cf, "negative")
            for t in _vmax(ctx, cf):
                if ctx.u_member(t):
                    assert t in negs or t in allowed_from_path, (
                        f"universal-side term {t} escapes in {cf}"
                    )


def _check_inv_d(tab: Tableau, ctx: InterpolationContext) -> None:
    values = ipol_map(tab)
    for node in tab.nodes():
        path_g = mk_and(side_path_literals(node, "G"))
        allowed_from_path = _vmax(ctx, path_g, "positive")
        for d in dnf(values[node]).matrix:
            df = clause_formula(d)
            poss = _vmax(ctx, df, "positive")
            for t in _vmax(ctx, df):
                if ctx.e_member(t):
                    assert t in poss or t in allowed_from_path, (
                        f"existential-side term {t} escapes in {df}"
                    )


def _check_inv_x(tab: Tableau, ctx: InterpolationContext) -> None:
    values = ipol_map(tab)
    shared_terms = {App(c) for c in ctx.shared_constants}
    for node in tab.nodes():
        if not node.children:
            continue
        path_g = mk_and(side_path_literals(node, "G"))
        allowed_from_path = _vmax(ctx, path_g, "positive")
        for d in dnf(values[node]).matrix:
            df = clause_formula(d)
            poss = _vmax(ctx, df, "positive")
            for t in shared_terms:
                assert t in poss or t in allowed_from_path, (
                    f"shared constant {t} missing from positives of {df}"
                )


def _check_above_negative_clause(tab: Tableau) -> None:
    def has_negative_clause_below(n) -> bool:
        for m in n.pre_order():
            if m is n or not m.children:
                continue
            if all(not c.literal.positive for c in m.children):
                return True
        return False

    for n in tab.nodes():
        if not n.children:
            continue
        own = clause_at(n)
        assert all(not l.positive for l in own) or has_negative_clause_below(n)


def _urr_corpus(count=40, seed=83):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f, g = gen_urr_instance(rng)
        _, report = interpolate(f, g, require={"u-rr"})
        out.append(report)
    return out


def _vx_corpus(count=30, seed=89):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kb, query, targets = gen_vx_instance(rng)
        _, report = synthesize_definition(kb, query, targets, require={"vgt-rr"})
        out.append(report)
    return out


@pytest.fixture(scope="module")
def urr_corpus():
    return _urr_corpus()


@pytest.fixture(scope="module")
def vx_corpus():
    return _vx_corpus()


def test_inv_c_on_urr_corpus(urr_corpus):
    for report in urr_corpus:
        assert is_u_range_restricted(report.context.f).verdict
        assert is_hyper(report.tableau)
        _check_inv_c(report.tableau, report.context)


def test_inv_c_and_d_and_x_on_vx_corpus(vx_corpus):
    for report in vx_corpus:
        ctx = report.context
        assert check_vx_preconditions(ctx.f, ctx.g).verdict
        assert is_hyper(report.tableau)
        _check_inv_c(report.tableau, ctx)
        _check_inv_d(report.tableau, ctx)
        _check_inv_x(report.tableau, ctx)


def test_above_negative_clause_lemma(urr_corpus, vx_corpus):
    for report in urr_corpus + vx_corpus:
        _check_above_negative_clause(report.tableau)


def test_measure_traces_strictly_decrease(urr_corpus, vx_corpus):
    for report in urr_corpus + vx_corpus:
        ms = [r.measure for r in report.trace.rounds]
        assert all(b < a for a, b in zip(ms, ms[1:]))


def test_ground_tableaux_stay_ground(urr_corpus):
    for report in urr_corpus:
        for n in report.tableau.non_root_nodes():
            assert all(is_ground(a) for a in n.literal.args)


def test_term_level_clause_preservation():
    # for the largest S satisfying the per-part hypothesis, the conclusion
    # holds for the disjunction
    rng = random.Random(97)
    for _ in range(200):
        parts = tuple(random_nnf(rng, 2, ground=True) for _ in range(2))
        terms: set[Term] = set()

        def collect(g):
            if isinstance(g, Literal):
                for a in g.args:
                    from foltab.syntax import subterms

                    terms.update(subterms(a))
            elif isinstance(g, (And,)) or g.__class__.__name__ == "Or":
                for p in g.parts:
                    collect(p)

        for part in parts:
            collect(part)
        member = lambda t: t in terms
        part_cnfs = [cnf(part).matrix for part in parts]
        s = set()
        for t in terms:
            ok = True
            for m in part_cnfs:
                for c in m:
                    cf = clause_formula(c)
                    if t in smax_by(member, cf) and t not in reference_smax_by(member, cf, "negative"):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                s.add(t)
        from foltab.syntax import Or as OrNode

        for c in cnf(OrNode(parts)).matrix:
            cf = clause_formula(c)
            for t in smax_by(member, cf):
                if t in s:
                    assert t in reference_smax_by(member, cf, "negative")
