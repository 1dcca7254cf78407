"""Acceptance suite.  Each test covers one acceptance criterion at its
stated tolerance and prints one PASS/FAIL line (run with -s to see them
on success).  Budgets are wall-clock seconds."""

import random
import sys
import time
from contextlib import contextmanager

from foltab.documents import format_tableau, parse_tableau
from foltab.hyperconv import OMEGA, hyper_convert
from foltab.interpolation import (
    entails,
    interpolate,
    ipol_map,
    synthesize_definition,
)
from foltab.normalize import cnf, dnf
from foltab.proofs import ground_deduction, parse_proof, to_cut_normal_form, to_tree
from foltab.restriction import (
    is_horn,
    is_horn_like,
    is_u_range_restricted,
    is_vgt_range_restricted,
    prop4_check,
)
from foltab.syntax import (
    And,
    App,
    BOTTOM,
    Clause,
    Literal,
    Not,
    Or,
    TOP,
    clause_formula,
    clause_sign_vars,
    clause_vars,
    free_vars,
    smax_by,
    subterms,
    vocabulary,
)
from foltab.tableaux import Node, prove
from foltab.tptp import format_formula, parse_formula
from helpers import (
    atomic_cut_clauses,
    definition_sides,
    gen_horn_instance,
    gen_urr_instance,
    gen_vx_instance,
    pnf_formula,
    random_formula,
    random_ground_clauses,
    random_nnf,
    random_sentence,
    reference_alpha_equal,
    reference_smax_by,
    tt_satisfiable,
)

_collected_traces = []

# the inference cap of the suite's own entailment checks, per conjunct: a
# passing run needs at most 905, and an uncapped check of a wrong
# interpolant can search towards depth 30 for far longer than the suite
ENTAILS_CAP = 100_000


def capped_entails(a, b):
    return entails(a, b, max_inferences=ENTAILS_CAP)


@contextmanager
def criterion(name: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.2f}s)", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        print(f"ACCEPTANCE {name}: FAIL (over budget: {elapsed:.2f}s > {budget}s)")
        raise AssertionError(f"{name} exceeded budget: {elapsed:.2f}s > {budget}s")
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def test_c01_golden_interpolant_universal_chain():
    with criterion("C01 golden-universal-chain", budget=1.0):
        f = parse_formula("(! [X] : p(X)) & (! [X] : (p(X) => q(X)))")
        g = parse_formula("(! [X] : (q(X) => r(X))) => r(a)")
        h, _ = interpolate(f, g)
        assert reference_alpha_equal(h, parse_formula("! [V1] : q(V1)"))


def test_c02_golden_interpolant_prefix_order():
    with criterion("C02 golden-prefix-order", budget=1.0):
        f = parse_formula("! [X] : ! [Y] : p(X, f(X), Y)")
        g = parse_formula("? [X] : p(a, X, g(X))")
        h, _ = interpolate(f, g)
        assert format_formula(h) == "! [V1] : ? [V2] : ! [V3] : p(V1,V2,V3)"


def _annotated_two_sided_tableau():
    a = App("a")

    def lit(name, positive=True):
        return Literal(positive, name, (a,))

    root = Node()
    nr = Node(lit("r", False), "G")
    root.add(nr)
    nq = Node(lit("q", False), "G")
    r = Node(lit("r"), "G")
    nr.add(nq)
    nr.add(r)
    np_ = Node(lit("p", False), "F")
    q = Node(lit("q"), "F")
    nq.add(np_)
    nq.add(q)
    np_.add(Node(lit("p"), "F"))
    return root, lit


def test_c03_ground_extraction_annotations():
    with criterion("C03 ground-extraction-annotations"):
        tab, lit = _annotated_two_sided_tableau()
        values = ipol_map(tab)
        expected = {
            "~r(a)": lit("q"),
            "~q(a)": lit("q"),
            "~p(a)": BOTTOM,
            "p(a)": BOTTOM,
            "q(a)": lit("q"),
            "r(a)": TOP,
        }
        for node, value in values.items():
            if node.literal is None:
                assert value == lit("q")
            else:
                assert value == expected[str(node.literal)]


CONVERSION_INPUT = """tableau
  ~q
    ~p
      p -> 2
    q -> 1
"""

CONVERSION_GOLDEN = """tableau
  p
    ~p -> 1
    q
      ~q -> 2
"""


def test_c04_conversion_two_rounds_to_golden():
    with criterion("C04 conversion-golden-tree"):
        out, trace = hyper_convert(parse_tableau(CONVERSION_INPUT))
        assert trace.total_rounds == 2
        assert format_tableau(out) == CONVERSION_GOLDEN
        _collected_traces.append(trace)


TWO_STEP_PROOF = """s1 input p
s2 input ~p | q
s3 input ~q
s4 resolve(s1, s2, p) q
s5 resolve(s4, s3, q) false
"""


def test_c05_resolution_import_pipeline():
    with criterion("C05 resolution-import-pipeline"):
        doc = parse_proof(TWO_STEP_PROOF)
        tab = to_cut_normal_form(ground_deduction(to_tree(doc)))
        cuts = sorted(str(Clause(c)) for c in atomic_cut_clauses(tab))
        assert cuts == ["~p | p", "~q | q"]
        out, trace = hyper_convert(tab)
        assert format_tableau(out) == CONVERSION_GOLDEN
        assert trace.regular_splices >= 1
        _collected_traces.append(trace)


def test_c06_u_range_restriction_suite():
    with criterion("C06 u-range-restricted-interpolants [200]", budget=60.0):
        rng = random.Random(601)
        for _ in range(200):
            f, g = gen_urr_instance(rng)
            assert is_u_range_restricted(f).verdict
            h, report = interpolate(f, g, require={"u-rr"}, verify=True)
            assert report.require_results["u-rr"]
            assert report.verification.passed
            assert capped_entails(f, h) == capped_entails(h, g) == "pass"
            if report.trace is not None:
                _collected_traces.append(report.trace)


def test_c07_vgt_range_restriction_suites():
    with criterion("C07 vgt-range-restricted-interpolants [100+100]", budget=120.0):
        rng = random.Random(701)
        for _ in range(100):
            f, g = gen_urr_instance(rng)
            assert not free_vars(f) and not free_vars(g)
            assert is_u_range_restricted(f).verdict
            assert is_u_range_restricted(Not(g)).verdict
            h, report = interpolate(f, g, require={"vgt-rr"}, verify=True)
            assert report.require_results["vgt-rr"]
            assert report.verification.passed
            assert capped_entails(f, h) == capped_entails(h, g) == "pass"
            if report.trace is not None:
                _collected_traces.append(report.trace)
        rng = random.Random(703)
        from foltab.restriction import check_vx_preconditions

        for _ in range(100):
            kb, query, targets = gen_vx_instance(rng)
            h, report = synthesize_definition(
                kb, query, targets, require={"vgt-rr"}, verify=True
            )
            f, g = definition_sides(kb, query, targets)
            assert check_vx_preconditions(f, g).verdict
            assert report.require_results["vgt-rr"]
            assert report.verification.passed
            assert capped_entails(f, h) == capped_entails(h, g) == "pass"
            assert is_vgt_range_restricted(h).verdict
            assert free_vars(h) <= free_vars(query)
            if report.trace is not None:
                _collected_traces.append(report.trace)


def test_c08_horn_interpolant_suite():
    with criterion("C08 horn-interpolants [200]", budget=60.0):
        rng = random.Random(801)
        for _ in range(200):
            f, g = gen_horn_instance(rng)
            assert is_horn(f)
            assert is_u_range_restricted(f).verdict
            h, report = interpolate(f, g, require={"horn", "u-rr"}, verify=True)
            assert is_horn_like(report.certificate.ground_interpolant)
            assert is_horn(h)
            assert report.require_results["horn"]
            assert report.require_results["u-rr"]
            assert report.verification.passed
            assert capped_entails(f, h) == capped_entails(h, g) == "pass"
            if report.trace is not None:
                _collected_traces.append(report.trace)


def test_c09_termination_measure_never_violated():
    with criterion("C09 termination-measure"):
        # hyper_convert asserts strict decrease internally and raises on any
        # violation; recheck every trace collected across this suite
        assert _collected_traces, "conversion criteria must run first"
        for trace in _collected_traces:
            ms = [r.measure for r in trace.rounds]
            for m in ms:
                assert m[-2] == OMEGA
            assert all(b < a for a, b in zip(ms, ms[1:]))


def test_c10_prover_oracle_equivalence():
    with criterion("C10 prover-oracle [1000]", budget=30.0):
        rng = random.Random(1001)
        for _ in range(1000):
            clauses = random_ground_clauses(rng)
            res = prove(clauses, max_depth=13)
            assert res.status in ("proved", "saturated")
            assert res.proved == (not tt_satisfiable(clauses))


def _prop1(rng):
    f = random_formula(rng, depth=4)
    for pnf in (cnf(f), dnf(f)):
        assert free_vars(pnf_formula(pnf)) <= free_vars(f)
        fns, prs = vocabulary(pnf_formula(pnf))
        fns0, prs0 = vocabulary(f)
        assert fns <= fns0 and prs <= prs0


def _prop2(rng):
    f = random_formula(rng, depth=4)
    assert cnf(f) == dnf(Not(f)).dual()
    assert dnf(f) == cnf(Not(f)).dual()


def _prop3(rng):
    parts = tuple(random_nnf(rng, 2) for _ in range(rng.randint(2, 3)))
    whole = set(cnf(And(parts)).matrix)
    union = set()
    for part in parts:
        union |= set(cnf(part).matrix)
    assert whole <= union
    whole_d = set(dnf(Or(parts)).matrix)
    union_d = set()
    for part in parts:
        union_d |= set(dnf(part).matrix)
    assert whole_d <= union_d
    lit = Literal(rng.random() < 0.5, "u")
    for c in cnf(Or((lit, parts[0]))).matrix:
        assert lit in c.literals
    for d in dnf(And((lit, parts[0]))).matrix:
        assert lit in d.literals
    # variable-level preservation for the largest admissible variable set
    part_cnfs = [cnf(part).matrix for part in parts]
    all_vars = set()
    for m in part_cnfs:
        for c in m:
            all_vars |= clause_vars(c)
    s = {
        v
        for v in all_vars
        if all(
            v not in clause_vars(c) or v in clause_sign_vars(c, positive=False)
            for m in part_cnfs
            for c in m
        )
    }
    for c in cnf(Or(parts)).matrix:
        assert (clause_vars(c) & s) <= clause_sign_vars(c, positive=False)


def _prop4(rng):
    f = random_sentence(rng, depth=3)
    assert prop4_check(f).consistent


def _prop5(rng):
    parts = tuple(random_nnf(rng, 2, ground=True) for _ in range(2))
    terms = set()

    def collect(g):
        if isinstance(g, Literal):
            for arg in g.args:
                terms.update(subterms(arg))
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                collect(p)

    for part in parts:
        collect(part)
    member = lambda t: t in terms
    part_cnfs = [cnf(part).matrix for part in parts]
    s = set()
    for t in terms:
        if all(
            t not in smax_by(member, clause_formula(c))
            or t in reference_smax_by(member, clause_formula(c), "negative")
            for m in part_cnfs
            for c in m
        ):
            s.add(t)
    for c in cnf(Or(parts)).matrix:
        cf = clause_formula(c)
        for t in smax_by(member, cf):
            if t in s:
                assert t in reference_smax_by(member, cf, "negative")


def test_c11_normal_form_property_suites():
    with criterion("C11 normal-form-properties [5x500]"):
        for seed, prop in ((1101, _prop1), (1102, _prop2), (1103, _prop3), (1104, _prop4), (1105, _prop5)):
            rng = random.Random(seed)
            for _ in range(500):
                prop(rng)


def test_c12_batch_conversion_statistics():
    with criterion("C12 batch-conversion-statistics"):
        from foltab.cli import bundled_samples_dir

        proofs = sorted(bundled_samples_dir().glob("*.proof"))
        assert len(proofs) >= 20
        rows = []
        for path in proofs:
            doc = parse_proof(path.read_text())
            tab = to_cut_normal_form(ground_deduction(to_tree(doc)))
            s3 = tab.inner_size()
            t0 = time.perf_counter()
            out, trace = hyper_convert(tab)
            t2 = (time.perf_counter() - t0) * 1000
            s4 = out.inner_size()
            rows.append({"S3": s3, "S4": s4, "ratio": s4 / s3, "T2": t2})
            _collected_traces.append(trace)
        # every bundled conversion succeeded and the metric columns exist
        assert all({"S3", "S4", "ratio", "T2"} <= set(r) for r in rows)
        no_growth = sum(1 for r in rows if r["S4"] <= r["S3"])
        assert no_growth / len(rows) >= 0.8
