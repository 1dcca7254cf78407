import pytest

from foltab.documents import format_tableau
from foltab.hyperconv import hyper_convert
from foltab.proofs import (
    ProofError,
    format_proof,
    ground_deduction,
    is_ground_deduction,
    parse_proof,
    to_cut_normal_form,
    to_tree,
)
from foltab.syntax import App, Clause, Literal, Var
from foltab.tableaux import (
    atomic_cut_clauses,
    is_closed,
    is_hyper,
    is_leaf_closing,
    match_clause,
    simplify,
    tableau_clauses,
)

TWO_STEP = """# two-step refutation
s1 input p
s2 input ~p | q
s3 input ~q
s4 resolve(s1, s2, p) q
s5 resolve(s4, s3, q) false
"""

CUT_GOLDEN = """tableau
  ~q
    ~p
      p -> 2
    p
      ~p -> 2
      q -> 1
  q
    ~q -> 1
"""

HYPER_GOLDEN = """tableau
  p
    ~p -> 1
    q
      ~q -> 2
"""


def lit(name, *args, positive=True):
    return Literal(positive, name, tuple(args))


def test_parse_round_trip():
    doc = parse_proof(TWO_STEP)
    text = format_proof(doc)
    again = parse_proof(text)
    assert format_proof(again) == text
    assert [r.step_id for r in again.records] == ["s1", "s2", "s3", "s4", "s5"]


def test_parse_dangling_reference():
    with pytest.raises(ProofError) as e:
        parse_proof("s1 input p\ns2 resolve(s1, s9, p) false\n")
    assert "dangling" in str(e.value)
    assert e.value.line == 2


def test_parse_bad_resolvent():
    bad = "s1 input p\ns2 input ~p | q\ns3 resolve(s1, s2, p) r\n"
    with pytest.raises(ProofError) as e:
        parse_proof(bad)
    assert "does not match" in str(e.value)


def test_parse_unknown_rule():
    with pytest.raises(ProofError) as e:
        parse_proof("s1 input p\ns2 factor(s1) p\n")
    assert "unknown rule" in str(e.value)


def test_parse_paramodulation_diagnostic():
    with pytest.raises(ProofError) as e:
        parse_proof("s1 input a = b\ns2 paramod(s1, s1, a = b) a = a\n")
    assert "equality axioms" in str(e.value)


CYCLE_DOC = """s1 input p(f(X))
s2 input ~p(f(X))
s3 resolve(s1, s2, p(f(X))) {%s} false
"""


@pytest.mark.parametrize(
    "bindings", ["X -> f(X)", "X -> Y, Y -> X", "X -> X", "X -> g(Y), Y -> h(Z, X)"]
)
def test_parse_cyclic_bindings_report_their_line(bindings):
    with pytest.raises(ProofError) as e:
        parse_proof(CYCLE_DOC % bindings)
    assert "cyclic bindings" in str(e.value)
    assert e.value.line == 3


def test_parse_cycle_through_an_earlier_record():
    text = (
        "s1 input p(X) | q(Y)\n"
        "s2 input ~p(Y)\n"
        "s3 resolve(s1, s2, p(Y)) {X -> Y} q(Y)\n"
        "s4 input ~q(f(X))\n"
        "s5 resolve(s3, s4, q(Y)) {Y -> f(X)} false\n"
    )
    with pytest.raises(ProofError) as e:
        parse_proof(text)
    assert "cyclic bindings" in str(e.value)
    assert e.value.line == 5


def test_parse_conflicting_bindings_report_their_line():
    text = (
        "s1 input p(X)\n"
        "s2 input ~p(a) | q(X)\n"
        "s3 resolve(s1, s2, p(X)) {X -> a} q(a)\n"
        "s4 input ~q(a)\n"
        "s5 resolve(s3, s4, q(a)) {X -> b} false\n"
    )
    with pytest.raises(ProofError) as e:
        parse_proof(text)
    assert "bound to both a and b" in str(e.value)
    assert e.value.line == 5


def test_ground_deduction_identity_on_ground_proof():
    tree = to_tree(parse_proof(TWO_STEP))
    grounded = ground_deduction(tree)
    assert is_ground_deduction(grounded)
    assert grounded.clause == tree.clause


def test_ground_deduction_propagates_binding():
    text = (
        "s1 input p(X)\n"
        "s2 input ~p(a) | q(X)\n"
        "s3 resolve(s1, s2, p(X)) {X -> a} q(a)\n"
        "s4 input ~q(a)\n"
        "s5 resolve(s3, s4, q(a)) false\n"
    )
    tree = ground_deduction(to_tree(parse_proof(text)))
    leaves = [s for s in tree.steps() if s.kind == "input"]
    assert Clause((lit("p", App("a")),)) in [s.clause for s in leaves]


def test_ground_deduction_freshens_residual_variables():
    text = (
        "s1 input p(X) | r(Y)\n"
        "s2 input ~p(X)\n"
        "s3 input ~r(Y)\n"
        "s4 resolve(s1, s2, p(X)) r(Y)\n"
        "s5 resolve(s4, s3, r(Y)) false\n"
    )
    tree = ground_deduction(to_tree(parse_proof(text)))
    assert is_ground_deduction(tree)


def test_ground_deduction_names_residual_variables_in_order_of_occurrence():
    text = (
        "s1 input p(f(Y, X)) | r\n"
        "s2 input ~p(f(Y, X))\n"
        "s3 input ~r\n"
        "s4 resolve(s1, s2, p(f(Y, X))) r\n"
        "s5 resolve(s4, s3, r) false\n"
    )
    tree = ground_deduction(to_tree(parse_proof(text)))
    assert tree.left.atom == lit("p", App("f", (App("g1"), App("g2"))))


def test_cut_normal_form_matches_golden():
    tree = ground_deduction(to_tree(parse_proof(TWO_STEP)))
    tab = to_cut_normal_form(tree)
    assert format_tableau(tab) == CUT_GOLDEN
    assert is_closed(tab)
    cuts = atomic_cut_clauses(tab)
    assert sorted(str(Clause(c)) for c in cuts) == ["~p | p", "~q | q"]


def test_cut_normal_form_single_step():
    text = "s1 input p\ns2 input ~p\ns3 resolve(s1, s2, p) false\n"
    tab = to_cut_normal_form(ground_deduction(to_tree(parse_proof(text))))
    assert is_closed(tab)
    root_clause = tuple(c.literal for c in tab.root.children)
    assert root_clause == (lit("p", positive=False), lit("p"))
    assert is_leaf_closing(simplify(tab))


def test_cut_normal_form_inner_clauses_are_cuts_or_inputs():
    doc = parse_proof(TWO_STEP)
    tab = to_cut_normal_form(ground_deduction(to_tree(doc)))
    inputs = doc.input_clauses()
    for inst in tableau_clauses(tab):
        is_cut = len(inst) == 2 and inst[0] == inst[1].complement()
        is_input = any(match_clause(inst, c) is not None for c in inputs)
        assert is_cut or is_input


def test_cut_normal_form_rejects_open_root():
    with pytest.raises(ProofError):
        to_cut_normal_form(ground_deduction(to_tree(parse_proof("s1 input p\n"))))


def test_import_then_hyper_matches_direct_conversion():
    doc = parse_proof(TWO_STEP)
    tab = to_cut_normal_form(ground_deduction(to_tree(doc)))
    out, trace = hyper_convert(tab)
    assert format_tableau(out) == HYPER_GOLDEN
    assert trace.regular_splices >= 1
    assert is_hyper(out)
    # the hyper tableau refutes exactly the imported clause set
    inputs = doc.input_clauses()
    for inst in tableau_clauses(out):
        assert any(match_clause(inst, c) is not None for c in inputs)


def test_shared_subproof_expands_with_multiplicity():
    text = (
        "s1 input p | p\n"
        "s2 input ~p | q\n"
        "s3 input ~q\n"
        "s4 resolve(s2, s3, q) ~p\n"
        "s5 input p\n"
        "s6 resolve(s5, s4, p) false\n"
    )
    doc = parse_proof(text)
    tree = to_tree(doc)
    assert tree.clause == Clause(())
