import pytest

import foltab.proofs
from foltab.documents import format_tableau
from foltab.hyperconv import hyper_convert
from foltab.proofs import (
    DeductionStep,
    ProofError,
    format_proof,
    ground_deduction,
    is_ground_deduction,
    parse_proof,
    to_cut_normal_form,
    to_tree,
)
from foltab.syntax import App, Clause, InputError, Literal, Var
from foltab.tableaux import ResourceLimitError, is_closed, is_hyper, match_clause, simplify
from foltab.tptp import parse_clause_file
from helpers import atomic_cut_clauses, doubling_dag_proof, is_leaf_closing, tableau_clauses

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


def test_parse_atom_missing_from_first_parent():
    with pytest.raises(ProofError) as e:
        parse_proof("s1 input q\ns2 input ~p\ns3 resolve(s1, s2, p) q\n")
    assert str(e.value) == "resolved atom p not in first parent at line 3"


def test_parse_complement_missing_from_second_parent():
    with pytest.raises(ProofError) as e:
        parse_proof("s1 input p\ns2 input q\ns3 resolve(s1, s2, p) q\n")
    assert str(e.value) == "complement ~p not in second parent at line 3"


def test_parse_bad_resolvent_lists_the_recomputed_clause_in_literal_order():
    # the recomputed resolvent is a set; its message must not depend on
    # the hash seed
    bad = "s1 input s(b) | p | r | q(a)\ns2 input ~p | s(a)\ns3 resolve(s1, s2, p) r\n"
    with pytest.raises(ProofError) as e:
        parse_proof(bad)
    assert str(e.value) == (
        "declared resolvent r does not match recomputed q(a) | r | s(a) | s(b) at line 3"
    )


def test_parse_checks_arities_as_a_clause_file_does():
    # a function symbol used as a predicate, as in a clause file
    clash = (
        "1 input p(a)\n2 input ~p(a) | q(p)\n3 resolve(1, 2, p(a)) q(p)\n"
        "4 input ~q(p)\n5 resolve(3, 4, q(p)) false\n"
    )
    with pytest.raises(InputError) as clause_file:
        parse_clause_file("p(a)\n~p(a) | q(p)\n")
    with pytest.raises(InputError) as e:
        parse_proof(clash)
    assert str(e.value) == str(clause_file.value) == "symbol used as both function and predicate: p at line 2"
    with pytest.raises(InputError, match=r"^arity clash for predicate p: 1 vs 2 at line 2$"):
        parse_proof("s1 input p(a)\ns2 input ~p(a, b)\n")
    # the resolved atom and the terms of bindings are checked too, and the
    # line counts comments
    with pytest.raises(InputError, match=r"^arity clash for predicate p: 1 vs 0 at line 4$"):
        parse_proof("s1 input p(a)\ns2 input ~p(a)\n% note\ns3 resolve(s1, s2, p) false\n")
    with pytest.raises(InputError, match=r"^arity clash for function f: 1 vs 2 at line 3$"):
        parse_proof(
            "s1 input p(f(X))\ns2 input ~p(f(a))\ns3 resolve(s1, s2, p(f(X))) {X -> f(a, b)} false\n"
        )


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


def test_ground_deduction_propagates_binding(monkeypatch):
    text = (
        "s1 input p(X)\n"
        "s2 input ~p(a) | q(X)\n"
        "s3 resolve(s1, s2, p(X)) {X -> a} q(a)\n"
        "s4 input ~q(a)\n"
        "s5 resolve(s3, s4, q(a)) false\n"
    )
    tree = to_tree(parse_proof(text))
    # a ground literal is its own ground literal: only p(X) and q(X) are read
    # through the bindings
    rebuilt = []
    map_literal_terms = foltab.proofs.map_literal_terms
    monkeypatch.setattr(
        foltab.proofs, "map_literal_terms", lambda l, fn: rebuilt.append(l) or map_literal_terms(l, fn)
    )
    tree = ground_deduction(tree)
    assert rebuilt == [lit("p", Var("X")), lit("q", Var("X"))]
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


def test_fresh_constants_avoid_the_constants_of_binding_terms():
    # g1 is written only in a binding; naming Y g1 as well would collapse
    # r1's first parent to p(g1) and the step to an invalid one
    text = (
        "s1 input p(X) | p(Y)\n"
        "s2 input ~p(X)\n"
        "s3 input ~p(Y)\n"
        "r1 resolve(s1, s2, p(X)) {X -> g1} p(Y)\n"
        "r2 resolve(r1, s3, p(Y)) $false\n"
    )
    tree = ground_deduction(to_tree(parse_proof(text)))
    assert tree.left.clause == Clause((lit("p", App("g2")),))
    assert tree.left.atom == lit("p", App("g1"))


def test_ground_deduction_rejects_a_step_broken_by_a_later_binding():
    # s3 is valid as replayed, before X is bound; under X -> a its first
    # parent collapses to p(a) and the resolvent to the empty clause
    text = (
        "s1 input p(X) | p(a)\n"
        "s2 input ~p(a)\n"
        "s3 resolve(s1, s2, p(a)) p(X)\n"
        "s4 input ~p(a)\n"
        "s5 resolve(s3, s4, p(X)) {X -> a} false\n"
    )
    tree = to_tree(parse_proof(text))
    with pytest.raises(ProofError) as e:
        ground_deduction(tree)
    assert str(e.value) == "step s3 is not a valid ground resolution step after grounding"


def test_ground_deduction_rejects_a_step_without_its_atom():
    tree = DeductionStep(
        "resolve",
        Clause(()),
        atom=lit("p"),
        left=DeductionStep("input", Clause((lit("q"),)), step_id="s1"),
        right=DeductionStep("input", Clause((lit("p", positive=False),)), step_id="s2"),
        step_id="s3",
    )
    with pytest.raises(ProofError) as e:
        ground_deduction(tree)
    assert str(e.value) == "step s3: resolved atom p not in first parent after grounding"


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
    inputs = [r.clause for r in doc.records if r.kind == "input"]
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
    inputs = [r.clause for r in doc.records if r.kind == "input"]
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


def test_parsed_steps_link_their_parents():
    doc = parse_proof(TWO_STEP)
    s1, s2, s3, s4, s5 = doc.records
    assert (s4.left, s4.right, s5.left, s5.right) == (s1, s2, s4, s3)
    assert s1.left is s1.right is None and [s.line for s in doc.records] == [2, 3, 4, 5, 6]
    # the repr leaves the parents out
    assert "left" not in repr(s5) and "s4" not in repr(s5)


def test_to_tree_counts_the_expansion_and_returns_the_root():
    doc = parse_proof(doubling_dag_proof(3))
    assert to_tree(doc) is doc.root
    # s_k expands to 1 + 2 (1 + s_(k-1) + 1) steps, so s3 to 43, and r to
    # 1 + s3 + 1 = 45
    assert to_tree(doc, max_nodes=45) is doc.root
    with pytest.raises(ResourceLimitError, match="^proof tree expansion exceeded 44 nodes$"):
        to_tree(doc, max_nodes=44)


def test_steps_yields_each_step_once_in_pre_order():
    doc = parse_proof(doubling_dag_proof(2))
    order = [s.step_id for s in doc.root.steps()]
    assert order == ["r", "s2", "t2", "s1", "t1", "s0", "c1", "u1", "d1", "c2", "u2", "d2", "n"]


def test_grounding_checks_each_step_once(monkeypatch):
    calls = []

    def counted(left, right, atom):
        calls.append(atom)
        return resolvent(left, right, atom)

    resolvent = foltab.proofs._resolvent
    monkeypatch.setattr(foltab.proofs, "_resolvent", counted)
    doc = parse_proof(doubling_dag_proof(12))
    calls.clear()  # replay checks each record once as well
    ground_deduction(to_tree(doc))
    # 3 resolve steps a level and the root
    assert len(calls) == 37


def test_grounding_keeps_a_shared_step_shared():
    tree = ground_deduction(to_tree(parse_proof(doubling_dag_proof(2))))
    s1 = tree.left.left.left
    u2 = tree.left.right
    assert s1.step_id == u2.left.step_id == "s1"
    assert s1 is u2.left
    assert len(list(tree.steps())) == 13
