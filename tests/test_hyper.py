import random

import pytest

from foltab.documents import format_tableau, parse_tableau, tableau_equal
from foltab.hyperconv import (
    OMEGA,
    hyper_convert,
    measure_string,
    node_measure,
)
from foltab.syntax import Clause, Literal
from foltab.tableaux import (
    ResourceLimitError,
    atomic_cut_clauses,
    is_hyper,
    is_leaf_closed,
    is_regular,
    match_clause,
    prove,
    tableau_clauses,
)
from foltab.proofs import ground_deduction, parse_proof, to_cut_normal_form, to_tree
from helpers import (
    proof_family,
    random_ground_clauses,
    reference_hyper_convert,
    tt_satisfiable,
)

LEFT = """tableau
  ~q
    ~p
      p -> 2
    q -> 1
"""

MIDDLE = """tableau
  ~p
    p -> 1
  q
    ~q -> 1
"""

GOLDEN = """tableau
  p
    ~p -> 1
    q
      ~q -> 2
"""


def test_conversion_runs_two_rounds_to_golden_tree():
    tab = parse_tableau(LEFT)
    out, trace = hyper_convert(tab)
    assert trace.total_rounds == 2
    assert format_tableau(out) == GOLDEN
    assert is_hyper(out)
    assert is_regular(out)
    assert is_leaf_closed(out)


def test_conversion_measures_decrease():
    tab = parse_tableau(LEFT)
    _, trace = hyper_convert(tab)
    measures = [r.measure for r in trace.rounds]
    assert measures == [(0, OMEGA, 2), (0, OMEGA, 1)]
    assert measure_string(measures[0]) == "0 w 2"


def test_node_measure_on_figures():
    left = parse_tableau(LEFT)
    assert node_measure(left.root, left.root) == (0, OMEGA, 2)
    middle = parse_tableau(MIDDLE)
    assert node_measure(middle.root, middle.root) == (0, OMEGA, 1)
    leaf = left.root.children[0].children[1]  # the q leaf
    assert node_measure(left.root, leaf)[-2:] == (OMEGA, 0)


def test_already_hyper_unchanged():
    tab = parse_tableau(GOLDEN)
    out, trace = hyper_convert(tab)
    assert trace.total_rounds == 0
    assert format_tableau(out) == GOLDEN


def test_conversion_idempotent():
    tab = parse_tableau(LEFT)
    once, _ = hyper_convert(tab)
    twice, trace = hyper_convert(once)
    assert trace.total_rounds == 0
    assert tableau_equal(once, twice)


def test_resource_limit():
    tab = parse_tableau(LEFT)
    with pytest.raises(ResourceLimitError):
        hyper_convert(tab, max_nodes=3)


def test_random_refutation_corpus():
    rng = random.Random(271)
    converted = 0
    for _ in range(160):
        clauses = random_ground_clauses(rng, max_atoms=5, max_clauses=7)
        if tt_satisfiable(clauses):
            continue
        res = prove(clauses, max_depth=12)
        assert res.proved
        out, trace = hyper_convert(res.tableau)
        converted += 1
        assert is_hyper(out)
        assert is_regular(out)
        assert is_leaf_closed(out)
        # output clauses are instances of the refuted clause set
        for inst in tableau_clauses(out):
            assert any(match_clause(inst, c) is not None for c in clauses)
        # a regular leaf-closed hyper tableau has no atomic cuts
        assert atomic_cut_clauses(out) == []
        # measures strictly decrease
        ms = [r.measure for r in trace.rounds]
        assert all(m2 < m1 for m1, m2 in zip(ms, ms[1:]))
    assert converted >= 30


FAMILIES = ("chain", "wide", "fol_chain")


def _family_tableau(family, k):
    doc = parse_proof(proof_family(family, k))
    return to_cut_normal_form(ground_deduction(to_tree(doc)))


def _assert_same_conversion(tab):
    out, trace = hyper_convert(tab)
    ref_out, ref_trace = reference_hyper_convert(tab)
    assert format_tableau(out) == format_tableau(ref_out)
    assert [r.measure for r in trace.rounds] == [r.measure for r in ref_trace.rounds]
    assert [r.size_after for r in trace.rounds] == [r.size_after for r in ref_trace.rounds]
    assert [r.selected_path for r in trace.rounds] == [r.selected_path for r in ref_trace.rounds]
    assert trace.regular_splices == ref_trace.regular_splices
    assert trace.leaf_truncations == ref_trace.leaf_truncations
    assert (trace.input_size, trace.output_size) == (ref_trace.input_size, ref_trace.output_size)


@pytest.mark.parametrize("family", FAMILIES)
def test_incremental_rounds_match_whole_tree_rounds_on_families(family):
    for k in range(1, 13):
        _assert_same_conversion(_family_tableau(family, k))


def test_incremental_rounds_match_whole_tree_rounds_on_prover_tableaux():
    rng = random.Random(4242)
    compared = 0
    while compared < 200:
        clauses = random_ground_clauses(rng, max_atoms=6, max_clauses=9)
        if tt_satisfiable(clauses):
            continue
        res = prove(clauses, max_depth=12)
        assert res.proved
        _assert_same_conversion(res.tableau)
        compared += 1


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_sizes_at_k160(family):
    k = 160
    _, trace = hyper_convert(_family_tableau(family, k))
    want = (2 * k + 1, k + 1, k) if family == "wide" else (2 * k + 3, k + 2, k + 1)
    assert (trace.input_size, trace.output_size, trace.total_rounds) == want
