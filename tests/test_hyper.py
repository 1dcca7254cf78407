import random
from typing import Optional

import pytest

from foltab import hyperconv
from foltab.documents import format_tableau, parse_tableau
from foltab.hyperconv import (
    OMEGA,
    MeasureViolation,
    hyper_convert,
    measure_string,
)
from foltab.syntax import Clause, Literal
from foltab.tableaux import (
    Node,
    ResourceLimitError,
    is_hyper,
    match_clause,
    prove,
)
from foltab.proofs import ground_deduction, parse_proof, to_cut_normal_form, to_tree
from helpers import (
    atomic_cut_clauses,
    is_leaf_closed,
    is_regular,
    node_measure,
    proof_family,
    random_ground_clauses,
    reference_hyper_convert,
    reference_tableau_equal,
    tableau_clauses,
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
    assert node_measure(left, left) == (0, OMEGA, 2)
    middle = parse_tableau(MIDDLE)
    assert node_measure(middle, middle) == (0, OMEGA, 1)
    leaf = left.children[0].children[1]  # the q leaf
    assert node_measure(left, leaf)[-2:] == (OMEGA, 0)


def test_a_measure_that_does_not_decrease_stops_the_conversion(monkeypatch):
    # give each round a larger head of the measure than the round before
    position = hyperconv._position
    heads = iter(range(10))

    def rising(node):
        path, _ = position(node)
        return path, (next(heads),)

    monkeypatch.setattr(hyperconv, "_position", rising)
    with pytest.raises(MeasureViolation, match="0 w 2 -> 1 w 1"):
        hyper_convert(parse_tableau(LEFT))


def test_already_hyper_unchanged():
    tab = parse_tableau(GOLDEN)
    out, trace = hyper_convert(tab)
    assert trace.total_rounds == 0
    assert format_tableau(out) == GOLDEN


def test_conversion_idempotent():
    once, _ = hyper_convert(parse_tableau(LEFT))
    before = once.copy_subtree()
    twice, trace = hyper_convert(once)
    assert trace.total_rounds == 0
    assert reference_tableau_equal(before, twice)


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
    # the conversion works in place: the reference gets a copy of its own
    ref_out, ref_trace = reference_hyper_convert(tab.copy_subtree())
    out, trace = hyper_convert(tab)
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


def _random_closed_tableau(rng, atoms, depth):
    """A closed tableau of random clauses over `atoms` ground atoms, up to
    `depth` deep, whose every leaf complements one of its ancestors: most
    are irregular and have inner closing nodes, negative inner nodes and
    several leaves closing against the same node."""
    literals = {}

    def literal(positive, predicate):
        return literals.setdefault((positive, predicate), Literal(positive, predicate))

    root = Node()
    stack = [(root, ())]
    while stack:
        node, branch = stack.pop()
        for _ in range(rng.randint(1, 3)):
            if branch and (len(branch) >= depth or rng.random() < 0.35):
                target = rng.choice(branch)
                node.add(Node(literal(not target.positive, target.predicate)))
            else:
                child = Node(literal(rng.random() < 0.5, f"a{rng.randrange(atoms)}"))
                node.add(child)
                stack.append((child, branch + (child.literal,)))
    return root


def test_incremental_rounds_match_whole_tree_rounds_on_random_closed_tableaux():
    rng = random.Random(2024)
    for _ in range(250):
        _assert_same_conversion(_random_closed_tableau(rng, rng.randint(3, 6), rng.randint(2, 5)))


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_sizes_at_k160(family):
    k = 160
    _, trace = hyper_convert(_family_tableau(family, k))
    want = (2 * k + 1, k + 1, k) if family == "wide" else (2 * k + 3, k + 2, k + 1)
    assert (trace.input_size, trace.output_size, trace.total_rounds) == want


# Hand-made tableaux whose rounds graft the repaired clause at several
# leaves or at none (the random corpus has few of the first and none of
# the second).  In each, the first non-hyper node is ~a, and the leaves a
# that close against it are the graft points:
# - TWO_LEAVES: two graft points, each copy of the clause spliced there;
# - THREE_LEAVES: three, with the clause's inner node ~d kept in each;
# - NO_LEAF: ~a is a unit clause that nothing below it closes against, so
#   its clause leaves the tree;
# - BELOW_ROOT: nprime is p, with q's subtree still to walk; the clause's
#   inner ~b is truncated below b and kept below c, and the next round at
#   that a grafts nowhere.  BELOW_ROOT_SWAPPED has b and c in the other
#   order, so the other graft point is the one that receives the clause's
#   own nodes.
TWO_LEAVES = """tableau
  ~a
    b
      a -> 1
      ~b -> 2
    c
      a -> 1
      ~c -> 2
  a
    ~a -> 1
"""

THREE_LEAVES = """tableau
  ~a
    b
      a -> 1
      ~b -> 2
    c
      a -> 1
      ~c -> 2
    e
      a -> 1
      ~e -> 2
  ~d
    d -> 1
"""

NO_LEAF = """tableau
  ~a
    c
      ~c -> 2
"""

BELOW_ROOT = """tableau
  p
    ~a
      b
        a -> 2
        ~b -> 3
      c
        a -> 2
        ~c -> 3
    ~b
      e
        ~e -> 3
  q
    ~f
      f -> 2
    ~q -> 1
"""

BELOW_ROOT_SWAPPED = """tableau
  p
    ~a
      c
        a -> 2
        ~c -> 3
      b
        a -> 2
        ~b -> 3
    ~b
      e
        ~e -> 3
  q
    ~f
      f -> 2
    ~q -> 1
"""

GRAFT_DOCUMENTS = (TWO_LEAVES, THREE_LEAVES, NO_LEAF, BELOW_ROOT, BELOW_ROOT_SWAPPED)


def test_rounds_with_several_or_no_graft_points_match_whole_tree_rounds():
    grafts: list[int] = []
    truncations = 0
    for text in GRAFT_DOCUMENTS:
        _assert_same_conversion(parse_tableau(text))
        _, trace = reference_hyper_convert(parse_tableau(text), grafts=grafts)
        truncations += trace.leaf_truncations
    assert sum(1 for g in grafts if g >= 2) == 4
    assert grafts.count(3) == 1
    assert grafts.count(0) == 3
    assert truncations == 2


@pytest.mark.parametrize("family", ("chain", "fol_chain"))
def test_grafts_touch_a_linear_number_of_nodes(family, monkeypatch):
    """A graft reads the new branch segment and the clause nodes that
    carry one of its literals, not the whole moved clause, so doubling k
    about doubles the nodes the grafts touch.  A node is touched when a
    graft reads its children or its parent; each graft counts it once."""
    touched: list[int] = []
    seen: Optional[set] = None

    def counted(slot):
        def get(node):
            if seen is not None:
                seen.add(node)
            return slot.__get__(node)

        return property(get, slot.__set__)

    graft = hyperconv._Index.graft

    def counting(self, *args):
        nonlocal seen
        seen = set()
        try:
            return graft(self, *args)
        finally:
            touched[-1] += len(seen)
            seen = None

    for k in (80, 160):
        tab = _family_tableau(family, k)
        touched.append(0)
        with monkeypatch.context() as m:
            m.setattr(Node, "children", counted(Node.children))
            m.setattr(Node, "parent", counted(Node.parent))
            m.setattr(hyperconv._Index, "graft", counting)
            hyper_convert(tab)
    assert 0 < touched[1] <= 2.2 * touched[0]


def test_conversion_works_on_its_input_in_place():
    texts = (LEFT, MIDDLE, *GRAFT_DOCUMENTS)
    # irregular, and with an inner closing node
    texts += ("tableau\n  p\n    q\n      p\n        ~p -> 3\n      ~q -> 2\n",
              "tableau\n  p\n    ~p -> 1\n      q\n")
    tableaux = [parse_tableau(t) for t in texts]
    tableaux += [_family_tableau(f, 6) for f in FAMILIES]
    rng = random.Random(99)
    while len(tableaux) < 60:
        clauses = random_ground_clauses(rng, max_atoms=6, max_clauses=9)
        if not tt_satisfiable(clauses):
            tableaux.append(prove(clauses, max_depth=12).tableau)
    for tab in tableaux:
        ref_out, _ = reference_hyper_convert(tab.copy_subtree())
        out, _ = hyper_convert(tab)
        assert out is tab
        assert format_tableau(out) == format_tableau(ref_out)


@pytest.mark.parametrize("family", FAMILIES)
def test_node_constructions_grow_linearly(family, monkeypatch):
    """The conversion works on its input, and each round moves the
    repaired clause into its last graft point rather than copying it, so
    only a further graft point gets a copy: these families have none, and
    the conversion makes no node."""
    made = []
    for k in (80, 160):
        tab = _family_tableau(family, k)
        count = 0
        init = Node.__init__

        def counting(self, *args):
            nonlocal count
            count += 1
            init(self, *args)

        with monkeypatch.context() as m:
            m.setattr(Node, "__init__", counting)
            hyper_convert(tab)
        made.append(count)
    assert made == [0, 0]
