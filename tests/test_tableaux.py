import random
import re

import pytest

import foltab.tableaux
from foltab.documents import format_tableau
from foltab.syntax import App, Clause, FreshNamer, InputError, Literal, Var
from foltab.tableaux import (
    Node,
    StructureError,
    Tableau,
    assign_sides,
    branch_walk,
    ground_tableau,
    is_closed,
    is_hyper,
    match_clause,
    prove,
    simplify,
)
from foltab.tptp import parse_clause_file
from helpers import (
    is_ground_tableau,
    is_leaf_closed,
    is_leaf_closing,
    is_regular,
    random_ground_clauses,
    reference_assign_sides,
    reference_prove,
    tableau_clauses,
    tableau_size,
    tt_satisfiable,
    unify_args,
)

x = Var("X")
a = App("a")


def lit(name, *args, positive=True):
    return Literal(positive, name, tuple(args))


def chain(*literals):
    """Build a tableau that is one single branch of unit clauses."""
    root = Node()
    cur = root
    for l in literals:
        n = Node(l)
        cur.add(n)
        cur = n
    return Tableau(root)


def build(spec, side=None):
    """spec: (literal, [children specs])"""
    root = Node()
    for child in spec:
        _attach(root, child)
    return Tableau(root)


def _attach(parent, spec):
    l, children = spec
    n = Node(l)
    parent.add(n)
    for c in children:
        _attach(n, c)


def test_pre_order_on_wide_and_deep_trees():
    tab = build([(lit("p"), [(lit("q"), []), (lit("r"), [(lit("s"), [])])]), (lit("t"), [])])
    assert [str(n.literal) for n in tab.non_root_nodes()] == ["p", "q", "r", "s", "t"]
    # deeper than the interpreter's default recursion limit
    deep = chain(*(lit(f"p{i}") for i in range(3000)))
    walk = list(branch_walk(deep.root))
    assert [n for n, _, _ in walk] == list(deep.nodes())
    assert [d for _, d, _ in walk] == list(range(3001))


def test_is_closed_unit_chain():
    assert is_closed(chain(lit("p"), lit("p", positive=False)))
    assert not is_closed(chain(lit("p")))


def test_targets_nearest_ancestor():
    t = chain(lit("p"), lit("q"), lit("p"), lit("p", positive=False))
    assert is_closed(t)
    nearer_p = t.root.children[0].children[0].children[0]
    leaf = nearer_p.children[0]
    assert list(branch_walk(t.root))[-1] == (leaf, 4, nearer_p)  # the p at depth 3


def test_simplify_splices_repeated_literal():
    # inner node repeats an ancestor literal; the parent's edges get replaced
    t = build(
        [
            (
                lit("p"),
                [
                    (
                        lit("q"),
                        [(lit("p"), [(lit("r"), [])])],
                    )
                ],
            )
        ]
    )
    out = simplify(t)
    assert is_regular(out)
    # the inner repeat of p collapsed q's children into q's parent position
    lits = [n.literal for n in out.nodes() if n.literal is not None]
    assert lits.count(lit("p")) == 1


def test_simplify_truncates_closing_inner_node():
    t = build(
        [
            (
                lit("p"),
                [
                    (
                        lit("p", positive=False),
                        [(lit("q"), [])],
                    )
                ],
            )
        ]
    )
    out = simplify(t)
    assert is_leaf_closing(out)
    # the closing inner node ~p lost its children
    node = out.root.children[0].children[0]
    assert node.literal == lit("p", positive=False)
    assert node.is_leaf


def test_simplify_fixpoint_on_clean_tableau():
    t = chain(lit("p"), lit("p", positive=False))
    out = simplify(t)
    assert [n.literal for n in out.nodes()] == [n.literal for n in t.nodes()]
    assert tableau_size(simplify(out)) == tableau_size(out)


def test_prove_unit_contradiction():
    res = prove([Clause((lit("p"),)), Clause((lit("p", positive=False),))])
    assert res.proved
    assert is_leaf_closed(res.tableau)
    lits = [n.literal for n in res.tableau.non_root_nodes()]
    assert lits == [lit("p"), lit("p", positive=False)]


def test_prove_three_clause_set():
    clauses = [
        Clause((lit("p"), lit("q"))),
        Clause((lit("p", positive=False),)),
        Clause((lit("q", positive=False),)),
    ]
    assert not tt_satisfiable(clauses)
    res = prove(clauses)
    assert res.proved
    for inst in tableau_clauses(res.tableau):
        assert any(match_clause(inst, c) is not None for c in clauses)


def test_prove_instantiates_connection():
    clauses = [Clause((lit("p", x),)), Clause((lit("p", a, positive=False),))]
    res = prove(clauses)
    assert res.proved
    lits = [n.literal for n in res.tableau.non_root_nodes()]
    assert lits == [lit("p", a), lit("p", a, positive=False)]


def test_prove_reports_saturation_on_satisfiable_input():
    res = prove([Clause((lit("p"),))])
    assert res.status == "saturated"
    res2 = prove([Clause((lit("p"), lit("q"))), Clause((lit("q", positive=False),))])
    assert res2.status == "saturated"


def test_prove_on_a_5000_deep_parsed_term(default_recursion_limit):
    # the parser hashes each term bottom up, so the prover's dicts and the
    # simplification of the proof never hash the deep term recursively
    deep = "f(" * 5000 + "a" + ")" * 5000
    clauses = parse_clause_file(f"p({deep})\n~p(X)\n")
    r = prove(clauses)
    assert r.status == "proved" and r.inferences == 1
    assert is_closed(r.tableau) and is_leaf_closed(r.tableau)
    term = clauses[0].literals[0].args[0]
    literals = [n.literal for n in r.tableau.non_root_nodes()]
    assert len(literals) == 2 and all(l.args[0] is term for l in literals)
    # the two literals are one object per atom and sign
    assert literals[1] is literals[0].complement()


def test_prove_on_a_5000_deep_term_built_with_app(default_recursion_limit):
    # a term made outside the parser is hashed for the first time in the
    # prover; that hash works bottom up and never recurses on depth
    deep = a
    for _ in range(5000):
        deep = App("f", (deep,))
    r = prove([Clause((lit("p", deep),)), Clause((lit("p", x, positive=False),))])
    assert r.status == "proved" and r.inferences == 1
    assert is_closed(r.tableau) and is_leaf_closed(r.tableau)
    assert all(n.literal.args[0] is deep for n in r.tableau.non_root_nodes())


def test_prove_unifies_equal_5000_deep_terms_made_apart(default_recursion_limit):
    # equal terms that are distinct objects are decomposed by the unifier,
    # never compared with ==, which would walk them to the bottom
    t1, t2 = a, App("a")
    for _ in range(5000):
        t1, t2 = App("f", (t1,)), App("f", (t2,))
    store, trail = {}, []
    assert unify_args((t1,), (t2,), store, trail) and store == {} and trail == []
    r = prove([Clause((lit("p", t1),)), Clause((lit("p", t2, positive=False),))])
    assert r.status == "proved" and r.inferences == 1
    # a variable meets a variable of the same name unbound, as == let it
    fx, fx2 = App("f", (x,)), App("f", (Var("X"),))
    assert unify_args((x, fx), (Var("X"), fx2), store, trail) and store == {}
    assert unify_args((x, fx), (App("b"), fx2), store, trail)
    assert store == {"X": App("b")} and trail == ["X"]


def test_first_hash_of_an_application_is_the_hash_of_its_fields():
    shared = App("g", (a, x))
    t = App("f", (shared, App("h", (shared,)), shared))
    parts = App("f", (App("g", (a, x)), App("h", (App("g", (a, x)),)), App("g", (a, x))))
    assert hash(t) == hash(("f", t.args)) == hash(parts)
    assert hash(t) == hash(t)


def test_prove_shares_one_literal_per_atom_and_sign():
    clauses = parse_clause_file("p(a) | p(b)\n~p(X) | q(X)\n~q(a)\n~q(b)\n")
    r = prove(clauses)
    assert r.proved
    atoms = {}
    for n in r.tableau.non_root_nodes():
        atom = atoms.setdefault(n.literal.atom(), n.literal.atom())
        assert n.literal is (atom if n.literal.positive else atom.complement())
    # grounding shares the literals it makes in the same way
    tab = build([(lit("q", x), [(lit("p", x), []), (lit("p", x, positive=False), [])]),
                 (lit("q", x, positive=False), [])])
    grounded, _, _ = ground_tableau(tab, FreshNamer())
    q, p, not_p, not_q = grounded.non_root_nodes()
    assert not_p.literal is p.literal.complement() and not_q.literal is q.literal.complement()


def test_prove_rejects_empty_clause_and_empty_set():
    with pytest.raises(InputError):
        prove([])
    with pytest.raises(InputError):
        prove([Clause(())])


def test_prove_timeout_status():
    # a satisfiable first-order set that saturates slowly under deepening
    clauses = [
        Clause((lit("p", App("a")),)),
        Clause((lit("p", x, positive=False), lit("p", App("f", (x,))))),
        Clause((lit("q"),)),
    ]
    res = prove(clauses, max_depth=200, timeout=0.05)
    assert res.status == "timeout"


def test_prove_inference_limit_status():
    clauses = [
        Clause((lit("p", App("a")),)),
        Clause((lit("p", x, positive=False), lit("p", App("f", (x,))))),
    ]
    res = prove(clauses, max_depth=200, max_inferences=50)
    assert res.status == "inference_limit"


def test_prove_limits_report_the_depth_reached():
    clauses = [
        Clause((lit("p", App("a")),)),
        Clause((lit("p", x, positive=False), lit("p", App("f", (x,))))),
    ]
    res = prove(clauses, max_depth=200, max_inferences=50)
    assert res.status == "inference_limit"
    assert res.inferences == 51
    assert res.depth > 1
    # the search got through every shallower limit within the cap
    assert prove(clauses, max_depth=res.depth - 1, max_inferences=50).status == "depth_limit"
    assert prove(clauses, max_depth=res.depth, max_inferences=50).status == "inference_limit"
    res = prove(clauses + [Clause((lit("q"),))], max_depth=200, timeout=0.05)
    assert res.status == "timeout"
    assert res.depth >= 1
    assert res.inferences % 256 == 0


def test_prove_with_equality_axioms():
    from foltab.normalize import equality_axioms
    from foltab.syntax import Signature

    a_, b_ = App("a"), App("b")
    clauses = [
        Clause((Literal(True, "=", (a_, b_)),)),
        Clause((lit("p", a_),)),
        Clause((lit("p", b_, positive=False),)),
    ]
    assert prove(clauses, max_depth=8).status == "saturated"
    sig = Signature()
    sig.add_function("a", 0)
    sig.add_function("b", 0)
    sig.add_predicate("p", 1)
    sig.add_predicate("=", 2)
    res = prove(clauses + equality_axioms(sig), max_depth=8)
    assert res.proved


def test_prove_matches_truth_table_oracle():
    rng = random.Random(101)
    for _ in range(150):
        clauses = random_ground_clauses(rng)
        res = prove(clauses, max_depth=13)
        assert res.status in ("proved", "saturated")
        assert res.proved == (not tt_satisfiable(clauses))
        if res.proved:
            assert is_leaf_closed(res.tableau)
            assert is_regular(res.tableau)
            for inst in tableau_clauses(res.tableau):
                assert any(match_clause(inst, c) is not None for c in clauses)


def test_ground_tableau_fresh_constants():
    t = chain(lit("p", x), lit("p", x, positive=False))
    out, s1, s2 = ground_tableau(t, FreshNamer())
    assert is_ground_tableau(out)
    assert len(s1) == 1 and not s2
    g = next(iter(s1))
    assert [n.literal for n in out.non_root_nodes()] == [
        lit("p", App(g)),
        lit("p", App(g), positive=False),
    ]
    assert is_closed(out)
    assert is_leaf_closed(out)


def test_ground_tableau_identity_when_ground():
    t = chain(lit("p", a), lit("p", a, positive=False))
    out, s1, s2 = ground_tableau(t, FreshNamer())
    assert not s1 and not s2
    assert [n.literal for n in out.non_root_nodes()] == [n.literal for n in t.non_root_nodes()]


def test_ground_tableau_distinct_variables_distinct_constants():
    t = chain(lit("p", x, Var("Y")))
    out, s1, s2 = ground_tableau(t, FreshNamer())
    args = out.root.children[0].literal.args
    assert args[0] != args[1]
    assert len(s1) == 2


def test_ground_tableau_policies():
    # grounding works in place, so each call gets a tableau of its own
    t = chain(lit("p", x, Var("Y")))
    out, s1, s2 = ground_tableau(t, FreshNamer(), policy="G")
    assert out is t and is_ground_tableau(t)
    assert not s1 and len(s2) == 2
    _, s1, s2 = ground_tableau(chain(lit("p", x, Var("Y"))), FreshNamer(), policy="alternate")
    assert len(s1) == 1 and len(s2) == 1


def _two_sided_example():
    """The working example: F side p(a) and ~p(a)|q(a); G side ~q(a)|r(a)
    and ~r(a)."""
    f_clauses = [
        Clause((lit("p", a),)),
        Clause((lit("p", a, positive=False), lit("q", a))),
    ]
    g_clauses = [
        Clause((lit("q", a, positive=False), lit("r", a))),
        Clause((lit("r", a, positive=False),)),
    ]
    t = build(
        [
            (
                lit("r", a, positive=False),
                [
                    (
                        lit("q", a, positive=False),
                        [
                            (lit("p", a, positive=False), [(lit("p", a), [])]),
                            (lit("q", a), []),
                        ],
                    ),
                    (lit("r", a), []),
                ],
            )
        ]
    )
    return t, f_clauses, g_clauses


def test_two_sided_example_is_closed():
    t, _, _ = _two_sided_example()
    assert is_closed(t)
    assert is_leaf_closed(t)


def test_assign_sides_on_example():
    t, fcs, gcs = _two_sided_example()
    out = assign_sides(t, fcs, gcs)
    sides = {str(n.literal): n.side for n in out.non_root_nodes()}
    assert sides == {
        "~r(a)": "G",
        "~q(a)": "G",
        "~p(a)": "F",
        "p(a)": "F",
        "q(a)": "F",
        "r(a)": "G",
    }


def test_assign_sides_tie_prefers_f():
    t = chain(lit("p"), lit("p", positive=False))
    both = [Clause((lit("p"),)), Clause((lit("p", positive=False),))]
    out = assign_sides(t, both, both)
    assert all(n.side == "F" for n in out.non_root_nodes())
    out_g = assign_sides(t, both, both, tie="G")
    assert all(n.side == "G" for n in out_g.non_root_nodes())


def random_clauses(rng):
    """A few clauses over p/1, q/1, r/2 and s/0, so that many share a
    shape and some are instances of others."""
    terms = (x, Var("Y"), a, App("b"), App("f", (x,)), App("f", (a,)))
    preds = (("p", 1), ("q", 1), ("r", 2), ("s", 0))
    out = []
    for _ in range(rng.randint(2, 7)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            name, arity = rng.choice(preds)
            lits.append(lit(name, *(rng.choice(terms) for _ in range(arity)), positive=rng.random() < 0.5))
        c = Clause(tuple(dict.fromkeys(lits)))
        if c not in out:
            out.append(c)
    return out


def sides_or_error(assign, tab, f_clauses, g_clauses, tie):
    try:
        out = assign(tab, f_clauses, g_clauses, tie)
    except StructureError as e:
        return str(e)
    return [n.side for n in out.non_root_nodes()]


def test_side_assignment_by_shape_agrees_with_the_full_scan(monkeypatch):
    # assign_sides matches an instance only against clauses of its shape
    shapes = []

    def signs(literals):
        return [(l.positive, l.predicate, len(l.args)) for l in literals]

    def match(instance, general):
        shapes.append(signs(instance) == signs(general.literals))
        return match_clause(instance, general)

    monkeypatch.setattr(foltab.tableaux, "match_clause", match)
    rng = random.Random(21)
    proofs = ties = aliens = 0
    while proofs < 150:
        clauses = random_clauses(rng)
        result = prove(clauses, max_depth=8, max_inferences=3000)
        if not result.proved:
            continue
        proofs += 1
        tab = result.tableau
        if rng.random() < 0.7:  # as interpolate labels it
            ground_tableau(tab, FreshNamer())
        # F and G share clauses[i:j]; one split in four leaves them out
        i, j = sorted(rng.randint(0, len(clauses)) for _ in range(2))
        if rng.random() < 0.25:
            f_clauses, g_clauses = clauses[:i], clauses[j:]
        else:
            f_clauses, g_clauses = clauses[:j], clauses[i:]
        got = {}
        for tie in ("F", "G"):
            expected = sides_or_error(reference_assign_sides, tab, f_clauses, g_clauses, tie)
            got[tie] = sides_or_error(assign_sides, tab, f_clauses, g_clauses, tie)
            assert got[tie] == expected
        ties += got["F"] != got["G"]
        aliens += isinstance(got["F"], str)
    assert ties > 20 and aliens > 5
    assert shapes and all(shapes)


def test_assign_sides_rejects_alien_clause():
    t = chain(lit("weird"))
    with pytest.raises(StructureError, match=r"^tableau clause is an instance of neither side: weird$"):
        assign_sides(t, [Clause((lit("p"),))], [Clause((lit("q"),))])
    # an instance of no clause of its shape is rejected with the same message
    t = build([(lit("p", App("b")), []), (lit("q", x, positive=False), [])])
    with pytest.raises(
        StructureError, match=r"^tableau clause is an instance of neither side: p\(b\) \| ~q\(X\)$"
    ):
        assign_sides(t, [Clause((lit("p", a), lit("q", x, positive=False)))], [Clause((lit("q"),))])


def test_simplify_idempotent_and_introduces_no_literals():
    rng = random.Random(103)
    checked = 0
    for _ in range(80):
        clauses = random_ground_clauses(rng, max_atoms=4, max_clauses=6)
        if tt_satisfiable(clauses):
            continue
        res = prove(clauses, max_depth=10)
        tab = res.tableau
        once = simplify(tab)
        twice = simplify(once)
        from foltab.documents import format_tableau

        assert format_tableau(twice) == format_tableau(once)
        input_literals = {n.literal for n in tab.non_root_nodes()}
        assert {n.literal for n in once.non_root_nodes()} <= input_literals
        checked += 1
    assert checked >= 15


def test_prove_is_deterministic():
    clauses = [
        Clause((lit("p"), lit("q"))),
        Clause((lit("p", positive=False), lit("r"))),
        Clause((lit("q", positive=False),)),
        Clause((lit("r", positive=False),)),
    ]
    from foltab.documents import format_tableau

    first = prove(clauses)
    second = prove(clauses)
    assert format_tableau(first.tableau) == format_tableau(second.tableau)
    assert first.inferences == second.inferences


def test_is_hyper():
    # negative literals exactly at leaves
    good = build(
        [
            (
                lit("p"),
                [
                    (lit("p", positive=False), []),
                    (lit("q"), [(lit("q", positive=False), [])]),
                ],
            )
        ]
    )
    assert is_hyper(good)
    bad_inner_negative = build(
        [
            (
                lit("q", positive=False),
                [
                    (lit("p", positive=False), [(lit("p"), [])]),
                    (lit("q"), []),
                ],
            )
        ]
    )
    assert not is_hyper(bad_inner_negative)
    positive_leaf = chain(lit("p"))
    assert not is_hyper(positive_leaf)


# ---------------------------------------------------------------------------
# Exactness against the reference prover (tests/helpers.py), which renames a
# copy of every candidate clause and checks regularity against each ancestor
# afresh: the candidate index must change no verdict, count or proof.


def implication_chain(k, goal):
    lines = ["p0"] + [f"~p{i} | p{i + 1}" for i in range(k)] + ([f"~p{k}"] if goal else [])
    return parse_clause_file("\n".join(lines) + "\n")


def term_chain(k, goal):
    lines = ["p0(a)"] + [f"~p{i}(X) | p{i + 1}(f(X))" for i in range(k)]
    if goal:
        lines.append(f"~p{k}(" + "f(" * k + "a" + ")" * k + ")")
    return parse_clause_file("\n".join(lines) + "\n")


def random_fo_clauses(rng):
    """Clauses over p/1, q/1, r/2 with variables, so that proofs keep
    renamed variables X_k."""
    terms = [Var("X"), Var("Y"), App("a"), App("b"), App("f", (Var("X"),))]
    out = []
    for _ in range(rng.randint(2, 6)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice((("p", 1), ("q", 1), ("r", 2)))
            args = tuple(rng.choice(terms) for _ in range(arity))
            lits.append(Literal(rng.random() < 0.5, pred, args))
        out.append(Clause(tuple(dict.fromkeys(lits))))
    return out


def outcome(res):
    return res.status, res.inferences, res.depth, format_tableau(res.tableau) if res.proved else None


def reference_outcome(clauses, max_depth, max_inferences=None):
    status, inferences, depth, doc = outcome(
        reference_prove(clauses, max_depth=max_depth, max_inferences=max_inferences)
    )
    if status == "inference_limit":
        # the reference reports depth 0 here; the depth reached is the least
        # deepening limit at which the cap is hit
        depth = next(
            d
            for d in range(1, max_depth + 1)
            if reference_prove(clauses, max_depth=d, max_inferences=max_inferences).status
            == "inference_limit"
        )
    return status, inferences, depth, doc


def assert_as_reference(clauses, max_depth, max_inferences=None):
    got = outcome(prove(clauses, max_depth=max_depth, max_inferences=max_inferences))
    assert got == reference_outcome(clauses, max_depth, max_inferences), clauses
    return got


def test_prove_matches_reference_on_random_ground_sets():
    rng = random.Random(404)
    statuses = set()
    for _ in range(120):
        clauses = random_ground_clauses(rng, max_atoms=7, max_clauses=12)
        statuses.add(assert_as_reference(clauses, 12, 3000)[0])
    assert {"proved", "saturated", "inference_limit"} <= statuses


def test_prove_matches_reference_on_first_order_sets():
    rng = random.Random(505)
    residual = 0
    for _ in range(150):
        _, _, _, doc = assert_as_reference(random_fo_clauses(rng), 6, 3000)
        if doc is not None and re.search(r"\b[XY]_\d+\b", doc):
            residual += 1
    assert residual >= 5
    # variables named as cnf names them, X and X_k: a copy renames each
    # once, so in copy k the variable X_k becomes X_k_k, not X
    fact = Clause((lit("p", a, App("b")),))
    for k in range(1, 4):
        query = Clause((lit("p", x, Var(f"X_{k}"), positive=False),))
        assert_as_reference([query, fact], 6)
        assert_as_reference([fact, query], 6)


def test_prove_matches_reference_at_the_shallowest_limits(monkeypatch):
    rng = random.Random(707)
    sets = [random_ground_clauses(rng, max_atoms=7, max_clauses=12) for _ in range(60)]
    sets += [random_fo_clauses(rng) for _ in range(60)]
    for clauses in sets:
        assert_as_reference(clauses, 1)
        assert_as_reference(clauses, 2)
        assert_as_reference(clauses, 12, 0)
    # limit 1 is counted in closed form: nothing is searched, so no node is
    # built, and the limit is hit with no inference
    built = []

    class CountedNode(Node):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(foltab.tableaux, "Node", CountedNode)
    for clauses in sets:
        r = prove(clauses, max_depth=1)
        assert (r.status, r.depth, r.inferences) == ("depth_limit", 1, 0)
    assert built == []
    assert prove(sets[0], max_depth=2).depth == 2 and built


def random_fo_function_clauses(rng):
    """Clauses over p/1 and q/2 whose arguments nest f/1 and g/2 over X, Y,
    Z, a and b up to depth 2; a clause's literals share variables."""

    def term(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.45:
            return Var(rng.choice("XYZ")) if rng.random() < 0.6 else App(rng.choice("ab"))
        if roll < 0.75:
            return App("f", (term(depth - 1),))
        return App("g", (term(depth - 1), term(depth - 1)))

    out = []
    for _ in range(rng.randint(2, 6)):
        lits = []
        for _ in range(rng.choice((1, 1, 2, 3))):
            pred, arity = rng.choice((("p", 1), ("q", 2)))
            lits.append(Literal(rng.random() < 0.5, pred, tuple(term(2) for _ in range(arity))))
        out.append(Clause(tuple(dict.fromkeys(lits))))
    return out


def test_prove_matches_reference_on_clause_sets_with_function_symbols():
    # shared variables under nested function symbols, so unification meets
    # bound chains, two copies of one clause and occurs-check failures
    rng = random.Random(1717)
    statuses, residual = set(), 0
    for _ in range(70):
        clauses = random_fo_function_clauses(rng)
        for max_depth in range(2, 7):
            status, _, _, doc = assert_as_reference(clauses, max_depth, rng.choice((20, 60, 150, 400)))
            statuses.add(status)
            residual += doc is not None and re.search(r"\b[XYZ]_\d+\b", doc) is not None
    assert statuses == {"proved", "saturated", "depth_limit", "inference_limit"} and residual >= 20


def random_colliding_clauses(rng):
    """Clauses in which p occurs at arity 0, 1 and 2, each with both signs,
    next to q/1; built with `Literal` directly, since the parser rejects a
    predicate used at two arities."""
    terms = [Var("X"), Var("Y"), App("a"), App("b")]
    out = []
    for _ in range(rng.randint(2, 7)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice((("p", 0), ("p", 1), ("p", 2), ("q", 1)))
            lits.append(Literal(rng.random() < 0.5, pred, tuple(rng.choice(terms) for _ in range(arity))))
        out.append(Clause(tuple(dict.fromkeys(lits))))
    return out


def test_prove_tells_functors_apart_by_sign_predicate_and_arity():
    # the search compares functor keys, not names: a key that dropped the
    # sign or the arity would reduce or extend where the reference does not
    rng = random.Random(2929)
    statuses, mixed = set(), 0
    for _ in range(80):
        clauses = random_colliding_clauses(rng)
        functors = {(l.positive, len(l.args)) for c in clauses for l in c.literals if l.predicate == "p"}
        mixed += len({arity for _, arity in functors}) == 3 and len(functors) >= 5
        for max_depth in (2, 3, 5):
            statuses.add(assert_as_reference(clauses, max_depth, rng.choice((5, 40, 300)))[0])
    assert statuses == {"proved", "saturated", "depth_limit", "inference_limit"} and mixed >= 10


def test_proof_search_builds_no_clause_copy(monkeypatch):
    # copies are numbered, not built, and the search keeps branch cells, not
    # nodes: neither a node, a variable nor a literal is made until the
    # search has ended with a proof, which `finish_proof` then reads once
    events = []
    map_literal_terms = foltab.tableaux.map_literal_terms
    finish_proof = foltab.tableaux.finish_proof

    class RecordedNode(Node):
        __slots__ = ()

        def __init__(self, *args):
            events.append("node")
            super().__init__(*args)

    monkeypatch.setattr(foltab.tableaux, "Node", RecordedNode)
    monkeypatch.setattr(foltab.tableaux, "Var", lambda name: events.append("var") or Var(name))
    monkeypatch.setattr(
        foltab.tableaux, "map_literal_terms", lambda *args: events.append("rebuild") or map_literal_terms(*args)
    )
    monkeypatch.setattr(foltab.tableaux, "finish_proof", lambda *args: events.append("found") or finish_proof(*args))
    clauses = parse_clause_file("p(X, f(Y)) | q(Y)\n~p(a, Z) | q(Z)\n~q(f(X))\n~q(W) | r(W, V)\n~r(b, U)\n")
    r = prove(clauses)
    assert r.proved and r.inferences > 10
    assert events[0] == "found" and "found" not in events[1:] and {"node", "var", "rebuild"} <= set(events)
    assert format_tableau(r.tableau) == format_tableau(reference_prove(clauses).tableau)
    # a result is a plain record: its four fields and no other state
    assert list(vars(r)) == ["status", "tableau", "inferences", "depth"]


def test_a_goal_that_reduces_on_a_later_try_is_a_leaf_of_the_proof():
    # ~s(X) closes first with s(a), and ~t(a) then fails to reduce against
    # t(b), extends with t(Y) | ~u(Y) and fails below it; ~s(X) then closes
    # with s(b), and ~t(b) reduces.  The children of that failed extension
    # must be gone from ~t(b): the proof keeps no copy number for them.
    # The chain c1 .. c4 makes the first clause the only start of a proof
    # at depth 5, the depth that extension needs
    clauses = parse_clause_file(
        "h | ~c1\n~h | t(b)\n~t(b) | m\n~m | ~s(X) | ~t(X)\ns(a)\ns(b)\nt(Y) | ~u(Y)\n"
        "c1 | ~c2\nc2 | ~c3\nc3 | ~c4\nc4\n"
    )
    r = prove(clauses)
    assert (r.status, r.depth) == ("proved", 5)
    assert format_tableau(r.tableau) == (
        "tableau\n  h\n    ~h -> 1\n    t(b)\n      ~t(b) -> 2\n      m\n        ~m -> 3\n"
        "        ~s(b)\n          s(b) -> 4\n        ~t(b) -> 2\n  ~c1\n    c1 -> 1\n    ~c2\n"
        "      c2 -> 2\n      ~c3\n        c3 -> 3\n        ~c4\n          c4 -> 4\n"
    )
    assert format_tableau(r.tableau) == format_tableau(reference_prove(clauses).tableau)


def test_reading_a_proof_of_equal_5000_deep_terms_made_apart(default_recursion_limit):
    # finishing makes each distinct term once, so the two literals share
    # one term and one atom, which a dict then finds by identity
    t1, t2 = a, App("a")
    for _ in range(5000):
        t1, t2 = App("f", (t1,)), App("f", (t2,))
    r = prove([Clause((lit("p", t1),)), Clause((lit("p", t2, positive=False),))])
    first, second = [n.literal for n in r.tableau.non_root_nodes()]
    assert first.args[0] is second.args[0] is t1
    assert second is first.complement()
    assert is_closed(r.tableau)


def test_prove_matches_reference_on_chains():
    for k in range(1, 9):
        for goal in (True, False):
            assert_as_reference(implication_chain(k, goal), 30, 60_000)
            assert_as_reference(term_chain(k, goal), 30, 60_000)


def test_prove_matches_reference_under_small_inference_caps():
    rng = random.Random(606)
    sets = [implication_chain(4, True), term_chain(3, True), random_fo_clauses(rng)]
    sets += [random_ground_clauses(rng, max_atoms=5, max_clauses=8) for _ in range(3)]
    for clauses in sets:
        for cap in range(1, 81):
            assert_as_reference(clauses, 30, cap)


def test_prove_implication_chain_inference_count():
    res = prove(implication_chain(20, True))
    assert (res.status, res.inferences, res.depth) == ("proved", 39_731, 12)
