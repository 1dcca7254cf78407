import random
from collections import Counter

import pytest

from foltab.interpolation import (
    InterpolationContext,
    NotProvedError,
    RequirementError,
    entails,
    extract_ipol,
    hornify,
    interpolate,
    ipol_map,
    lift_parts,
    synthesize_definition,
    unfreeze,
    verify_interpolant,
)
from foltab.syntax import (
    And,
    App,
    BOTTOM,
    Bottom,
    ForAll,
    InputError,
    Literal,
    Or,
    TOP,
    Var,
    free_vars,
)
from foltab.normalize import wrap_prefix
from foltab.tableaux import Node, StructureError, Tableau
from foltab.tptp import format_formula, parse_formula
from helpers import (
    all_models,
    eval_formula,
    gen_horn_instance,
    gen_urr_instance,
    random_formula,
    random_sentence,
    reference_alpha_equal,
    reference_entails,
    reference_signature_of,
)

a = App("a")


def lit(name, *args, positive=True):
    return Literal(positive, name, tuple(args))


def _fig_tableau():
    """Two-sided ground tableau: G clauses ~r(a) and ~q(a)|r(a); F clauses
    ~p(a)|q(a) and p(a)."""
    root = Node()
    nr = Node(lit("r", a, positive=False), "G")
    root.add(nr)
    nq = Node(lit("q", a, positive=False), "G")
    r = Node(lit("r", a), "G")
    nr.add(nq)
    nr.add(r)
    np_ = Node(lit("p", a, positive=False), "F")
    q = Node(lit("q", a), "F")
    nq.add(np_)
    nq.add(q)
    p = Node(lit("p", a), "F")
    np_.add(p)
    return Tableau(root)


def test_ipol_per_node_annotations():
    tab = _fig_tableau()
    values = ipol_map(tab)
    by_str = {}
    for node, v in values.items():
        if node.literal is not None:
            by_str[str(node.literal)] = v
    assert by_str["p(a)"] == BOTTOM
    assert by_str["~p(a)"] == BOTTOM
    assert by_str["q(a)"] == lit("q", a)
    assert by_str["~q(a)"] == lit("q", a)
    assert by_str["r(a)"] == TOP
    assert by_str["~r(a)"] == lit("q", a)
    assert values[tab.root] == lit("q", a)


def test_extract_requires_sides():
    tab = _fig_tableau()
    for n in tab.non_root_nodes():
        n.side = None
    with pytest.raises(StructureError):
        extract_ipol(tab)


def test_extract_requires_ground():
    root = Node()
    n1 = Node(lit("p", Var("X")), "F")
    n2 = Node(lit("p", Var("X"), positive=False), "F")
    root.add(n1)
    n1.add(n2)
    with pytest.raises(StructureError):
        extract_ipol(Tableau(root))


def _ctx(f_functions=(), g_functions=(), shared=()):
    return InterpolationContext(
        TOP, TOP, frozenset(shared), frozenset(f_functions), frozenset(g_functions)
    )


def lift(h_grd, ctx):
    lifted = lift_parts(h_grd, ctx)
    return wrap_prefix(lifted.prefix, lifted.matrix)


def test_lift_single_universal():
    h = lift(lit("q", a), _ctx(g_functions={"a"}))
    assert reference_alpha_equal(h, ForAll("V", lit("q", Var("V"))))


def test_lift_prefix_orders_subterms_first():
    fa = App("f", (a,))
    gfa = App("g", (fa,))
    h = lift(lit("p", a, fa, gfa), _ctx(f_functions={"f"}, g_functions={"a", "g"}))
    assert format_formula(h) == "! [V1] : ? [V2] : ! [V3] : p(V1,V2,V3)"


def test_lift_no_side_terms_is_identity():
    h = lift(lit("q", a), _ctx())
    assert h == lit("q", a)


def test_unfreeze():
    assert unfreeze(lit("q", App("c_x")), {"c_x": "X"}) == lit("q", Var("X"))
    assert unfreeze(lit("q", a), {}) == lit("q", a)
    nested = lit("q", App("f", (App("c_x"),)))
    assert unfreeze(nested, {"c_x": "X"}) == lit("q", App("f", (Var("X"),)))


# --- the end-to-end pipeline --------------------------------------------


def test_interpolate_universal_chain():
    f = parse_formula("(! [X] : p(X)) & (! [X] : (p(X) => q(X)))")
    g = parse_formula("(! [X] : (q(X) => r(X))) => r(a)")
    h, report = interpolate(f, g)
    assert reference_alpha_equal(h, ForAll("V", lit("q", Var("V"))))
    assert report.ground_interpolant == lit("q", a)
    assert verify_interpolant(f, g, h).passed


@pytest.mark.parametrize("verify", [True, False])
def test_interpolate_checks_each_required_property_once(monkeypatch, verify):
    import foltab.interpolation

    calls = []
    is_horn = foltab.interpolation.is_horn
    monkeypatch.setattr(foltab.interpolation, "is_horn", lambda h: calls.append(h) or is_horn(h))
    f = parse_formula("(! [X] : p(X)) & (! [X] : (p(X) => q(X)))")
    g = parse_formula("(! [X] : (q(X) => r(X))) => r(a)")
    h, report = interpolate(f, g, require=["horn"], verify=verify)
    assert calls == [h]
    assert report.require_results == {"horn": True}
    if verify:
        assert report.verification.properties == {"horn": True}


def test_interpolate_function_lifting():
    f = parse_formula("! [X] : ! [Y] : p(X, f(X), Y)")
    g = parse_formula("? [X] : p(a, X, g(X))")
    h, _ = interpolate(f, g)
    assert format_formula(h) == "! [V1] : ? [V2] : ! [V3] : p(V1,V2,V3)"


def test_interpolate_bottom_for_unsatisfiable_f():
    # the clausal form {p}, {~p} has no empty clause, so this goes through
    # the prover and extraction still yields the bottom constant
    f = parse_formula("p & ~p")
    g = parse_formula("q")
    h, _ = interpolate(f, g)
    assert isinstance(h, Bottom)


def test_interpolate_shortcut_on_empty_clause_in_f():
    f = parse_formula("p & $false")
    g = parse_formula("q")
    h, report = interpolate(f, g)
    assert isinstance(h, Bottom)
    assert report.shortcut == "f-unsatisfiable"


def test_interpolate_shortcut_on_valid_g():
    f = parse_formula("p")
    g = parse_formula("$true")
    h, report = interpolate(f, g)
    assert h == TOP
    assert report.shortcut == "g-valid"


def test_interpolate_top_for_tautological_g():
    f = parse_formula("p")
    g = parse_formula("q | ~q")
    h, _ = interpolate(f, g)
    assert h == TOP


def test_interpolate_not_proved():
    f = parse_formula("p")
    g = parse_formula("q")
    with pytest.raises(NotProvedError):
        interpolate(f, g)


def test_interpolate_free_variable_identity():
    f = parse_formula("p(X)")
    g = parse_formula("p(X)")
    h, _ = interpolate(f, g)
    assert h == lit("p", Var("X"))


# --- hornify -------------------------------------------------------------


def test_hornify_distributes():
    f = Or((lit("a", positive=False), And((lit("b"), lit("c")))))
    got = hornify(f)
    assert got == And(
        (
            Or((lit("a", positive=False), lit("b"))),
            Or((lit("a", positive=False), lit("c"))),
        )
    )


def test_hornify_drops_truth_constants():
    assert hornify(And((TOP, lit("p")))) == lit("p")


def test_hornify_simplifies_before_distributing():
    f = Or(
        (
            lit("a", positive=False),
            Or((lit("b", positive=False), And((lit("c"), BOTTOM)))),
        )
    )
    got = hornify(f)
    assert got == Or((lit("a", positive=False), lit("b", positive=False)))


def test_hornify_rejects_non_horn_like():
    with pytest.raises(InputError):
        hornify(Or((lit("a"), lit("b"))))


def test_interpolate_require_horn_on_a_non_horn_interpolant_raises_requirement_error():
    f = parse_formula("p | q")
    with pytest.raises(RequirementError) as e:
        interpolate(f, f, require={"horn"})
    assert e.value.interpolant == Or((lit("p"), lit("q")))
    assert e.value.report.require_results == {"horn": False}


# --- definability ---------------------------------------------------------


def test_definition_trivial_when_query_in_targets():
    kb = parse_formula("! [X] : (p(X) => q(X))")
    query = parse_formula("p(X)")
    r, _ = synthesize_definition(kb, query, {"p"})
    assert r == lit("p", Var("X"))


def test_definition_through_biconditional():
    kb = parse_formula("! [X] : (p(X) <=> q(X))")
    query = parse_formula("p(X)")
    r, _ = synthesize_definition(kb, query, {"q"})
    # K |= (Q <=> R) checked by enumerating all two-element models
    sig = reference_signature_of([kb, query, r])
    equiv = ForAll("X", parse_formula("p(X) <=> q(X)"))
    for model in all_models(sig, 2):
        if not eval_formula(kb, model, {}):
            continue
        for d in model.domain:
            env = {"X": d}
            assert eval_formula(query, model, env) == eval_formula(r, model, env)
    assert free_vars(r) == {"X"}
    assert {p for p, _ in __import__("foltab").vocabulary(r)[1]} <= {"q"}


def test_definition_requires_targets():
    with pytest.raises(InputError):
        synthesize_definition(parse_formula("p"), parse_formula("p"), set())


# --- verification ----------------------------------------------------------


def test_verify_passes_on_good_triple():
    f = parse_formula("(! [X] : p(X)) & (! [X] : (p(X) => q(X)))")
    g = parse_formula("(! [X] : (q(X) => r(X))) => r(a)")
    h = parse_formula("! [V1] : q(V1)")
    report = verify_interpolant(f, g, h)
    assert report.passed


def test_verify_catches_vocabulary_escape():
    f = parse_formula("(! [X] : p(X)) & (! [X] : (p(X) => q(X)))")
    g = parse_formula("(! [X] : (q(X) => r(X))) => r(a)")
    h = parse_formula("r(a)")
    report = verify_interpolant(f, g, h)
    assert not report.vocabulary_ok
    assert not report.passed


def test_verify_bottom_for_unsatisfiable_f():
    f = parse_formula("p & ~p")
    g = parse_formula("q")
    report = verify_interpolant(f, g, BOTTOM)
    assert report.vocabulary_ok and report.variables_ok
    assert report.f_entails_h == "pass" and report.h_entails_g == "pass"


def test_entails_statuses():
    assert entails(parse_formula("p & q"), parse_formula("p")) == "pass"
    assert entails(parse_formula("p"), parse_formula("q")) == "fail"
    assert entails(TOP, BOTTOM) == "fail"


def test_entails_agrees_with_the_reference():
    # random pairs, with free variables and universally quantified
    # conjunctions on the right, under limits that leave some undecided
    rng = random.Random(1803)
    limits = {"max_depth": 6, "max_inferences": 3000}
    seen = Counter()
    for i in range(400):
        gen = random_sentence if i % 2 else random_formula
        a, b = gen(rng, rng.randint(1, 3)), gen(rng, rng.randint(1, 3))
        if i % 4 == 3:
            b = And((a, b)) if rng.random() < 0.5 else Or((b, a))
        got = entails(a, b, **limits)
        assert got == reference(a, b, limits), (a, b)
        seen[got] += 1
    assert min(seen[v] for v in ("pass", "fail", "inconclusive")) >= 20, seen
    # the acceptance corpus: both entailments of an interpolant, and the
    # converse of the input entailment
    rng = random.Random(1804)
    for i in range(40):
        f, g = (gen_urr_instance if i % 2 else gen_horn_instance)(rng)
        h, _ = interpolate(f, g, require={"u-rr"})
        for a, b in ((f, h), (h, g), (g, f)):
            assert entails(a, b, **limits) == reference(a, b, limits), (a, b)


def reference(a, b, limits):
    """reference_entails, which gives the empty clause set of a valid a and
    an unsatisfiable b to the prover, and fails there with an InputError;
    entails reads the set as satisfiable."""
    try:
        return reference_entails(a, b, **limits)
    except InputError as e:
        assert str(e) == "prove expects a nonempty clause list"
        return "fail"


# --- lifting prefix order on pipeline outputs ------------------------------


def test_lifting_prefix_subterm_order_on_pipeline_runs():
    from foltab.syntax import subterms

    cases = [
        ("! [X] : ! [Y] : p(X, f(X), Y)", "? [X] : p(a, X, g(X))"),
        ("! [X] : p(X, f(f(X)))", "? [U] : p(a, U)"),
        (
            "! [X] : ! [Y] : r(X, f(X), f(f(X)), Y)",
            "? [U] : ? [V] : r(a, U, V, g(U, V))",
        ),
    ]
    nontrivial = 0
    for ftext, gtext in cases:
        h, report = interpolate(parse_formula(ftext), parse_formula(gtext))
        terms = report.lifted_terms
        if len(terms) > 1:
            nontrivial += 1
        # whenever t_i is a proper subterm of t_j, it is quantified earlier
        for j, tj in enumerate(terms):
            for i, ti in enumerate(terms):
                if i != j and ti != tj and ti in set(subterms(tj)):
                    assert i < j
    assert nontrivial >= 2
