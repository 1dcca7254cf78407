
import random

import pytest

from foltab.normalize import (
    ClauseLimitError,
    cnf,
    dnf,
    equality_axioms,
    freeze_free_vars,
    skolemize_clausify,
)
from foltab.syntax import (
    And,
    App,
    BOTTOM,
    Clause,
    Exists,
    ForAll,
    Formula,
    FreshNamer,
    Implies,
    InputError,
    Literal,
    Not,
    Or,
    Signature,
    TOP,
    Var,
    clause_vars,
    free_vars,
    vocabulary,
)
from foltab.tableaux import prove
from helpers import (
    all_models,
    eval_formula,
    formulas_equivalent,
    namer_for,
    pnf_formula,
    random_formula,
    random_nnf,
    random_prenex_nnf,
    reference_signature_of,
)

x, y = Var("X"), Var("Y")
a = App("a")


def lit(name, *args, positive=True):
    return Literal(positive, name, tuple(args))


def p(*args, positive=True):
    return lit("p", *args, positive=positive)


def q(*args, positive=True):
    return lit("q", *args, positive=positive)


# --- negation pushed to the atoms ---------------------------------------


def test_nnf_de_morgan():
    assert cnf(Not(And((p(), q())))).matrix == (Clause((p(positive=False), q(positive=False))),)


def test_nnf_quantifier_negation():
    got = cnf(Not(ForAll("X", p(x))))
    assert (got.prefix, got.matrix) == ((("exists", "X"),), (Clause((p(x, positive=False),)),))


def test_nnf_negated_implication_matches_truth_table():
    f = Not(Implies(p(), q()))
    g = pnf_formula(cnf(f))
    assert g == And((p(), q(positive=False)))
    sig = reference_signature_of([f])
    for model in all_models(sig, 1):
        assert eval_formula(f, model, {}) == eval_formula(g, model, {})


def test_nnf_preserves_polarities():
    # without truth constants, which may absorb literals, every atom
    # occurrence reaches a clause with its polarity
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, depth=3, allow_consts=False)
        assert vocabulary(pnf_formula(cnf(f))) == vocabulary(f)


# --- dual --------------------------------------------------------------


def test_dual_example():
    f = ForAll("X", Or((p(x), q(positive=False))))
    expected = Exists("X", And((p(x, positive=False), q())))
    assert pnf_formula(cnf(f).dual()) == expected
    assert pnf_formula(dnf(Not(f))) == expected


def test_dual_truth_constants():
    assert pnf_formula(cnf(TOP).dual()) == BOTTOM
    assert pnf_formula(dnf(Not(TOP))) == BOTTOM


def test_dual_involution_on_random_prenex_nnf():
    rng = random.Random(11)
    for _ in range(200):
        f = random_prenex_nnf(rng)
        for pnf in (cnf(f), dnf(f)):
            assert pnf.dual().dual() == pnf


# --- cnf / dnf ---------------------------------------------------------


def test_cnf_single_distribution():
    f = Or((p(), And((q(), lit("r", a, a)))))
    got = cnf(f)
    assert got.prefix == ()
    assert got.matrix == (
        Clause((p(), q())),
        Clause((p(), lit("r", a, a))),
    )


def test_cnf_keeps_existential():
    f = Exists("X", p(x))
    got = cnf(f)
    assert got.prefix == (("exists", "X"),)
    assert got.matrix == (Clause((p(x),)),)


def test_dnf_of_dependency_sentence():
    # forall X forall Y (r(X,Y) -> exists Z q(Z)) style, with binary body
    f = ForAll("X", ForAll("Y", Or((lit("r", x, y, positive=False), Exists("Z", lit("b", y, Var("Z")))))))
    got = dnf(f)
    assert [qv for qv, _ in got.prefix] == ["forall", "forall", "exists"]
    assert got.matrix == (
        Clause((lit("r", x, y, positive=False),), conjunctive=True),
        Clause((lit("b", y, Var("Z")),), conjunctive=True),
    )


def test_prop1_vocabulary_never_grows():
    rng = random.Random(23)
    for _ in range(200):
        f = random_formula(rng, depth=4)
        for pnf in (cnf(f), dnf(f)):
            assert free_vars(pnf_formula(pnf)) <= free_vars(f)
            fns, prs = vocabulary(pnf_formula(pnf))
            fns0, prs0 = vocabulary(f)
            assert fns <= fns0
            assert prs <= prs0


def test_prop2_duality_is_structural():
    rng = random.Random(29)
    for _ in range(200):
        f = random_formula(rng, depth=4)
        assert cnf(f) == dnf(Not(f)).dual()
        assert dnf(f) == cnf(Not(f)).dual()


def test_prop3_conjunction_clauses_come_from_parts():
    rng = random.Random(31)
    for _ in range(200):
        parts = tuple(random_nnf(rng, 2) for _ in range(random.Random(rng.random()).randint(2, 3)))
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


def test_prop3_literal_disjuncts_in_every_clause():
    rng = random.Random(37)
    for _ in range(200):
        l = lit("p", x) if rng.random() < 0.5 else lit("q", positive=False)
        rest = random_nnf(rng, 2)
        for c in cnf(Or((l, rest))).matrix:
            assert l in c.literals
        for d in dnf(And((l, rest))).matrix:
            assert l in d.literals


def test_prop3_sign_variable_preservation():
    # derive the largest S satisfying the hypothesis, then check the
    # conclusion for it
    rng = random.Random(41)
    for _ in range(200):
        parts = tuple(random_nnf(rng, 2) for _ in range(2))
        from foltab.syntax import clause_sign_vars

        all_vars = set()
        part_cnfs = [cnf(part).matrix for part in parts]
        for m in part_cnfs:
            for c in m:
                all_vars |= clause_vars(c)
        s = set()
        for v in all_vars:
            if all(
                v not in clause_vars(c) or v in clause_sign_vars(c, positive=False)
                for m in part_cnfs
                for c in m
            ):
                s.add(v)
        for c in cnf(Or(parts)).matrix:
            assert (clause_vars(c) & s) <= clause_sign_vars(c, positive=False)


def test_cnf_equivalent_to_input_on_finite_models():
    rng = random.Random(43)
    for _ in range(120):
        f = random_formula(rng, depth=3)
        g = pnf_formula(cnf(f))
        assert formulas_equivalent(f, g, rng, samples=20)


def test_cnf_clause_limit():
    # (p1|q1) & (p2|q2) & ... distributes exponentially in dnf
    parts = tuple(
        Or((lit(f"p{i}"), lit(f"q{i}"))) for i in range(12)
    )
    with pytest.raises(ClauseLimitError):
        dnf(And(parts), max_clauses=100)


# --- freeze ------------------------------------------------------------


def freeze(f, g):
    """`freeze_free_vars` as a run calls it."""
    return freeze_free_vars(f, g, namer_for(f, g), (free_vars(f), free_vars(g)))


def test_freeze_shared_variable():
    f, g = p(x), q(x)
    f_c, g_c, shared, mapping = freeze(f, g)
    assert len(shared) == 1
    c = next(iter(shared))
    assert f_c == p(App(c))
    assert g_c == q(App(c))
    assert mapping[c] == "X"


def test_freeze_sentences_untouched():
    f, g = ForAll("X", p(x)), q(a)
    f_c, g_c, shared, _ = freeze(f, g)
    assert (f_c, g_c) == (f, g)
    assert shared == frozenset()


def test_freeze_only_shared_in_c():
    f = p(x, y)
    g = q(y)
    _, _, shared, mapping = freeze(f, g)
    assert {mapping[c] for c in shared} == {"Y"}
    assert set(mapping.values()) == {"X", "Y"}


# --- skolemization -----------------------------------------------------


def _canon_clauses(clauses):
    # rename clause variables by occurrence for comparison up to renaming
    out = []
    for c in clauses:
        names = {}

        def rn(t):
            if isinstance(t, Var):
                if t.name not in names:
                    names[t.name] = f"v{len(names)}"
                return Var(names[t.name])
            return App(t.functor, tuple(rn(a) for a in t.args))

        out.append(
            tuple(Literal(l.positive, l.predicate, tuple(rn(a) for a in l.args)) for l in c.literals)
        )
    return out


def test_clausify_universal_pair():
    f = And((ForAll("X", p(x)), ForAll("X", Or((p(x, positive=False), q(x))))))
    res = skolemize_clausify(f, namer_for(f))
    assert res.skolem_functions == frozenset()
    assert _canon_clauses(res.clauses) == _canon_clauses(
        [Clause((p(x),)), Clause((p(x, positive=False), q(x)))]
    )


def test_clausify_negated_implication():
    g = Implies(ForAll("X", Or((q(x, positive=False), lit("r", x)))), lit("r", a))
    res = skolemize_clausify(Not(g), namer_for(g))
    assert res.skolem_functions == frozenset()
    assert _canon_clauses(res.clauses) == _canon_clauses(
        [Clause((q(x, positive=False), lit("r", x))), Clause((lit("r", a, positive=False),))]
    )


def test_clausify_skolem_constant():
    f = Exists("X", p(x))
    res = skolemize_clausify(f, namer_for(f))
    assert len(res.skolem_functions) == 1
    sk = next(iter(res.skolem_functions))
    assert res.clauses == (Clause((p(App(sk)),)),)


def test_clausifications_sharing_the_run_namer_never_collide():
    # each side alone would name its Skolem constant sk1, and the union of
    # p(sk1) and ~p(sk1) would be refuted although the pair is satisfiable
    f, g = Exists("X", p(x)), Exists("Y", p(y, positive=False))
    namer = namer_for(f, g)
    fres, gres = skolemize_clausify(f, namer), skolemize_clausify(g, namer)
    assert fres.skolem_functions == {"sk1"} and gres.skolem_functions == {"sk2"}
    assert prove(fres.clauses + gres.clauses).status == "saturated"


def test_clausify_rejects_open_formula():
    with pytest.raises(InputError):
        skolemize_clausify(p(x), FreshNamer())


def test_skolemization_preserves_finite_satisfiability():
    rng = random.Random(47)
    checked = 0
    for _ in range(60):
        f = random_formula(rng, depth=2, vars_allowed=("X",))
        sentence = f
        for v in sorted(free_vars(f)):
            sentence = ForAll(v, sentence) if rng.random() < 0.5 else Exists(v, sentence)
        res = skolemize_clausify(sentence, namer_for(sentence))
        clausal = And(tuple(_universal_closure(c) for c in res.clauses)) if res.clauses else TOP
        sig_orig = reference_signature_of([sentence])
        sig_clausal = reference_signature_of([clausal])
        if len(sig_clausal.functions) > 2 or len(sig_clausal.predicates) > 2:
            continue
        sat_orig = any(eval_formula(sentence, m, {}) for m in all_models(sig_orig, 2))
        sat_claus = any(eval_formula(clausal, m, {}) for m in all_models(sig_clausal, 2))
        assert sat_orig == sat_claus
        checked += 1
    assert checked >= 10


def _universal_closure(c):
    f: Formula = Or(tuple(c.literals)) if c.literals else BOTTOM
    for v in sorted(clause_vars(c)):
        f = ForAll(v, f)
    return f


# --- equality axioms ---------------------------------------------------


def test_equality_axioms_core_only():
    axs = equality_axioms(Signature.empty())
    assert len(axs) == 3


def test_equality_axioms_predicate_substitutivity():
    sig = Signature.empty()
    sig.add_predicate("p", 1)
    axs = equality_axioms(sig)
    expected = Clause(
        (
            Literal(False, "=", (Var("X1"), Var("Y"))),
            Literal(False, "p", (Var("X1"),)),
            Literal(True, "p", (Var("Y"),)),
        )
    )
    assert expected in axs


def test_equality_axioms_function_substitutivity():
    sig = Signature.empty()
    sig.add_function("f", 1)
    axs = equality_axioms(sig)
    expected = Clause(
        (
            Literal(False, "=", (Var("X1"), Var("Y"))),
            Literal(True, "=", (App("f", (Var("X1"),)), App("f", (Var("Y"),)))),
        )
    )
    assert expected in axs
