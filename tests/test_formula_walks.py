"""The formula walks in syntax.py (`occurrences`, `map_formula` and the
walks written on them) against the recursive walkers they replace, on
random formulas, plus the cases only the new walks handle: nesting deeper
than the recursion limit and long <=> chains."""

import random
import re

import pytest

import foltab.syntax
from foltab.interpolation import interpolate, unfreeze
import foltab.normalize
from foltab.normalize import (
    ClauseLimitError,
    cnf,
    freeze_free_vars,
    frozen_vocabulary,
    skolemize_clausify,
)
from foltab.syntax import (
    BOTH,
    Clause,
    NEG,
    POS,
    And,
    App,
    Exists,
    ForAll,
    FreshNamer,
    Iff,
    Literal,
    Not,
    Or,
    Var,
    free_vars,
    map_formula_terms,
    occurrences,
    read_symbols,
    rename_predicates,
    vocabulary,
)
from foltab.tptp import format_formula, parse_formula
from helpers import (
    gen_urr_instance,
    random_formula,
    random_term,
    reference_cnf,
    reference_formula_subst,
    reference_formula_symbols,
    reference_free_vars,
    reference_rename_predicates,
    reference_skolemize_clausify,
    reference_standardize,
    reference_vocabulary,
)

SAMPLES = 2000


def lit(name, *args, positive=True):
    return Literal(positive, name, tuple(args))


def renamed(f, names):
    """f with every occurrence of a symbol or variable name replaced as
    `names` says, binders included, through the formula's TPTP text."""
    text = re.sub(r"\w+", lambda m: names.get(m.group(), m.group()), format_formula(f))
    return parse_formula(text)


def cnf_outcome(normal_form, f):
    try:
        return normal_form(f, 50)
    except ClauseLimitError as e:
        return str(e)


def samples(seed):
    rng = random.Random(seed)
    for _ in range(SAMPLES):
        yield rng, random_formula(rng, depth=rng.randint(1, 5))


def test_readers_agree_with_the_recursive_walkers():
    for _, f in samples(11):
        assert free_vars(f) == reference_free_vars(f)
        assert vocabulary(f) == reference_vocabulary(f)
        s = read_symbols(f)
        assert s.names == reference_formula_symbols(f)
        assert s.free == reference_free_vars(f)
        assert (s.functions, s.predicates) == reference_vocabulary(f)


def frozen_pair(f, g):
    """f and g with their free variables frozen by the recursive
    substitution, the placeholders, the placeholder map, the symbols of f
    and g, and the run's namer."""
    sf, sg = read_symbols(f), read_symbols(g)
    namer = FreshNamer(sf.names | sg.names)
    frozen, _, mapping = freeze_free_vars(namer, (sf.free, sg.free))
    f_c, g_c = reference_formula_subst(f, frozen), reference_formula_subst(g, frozen)
    return f_c, g_c, frozen, mapping, sf, sg, namer


def test_frozen_vocabulary_is_read_off_the_walk():
    # p(X) & ! [X] : q(X): X is free and bound, and only the free
    # occurrence becomes a placeholder constant
    x = Var("X")
    f = And((lit("p", x), ForAll("X", lit("q", x))))
    g = Or((lit("q", App("a")), Exists("Y", lit("r", x, Var("Y")))))
    f_c, g_c, frozen, mapping, sf, sg, namer = frozen_pair(f, g)
    assert frozen_vocabulary(sf, mapping) == vocabulary(f_c)[0] == frozenset({"c_x_1"})
    # the clausification of f freezes only the free occurrence too
    assert skolemize_clausify(f, namer, frozen).clauses == (
        Clause((lit("p", App("c_x_1")),)),
        Clause((lit("q", x),)),
    )
    assert frozen_vocabulary(sg, mapping) == vocabulary(g_c)[0]
    for rng, f in samples(13):
        g = random_formula(rng, depth=rng.randint(1, 4))
        f_c, g_c, _, mapping, sf, sg, _ = frozen_pair(f, g)
        assert frozen_vocabulary(sf, mapping) == vocabulary(f_c)[0]
        assert frozen_vocabulary(sg, mapping) == vocabulary(g_c)[0]


def test_interpolate_walks_each_input_once(monkeypatch):
    walks = []
    occurrences = foltab.syntax.occurrences
    monkeypatch.setattr(foltab.syntax, "occurrences", lambda f: walks.append(f) or occurrences(f))
    f, g = gen_urr_instance(random.Random(5))
    interpolate(f, g, require=("u-rr",))
    # F and G once each, and the cnf of the u-rr check: clausification
    # freezes and Skolemizes in its own walk, which checks no sentence
    assert len(walks) == 3
    assert walks[:2] == [f, g]


def frozen_clausified(f, frozen):
    """The clausification of f with its free variables replaced as
    `frozen` says, and the next names of its namer; or the error."""
    namer = FreshNamer(read_symbols(f).names)
    try:
        res = skolemize_clausify(f, namer, frozen)
    except ClauseLimitError as e:
        return str(e)
    return res.clauses, res.skolem_functions, res.universal_vars, namer.fresh("sk")


def recursive_frozen_clausified(f, frozen):
    """The same, with the recursive substitution and clausification."""
    namer = FreshNamer(read_symbols(f).names)
    try:
        res = reference_skolemize_clausify(reference_formula_subst(f, frozen), namer, 50)
    except ClauseLimitError as e:
        return str(e)
    return res.clauses, res.skolem_functions, res.universal_vars, namer.fresh("sk")


def test_maps_agree_with_the_recursive_walkers(monkeypatch):
    monkeypatch.setattr(foltab.normalize, "DEFAULT_CLAUSE_LIMIT", 50)
    for rng, f in samples(12):
        # ground terms for the free variables, and for some bound names
        frozen = {
            v: random_term(rng, (), 2)
            for v in ("X", "Y", "Z")
            if v in free_vars(f) or rng.random() < 0.6
        }
        assert frozen_clausified(f, frozen) == recursive_frozen_clausified(f, frozen)
        # bound names are renamed apart in cnf's prefix as standardize did,
        # also where a bound Y is named X_2, the name a second bound X gets
        assert cnf_outcome(cnf, f) == cnf_outcome(reference_cnf, f)
        g = renamed(f, {"Y": "X_2"})
        assert cnf_outcome(cnf, g) == cnf_outcome(reference_cnf, g)
        mapping = {p: rng.choice(("p", "q", "t", "p_p")) for p in "pqrs" if rng.random() < 0.5}
        assert rename_predicates(f, mapping) == reference_rename_predicates(f, mapping)


def test_renaming_is_one_shot():
    # ! [X] : ! [X] : ! [X_2] : p(X, X_2); the binders become X, X_2, X_2_2
    x, x2 = Var("X"), Var("X_2")
    f = ForAll("X", ForAll("X", ForAll("X_2", lit("p", x, x2))))
    expected = ForAll("X", ForAll("X_2", ForAll("X_2_2", lit("p", x2, Var("X_2_2")))))
    got = cnf(f)
    assert got.prefix == (("forall", "X"), ("forall", "X_2"), ("forall", "X_2_2"))
    assert got.matrix == (Clause((lit("p", x2, Var("X_2_2")),)),)
    assert reference_standardize(f) == expected


def test_binders_are_picked_outside_in_and_left_to_right():
    x = Var("X")
    f = And((ForAll("X", Exists("X", lit("p", x))), ForAll("X", lit("q", x))))
    got = cnf(f)
    assert got.prefix == (("forall", "X"), ("exists", "X_2"), ("forall", "X_3"))
    assert got.matrix == (Clause((lit("p", Var("X_2")),)), Clause((lit("q", Var("X_3")),)))


def test_occurrences_in_pre_order_with_polarity_and_bound_names():
    x = Var("X")
    p, q, r = lit("p", x), lit("q", x, positive=False), lit("r")
    inner = Exists("Y", Or((q, Iff(r, p))))
    f = And((Not(ForAll("X", inner)), p))
    assert list(occurrences(f)) == [
        (ForAll("X", inner), NEG, frozenset()),
        (inner, NEG, frozenset({"X"})),
        (q, POS, frozenset({"X", "Y"})),
        (r, BOTH, frozenset({"X", "Y"})),
        (p, BOTH, frozenset({"X", "Y"})),
        (p, POS, frozenset()),
    ]


def test_walks_reject_what_is_not_a_formula():
    frozen = {"X": App("a")}
    for walk in (free_vars, vocabulary, lambda g: skolemize_clausify(g, FreshNamer(), frozen)):
        with pytest.raises(TypeError, match="not a formula"):
            walk(And((lit("p"), "p")))


def test_iff_chain_is_read_once():
    # ((...(p0 <=> p1) <=> p2) ...) <=> p40: the recursive walker visits the
    # innermost side 2^40 times
    f = lit("p0")
    for i in range(1, 41):
        f = Iff(f, lit(f"p{i}"))
    assert len(list(occurrences(f))) == 41
    preds = {(f"p{i}", sign) for i in range(41) for sign in "+-"}
    assert vocabulary(f) == (frozenset(), frozenset(preds))


DEPTH = 5000


def peel(g, cls, depth=DEPTH):
    for _ in range(depth):
        assert g.__class__ is cls
        g = g.body
    return g


def test_deep_negation_chain(default_recursion_limit):
    x = Var("X")
    f = lit("p", x, App("c"))
    for _ in range(DEPTH):
        f = Not(f)
    with pytest.raises(RecursionError):
        reference_free_vars(f)
    assert free_vars(f) == {"X"}
    assert vocabulary(f) == (frozenset({"c"}), frozenset({("p", "+")}))
    assert read_symbols(f).names == {"X", "p", "c"}
    frozen = skolemize_clausify(f, FreshNamer(), {"X": App("a")})
    assert frozen.clauses == (Clause((lit("p", App("a"), App("c")),)),)
    assert peel(rename_predicates(f, {"p": "q"}), Not) == lit("q", x, App("c"))
    assert peel(map_formula_terms(f, lambda t: App("b")), Not) == lit("p", App("b"), App("b"))
    assert peel(unfreeze(f, {"c": "Y"}), Not) == lit("p", x, Var("Y"))
    got = cnf(ForAll("X", f))
    assert (got.prefix, got.matrix) == ((("forall", "X"),), (Clause((lit("p", x, App("c")),)),))


def test_deep_quantifier_chain(default_recursion_limit):
    x = Var("X")
    body = lit("p", x, Var("Y"))
    f = body
    for _ in range(DEPTH):
        f = ForAll("X", f)
    with pytest.raises(RecursionError):
        reference_free_vars(f)
    assert free_vars(f) == {"Y"}
    assert read_symbols(f).names == {"X", "Y", "p"}
    # the innermost binder is the last of DEPTH renamed apart
    frozen = skolemize_clausify(f, FreshNamer(), {"Y": App("a")})
    assert frozen.clauses == (Clause((lit("p", Var(f"X_{DEPTH}"), App("a")),)),)
    assert len(frozen.universal_vars) == DEPTH
    # map_formula rebuilds the chain with its binders as they are
    renamed = rename_predicates(f, {"p": "q"})
    assert [g.var for g, _, _ in occurrences(renamed) if g.__class__ is ForAll] == ["X"] * DEPTH
    assert peel(renamed, ForAll) == lit("q", x, Var("Y"))
