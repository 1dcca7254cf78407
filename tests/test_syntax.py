import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from foltab.syntax import (
    And,
    App,
    Exists,
    ForAll,
    Implies,
    InputError,
    Literal,
    Not,
    Or,
    Signature,
    Var,
    apply_term,
    bind,
    free_vars,
    match_term,
    occurs,
    ordered_vars,
    polarity_vars,
    resolve,
    smax,
    undo,
    unify,
    unify_args,
    vocabulary,
)
from helpers import random_formula, random_nnf

x, y, z = Var("X"), Var("Y"), Var("Z")
a, b = App("a"), App("b")


def lit(name, *args, positive=True):
    return Literal(positive, name, tuple(args))


def test_free_vars_bound_excluded():
    f = And((lit("p", x), ForAll("Y", lit("q", y))))
    assert free_vars(f) == {"X"}


def test_free_vars_ground():
    assert free_vars(lit("p", a)) == set()


def test_free_vars_mixed_scopes():
    # the second X occurrence is outside the quantifier scope
    f = Or((ForAll("X", lit("p", x, y)), lit("q", x)))
    assert free_vars(f) == {"X", "Y"}


def test_polarity_vars_basic():
    f = Or((lit("p", x, positive=False), lit("q", x)))
    assert polarity_vars(f) == ({"X"}, {"X"})
    assert polarity_vars(lit("p", x)) == ({"X"}, set())


def test_polarity_vars_implication_flips():
    f = Implies(lit("p", x), lit("q", y))
    assert polarity_vars(f) == ({"Y"}, {"X"})


def test_vocabulary_polarities():
    f = And((lit("p", a), Not(lit("q", App("f", (x,))))))
    funcs, preds = vocabulary(f)
    assert funcs == {"a", "f"}
    assert preds == {("p", "+"), ("q", "-")}


def test_vocabulary_double_negation():
    assert vocabulary(Not(Not(lit("p"))))[1] == {("p", "+")}


def test_vocabulary_self_implication():
    assert vocabulary(Implies(lit("p"), lit("p")))[1] == {("p", "+"), ("p", "-")}


def test_smax_nested_term_suppressed():
    fa = App("f", (a,))
    assert smax({a, fa}, lit("p", fa)) == {fa}


def test_smax_sign_filters():
    f = lit("p", a, positive=False)
    assert smax({a}, f, "negative") == {a}
    assert smax({a}, f, "positive") == set()


def test_smax_rejects_nonground_members():
    with pytest.raises(InputError):
        smax({App("f", (x,))}, lit("p", a))


def test_unify_variable_binding():
    fa = App("f", (a,))
    assert unify(x, fa) == {"X": fa}


def test_unify_occurs_check():
    assert unify(App("f", (x,)), x) is None


def test_unify_two_equations():
    s = unify(App("p", (x, App("g", (y,)))), App("p", (App("f", (z,)), App("g", (z,)))))
    assert s == {"X": App("f", (z,)), "Y": z}


def test_bind_then_undo_to_a_mark_restores_the_store():
    store, trail = {"X": a}, ["X"]
    before = dict(store)
    mark = len(trail)
    assert bind(store, trail, "Y", App("f", (x,)))
    assert unify_args((z,), (App("g", (y,)),), store, trail)
    assert store == {"X": a, "Y": App("f", (x,)), "Z": App("g", (y,))}
    assert trail == ["X", "Y", "Z"]
    undo(store, trail, mark)
    assert store == before and trail == ["X"]


def test_resolve_follows_chains():
    fa = App("f", (a,))
    store = {"X": y, "Y": fa}
    assert resolve(x, store) == fa
    assert resolve(App("g", (x, z)), store) == App("g", (fa, z))
    assert resolve(fa, store) is fa


def test_occurs_check_fails_through_a_chain():
    store = {"Y": App("f", (z,)), "Z": x}
    assert occurs("X", y, store)
    trail = []
    assert not bind(store, trail, "X", App("g", (y,)))
    assert not unify_args((x,), (y,), store, trail)
    assert "X" not in store and trail == []


def test_unify_binds_left_variable_so_the_right_one_survives():
    store, trail = {}, []
    assert unify_args((App("f", (x, x)),), (App("f", (y, z)),), store, trail)
    assert [resolve(v, store) for v in (x, y, z)] == [z, z, z]
    assert trail == ["X", "Y"]


def test_ordered_vars_first_occurrence_outside_in():
    terms = (App("f", (y, App("g", (x, y)))), z, x)
    assert ordered_vars(terms) == ["Y", "X", "Z"]


def test_complement_involution():
    l = lit("p", x, a, positive=False)
    assert l.complement().complement() == l


@given(st.integers(0, 10_000))
def test_polarity_vars_subset_of_free(seed):
    rng = random.Random(seed)
    f = random_formula(rng, depth=3)
    pos, neg = polarity_vars(f)
    assert pos <= free_vars(f)
    assert neg <= free_vars(f)


@given(st.integers(0, 10_000))
def test_polarity_union_equals_free_on_pure_nnf(seed):
    rng = random.Random(seed)
    f = random_nnf(rng, depth=3)
    # truth constants contribute no variables, so skip samples that have any
    from foltab.syntax import Top, Bottom

    def has_const(g):
        if isinstance(g, (Top, Bottom)):
            return True
        if isinstance(g, (And, Or)):
            return any(has_const(p) for p in g.parts)
        return False

    if has_const(f):
        return
    pos, neg = polarity_vars(f)
    assert pos | neg == free_vars(f)


def _random_term_pair(rng):
    from helpers import random_term

    return random_term(rng, ("X", "Y"), 2), random_term(rng, ("X", "Y"), 2)


def _ground_substitutions(vars_):
    consts = [App("a"), App("b")]
    for values in itertools.product(consts, repeat=len(vars_)):
        yield dict(zip(vars_, values))


def test_unify_is_mgu_against_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        t1, t2 = _random_term_pair(rng)
        mgu = unify(t1, t2)
        from foltab.syntax import term_vars

        vars_ = sorted(term_vars(t1) | term_vars(t2))
        ground_unifiers = [
            s for s in _ground_substitutions(vars_) if apply_term(t1, s) == apply_term(t2, s)
        ]
        if mgu is None:
            assert not ground_unifiers
            continue
        # it unifies and is idempotent
        assert apply_term(t1, mgu) == apply_term(t2, mgu)
        for v, t in mgu.items():
            assert apply_term(t, mgu) == t
        # every ground unifier factors through it
        for s in ground_unifiers:
            tau = {}
            ok = True
            for v in vars_:
                got = match_term(apply_term(Var(v), mgu), apply_term(Var(v), s), tau)
                if got is None:
                    ok = False
                    break
                tau = got
            assert ok


def test_signature_arity_clash():
    sig = Signature.empty()
    sig.add_function("f", 1)
    with pytest.raises(InputError):
        sig.add_function("f", 2)
    sig.add_predicate("p", 1)
    with pytest.raises(InputError):
        sig.add_function("p", 0)


def test_kernel_hashes_are_cached_values_of_the_field_tuple():
    def build():
        t = App("f", (App("g", (Var("X"), App("a"))), Var("Y")))
        return t, Literal(False, "p", (t, App("b")))

    (t1, l1), (t2, l2) = build(), build()
    assert t1 is not t2 and l1 is not l2
    assert t1 == t2 and hash(t1) == hash(t2)
    assert l1 == l2 and hash(l1) == hash(l2)
    assert l1 != l1.complement() and hash(l1) != hash(l1.complement())
    # the value is that of the generated dataclass hash, computed once
    assert hash(x) == hash(("X",))
    assert hash(t1) == hash((t1.functor, t1.args))
    assert hash(l1) == hash((l1.positive, l1.predicate, l1.args))
    assert hash(l1) == hash(l1)
    assert repr(x) == "Var(name='X')"
    assert repr(App("f", (x,))) == "App(functor='f', args=(Var(name='X'),))"
    assert repr(lit("p", a)) == "Literal(positive=True, predicate='p', args=(App(functor='a', args=()),))"
    # a literal copied before its hash was computed is still a value
    fresh = Literal(True, "q", (App("h", (y,)),))
    assert copy.copy(fresh) == fresh and pickle.loads(pickle.dumps(fresh)) == fresh
