import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from foltab.syntax import (
    And,
    App,
    Clause,
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
    equal_copies,
    free_vars,
    is_ground,
    map_literal_terms,
    match_term,
    occurs_copy,
    ordered_vars,
    resolve_copy,
    smax_by,
    subterms,
    term_depth,
    undo,
    unify_copies,
    vocabulary,
)
from foltab.tableaux import prove
from helpers import (
    bind,
    random_formula,
    random_nnf,
    random_term,
    reference_apply_literal,
    reference_occurs,
    reference_polarity_vars,
    reference_resolve,
    reference_term_vars,
    unify,
    unify_args,
)

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
    assert reference_polarity_vars(f) == ({"X"}, {"X"})
    assert reference_polarity_vars(lit("p", x)) == ({"X"}, set())


def test_polarity_vars_implication_flips():
    f = Implies(lit("p", x), lit("q", y))
    assert reference_polarity_vars(f) == ({"Y"}, {"X"})


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
    assert smax_by(lambda t: t in {a, fa}, lit("p", fa)) == [fa]


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


def at_0(names):
    """A name-keyed binding store as a copy store: every variable and
    every bound term in copy 0, as proof import binds a document's rigid
    variables."""
    return {(v, 0): (t, 0) for v, t in names.items()}


def itself(v, k):
    return Var(v)


def resolve0(t, names):
    """t under `names` in full, read by the copy store's resolver at copy 0."""
    return resolve_copy(t, 0, at_0(names), {}, itself)


def resolve0_literal(l, names):
    store, table = at_0(names), {}
    return map_literal_terms(l, lambda t: resolve_copy(t, 0, store, table, itself))


def occurs0(name, t, names):
    return occurs_copy(name, 0, t, 0, at_0(names))


def test_resolve_follows_chains():
    fa = App("f", (a,))
    store = {"X": y, "Y": fa}
    assert resolve0(x, store) == fa
    assert resolve0(App("g", (x, z)), store) == App("g", (fa, z))
    assert resolve0(fa, store) is fa


def _random_store(rng):
    """A triangular, acyclic name-keyed store over X, Y, Z, U, V: each
    binding is kept only when the occurs check through the store so far
    fails, as a proof document's bindings are added."""
    store = {}
    for v in rng.sample(["X", "Y", "Z", "U", "V"], rng.randint(0, 5)):
        t = random_term(rng, ("X", "Y", "Z", "U", "V"), depth=rng.randint(0, 3))
        if not reference_occurs(v, t, store):
            store[v] = t
    return store


def test_resolve_copy_at_copy_0_agrees_with_the_name_keyed_resolver():
    # the name-keyed store proof import ran on before it bound its
    # variables as copy 0 of a copy store
    rng = random.Random(28)
    for _ in range(500):
        store = _random_store(rng)
        t = random_term(rng, ("X", "Y", "Z", "U", "V"), depth=rng.randint(0, 4))
        assert resolve0(t, store) is reference_resolve(t, store)
        l = Literal(rng.random() < 0.5, "p", (t, x))
        assert resolve0_literal(l, store) is reference_apply_literal(l, store)
        for v in ("X", "Y", "Z", "U", "V"):
            assert occurs0(v, t, store) == reference_occurs(v, t, store)


def nest(functor, depth, inner):
    for _ in range(depth):
        inner = App(functor, (inner,))
    return inner


def test_term_rebuilds_of_a_5000_deep_term(default_recursion_limit):
    # the results are read with subterms and term_depth
    deep = nest("f", 5000, x)

    def leaf(t):
        return list(subterms(t))[-1]

    got = apply_term(deep, {"X": y, "Y": z})
    assert term_depth(got) == 5001 and leaf(got) is y
    got = resolve0(deep, {"X": y, "Y": App("g", (a,))})
    assert term_depth(got) == 5002 and leaf(got) is a
    # a binding chain as deep as the term: X_i is bound to f(X_{i+1})
    chain = {f"X{i}": App("f", (Var(f"X{i + 1}"),)) for i in range(5000)}
    got = resolve0(Var("X0"), chain)
    assert term_depth(got) == 5001 and leaf(got) == Var("X5000")
    assert occurs0("X5000", Var("X0"), chain) and not occurs0("Y", Var("X0"), chain)
    l = resolve0_literal(Literal(False, "p", (deep, a)), {"X": b})
    assert l.args[1] is a and term_depth(l.args[0]) == 5001 and leaf(l.args[0]) is b
    # unchanged subterms are shared, and an unchanged literal is returned
    assert apply_term(deep, {"Y": a}) is deep and resolve0(deep, {"Y": a}) is deep
    lit = Literal(True, "p", (deep,))
    assert resolve0_literal(lit, {"Y": a}) is lit

    def outcome(t):
        # the prover copies p(t) at each extension step of ~p(Y) | p(g(Y)),
        # binds Y to the copy and resolves it in the regularity check
        step = Clause((Literal(False, "p", (y,)), Literal(True, "p", (App("g", (y,)),))))
        r = prove([Clause((Literal(True, "p", (t,)),)), step], max_depth=4)
        return r.status, r.inferences, r.depth

    assert outcome(deep) == outcome(App("f", (x,)))


class CountedArgs(tuple):
    """Arguments that count how often they are read."""

    reads = 0

    def __iter__(self):
        CountedArgs.reads += 1
        return tuple.__iter__(self)

    def __reversed__(self):
        CountedArgs.reads += 1
        return reversed(tuple(tuple.__iter__(self)))


def test_the_kernel_does_not_read_inside_a_ground_term():
    inner = App("g", CountedArgs((a, b)))
    t = App("f", (inner, App("h", CountedArgs((inner,)))))
    CountedArgs.reads = 0
    assert resolve0(t, {"X": a}) is t and apply_term(t, {"X": a}) is t
    assert resolve0_literal(Literal(True, "p", (t, x)), {"X": b}).args == (t, b)
    assert not occurs0("X", t, {}) and ordered_vars([t, y]) == ["Y"]
    assert CountedArgs.reads == 0
    # arguments that hold a variable are read
    assert resolve0(App("k", CountedArgs((x,))), {"X": a}) == App("k", (a,))
    assert CountedArgs.reads > 0


def test_ground_terms_and_literals_come_back_by_identity():
    ground = App("f", (App("g", (a, b)), nest("h", 50, a)))
    store = {"X": a, "Y": App("f", (x,)), "Z": y}
    assert apply_term(ground, store) is ground
    assert resolve0(ground, store) is ground
    l = Literal(False, "p", (ground, b))
    assert resolve0_literal(l, store) is l
    # a rebuilt term keeps its ground arguments as they are
    got = resolve0(App("k", (ground, z)), store)
    assert got == App("k", (ground, App("f", (a,)))) and got.args[0] is ground
    got = resolve0_literal(Literal(True, "q", (x, ground)), store)
    assert got.args == (a, ground) and got.args[1] is ground


def test_ground_flag_is_set_from_the_arguments():
    def reference(t):
        return not any(s.__class__ is Var for s in subterms(t))

    rng = random.Random(7)
    for _ in range(300):
        t = random_term(rng, ("X", "Y"), depth=rng.randint(0, 4))
        assert is_ground(t) == reference(t)
        # rebuilt terms get their flag from their new arguments
        g = resolve0(t, {"X": a, "Y": App("f", (b,))})
        assert is_ground(g) and g._ground
        assert is_ground(apply_term(t, {"X": y})) == reference(t)
    assert not is_ground(x) and is_ground(a) and not is_ground(nest("f", 5000, x))
    # copies are made through __init__, which sets the flag again
    t = App("f", (App("g", (a,)), b))
    assert copy.copy(t)._ground and pickle.loads(pickle.dumps(t))._ground
    assert not pickle.loads(pickle.dumps(App("f", (x,))))._ground


def test_occurs_check_fails_through_a_chain():
    names = {"Y": App("f", (z,)), "Z": x}
    assert occurs0("X", y, names)
    store, trail = at_0(names), []
    assert not unify_copies((x,), 0, (App("g", (y,)),), 0, store, trail)
    assert not unify_copies((x,), 0, (y,), 0, store, trail)
    assert ("X", 0) not in store and trail == []
    # the name-keyed oracle agrees
    trail = []
    assert not bind(names, trail, "X", App("g", (y,)))
    assert not unify_args((x,), (y,), names, trail)
    assert "X" not in names and trail == []


def test_unify_binds_left_variable_so_the_right_one_survives():
    store, trail = {}, []
    assert unify_copies((App("f", (x, x)),), 0, (App("f", (y, z)),), 0, store, trail)
    table = {}
    assert [resolve_copy(v, 0, store, table, itself) for v in (x, y, z)] == [z, z, z]
    assert trail == [("X", 0), ("Y", 0)]
    # the name-keyed oracle agrees
    names, trail = {}, []
    assert unify_args((App("f", (x, x)),), (App("f", (y, z)),), names, trail)
    assert [reference_resolve(v, names) for v in (x, y, z)] == [z, z, z]
    assert trail == ["X", "Y"]


def renamed(t, k):
    """t with each variable v renamed v_k, as copy k of a clause reads it."""
    return apply_term(t, {v: Var(f"{v}_{k}") for v in ordered_vars([t])})


def copy_var(v, k):
    return Var(f"{v}_{k}")


def _copy_term(depth):
    names = st.sampled_from(["X", "Y", "Z"])
    leaf = st.one_of(names.map(Var), st.sampled_from([App("a"), App("b")]))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            sub.map(lambda t: App("f", (t,))),
            st.tuples(sub, sub).map(lambda ts: App("g", ts)),
        ),
        max_leaves=depth,
    )


# an equation: two argument tuples of one length, each in a copy 1-3; the
# right side is sometimes the left one, so two instances of one clause
# meet, and sometimes the left one under f, so a variable meets a term
# that contains it in its own copy or another
_equation = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.lists(_copy_term(6), min_size=n, max_size=n),
        st.integers(1, 3),
        st.one_of(st.sampled_from(["same", "under f"]), st.lists(_copy_term(6), min_size=n, max_size=n)),
        st.integers(1, 3),
    )
)


@given(st.lists(_equation, min_size=1, max_size=4))
def test_unify_copies_agrees_with_unify_args_on_renamed_copies(equations):
    # one store across the equations, so later ones meet earlier bindings;
    # bindings, trail order and resolved terms agree under (v, k) <-> v_k
    store, trail, names, name_trail = {}, [], {}, []
    for xs, kx, ys, ky in equations:
        if ys == "same":
            ys = xs
        elif ys == "under f":
            ys = [App("f", (t,)) for t in xs]
        mark, name_mark = len(trail), len(name_trail)
        got = unify_copies(tuple(xs), kx, tuple(ys), ky, store, trail)
        want = unify_args(
            [renamed(t, kx) for t in xs], [renamed(t, ky) for t in ys], names, name_trail
        )
        assert got == want
        if not got:
            undo(store, trail, mark)
            undo(names, name_trail, name_mark)
        assert [f"{v}_{k}" for v, k in trail] == name_trail
        assert {f"{v}_{k}": renamed(t, kt) for (v, k), t, kt in ((key, *b) for key, b in store.items())} == names
        table = {}
        for t, k in [(t, kx) for t in xs] + [(t, ky) for t in ys]:
            assert resolve_copy(t, k, store, table, copy_var) == reference_resolve(renamed(t, k), names)
            assert equal_copies((t,), k, (t,), k, store)
        if got:
            assert equal_copies(tuple(xs), kx, tuple(ys), ky, store)


def test_unify_copies_on_5000_deep_terms(default_recursion_limit):
    # two copies of f^5000(X): the left variable is bound to the right one
    deep = nest("f", 5000, x)
    store, trail = {}, []
    assert unify_copies((deep,), 1, (deep,), 2, store, trail)
    assert store == {("X", 1): (x, 2)} and trail == [("X", 1)]
    assert equal_copies((deep,), 1, (deep,), 2, store)
    assert not equal_copies((deep,), 1, (nest("f", 5000, a),), 1, store)
    # a variable inside its own copy's term fails the occurs check
    assert not unify_copies((x,), 1, (deep,), 1, {}, [])
    assert not unify_copies((x,), 1, (deep,), 2, store, [])
    # the same term in another copy binds the variable to the ground term;
    # terms are shared, so f^5000(a) built twice is one object
    ground, deep_a = nest("f", 5000, a), nest("f", 5000, App("a"))
    assert deep_a is ground
    store, trail = {}, []
    assert unify_copies((deep, ground), 1, (ground, deep_a), 2, store, trail)
    assert store == {("X", 1): (a, 2)} and trail == [("X", 1)]
    # the resolver comes back with that one object, for the copy of the
    # variable's term and for the ground term in any copy, and the named
    # copy agrees with the name-keyed kernel
    table = {}
    left = resolve_copy(deep, 1, store, table, copy_var)
    assert left is ground
    assert resolve_copy(ground, 7, store, table, copy_var) is left
    names = {}
    assert unify_args((renamed(deep, 1), ground), (ground, deep_a), names, [])
    assert names == {"X_1": a}


def acyclic(store):
    """Whether no bound variable of `store` reaches itself: a depth-first
    walk over the bindings that visits each one once, so a cycle fails
    here instead of sending a resolver round it for ever."""
    done, on_path = set(), set()
    for start in store:
        if start in done:
            continue
        # (variable, its binding's variables still to visit)
        stack = [(start, None)]
        on_path.add(start)
        while stack:
            key, todo = stack[-1]
            if todo is None:
                t, kt = store[key]
                todo = [(v, kt) for v in ordered_vars([t])]
                stack[-1] = (key, todo)
            if not todo:
                stack.pop()
                on_path.discard(key)
                done.add(key)
                continue
            nxt = todo.pop()
            if nxt in on_path:
                return False
            if nxt in store and nxt not in done:
                on_path.add(nxt)
                stack.append((nxt, None))
    return True


def test_a_fresh_copy_skips_the_occurs_check_until_a_binding_reaches_it():
    fx = App("f", (x,))
    # a variable of the fresh copy 2 bound to a term of copy 1: no binding
    # reaches copy 2, so the term cannot contain the variable
    store, trail = {}, []
    assert unify_copies((App("f", (y,)),), 1, (x,), 2, store, trail, 2)
    assert store == {("X", 2): (App("f", (y,)), 1)} and acyclic(store)
    # p(X, f(X)) in copy 1 against p(Y, Y) in the fresh copy 2: binding X_1
    # to Y_2 reaches the fresh copy, so binding Y_2 to f(X)_1 is checked,
    # and fails
    for fresh in (None, 2):
        store, trail = {}, []
        assert not unify_copies((x, fx), 1, (y, y), 2, store, trail, fresh)
        assert acyclic(store)
    # p(Y, Y) in copy 1 against p(X, f(X)) in copy 2: X_2 meets f(X)_2
    for fresh in (None, 2):
        store, trail = {}, []
        assert not unify_copies((y, y), 1, (x, fx), 2, store, trail, fresh)
        assert acyclic(store)
    # both sides in the fresh copy: the check is made
    assert not unify_copies((x,), 2, (fx,), 2, {}, [], 2)
    assert not unify_copies((fx,), 2, (x,), 2, {}, [], 2)


def test_a_fresh_copy_unifies_as_without_it_on_random_terms():
    # copy 2 is fresh: the store, made by unifying copies 0 and 1, holds
    # no binding into it; with and without the fresh copy named, success,
    # the store, the trail and every resolved term agree
    rng = random.Random(3301)
    names = ("X", "Y", "Z")
    for _ in range(1200):
        store, trail = {}, []
        for _ in range(rng.randint(0, 2)):
            mark = len(trail)
            n = rng.randint(1, 2)
            before = tuple(random_term(rng, names, rng.randint(0, 2)) for _ in range(2 * n))
            k0, k1 = rng.randint(0, 1), rng.randint(0, 1)
            if not unify_copies(before[:n], k0, before[n:], k1, store, trail):
                undo(store, trail, mark)
        n = rng.randint(1, 3)
        xs = tuple(random_term(rng, names, rng.randint(0, 3)) for _ in range(n))
        ys = tuple(random_term(rng, names, rng.randint(0, 3)) for _ in range(n))
        if rng.random() < 0.3:
            # a term under f meets itself, in its own copy or another
            ys = tuple(App("f", (t,)) for t in xs)
        kx = rng.choice((0, 1, 2))
        runs = []
        for fresh in (None, 2):
            s, tr = dict(store), list(trail)
            ok = unify_copies(xs, kx, ys, 2, s, tr, fresh)
            assert acyclic(s)
            table = {}
            resolved = [resolve_copy(t, kx, s, table, copy_var) for t in xs]
            resolved += [resolve_copy(t, 2, s, table, copy_var) for t in ys]
            resolved += [resolve_copy(Var(v), k, s, table, copy_var) for v in names for k in (0, 1, 2)]
            runs.append((ok, s, tr, resolved))
        assert runs[0] == runs[1]


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
    pos, neg = reference_polarity_vars(f)
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
    pos, neg = reference_polarity_vars(f)
    assert pos | neg == free_vars(f)


def _random_term_pair(rng):
    from helpers import random_term

    return random_term(rng, ("X", "Y"), 2), random_term(rng, ("X", "Y"), 2)


def _ground_substitutions(vars_):
    consts = [App("a"), App("b")]
    for values in itertools.product(consts, repeat=len(vars_)):
        yield dict(zip(vars_, values))


def test_match_term_extends_its_substitution_in_place():
    sigma = {}
    assert match_term(App("f", (x,)), App("f", (a,)), sigma) and sigma == {"X": a}
    assert not match_term(x, b, sigma)  # X is bound to a already
    assert match_term(App("g", (x, y)), App("g", (a, b)), sigma) and sigma == {"X": a, "Y": b}


def test_unify_is_mgu_against_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        t1, t2 = _random_term_pair(rng)
        mgu = unify(t1, t2)
        vars_ = sorted(reference_term_vars(t1) | reference_term_vars(t2))
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
            assert all(match_term(apply_term(Var(v), mgu), apply_term(Var(v), s), tau) for v in vars_)


def test_signature_arity_clash():
    sig = Signature()
    sig.add_function("f", 1)
    with pytest.raises(InputError):
        sig.add_function("f", 2)
    sig.add_predicate("p", 1)
    with pytest.raises(InputError):
        sig.add_function("p", 0)


def test_kernel_hashes_are_those_of_the_shared_object():
    def build():
        t = App("f", (App("g", (Var("X"), App("a"))), Var("Y")))
        return t, Literal(False, "p", (t, App("b")))

    (t1, l1), (t2, l2) = build(), build()
    assert t1 is t2 and l1 is l2
    assert t1 == t2 and hash(t1) == hash(t2)
    assert l1 == l2 and hash(l1) == hash(l2)
    assert l1 != l1.complement() and hash(l1) != hash(l1.complement())
    # a shared value hashes by identity, as its == compares, and its hash
    # holds while it lives
    for v in (x, t1, l1, l1.complement()):
        assert hash(v) == object.__hash__(v) == hash(v)
    assert Var.__hash__ is App.__hash__ is Literal.__hash__ is object.__hash__
    # formulas and clauses built apart over the shared values hash equal
    assert hash(Not(l1)) == hash(Not(build()[1]))
    assert hash(Clause((l1, lit("q")))) == hash(Clause((build()[1], lit("q"))))
    assert repr(x) == "Var(name='X')"
    assert repr(App("f", (x,))) == "App(functor='f', args=(Var(name='X'),))"
    assert repr(lit("p", a)) == "Literal(positive=True, predicate='p', args=(App(functor='a', args=()),))"
    # a copy of a literal, and the literal pickled and read back, is the
    # literal itself
    fresh = Literal(True, "q", (App("h", (y,)),))
    assert copy.copy(fresh) is fresh and pickle.loads(pickle.dumps(fresh)) is fresh
