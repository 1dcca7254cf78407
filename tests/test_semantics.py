"""Model-theoretic cross-checks: the pipeline's own verification trusts its
clausifier and the lifting lemma, and `entails` reuses the prover, so these
tests recheck the central semantic claims against the independent
finite-model evaluator instead."""

import random

from foltab.interpolation import interpolate
from foltab.normalize import cnf, dnf
from foltab.syntax import free_vars
from foltab.tptp import parse_formula
from helpers import (
    eval_formula,
    gen_horn_instance,
    gen_urr_instance,
    pnf_formula,
    random_horn_like,
    random_model,
    random_prenex_nnf,
    random_formula,
    reference_signature_of,
)


def _holds_in(f, model, env):
    return eval_formula(f, model, env)


def _check_interpolant_semantically(f, g, h, rng, samples=40):
    sig = reference_signature_of([f, g, h])
    fv = sorted(free_vars(f) | free_vars(g) | free_vars(h))
    for _ in range(samples):
        model = random_model(rng, sig, 2)
        env = {v: rng.randrange(2) for v in fv}
        if _holds_in(f, model, env):
            assert _holds_in(h, model, env), "F holds but H fails"
        if _holds_in(h, model, env):
            assert _holds_in(g, model, env), "H holds but G fails"


def test_interpolants_semantically_between_inputs_on_corpus():
    rng = random.Random(113)
    for _ in range(40):
        f, g = gen_urr_instance(rng)
        h, _ = interpolate(f, g, require={"u-rr"})
        _check_interpolant_semantically(f, g, h, rng)
    for _ in range(40):
        f, g = gen_horn_instance(rng)
        h, _ = interpolate(f, g, require={"horn"})
        _check_interpolant_semantically(f, g, h, rng)


def test_golden_interpolants_semantically():
    rng = random.Random(127)
    f = parse_formula("(! [X] : p(X)) & (! [X] : (p(X) => q(X)))")
    g = parse_formula("(! [X] : (q(X) => r(X))) => r(a)")
    h, _ = interpolate(f, g)
    _check_interpolant_semantically(f, g, h, rng, samples=100)

    f2 = parse_formula("! [X] : ! [Y] : p(X, f(X), Y)")
    g2 = parse_formula("? [X] : p(a, X, g(X))")
    h2, _ = interpolate(f2, g2)
    _check_interpolant_semantically(f2, g2, h2, rng, samples=100)


def test_dual_is_semantic_negation():
    # dnf(F) is the dual of cnf(~F), so it agrees with ~~F
    rng = random.Random(131)
    for _ in range(150):
        f = random_prenex_nnf(rng)
        d = pnf_formula(dnf(f))
        sig = reference_signature_of([f])
        fv = sorted(free_vars(f))
        for _ in range(12):
            model = random_model(rng, sig, 2)
            env = {v: rng.randrange(2) for v in fv}
            assert eval_formula(d, model, env) == eval_formula(f, model, env)


def test_nnf_is_equivalent():
    rng = random.Random(137)
    for _ in range(150):
        f = random_formula(rng, depth=3)
        g = pnf_formula(cnf(f))
        sig = reference_signature_of([f])
        fv = sorted(free_vars(f))
        for _ in range(12):
            model = random_model(rng, sig, 2)
            env = {v: rng.randrange(2) for v in fv}
            assert eval_formula(g, model, env) == eval_formula(f, model, env)


def test_hornify_is_equivalent_conjunction_of_horn_clauses():
    from foltab.interpolation import hornify
    from foltab.restriction import is_horn, is_horn_like

    rng = random.Random(149)
    for _ in range(150):
        f = random_horn_like(rng)
        assert is_horn_like(f)
        g = hornify(f)
        assert is_horn(g)
        sig = reference_signature_of([f])
        fv = sorted(free_vars(f))
        for _ in range(10):
            model = random_model(rng, sig, 2)
            env = {v: rng.randrange(2) for v in fv}
            assert eval_formula(g, model, env) == eval_formula(f, model, env)


def test_negation_of_dual_composes():
    # dnf(F) is the dual of cnf(~F) and evaluates as ~cnf(~F), so the two
    # negations compose back to F
    rng = random.Random(139)
    for _ in range(60):
        f = random_prenex_nnf(rng)
        d = pnf_formula(dnf(f))
        sig = reference_signature_of([f])
        fv = sorted(free_vars(f))
        for _ in range(8):
            model = random_model(rng, sig, 2)
            env = {v: rng.randrange(2) for v in fv}
            assert eval_formula(d, model, env) == eval_formula(f, model, env)
