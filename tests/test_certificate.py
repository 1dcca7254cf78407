"""The certificate check of `interpolate --verify`: it passes on the
pipeline's own runs, catches each mutant of a real certificate without
proof search or clausification, and its propositional core agrees with
truth tables."""

import itertools
import random
import pytest

import foltab.interpolation as interpolation
from foltab.certificate import Certificate, _Letters, _satisfiable, check_certificate
from foltab.interpolation import (
    InterpolationReport,
    LiftResult,
    hornify,
    interpolate,
    synthesize_definition,
    verify_interpolant,
)
from foltab.normalize import unfreeze, wrap_prefix
from foltab.restriction import is_horn_like
from foltab.syntax import And, BOTTOM, Literal, TOP, map_formula, mk_and
from foltab.tptp import parse_formula
from helpers import gen_vx_instance, random_ground_clauses, random_nnf, tt_satisfiable

# (F, G, required properties) of the runs whose certificates are mutated
RUNS = {
    # H_grd ~p(sk1) | q(sk1) & r(sk1), with sk1 from ~G lifted under !, and
    # hornified into two clauses
    "skolem-of-g": (
        "(! [X] : (p(X) => q(X))) & (! [X] : (p(X) => r(X)))",
        "! [X] : (p(X) => (q(X) & r(X)))",
        {"horn"},
    ),
    # H_grd p(sk1), with sk1 from F lifted under ?
    "skolem-of-f": ("? [X] : (p(X) & q(X))", "? [X] : p(X)", ()),
    # H_grd q(a) & s
    "conjunction": ("(! [X] : (p(X) => q(X))) & p(a) & s", "q(a) & s", ()),
    # H_grd p(sk1, f(sk1)): sk1 from ~G under !, then f(sk1) under ?
    "nested": ("! [X] : p(X, f(X))", "! [X] : ? [Y] : p(X, Y)", ()),
    # H_grd p(g1), with g1 the constant that grounds the proof's variable
    "grounded": ("! [X] : p(X)", "? [X] : p(X)", ()),
    "f-unsatisfiable": ("$false", "q", ()),
    "g-valid": ("q", "$true", ()),
}
TABLEAU_RUNS = ("skolem-of-g", "skolem-of-f", "conjunction", "nested", "grounded")


@pytest.fixture(scope="module")
def certified():
    """F, G, h and the certificate of each run, which passes its own check."""
    out = {}
    for name, (f, g, require) in RUNS.items():
        h, report = interpolate(parse_formula(f), parse_formula(g), require=require, verify=True)
        assert report.verification.passed
        out[name] = (f, g, h, report.certificate)
    return out


@pytest.fixture
def runs(certified, monkeypatch):
    """The certified runs, with proof search and clausification raising
    where the pipeline's module calls them."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the certificate check must not search or clausify")

    monkeypatch.setattr(interpolation, "prove", forbidden)
    monkeypatch.setattr(interpolation, "skolemize_clausify", forbidden)
    return certified


def replace(cert, **changes):
    """A copy of `cert` with `changes`, made through the constructor from
    the fields the certificate holds."""
    return Certificate(**{**vars(cert), **changes})


def verdicts(cert, h, f=None, g=None):
    """check_certificate's verdicts, which verify_interpolant reports when
    given f and g."""
    got = check_certificate(cert, h)
    if f is not None:
        rep = verify_interpolant(parse_formula(f), parse_formula(g), h, certificate=cert)
        assert (rep.f_entails_h, rep.h_entails_g) == got
    return got


def relifted(cert, mutate):
    """The certificate with `mutate` applied to H_grd and, in the same
    place, to the lifted matrix, with the final matrix and h made from
    them as `interpolate` makes them: only the ground check can tell."""
    lifted = cert.lifted
    matrix = mutate(lifted.matrix)
    hornified = cert.matrix is not lifted.matrix and is_horn_like(matrix)
    final = hornify(matrix) if hornified else matrix
    out = replace(
        cert,
        ground_interpolant=mutate(cert.ground_interpolant),
        lifted=LiftResult(lifted.prefix, matrix, lifted.terms),
        matrix=final,
    )
    return out, unfreeze(wrap_prefix(lifted.prefix, final), cert.placeholders)


def flip_literal(n):
    def mutate(f):
        count = itertools.count()
        return map_formula(f, lambda l: l.complement() if next(count) == n else l)

    return mutate


def drop_part(n):
    def mutate(f):
        assert f.__class__ is And
        return mk_and(p for i, p in enumerate(f.parts) if i != n)

    return mutate


def test_certificates_of_real_runs_pass(runs):
    for f, g, h, cert in runs.values():
        assert verdicts(cert, h, f, g) == ("pass", "pass")


def test_wrongly_closed_leaf_fails(runs):
    for name in ("skolem-of-g", "conjunction"):
        f, g, h, cert = runs[name]
        tab = cert.tableau.copy()
        # an inner node is never closed in a leaf-closing tableau; as a
        # leaf it closes against no ancestor
        inner = next(n for n in tab.non_root_nodes() if n.children)
        inner.children = []
        assert verdicts(replace(cert, tableau=tab), h, f, g) == ("fail", "fail")


def test_clause_relabeled_to_the_other_side_fails(runs):
    for name in TABLEAU_RUNS:
        f, g, h, cert = runs[name]
        for k in range(cert.tableau.inner_size()):
            # the whole clause, and its last literal alone
            for relabeled in (slice(None), slice(-1, None)):
                tab = cert.tableau.copy()
                n = [n for n in tab.nodes() if n.children][k]
                if relabeled.start == -1 and len(n.children) == 1:
                    continue
                for c in n.children[relabeled]:
                    c.side = "G" if c.side == "F" else "F"
                assert verdicts(replace(cert, tableau=tab), h, f, g) == ("fail", "fail")


def test_non_ground_tableau_fails(runs):
    f, g, h, cert = runs["grounded"]
    # the proof's variable left in, everywhere: F |= p(Z) |= G still holds
    # with Z free, but the tableau is not ground
    z = parse_formula("p(Z)")
    tab = cert.tableau.copy()
    (top,) = tab.root.children
    (leaf,) = top.children
    top.literal, leaf.literal = z, z.complement()
    mutant = replace(
        cert, tableau=tab, ground_interpolant=z, lifted=LiftResult((), z, ()), matrix=z
    )
    assert verdicts(mutant, z, f, g) == ("fail", "fail")


def test_flipped_literal_in_the_ground_interpolant_fails(runs):
    for name in TABLEAU_RUNS:
        f, g, h, cert = runs[name]
        for n in range(len(literals_of(cert.ground_interpolant))):
            mutate = flip_literal(n)
            # H_grd alone: the lifting no longer gives it back
            alone = replace(cert, ground_interpolant=mutate(cert.ground_interpolant))
            assert verdicts(alone, h, f, g) == ("fail", "fail")
            # H_grd and all that is made from it: the ground check fails
            mutant, h2 = relifted(cert, mutate)
            assert "fail" in verdicts(mutant, h2, f, g), (name, n)


def test_dropped_conjunct_of_the_ground_interpolant_fails(runs):
    f, g, h, cert = runs["conjunction"]
    for n in range(len(cert.ground_interpolant.parts)):
        mutate = drop_part(n)
        alone = replace(cert, ground_interpolant=mutate(cert.ground_interpolant))
        assert verdicts(alone, h, f, g) == ("fail", "fail")
        mutant, h2 = relifted(cert, mutate)
        # F still entails the weaker H_grd, which no longer entails G
        assert verdicts(mutant, h2, f, g) == ("pass", "fail")


def test_lifted_term_under_the_wrong_quantifier_fails(runs):
    # a Skolem term of ~G under ? breaks h |= G, one of F under ! breaks F |= h
    for name, broken in (("skolem-of-g", 1), ("skolem-of-f", 0)):
        f, g, h, cert = runs[name]
        lifted = cert.lifted
        flipped = tuple(("exists" if q == "forall" else "forall", v) for q, v in lifted.prefix)
        mutant = replace(cert, lifted=LiftResult(flipped, lifted.matrix, lifted.terms))
        h2 = unfreeze(wrap_prefix(flipped, cert.matrix), cert.placeholders)
        got = verdicts(mutant, h2, f, g)
        assert got[broken] == "fail" and got[1 - broken] == "pass"
        # the prefix changed alone: h is not the final matrix under it
        assert verdicts(mutant, h, f, g) == ("fail", "fail")


def test_clause_dropped_from_the_hornified_matrix_fails(runs):
    f, g, h, cert = runs["skolem-of-g"]
    assert cert.matrix is not cert.lifted.matrix and len(cert.matrix.parts) == 2
    for n in range(2):
        final = drop_part(n)(cert.matrix)
        h2 = unfreeze(wrap_prefix(cert.lifted.prefix, final), cert.placeholders)
        # the final matrix is weaker than the lifted one
        assert verdicts(replace(cert, matrix=final), h2, f, g) == ("pass", "fail")
        assert verdicts(replace(cert, matrix=final), h, f, g) == ("fail", "fail")


def test_lifted_superterm_quantified_before_its_subterm_fails(runs):
    f, g, h, cert = runs["nested"]
    lifted = cert.lifted
    assert [q for q, _ in lifted.prefix] == ["forall", "exists"]
    # ? [V2] : ! [V1] : p(V1, V2), stronger than what F entails
    swapped = LiftResult(lifted.prefix[::-1], lifted.matrix, lifted.terms[::-1])
    h2 = unfreeze(wrap_prefix(swapped.prefix, cert.matrix), cert.placeholders)
    assert verdicts(replace(cert, lifted=swapped), h2, f, g) == ("fail", "fail")


def test_shortcut_certificates(runs):
    for name, h in (("f-unsatisfiable", BOTTOM), ("g-valid", TOP)):
        f, g, got, cert = runs[name]
        assert got == h and cert.shortcut == name and cert.tableau is None
        # the other constant, and the run without its empty clause, fail
        assert verdicts(cert, TOP if h is BOTTOM else BOTTOM, f, g) == ("fail", "fail")
        emptied = replace(
            cert,
            f_clauses=tuple(c for c in cert.f_clauses if c.literals),
            g_clauses=tuple(c for c in cert.g_clauses if c.literals),
        )
        assert verdicts(emptied, h, f, g) == ("fail", "fail")


@pytest.mark.parametrize("name", RUNS)
def test_interpolate_proves_once_and_verifies_without_proving(monkeypatch, name):
    f, g, require = RUNS[name]
    calls = []
    real = interpolation.prove

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(interpolation, "prove", counted)
    _, report = interpolate(parse_formula(f), parse_formula(g), require=require, verify=True)
    assert report.verification.passed
    assert len(calls) == (0 if report.certificate.shortcut else 1)


# --- the record of every run -------------------------------------------------


@pytest.mark.parametrize("name", RUNS)
def test_every_run_keeps_a_certificate_that_passes(name):
    # without verify the run still keeps its certificate, and nothing checks it
    f, g, require = RUNS[name]
    h, report = interpolate(parse_formula(f), parse_formula(g), require=require)
    assert report.verification is None
    assert check_certificate(report.certificate, h) == ("pass", "pass")


def test_definition_runs_keep_a_certificate_that_passes():
    rng = random.Random(2301)
    for _ in range(10):
        kb, query, targets = gen_vx_instance(rng)
        h, report = synthesize_definition(kb, query, targets, require={"vgt-rr"})
        assert report.verification is None and report.certificate.tableau is not None
        assert check_certificate(report.certificate, h) == ("pass", "pass")


def test_the_report_holds_no_copy_of_the_certificate(certified):
    names = set(vars(InterpolationReport()))
    for _, _, _, cert in certified.values():
        assert not names & set(vars(cert))
    assert "certificate" in names


# --- the propositional core --------------------------------------------------


def test_dpll_agrees_with_truth_tables():
    rng = random.Random(1801)
    for _ in range(1500):
        clauses = random_ground_clauses(rng, max_atoms=7, max_clauses=14)
        letters = _Letters()
        assert _satisfiable(letters.clauses([c.literals for c in clauses])) == tt_satisfiable(clauses)
    assert not _satisfiable([()]) and _satisfiable([])


def models(f):
    """Whether f and ~f have a model, by truth table over f's atoms."""
    atoms = list(dict.fromkeys(l.atom() for l in literals_of(f)))
    found = set()
    for bits in itertools.product((False, True), repeat=len(atoms)):
        value = dict(zip(atoms, bits))
        found.add(evaluate(f, value))
    return True in found, False in found


def literals_of(f):
    """The literal occurrences of f, in the order map_formula reads them."""
    out = []
    map_formula(f, lambda l: out.append(l) or l)
    return out


def evaluate(f, value):
    if f.__class__ is Literal:
        return value[f.atom()] == f.positive
    if f is TOP or f is BOTTOM:
        return f is TOP
    results = [evaluate(p, value) for p in f.parts]
    return all(results) if f.__class__ is And else any(results)


def test_tseitin_clauses_are_satisfiable_with_the_formula():
    rng = random.Random(1802)
    checked = 0
    for _ in range(1500):
        f = random_nnf(rng, rng.randint(0, 3), ground=True)
        if len({l.atom() for l in literals_of(f)}) > 9:
            continue
        letters = _Letters()
        assert (_satisfiable(letters.tseitin(f, True)), _satisfiable(letters.tseitin(f, False))) == models(f), f
        checked += 1
    assert checked > 1000
