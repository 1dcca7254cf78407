import random

import pytest

import foltab.syntax
from foltab import tptp
from foltab.documents import format_tableau, parse_tableau
from foltab.proofs import parse_proof
from foltab.syntax import App, Clause, InputError, Literal, Var, occurrences
from foltab.tableaux import Node, Tableau, prove
from foltab.tptp import (
    ParseError,
    format_formula,
    parse_clause_file,
    parse_fof_file,
    parse_formula,
)
from helpers import (
    proof_family,
    random_formula,
    random_ground_clauses,
    reference_alpha_equal,
    reference_tableau_equal,
    tt_satisfiable,
)


def test_formula_round_trip_samples():
    cases = [
        "p(X)",
        "~p(a)",
        "p & q & r(a,b)",
        "p | q & r(a,b)",
        "(p | q) & s",
        "p => q => r(a,b)",
        "(p => q) => s",
        "p <=> q",
        "! [X] : ? [Y] : r(X,Y)",
        "! [X] : (p(X) => q(X))",
        "a = b",
        "f(a) != g(b,a)",
        "~(p & q)",
        "$true & ($false | p)",
    ]
    for text in cases:
        f = parse_formula(text)
        assert parse_formula(format_formula(f)) == f


def test_formula_round_trip_random():
    # parsing normalizes negated atoms into signed literals, so the
    # round-trip contract is identity on parsed (normalized) formulas
    rng = random.Random(67)
    for _ in range(300):
        f = random_formula(rng, depth=4)
        norm = parse_formula(format_formula(f))
        assert parse_formula(format_formula(norm)) == norm


def test_parse_error_location():
    with pytest.raises(ParseError) as e:
        parse_formula("p &\n& q")
    assert e.value.line == 2


def test_fof_file_parsing():
    text = """% a comment
fof(ax1, axiom, ! [X] : (p(X) => q(X))).
fof(goal, conjecture, q(a)).
"""
    records = parse_fof_file(text)
    assert [r.role for r in records] == ["axiom", "conjecture"]
    assert records[0].name == "ax1"


def test_fof_arity_clash_rejected():
    with pytest.raises(Exception):
        parse_fof_file("fof(a1, axiom, p(a)).\nfof(a2, axiom, p(a,b)).\n")


def test_clause_file():
    text = """# clauses
p(X) | ~q(f(X))
r
false
"""
    clauses = parse_clause_file(text)
    assert len(clauses) == 3
    assert clauses[0] == Clause(
        (
            Literal(True, "p", (Var("X"),)),
            Literal(False, "q", (App("f", (Var("X"),)),)),
        )
    )
    assert clauses[2] == Clause(())
    for c in clauses[:2]:
        assert parse_clause_file(str(c))[0] == c


def test_equal_terms_of_one_document_are_one_object():
    c1, c2 = parse_clause_file("p(f(a), X) | q(X)\n~p(f(a), g(X, f(a)))\n")
    fa, x = c1.literals[0].args
    assert c2.literals[0].args[0] is fa and c2.literals[0].args[1].args == (x, fa)
    assert c2.literals[0].args[1].args[1] is fa and c1.literals[1].args[0] is x
    # terms are shared values: another file reads the same object while
    # the first one is held
    (other,) = parse_clause_file("r(f(a))\n")
    assert other.literals[0].args[0] is fa

    records = parse_fof_file(
        "fof(a1, axiom, ! [X] : (p(f(a)) => q(X, f(a)))).\n"
        "fof(c, conjecture, ? [X] : (q(X, f(a)) & f(a) = a & a != X)).\n"
    )
    terms = [t for r in records for g, _, _ in occurrences(r.formula) if g.__class__ is Literal for t in g.args]
    assert len(terms) == 9 and all(terms[k] is terms[0] for k in (2, 4, 5))
    assert terms[1] is terms[3] is terms[8] and terms[6] is terms[7] is terms[0].args[0]

    doc = parse_proof(
        "s1 input p(f(a))\n"
        "s2 input ~p(X) | q(g(X))\n"
        "r1 resolve(s1, s2, p(f(a))) {X -> f(a)} q(g(f(a)))\n"
    )
    s1, s2, r1 = doc.records
    fa = s1.clause.literals[0].args[0]
    assert r1.atom.args[0] is fa and r1.bindings["X"] is fa
    assert r1.clause.literals[0].args[0].args[0] is fa
    assert s2.clause.literals[0].args[0] is s2.clause.literals[1].args[0].args[0]

    # a tableau document shares its terms as well
    tab = parse_tableau("tableau\n  p(f(a))\n    ~p(f(a)) -> 1\n  ~q(f(a))\n    q(f(a)) -> 1\n")
    n1, n2, n3, n4 = tab.non_root_nodes()
    assert n1.literal.args[0] is n2.literal.args[0] is n3.literal.args[0] is n4.literal.args[0]

    # equal literals of a clause file are one object too, repeated across
    # lines or within one, and a negated literal is the complement object
    # of the positive one
    c1, c2, c3 = parse_clause_file("p(f(a), X) | ~q(X)\nq(X) | p(f(a), X)\n~p(f(a), X) | ~q(X) | r\n")
    p_fa, not_q = c1.literals
    q, p_again = c2.literals
    assert p_again is p_fa and q is not_q.complement()
    assert c3.literals[0] is p_fa.complement() and c3.literals[1] is not_q
    # and so are literals, across files
    (other,) = parse_clause_file("p(f(a), X) | ~q(X)\n")
    assert other.literals == c1.literals
    assert all(a is b for a, b in zip(other.literals, c1.literals))

    # a proof document: input clauses and resolvents
    doc = parse_proof(
        "s1 input p(a) | q(a)\n"
        "s2 input ~p(a) | q(a)\n"
        "r1 resolve(s1, s2, p(a)) q(a)\n"
    )
    s1, s2, r1 = doc.records
    assert s2.clause.literals[0] is s1.clause.literals[0].complement()
    assert r1.clause.literals[0] is s1.clause.literals[1] is s2.clause.literals[1]
    (d1,) = parse_proof("s1 input p(a) | q(a)\n").records
    assert d1.clause.literals[0] is s1.clause.literals[0]

    # a tableau document: the lines' literals, complements included
    text = "tableau\n  p(f(a))\n    ~p(f(a)) -> 1\n  ~p(f(a))\n    p(f(a)) -> 1\n"
    n1, n2, n3, n4 = parse_tableau(text).non_root_nodes()
    assert n1.literal is n4.literal and n2.literal is n3.literal is n1.literal.complement()
    m1 = next(parse_tableau(text).non_root_nodes())
    assert m1.literal is n1.literal


def test_tableau_document_round_trip():
    doc = """tableau
  ~q(a) [G]
    ~p(a) [F]
      p(a) [F] -> 2
    q(a) [F] -> 1
"""
    tab = parse_tableau(doc)
    assert format_tableau(tab) == doc
    again = parse_tableau(format_tableau(tab))
    assert reference_tableau_equal(tab, again)


def test_tableau_document_round_trip_from_prover():
    rng = random.Random(71)
    done = 0
    for _ in range(60):
        clauses = random_ground_clauses(rng, max_atoms=4, max_clauses=6)
        if tt_satisfiable(clauses):
            continue
        res = prove(clauses, max_depth=10)
        assert res.proved
        text = format_tableau(res.tableau)
        assert reference_tableau_equal(parse_tableau(text), res.tableau)
        assert format_tableau(parse_tableau(text)) == text
        done += 1
    assert done >= 10


def test_tableau_document_rejects_bad_nesting():
    with pytest.raises(ParseError):
        parse_tableau("tableau\n      p\n")


def test_tableau_document_rejects_noncomplementary_target():
    with pytest.raises(ParseError):
        parse_tableau("tableau\n  p\n    q -> 1\n")


def test_tableau_document_checks_arities_as_a_clause_file_does():
    with pytest.raises(InputError) as clause_file:
        parse_clause_file("p(a,b)\n~p(a,b) | p(a)\n")
    with pytest.raises(InputError) as e:
        parse_tableau("tableau\n  p(a,b)\n    ~p(a,b) -> 1\n    p(a)\n      ~p(a) -> 2\n")
    assert str(e.value) == "arity clash for predicate p: 2 vs 1 at line 4"
    assert str(clause_file.value) == "arity clash for predicate p: 2 vs 1 at line 2"
    with pytest.raises(InputError, match=r"^symbol used as both function and predicate: p at line 3$"):
        parse_tableau("tableau\n  q(p)\n    p\n")
    with pytest.raises(InputError, match=r"^arity clash for function f: 1 vs 2 at line 4$"):
        parse_tableau("tableau\n  q(f(a))\n% note\n    r(f(a), f(a, b))\n")


def test_each_shared_term_is_checked_once(monkeypatch):
    # the parser makes f(g(a)) once, so its three symbols are checked once;
    # a new term around it is still checked in full
    checked = []
    add_function = foltab.syntax.Signature.add_function
    monkeypatch.setattr(
        foltab.syntax.Signature,
        "add_function",
        lambda sig, name, arity: checked.append(name) or add_function(sig, name, arity),
    )
    parse_clause_file("p(f(g(a))) | q(f(g(a)))\nr(f(g(a)))\n")
    assert checked == ["f", "g", "a"]
    checked.clear()
    with pytest.raises(InputError, match=r"^arity clash for function g: 1 vs 2 at line 2$"):
        parse_clause_file("p(f(g(a)))\nq(h(f(g(a)), g(a, a)))\n")
    assert checked == ["f", "g", "a", "h", "g"]


def test_proof_import_makes_values_in_proportion_to_distinct_content(monkeypatch):
    # a `fol_chain` record writes f^i(a) in its resolved atom, its binding
    # and its clause: read through the literal and term tables, the parser
    # makes a bounded number of values per record, where reading every
    # token made f^i(a) anew three times
    calls = [0]

    def counted(make):
        def wrapper(*args):
            calls[0] += 1
            return make(*args)

        return wrapper

    for name in ("App", "Var", "Literal"):
        monkeypatch.setattr(tptp, name, counted(getattr(tptp, name)))
    counts = []
    for k in (20, 40, 80, 160):
        calls[0] = 0
        parse_proof(proof_family("fol_chain", k))
        counts.append(calls[0])
    assert all(b <= 2.1 * a for a, b in zip(counts, counts[1:])), counts
    assert counts[-1] <= 10 * 160, counts


class _KeyCounter(dict):
    """A parser table that adds up the lengths of the keys looked up."""

    total = 0

    def get(self, key, default=None):
        _KeyCounter.total += len(key)
        return super().get(key, default)


class _CountingParser(tptp._Parser):
    def __init__(self, text: str = ""):
        super().__init__(text)
        self.literal_table = _KeyCounter()
        self.term_table = _KeyCounter()


def test_span_keys_grow_with_the_tokens_not_with_the_depth(monkeypatch, default_recursion_limit):
    # the parser looks spans up at the top levels of a term only: the keys
    # it builds for a 5,000-deep term add up to a few times its tokens,
    # where a key per level would add up to their square
    deep = "f(" * 5000 + "a" + ")" * 5000
    text = f"p({deep}) | q({deep})"
    monkeypatch.setattr(tptp, "_Parser", _CountingParser)
    tokens = len(tptp._tokenize(text))
    for parse, show in ((parse_clause_file, lambda cs: str(cs[0])), (parse_formula, format_formula)):
        _KeyCounter.total = 0
        assert show(parse(text)) == text
        assert 0 < _KeyCounter.total <= 4 * tokens, (parse.__name__, _KeyCounter.total, tokens)


def test_tableau_document_requires_header():
    with pytest.raises(ParseError):
        parse_tableau("  p\n")


def test_alpha_equal():
    f = parse_formula("! [X] : q(X)")
    g = parse_formula("! [V1] : q(V1)")
    assert reference_alpha_equal(f, g)
    assert not reference_alpha_equal(f, parse_formula("? [X] : q(X)"))
