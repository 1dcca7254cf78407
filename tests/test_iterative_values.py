"""The value protocol and the printers on explicit stacks: the formula
printer and the term, literal and clause __str__ agree with the recursive
printers they replace (`helpers.reference_*`); ==, hash, repr and str
work at the default recursion limit on values 5,000 deep, and so do
copies and deep copies, which are the value itself; and a pickled
value hashes in a process of another hash seed as a value made there
does, with its literals the ones made there; pickling a 5,000-deep value
does not recurse either."""

import copy
import pickle
import random
import subprocess
import sys
from pathlib import Path

from foltab.syntax import (
    And,
    App,
    Clause,
    Literal,
    Not,
    Or,
    Var,
    map_formula,
)
from foltab.tptp import format_formula, parse_formula
from helpers import (
    random_formula,
    random_literal,
    random_nnf,
    random_term,
    reference_clause_str,
    reference_format_formula,
    reference_literal_str,
    reference_term_str,
)

SRC = Path(__file__).resolve().parent.parent / "src"
DEPTH = 5_000


def with_equations(f):
    """f with each literal of two arguments made an equation."""
    return map_formula(f, lambda l: Literal(l.positive, "=", l.args) if len(l.args) == 2 else l)


def test_printers_agree_with_the_recursive_ones():
    rng = random.Random(2501)
    x, a = Var("X"), App("a")
    edge = [And(()), Or(()), And((Literal(True, "p"),)), Not(And(())), Not(Literal(True, "=", (x, a)))]
    for f in edge + [with_equations(random_formula(rng, depth=rng.randint(0, 6))) for _ in range(400)]:
        assert format_formula(f) == reference_format_formula(f)
    for _ in range(200):
        t = random_term(rng, ("X", "Y"), depth=rng.randint(0, 4))
        assert str(t) == reference_term_str(t)
        lits = [random_literal(rng, ("X", "Y")) for _ in range(rng.randint(0, 3))]
        lits += [Literal(rng.random() < 0.5, "=", (t, x))]
        for l in lits:
            assert str(l) == reference_literal_str(l)
        c = Clause(tuple(lits), rng.random() < 0.5)
        assert str(c) == reference_clause_str(c)
    for f in [random_nnf(rng, depth=3) for _ in range(50)]:
        assert format_formula(f) == reference_format_formula(f)


def test_value_protocol_on_5000_deep_values(default_recursion_limit):
    def term(leaf):
        t = leaf
        for _ in range(DEPTH):
            t = App("f", (t,))
        return t

    t1, t2, t3 = term(App("a")), term(App("a")), term(App("b"))
    assert t1 == t2 and t1 != t3
    assert hash(t1) == hash(t2) != hash(t3)
    # again, with the cached hashes read first
    assert t1 == t2 and t1 != t3
    assert str(t1) == "f(" * DEPTH + "a" + ")" * DEPTH
    assert repr(t1) == "App(functor='f', args=(" * DEPTH + "App(functor='a', args=())" + ",))" * DEPTH

    def negations(atom):
        f = Literal(True, "p", (t1, atom))
        for _ in range(DEPTH):
            f = Not(f)
        return f

    f1, f2, f3 = negations(App("c")), negations(App("c")), negations(App("d"))
    assert f1 == f2 and f1 != f3 and hash(f1) == hash(f2)
    assert format_formula(f1) == "~" * DEPTH + f"p({t1},c)"
    leaf = f"Literal(positive=True, predicate='p', args=({t1!r}, App(functor='c', args=())))"
    assert repr(f1) == "Not(body=" * DEPTH + leaf + ")" * DEPTH
    assert str(f1) == repr(f1)
    c = Clause((Literal(False, "p", (t1,)), Literal(True, "=", (t3, t1))))
    assert str(c) == f"~p({t1}) | {t3} = {t1}"
    # the parser reads deep formulas on its explicit stack, and the printer
    # writes what it reads
    text = "(" * DEPTH + "p | q" + ")" * DEPTH
    assert format_formula(parse_formula(text)) == "p | q"
    text = "~(" * DEPTH + "p & q" + ")" * DEPTH
    assert format_formula(parse_formula(text)) == "~" * DEPTH + "(p & q)"


LOAD_AND_HASH = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from foltab.tptp import parse_formula
loaded = pickle.loads(sys.stdin.buffer.read())
fresh = parse_formula(sys.argv[2])
print(loaded.body.parts[0] is fresh.body.parts[0], loaded == fresh, hash(loaded) == hash(fresh))
"""


def test_a_pickled_value_hashes_anew_under_another_hash_seed():
    text = "! [X] : (p(X, f(a)) & (q <=> ~r(X)))"
    f = parse_formula(text)
    hash(f)
    data = pickle.dumps(f)
    for seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", LOAD_AND_HASH, str(SRC), text],
            input=data,
            capture_output=True,
            check=True,
            env={"PYTHONHASHSEED": seed},
        ).stdout
        assert out.split() == [b"True", b"True", b"True"], seed


def test_deep_copies_of_5000_deep_values(default_recursion_limit):
    t = App("a")
    for _ in range(DEPTH):
        t = App("f", (t,))
    f = Literal(True, "p", (t,))
    for _ in range(DEPTH):
        f = Not(f)
    c = Clause((Literal(False, "p", (t,)),))
    # values are immutable: a copy, deep or not, is the value itself
    for v in (t, f, c):
        assert copy.copy(v) is v and copy.deepcopy(v) is v
    assert copy.deepcopy([t, f, c]) == [t, f, c]


def test_pickles_of_5000_deep_values(default_recursion_limit):
    t = App("a")
    for _ in range(DEPTH):
        t = App("f", (t,))
    l = Literal(False, "p", (t, App("f", (t,))))
    f = l
    for _ in range(DEPTH):
        f = Not(f)
    # a value pickles as the flat list of its distinct parts: a shared value
    # reads back as the live object, and a formula as an equal one
    assert pickle.loads(pickle.dumps(t)) is t
    assert pickle.loads(pickle.dumps(l)) is l
    g = pickle.loads(pickle.dumps(f))
    assert g is not f and g == f and hash(g) == hash(f)
    assert pickle.loads(pickle.dumps([f, t, l])) == [f, t, l]
