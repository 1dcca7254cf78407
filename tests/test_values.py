"""The value classes are plain classes whose methods are written out: they
agree with the dataclasses they were (the twins in `helpers`) on repr,
equality, copies and frozen fields, and importing foltab loads no
`dataclasses`.  A hash agrees with == and holds for the object's
lifetime.  Var, App and Literal are shared: one object per value while it
is held, hashed by identity, made anew by nothing (documents, proofs,
grounding, copies, unpickling), and gone from the table once nothing
holds it."""

import copy
import dataclasses
import gc
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import foltab.syntax
from foltab.documents import format_tableau, parse_tableau
from foltab.interpolation import interpolate
from foltab.syntax import (
    BOTTOM,
    TOP,
    And,
    App,
    Clause,
    Exists,
    ForAll,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    Var,
)
from foltab.syntax import FreshNamer
from foltab.tableaux import ground_tableau, prove
from foltab.tptp import parse_clause_file, parse_formula
from helpers import (
    below,
    random_formula,
    random_literal,
    random_nnf,
    random_term,
    to_twin,
)

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import foltab, foltab.cli
classes = [
    f"{name}.{cls.__name__}"
    for name, module in sorted(sys.modules.items())
    if name == "foltab" or name.startswith("foltab.")
    for cls in vars(module).values()
    if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")
]
print("dataclasses" in sys.modules, classes)
"""


def test_importing_foltab_and_its_cli_loads_no_dataclasses():
    # -S: no site packages, so that nothing but foltab can import dataclasses
    out = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_CHECK, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    assert out.split() == ["False", "[]"]


def pool(seed: int) -> list:
    """Terms, literals, clauses and formulas of every class, the same for
    the same seed and built anew on each call."""
    rng = random.Random(seed)
    x, a = Var("X"), App("a")
    out = [
        x,
        a,
        App("f", (x, a)),
        Var("a"),
        Literal(True, "p"),
        Literal(False, "p", (a,)),
        Literal(True, "=", (x, a)),
        TOP,
        BOTTOM,
        And(()),
        Or(()),
        Clause(()),
        Clause((), True),
        Not(Literal(True, "p")),
        Implies(TOP, Literal(True, "p")),
        Iff(Literal(True, "p"), BOTTOM),
        ForAll("X", Literal(True, "p", (x,))),
        Exists("X", Literal(True, "p", (x,))),
    ]
    for _ in range(12):
        out.append(random_term(rng, ("X", "Y"), depth=rng.randint(0, 3)))
        lit = random_literal(rng, ("X", "Y"))
        out.append(lit)
        out.append(lit.complement())
        out.append(Clause((lit, random_literal(rng, ("X",))), rng.random() < 0.5))
        out.append(random_formula(rng, depth=rng.randint(1, 4)))
        out.append(random_nnf(rng, depth=rng.randint(1, 3)))
    return out


def test_repr_and_hash_are_those_of_the_generated_methods():
    # repr is that of the dataclass twin; a hash agrees with == (the
    # generated one, checked below) and holds for the object's lifetime:
    # a shared value hashes by identity, and a formula or clause hashes
    # equal to one built apart
    left, right = pool(2401), pool(2401)
    for v, w in zip(left, right):
        twin = to_twin(v)
        assert repr(v) == repr(twin)
        assert v == w and hash(v) == hash(w) == hash(v)
        if v.__class__ in (Var, App, Literal):
            assert hash(v) == object.__hash__(v)


def test_equality_is_that_of_the_generated_methods_across_classes():
    left, right = pool(2402), pool(2402)
    twins_left, twins_right = list(map(to_twin, left)), list(map(to_twin, right))
    for v, tv in zip(left, twins_left):
        for w, tw in zip(right, twins_right):
            assert (v == w) == (tv == tw)
            assert (v != w) == (tv != tw)
    # the pools were built apart: Var, App and Literal are one object, and
    # formulas and clauses are equal distinct objects (but TOP, BOTTOM)
    assert all(v == w for v, w in zip(left, right))
    for v, w in zip(left, right):
        assert (v is w) == (v.__class__ in (Var, App, Literal) or v is TOP or v is BOTTOM)


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_values(round_trip):
    for v in pool(2403):
        twin = to_twin(v)
        w = round_trip(v)
        assert w.__class__ is v.__class__ and w == v
        assert repr(w) == repr(twin) and hash(w) == hash(v)
        if v.__class__ in (Var, App, Literal):
            # the live object, with its hash
            assert w is v
        assert getattr(w, "_ground", None) == getattr(v, "_ground", None)


def test_fields_cannot_be_assigned_or_deleted():
    for v in pool(2404):
        twin = to_twin(v)
        for name in [f.name for f in dataclasses.fields(twin)]:
            for obj in (v, twin):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        # nor any other attribute (where a slotted twin's generated
        # __setattr__ raises TypeError on Python 3.11)
        with pytest.raises(AttributeError):
            v.extra = None
        assert repr(v) == repr(twin)


def test_proofs_and_grounding_give_the_shared_values():
    # the literals of a proof and of its grounding are the objects that
    # reading the printed tableau gives, node by node
    clauses = parse_clause_file("p(X) | q(f(X))\n~p(a)\n~q(Y)\n")
    tab = prove(clauses).tableau
    for ground in (False, True):
        if ground:
            ground_tableau(tab, FreshNamer())
        again = parse_tableau(format_tableau(tab))
        pairs = list(zip(below(tab), below(again)))
        assert pairs and all(m.literal is n.literal for m, n in pairs)


def test_a_value_nothing_holds_leaves_the_table():
    gc.collect()
    before = len(foltab.syntax._table)
    l = Literal(True, "held_here", (App("h", (Var("Held"),)),))
    # a complement pair is a reference cycle, which only the collector frees
    l.complement()
    assert len(foltab.syntax._table) == before + 4
    assert Literal(True, "held_here", (App("h", (Var("Held"),)),)) is l
    del l
    gc.collect()
    assert len(foltab.syntax._table) == before and "Held" not in foltab.syntax._table


PICKLE_THERE = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from foltab.tptp import parse_formula
l = parse_formula("~p(f(X, a))")
sys.stdout.buffer.write(pickle.dumps((l, l.args[0])))
"""


def test_an_unpickled_value_is_the_shared_one_with_its_hash():
    t = App("f", (Var("X"), App("a")))
    l = Literal(False, "p", (t,))
    assert pickle.loads(pickle.dumps(l)) is l
    # pickled where the hash seed differs, read back here: a pickle holds
    # no hash, so both seeds write the same bytes, and they read back as
    # the live objects, with their hashes
    pickles = set()
    for seed in ("0", "1"):
        data = subprocess.run(
            [sys.executable, "-c", PICKLE_THERE, str(SRC)],
            capture_output=True,
            check=True,
            env={"PYTHONHASHSEED": seed},
        ).stdout
        got_l, got_t = pickle.loads(data)
        assert got_l is l and got_t is t
        assert hash(got_l) == hash(l) == object.__hash__(l)
        pickles.add(data)
    assert len(pickles) == 1


def test_the_table_does_not_grow_over_repeated_interpolate_runs():
    f = parse_formula("(! [X] : (p(X) => q(f(X)))) & p(a) & (! [Y] : ? [Z] : r(Y, Z))")
    g = parse_formula("(? [Y] : q(Y)) | s(b)")
    sizes = []
    for _ in range(3):
        h, report = interpolate(f, g, require=("u-rr",), verify=True)
        assert report.verification.passed and h.var in foltab.syntax._table
        name = h.var
        del h, report
        gc.collect()
        sizes.append(len(foltab.syntax._table))
        # the interpolant's variable left with the interpolant
        assert name not in foltab.syntax._table
    assert sizes[0] == sizes[1] == sizes[2]


def test_threads_making_one_value_get_one_object():
    # four threads make the same new literals at once, switching threads
    # as often as the interpreter allows: each value is made once
    results = [[] for _ in range(4)]

    def make(out):
        for i in range(3000):
            out.append(Literal(True, "race", (App(f"c{i}", (App("d"),)),)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 3000 for out in results)
    for made in zip(*results):
        assert all(v is made[0] for v in made)
