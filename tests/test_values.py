"""The value classes are plain classes whose methods are written out: they
agree with the dataclasses they were (the twins in `helpers`) on repr,
equality, hash, copies and frozen fields, and importing foltab loads no
`dataclasses`."""

import copy
import dataclasses
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

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
from helpers import (
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
    for v in pool(2401):
        twin = to_twin(v)
        assert repr(v) == repr(twin)
        assert hash(v) == hash(twin) == hash(v)


def test_equality_is_that_of_the_generated_methods_across_classes():
    left, right = pool(2402), pool(2402)
    twins_left, twins_right = list(map(to_twin, left)), list(map(to_twin, right))
    for v, tv in zip(left, twins_left):
        for w, tw in zip(right, twins_right):
            assert (v == w) == (tv == tw)
            assert (v != w) == (tv != tw)
    # the pools were built apart: equal values that are distinct objects
    assert all(v == w for v, w in zip(left, right))
    assert sum(v is not w for v, w in zip(left, right)) == len(left) - 2  # all but TOP, BOTTOM


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
        assert repr(w) == repr(twin) and hash(w) == hash(twin)
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
