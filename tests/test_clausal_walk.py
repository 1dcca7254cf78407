"""The one clausal walk of `cnf`, and the fragment deciders, truth-value
simplification, maximal-term scan and lifting on explicit stacks, against
the recursive passes they replace (`reference_*` in helpers) on random
formulas, with a clause limit low enough that distribution errors are
compared too; formulas nested deeper than the default recursion limit;
duplicate removal in truth-value simplification; and a look at the source
that no function of these modules, the term kernel, the prover, proof
import, hyper conversion or tableau documents calls itself, that every
function in src has a caller in the program or is documented library
API, and so has every parameter with a default a call that passes it,
and that every test helper has a caller in the tests."""

import ast
import copy
import functools
import inspect
import random
import re
import time
from operator import is_
from pathlib import Path

import pytest

import foltab.certificate
import foltab.documents
import foltab.hyperconv
import foltab.interpolation
import foltab.normalize
import foltab.proofs
import foltab.restriction
import foltab.syntax
import foltab.tableaux
import foltab.tptp
from foltab.interpolation import (
    InterpolationContext,
    hornify,
    lift_parts,
    simp_and,
    simp_or,
    truth_simplify,
)
from foltab.normalize import ClauseLimitError, cnf, dnf, freeze_free_vars, skolemize_clausify
from foltab.restriction import is_horn, is_horn_like, is_u_range_restricted
from foltab.syntax import (
    BOTTOM,
    TOP,
    And,
    Bottom,
    App,
    Clause,
    Exists,
    ForAll,
    FreshNamer,
    Iff,
    Implies,
    InputError,
    Literal,
    Not,
    Or,
    Top,
    Var,
    free_vars,
    mk_and,
    mk_or,
    read_symbols,
    smax_by,
)
from foltab.tptp import parse_formula
from helpers import (
    namer_for,
    random_formula,
    random_horn_like,
    random_nnf,
    random_sentence,
    reference_cnf,
    reference_dnf,
    reference_formula_subst,
    reference_hornify,
    reference_is_horn,
    reference_is_horn_like,
    reference_lift_parts,
    reference_skolemize_clausify,
    reference_smax_by,
    reference_truth_simplify,
)

LIMIT = 40


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ClauseLimitError, InputError) as e:
        return type(e).__name__, str(e)


def self_calls(source):
    """Names of the functions in `source`, nested ones included, that call
    themselves by name.  A method is called through its object, so a bare
    call of its name in its body calls the module function of that name."""
    tree = ast.parse(source)
    methods = {
        id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body
    }
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and id(fn) not in methods
        and any(
            isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == fn.name
            for c in ast.walk(fn)
        )
    ]


def test_no_function_recurses():
    modules = (
        foltab.syntax,
        foltab.normalize,
        foltab.restriction,
        foltab.interpolation,
        foltab.certificate,
        foltab.tableaux,
        foltab.hyperconv,
        foltab.proofs,
        foltab.documents,
        foltab.tptp,
    )
    for module in modules:
        assert self_calls(inspect.getsource(module)) == [], module.__name__
    # the check sees a recursive helper, and not a method calling the
    # function it is named after
    assert self_calls("def f():\n    def g(n):\n        return g(n - 1)\n") == ["g"]
    assert self_calls("class T:\n    def f(self):\n        return f(self)\n") == []


REPO = Path(__file__).resolve().parent.parent


@functools.cache
def referenced_names(source):
    """The names `source` refers to: variables, attributes and imported
    names.  A reference inside a definition to that definition's own name
    does not count."""
    names = set()
    todo = [(ast.parse(source), frozenset())]
    while todo:
        node, own = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            name = None
        if name is not None and name not in own:
            names.add(name)
        todo.extend((c, own) for c in ast.iter_child_nodes(node))
    return names


# the types of the objects that literals and displays make
BUILTIN_TYPES = frozenset({"bytes", "dict", "float", "frozenset", "int", "list", "set", "str", "tuple"})
_DISPLAYS = (
    ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Set, ast.Dict,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def class_of(expr, bound, classes):
    """The class of the object `expr` gives, when it shows: a class named
    in `classes`, "builtin", or None.  `classes` maps each class name to
    itself and each function name to the class its return annotation
    names (None when it names none)."""
    if isinstance(expr, ast.Call):
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return "builtin" if name in BUILTIN_TYPES else classes.get(name)
    if isinstance(expr, _DISPLAYS):
        return "builtin"
    if isinstance(expr, ast.Name):
        if expr.id in bound:
            return bound[expr.id]
        if classes.get(expr.id) == expr.id:
            return expr.id
    return None


def scope_bindings(scope, owner, bound, classes):
    """`bound` updated with the names `scope` binds, each to the class of
    the object every binding of it gives: the first parameter of a method
    is of its class `owner`, an annotated one of the class named, and a
    name assigned only calls of one class or displays is of that class.
    Any other binding, or two that disagree, leaves the class unknown."""
    seen: dict[str, set] = {}
    if not isinstance(scope, ast.Module):
        args = scope.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        for i, a in enumerate(p for p in params if p is not None):
            note = a.annotation
            if i == 0 and owner is not None:
                cls = owner
            elif isinstance(note, ast.Name) and classes.get(note.id) == note.id:
                cls = note.id
            else:
                cls = None
            seen.setdefault(a.arg, set()).add(cls)
    body = scope.body if isinstance(scope.body, list) else [scope.body]
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            if not isinstance(node, ast.Lambda):
                seen.setdefault(node.name, set()).add(None)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            seen.setdefault(node.id, set()).add(None)
        elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
            for t in node.targets:
                seen.setdefault(t.id, set()).add(class_of(node.value, {}, classes))
            todo.append(node.value)
            continue
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            note = node.annotation
            cls = note.id if isinstance(note, ast.Name) and classes.get(note.id) == note.id else None
            seen.setdefault(node.target.id, set()).add(cls)
            if node.value is not None:
                todo.append(node.value)
            continue
        todo.extend(ast.iter_child_nodes(node))
    out = dict(bound)
    for name, found in seen.items():
        out[name] = found.pop() if len(found) == 1 else None
    return out


@functools.cache
def attribute_reads(source, classes):
    """Each attribute read of `source` as (name, the class of the object it
    is read from, or None when that does not show); `classes` holds the
    items of class_of's map."""
    classes = dict(classes)
    reads = set()
    tree = ast.parse(source)
    # (node, names bound around it with their classes, the class whose
    # body holds the node)
    todo = [(tree, scope_bindings(tree, None, {}, classes), None)]
    while todo:
        node, bound, owner = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo.extend((c, bound, node.name) for c in node.body)
            todo.extend((c, bound, None) for c in (*node.bases, *node.decorator_list))
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = scope_bindings(node, owner if not isinstance(node, ast.Lambda) else None, bound, classes)
            body = node.body if isinstance(node.body, list) else [node.body]
            todo.extend((c, inner, None) for c in body)
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add((node.attr, class_of(node.value, bound, classes)))
        todo.extend((c, bound, None) for c in ast.iter_child_nodes(node))
    return reads


def class_attributes(node):
    """The attributes a class declares: its methods, the names its body
    binds (fields among them) and those its methods set on their first
    parameter."""
    out = set()
    for m in node.body:
        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(m.name)
            params = [*m.args.posonlyargs, *m.args.args]
            if params:
                out.update(
                    n.attr
                    for n in ast.walk(m)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == params[0].arg
                )
        elif isinstance(m, (ast.Assign, ast.AnnAssign)):
            for t in m.targets if isinstance(m, ast.Assign) else [m.target]:
                if isinstance(t, ast.Name):
                    out.add(t.id)
    return out


def uncalled(source, callers, allowed=frozenset()):
    """The top-level functions and classes of `source`, and the methods of
    its classes but the dunder ones, that no source in `callers` refers
    to, leaving out the names in `allowed` and the methods it names as
    `Class.method`.

    A method counts as referred to only through an attribute read from an
    object that may be of its class.  The object's class shows for `self`
    in a method, a class's own name, a call of a class, a name bound to
    one of these, a literal and a display; a read from an object of
    another class does not count.  A read from an object whose class does
    not show counts, unless another class of `source` or `callers`
    declares an attribute of the method's name: such a name alone does not
    tell the classes apart, and `allowed` must name the method."""
    names = set(allowed)
    bases: dict[str, set] = {}
    declared: dict[str, set] = {}  # attribute name -> the classes declaring it
    returns: dict[str, set] = {}  # function name -> the classes it is annotated to return
    for text in (source, *callers):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    b.id for b in node.bases if isinstance(b, ast.Name)
                )
                for a in class_attributes(node):
                    declared.setdefault(a, set()).add(node.name)
            elif isinstance(node, ast.FunctionDef):
                note = node.returns
                returns.setdefault(node.name, set()).add(note.id if isinstance(note, ast.Name) else None)
    classes = {f: c.pop() if len(c) == 1 and c <= bases.keys() else None for f, c in returns.items()}
    classes.update((c, c) for c in bases)
    classes = frozenset(classes.items())
    reads = set()
    for caller in callers:
        names |= referenced_names(caller)
        reads |= attribute_reads(caller, classes)

    def may_be(cls, target, name):
        """Whether an object of class `cls` (None: unknown) that `name` is
        read from may be of class `target`."""
        if cls is None:
            return declared.get(name, set()) <= {target}
        todo, seen = [cls], set()
        while todo:
            c = todo.pop()
            if c == target:
                return True
            if c not in seen:
                seen.add(c)
                todo.extend(bases.get(c, ()))
        return False

    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in names:
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, ast.FunctionDef)
                and not (m.name.startswith("__") and m.name.endswith("__"))
                and m.name not in allowed
                and f"{node.name}.{m.name}" not in allowed
                and not any(a == m.name and may_be(c, node.name, a) for a, c in reads)
            )
    return out


def library_names():
    """The names in backticks in README's Library section."""
    readme = (REPO / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return frozenset(re.findall(r"`(\w+)`", section))


def program_sources():
    """The modules of src, and the sources that count as their callers:
    src but the package's re-exports in __init__.py, which call nothing,
    perfbench/ and scripts/."""
    src = sorted((REPO / "src" / "foltab").glob("*.py"))
    callers = [p.read_text() for p in src if p.name != "__init__.py"]
    for d in ("perfbench", "scripts"):
        callers += [p.read_text() for p in sorted((REPO / d).glob("*.py"))]
    return src, callers


def test_every_src_function_has_a_caller():
    src, callers = program_sources()
    allowed = library_names()
    assert "simplify" in allowed
    for p in src:
        assert uncalled(p.read_text(), callers, allowed) == [], p.name
    # the check flags a function that calls only itself, a method no one
    # calls and a method whose name only a bare name matches; it passes a
    # dunder method, an imported name and an allowed name
    assert uncalled("def f(n):\n    return f(n - 1)\n", ["def g():\n    pass\n"]) == ["f"]
    source = "class T:\n    def __eq__(self, o):\n        return True\n    def m(self):\n        pass\n"
    assert uncalled(source, ["T()"]) == ["T.m"]
    assert uncalled(source, ["from .t import m\nT()\nm()"]) == ["T.m"]
    assert uncalled(source, ["from .t import T\nT().m()"]) == []
    assert uncalled("def simplify():\n    pass\n", [], allowed) == []
    # it flags a method whose name is read only from objects of other
    # classes, of builtin types, or of a class that does not show when
    # another class declares an attribute of that name, unless `allowed`
    # names the method
    source = "class T:\n    def size(self):\n        return 0\n"
    runner = (
        "class Runner:\n    def __init__(self):\n        self.size = 0\n\n"
        "def main(outcome):\n    runner = Runner()\n    runner.size += outcome.size\n"
        "    return T(), runner.size, [].size, 'x'.size, dict().size\n"
    )
    assert uncalled(source, [runner]) == ["T.size"]
    assert uncalled(source, [runner], {"T.size"}) == []
    # it passes the read from an object whose class shows to be T: an
    # annotated parameter, a call of T or of a function annotated to return
    # one, and a name bound to such a call
    for read in ("def f(t: T):\n    return t.size()\n", "T().size()\n",
                 "def make() -> T:\n    pass\n\nt = make()\nt.size()\n"):
        assert uncalled(source, [runner, read]) == [], read
    # and the read from an object whose class does not show, when no other
    # class declares the name
    assert uncalled(source, ["def f(x):\n    return T, x.size\n"]) == []


def call_arguments(callers):
    """Per called name (a function's, a method's or a class's), what each
    call in `callers` passes: (the number of positional arguments, the
    keywords, None among them for `**options`); a call with `*args` or
    `**options` passes every position."""
    out = {}
    for caller in callers:
        for node in ast.walk(ast.parse(caller)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            keywords = {k.arg for k in node.keywords}
            every = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            out.setdefault(name, []).append((float("inf") if every else len(node.args), keywords))
    return out


def unpassed(source, callers, allowed=frozenset()):
    """The parameters with a default of the top-level functions of `source`
    and of the methods of its classes, as `name: parameter`, that no call
    in `callers` passes, leaving out the functions and methods that
    `allowed` names as uncalled does.  A method counts as called through
    its name, and a constructor (`__init__`) through its class's name;
    the other dunder methods are left out, since the interpreter calls
    them."""
    calls = call_arguments(callers)
    functions = []  # (label, the name calls use, the definition, the positions its calls skip)
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if not isinstance(m, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                if m.name == "__init__":
                    functions.append((f"{node.name}.__init__", node.name, m, 1))
                elif not (m.name.startswith("__") and m.name.endswith("__")):
                    functions.append((f"{node.name}.{m.name}", m.name, m, 0 if static else 1))
    out = []
    for label, name, fn, skip in functions:
        if label in allowed or name in allowed:
            continue
        a = fn.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        params = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
        params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        passed = calls.get(name, ())
        out.extend(
            f"{label}: {p}"
            for i, p in params
            if not any(
                p in keys or None in keys or i is not None and i < npos for npos, keys in passed
            )
        )
    return out


def test_every_defaulted_parameter_has_a_caller():
    src, callers = program_sources()
    allowed = library_names()
    assert "entails" in allowed
    for p in src:
        assert unpassed(p.read_text(), callers, allowed) == [], p.name
    # the check flags a default that no call overrides, by position or by
    # keyword; a call with *args passes every position, and one with
    # **options every parameter
    source = "def f(a, b=1, *, c=2):\n    pass\n"
    assert unpassed(source, ["f(0)"]) == ["f: b", "f: c"]
    assert unpassed(source, ["f(0, 1)", "f(0, c=3)"]) == []
    assert unpassed(source, ["f(0, b=1)"]) == ["f: c"]
    assert unpassed(source, ["f(*args)"]) == ["f: c"]
    assert unpassed(source, ["f(0, **options)"]) == []
    # a method's calls skip its first parameter, a static method's do not;
    # a constructor is called through its class, another dunder method not
    # at all; an allowed name is left out
    source = (
        "class T:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0):\n        pass\n"
        "    @staticmethod\n    def s(z=0):\n        pass\n"
        "    def __eq__(self, o=None):\n        pass\n"
    )
    assert unpassed(source, ["T(1).m().s()"]) == ["T.m: y", "T.s: z"]
    assert unpassed(source, ["T().m(1).s(1)"]) == ["T.__init__: x"]
    assert unpassed(source, ["T().m(1).s(1)"], {"T"}) == []
    assert unpassed("def simplify(x=0):\n    pass\n", [], {"simplify"}) == []


def unused_helpers(source, callers):
    """The top-level functions and classes of `source` that no source in
    `callers` refers to, directly or through the definitions of `source`
    that are used; the statements of `source` outside a definition count
    as callers too."""
    definitions, names = {}, set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        else:
            names |= referenced_names(ast.unparse(node))
    for caller in callers:
        names |= referenced_names(caller)
    todo = [name for name in definitions if name in names]
    used = set(todo)
    while todo:
        for name in referenced_names(ast.unparse(definitions[todo.pop()])):
            if name in definitions and name not in used:
                used.add(name)
                todo.append(name)
    return [name for name in definitions if name not in used]


def test_every_test_helper_has_a_caller():
    tests = sorted((REPO / "tests").glob("*.py"))
    callers = [p.read_text() for p in tests if p.name != "helpers.py"]
    assert unused_helpers((REPO / "tests" / "helpers.py").read_text(), callers) == []
    # the check flags a helper that only an unused helper calls and one
    # that calls only itself; it passes what a used helper or a statement
    # outside a definition refers to
    source = "def a():\n    return b()\n\ndef b():\n    return c()\n\ndef c():\n    pass\n"
    assert unused_helpers(source, ["c()"]) == ["a", "b"]
    assert unused_helpers(source, ["a()"]) == []
    assert unused_helpers(source + "C = b\n", []) == ["a"]
    assert unused_helpers("def f(n):\n    return f(n - 1)\n", ["g()"]) == ["f"]


def formulas(seed, n=3000):
    """Formulas of every connective, sentences biased toward prenex shapes,
    and quantifier-free NNFs, in turn."""
    rng = random.Random(seed)
    for i in range(n):
        if i % 3 == 0:
            yield rng, random_formula(rng, depth=rng.randint(1, 5))
        elif i % 3 == 1:
            yield rng, random_sentence(rng, depth=rng.randint(1, 4))
        else:
            yield rng, random_nnf(rng, rng.randint(1, 4), ground=rng.random() < 0.3)


def closed(f):
    for v in sorted(free_vars(f)):
        f = ForAll(v, f)
    return f


def clausified(clausify, f, *limit):
    res = clausify(f, namer_for(f), *limit)
    return res.clauses, res.skolem_functions, res.universal_vars


def test_normal_forms_agree_with_the_reference(monkeypatch):
    # skolemize_clausify distributes under the module's clause limit
    monkeypatch.setattr(foltab.normalize, "DEFAULT_CLAUSE_LIMIT", LIMIT)
    errors = 0
    for _, f in formulas(71):
        got = outcome(cnf, f, LIMIT)
        assert got == outcome(reference_cnf, f, LIMIT), f
        assert outcome(dnf, f, LIMIT) == outcome(reference_dnf, f, LIMIT), f
        g = closed(f)
        assert outcome(clausified, skolemize_clausify, g) == outcome(
            clausified, reference_skolemize_clausify, g, LIMIT
        ), g
        errors += got[0] != "ok"
    assert 100 < errors < 1000


def test_clause_limit_bounds_each_product():
    # (a1 & ... & a5) | (b1 & ... & b8) distributes into exactly 40 clauses
    f = Or(tuple(And(tuple(Literal(True, f"{p}{i}") for i in range(n))) for p, n in (("a", 5), ("b", 8))))
    assert len(cnf(f, 40).matrix) == 40
    with pytest.raises(ClauseLimitError, match="distribution exceeds 39 clauses"):
        cnf(f, 39)
    # a disjunction checks its first part too
    assert outcome(cnf, Or((f,)), 39) == outcome(reference_cnf, Or((f,)), 39)


def test_empty_connectives():
    # an empty disjunction is false, an empty conjunction true
    for f in (Or(()), And(()), Not(Or(())), Not(And(()))):
        assert cnf(f) == reference_cnf(f)
    assert cnf(Or(())).matrix == (Clause(()),) and cnf(And(())).matrix == ()


@pytest.mark.parametrize(
    "text",
    [
        # sibling quantifiers over one name
        "(! [X] : p(X)) & (? [X] : q(X))",
        # a nested quantifier that shadows its parent's name
        "! [X] : (p(X) | ? [X] : (q(X) & ! [Y] : r(X, Y)))",
        # bound names equal to free variables
        "p(X) & (! [X] : r(X, Y)) & ? [Y] : q(Y)",
        # <=>, whose sides are read twice, each time picking bound names
        "(! [X] : p(X)) <=> (? [X] : (q(X) | r(X, a)))",
        # disjunctions of single clauses, joined in one step, with a repeat
        "p(X) | ~q(X) | (p(X) | r(X, X))",
        # a part with no clause and a part with two take the general join
        "p(a) | $true | q(b)",
        "p(a) | (q(a) & r(a)) | p(a)",
    ],
)
def test_cnf_cases_agree_with_the_reference(text):
    f = parse_formula(text)
    assert cnf(f) == reference_cnf(f)
    assert dnf(f) == reference_dnf(f)
    g = closed(f)
    assert clausified(skolemize_clausify, g) == clausified(reference_skolemize_clausify, g)


def frozen_run(clausify, f, g, *limit):
    """Freeze f and g and clausify f and ~g as `interpolate` does, each side
    through clausify(side, namer, frozen, *limit): per side the clauses,
    Skolem functions and universals, then the namer's next names."""
    sf, sg = read_symbols(f), read_symbols(g)
    namer = FreshNamer(sf.names | sg.names)
    frozen, _, _ = freeze_free_vars(namer, (sf.free, sg.free))
    sides = []
    for side in (f, Not(g)):
        res = clausify(side, namer, frozen, *limit)
        sides.append((res.clauses, res.skolem_functions, res.universal_vars))
    return sides, [namer.fresh(base) for base in ("sk", "c_x_", "c_y_", "g")]


def substituted_clausify(f, namer, frozen, *limit):
    """Freezing as a formula rebuild, then the recursive clausification."""
    return reference_skolemize_clausify(reference_formula_subst(f, frozen), namer, *limit)


def test_frozen_clausification_agrees_with_the_reference(monkeypatch):
    monkeypatch.setattr(foltab.normalize, "DEFAULT_CLAUSE_LIMIT", LIMIT)
    frozen = 0
    for (rng, f), (_, g) in zip(formulas(72, 1000), formulas(73, 1000)):
        got = outcome(frozen_run, skolemize_clausify, f, g)
        assert got == outcome(frozen_run, substituted_clausify, f, g, LIMIT), (f, g)
        frozen += bool(free_vars(f) | free_vars(g))
    assert frozen > 300


@pytest.mark.parametrize(
    "f_text, g_text",
    [
        # a free variable also bound by ! and by ?
        ("p(X) & (! [X] : q(X)) & ? [X] : r(X, X)", "q(X) | ? [X] : (p(X) & ! [X] : r(X, a))"),
        # <=> with quantifiers below it, at both polarities
        ("(! [X] : p(X, Y)) <=> (? [Z] : q(Z, Y))", "~((? [X] : q(X, Y)) <=> (! [X] : p(X, X)))"),
        # existentials after the universals of a sibling conjunct
        ("(! [X] : p(X, Y)) & ? [Z] : q(Z, Y)", "(? [X] : p(X, X)) | ! [Z] : ? [W] : r(Z, W, Y)"),
    ],
)
def test_frozen_clausification_cases(f_text, g_text):
    f, g = parse_formula(f_text), parse_formula(g_text)
    got = frozen_run(skolemize_clausify, f, g)
    assert got == frozen_run(substituted_clausify, f, g)


def test_frozen_clausification_shadows_and_skolemizes_over_the_prefix():
    x = Var("X")
    # a bound X is not the frozen X
    f = parse_formula("p(X) & ! [X] : q(X)")
    res = skolemize_clausify(f, FreshNamer(), {"X": App("c")})
    assert res.clauses == (Clause((Literal(True, "p", (App("c"),)),)), Clause((Literal(True, "q", (x,)),)))
    # the Skolem term of Z takes X, the universal of a sibling conjunct,
    # and the Z bound below it keeps its own name, Z_2
    f = parse_formula("(! [X] : p(X)) & ? [Z] : (q(Z, Y) & ! [Z] : r(Z))")
    res = skolemize_clausify(f, FreshNamer(), {"Y": App("c")})
    assert [str(c) for c in res.clauses] == ["p(X)", "q(sk1(X),c)", "r(Z_2)"]
    assert (res.skolem_functions, res.universal_vars) == ({"sk1"}, {"X", "Z_2"})


def iff_chains(depth):
    """Chains of `depth` nested <=>: on the left, on the right, with a
    quantified part (read again, for its names) and under a quantifier
    (read in a renaming)."""
    p, q = Literal(True, "p"), Literal(True, "q", (Var("X"),))
    left, right, quantified = p, p, p
    for i in range(depth):
        left = Iff(left, q)
        right = Iff(Literal(i % 2 == 0, "r"), right)
        quantified = Iff(quantified, ForAll("X", q) if i % 3 == 0 else q)
    return [left, right, quantified, ForAll("X", Exists("X", left))]


def test_cnf_of_iff_chains_agrees_with_the_reference():
    # each part of a <=> is read once per polarity and renaming unless a
    # quantifier lies below it; the reference reads it 2^depth times
    for depth in range(1, 8):
        for f in iff_chains(depth):
            assert outcome(cnf, f) == outcome(reference_cnf, f), (depth, f)
            assert outcome(dnf, f) == outcome(reference_dnf, f), (depth, f)
    f = iff_chains(12)[0]
    assert cnf(f) == reference_cnf(f)


def test_horn_deciders_and_hornify_agree_with_the_reference():
    rng = random.Random(72)
    horn_like = [random_horn_like(rng, rng.randint(1, 4)) for _ in range(1000)]
    cases = [f for _, f in formulas(73)] + horn_like
    hornified = 0
    for f in cases:
        assert is_horn(f) == reference_is_horn(f), f
        assert is_horn_like(f) == reference_is_horn_like(f), f
        assert truth_simplify(f) == reference_truth_simplify(f), f
        # no case reaches a clause limit of 40
        got = outcome(hornify, f)
        assert got == outcome(reference_hornify, f, LIMIT), f
        hornified += got[0] == "ok"
    assert hornified > 1000
    assert sum(map(is_horn, cases)) > 300


def member(t):
    return t.__class__ is App and t.functor in ("f", "a") or t == Var("X")


def test_maximal_terms_agree_with_the_reference():
    for _, f in formulas(74):
        got = outcome(smax_by, member, f)
        want = outcome(reference_smax_by, member, f)
        if got[0] == "ok" and want[0] == "ok":
            # in order of first occurrence, each term once
            assert len(got[1]) == len(want[1]) and set(got[1]) == want[1], f
        else:
            assert got == want, f


def test_lifting_agrees_with_the_reference():
    rng = random.Random(75)
    lifted = 0
    for _ in range(3000):
        h = random_nnf(rng, rng.randint(1, 4), ground=True)
        symbols = ["a", "b", "f"]
        rng.shuffle(symbols)
        k = rng.randint(0, 3)
        j = rng.randint(k, 3)
        ctx = InterpolationContext(frozenset(), frozenset(symbols[:k]), frozenset(symbols[k:j]))
        got = lift_parts(h, ctx, namer_for(h))
        assert (got.prefix, got.matrix, got.terms) == reference_lift_parts(h, ctx), h
        lifted += len(got.terms) > 1
    assert lifted > 500


def scanned(parts, cls, unit, zero):
    """simp_or/simp_and's parts as a scan of the list kept so far finds
    them."""
    out = []
    for p in parts:
        if isinstance(p, type(zero)):
            return [zero]
        if not isinstance(p, unit):
            for q in p.parts if isinstance(p, cls) else (p,):
                if q not in out:
                    out.append(q)
    return out


def test_simp_keeps_the_first_of_equal_parts():
    rng = random.Random(17)
    for _ in range(2000):
        pool = [random_nnf(rng, rng.randint(0, 2)) for _ in range(4)]
        # equal parts that are distinct objects
        parts = [copy.deepcopy(rng.choice(pool)) for _ in range(rng.randint(0, 6))]
        for simp, mk, cls, unit, zero in (
            (simp_or, mk_or, Or, Bottom, TOP),
            (simp_and, mk_and, And, Top, BOTTOM),
        ):
            want = scanned(parts, cls, unit, zero)
            got = simp(parts)
            assert got == mk(want)
            assert all(map(is_, got.parts if got.__class__ is cls else (got,), want))


def test_truth_simplify_of_a_long_conjunction_chain():
    # deduplication used to scan the parts kept so far: about 39 s at 1,000
    lits = [Literal(True, f"p{i}") for i in range(1000)]
    f = lits[-1]
    for l in reversed(lits[:-1]):
        f = And((l, f))
    start = time.perf_counter()
    got = truth_simplify(f)
    assert time.perf_counter() - start < 10
    assert got == And(tuple(lits))


DEPTH = 5000


def lit(i, positive=True):
    # five predicates and three constants in turn, so that the clauses stay
    # short however long the chain
    return Literal(positive, f"p{i % 5}", (App(f"c{i % 3}"),))


def chain(connective, positive=lambda i: True):
    f = lit(DEPTH, positive(DEPTH))
    for i in reversed(range(DEPTH)):
        g = lit(i, positive(i))
        f = connective(g, f) if connective is Implies else connective((g, f))
    return f


def clause_strings(pnf):
    return pnf.prefix, [str(c) for c in pnf.matrix]


def test_deep_formulas_under_the_default_recursion_limit(default_recursion_limit):
    x = Var("X")
    negations = Literal(True, "p", (x,))
    for _ in range(DEPTH):
        negations = Not(negations)
    negations = ForAll("X", negations)
    quantifiers = Literal(True, "p", (x, Var("Y")))
    for _ in range(DEPTH):
        quantifiers = ForAll("X", quantifiers)
    quantifiers = ForAll("Y", quantifiers)
    conjunction = chain(And)
    disjunction = chain(Or, lambda i: i == DEPTH)
    implication = chain(Implies)
    for f in (negations, quantifiers, conjunction, disjunction, implication):
        with pytest.raises(RecursionError):
            reference_cnf(f)

    units = [str(lit(i)) for i in range(15)]
    negatives = " | ".join(f"~{l}" for l in units)
    # the last literal, p{DEPTH % 5}(c{DEPTH % 3}), is the only positive one
    rule = f"{negatives} | p0(c2)"
    assert clause_strings(cnf(negations)) == ((("forall", "X"),), ["p(X)"])
    names = ["Y", "X"] + [f"X_{n}" for n in range(2, DEPTH + 1)]
    assert clause_strings(cnf(quantifiers)) == (
        tuple(("forall", v) for v in names),
        [f"p(X_{DEPTH},Y)"],
    )
    assert clause_strings(cnf(conjunction)) == ((), units)
    assert clause_strings(cnf(disjunction)) == ((), [rule])
    assert clause_strings(cnf(implication)) == ((), [rule])
    assert clause_strings(dnf(negations)) == ((("forall", "X"),), ["p(X)"])
    assert clause_strings(dnf(conjunction)) == ((), [" & ".join(units)])
    assert clause_strings(dnf(implication)) == ((), [f"~{l}" for l in units] + ["p0(c2)"])

    for f in (negations, quantifiers):
        res = skolemize_clausify(f, namer_for(f))
        assert res.skolem_functions == frozenset() and len(res.clauses) == 1
    assert [str(c) for c in skolemize_clausify(implication, namer_for(implication)).clauses] == [rule]
    assert not is_u_range_restricted(negations)
    assert is_u_range_restricted(conjunction)

    assert is_horn(negations) is False and is_horn(quantifiers) is True
    assert is_horn(conjunction) is True and is_horn(implication) is False
    assert is_horn_like(conjunction) and is_horn_like(disjunction)
    assert not is_horn_like(chain(Or))
    assert truth_simplify(conjunction) == And(tuple(lit(i) for i in range(15)))
    assert [str(c) for c in cnf(hornify(disjunction)).matrix] == [rule]
    assert [str(c) for c in cnf(hornify(conjunction)).matrix] == units
    constants = [App(f"c{i}") for i in range(3)]
    assert smax_by(lambda t: t.__class__ is App, conjunction) == constants
