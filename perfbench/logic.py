"""The benchmark's own first-order toolkit: a tuple syntax, a TPTP printer
and parser for the fof subset foltab reads and writes, a finite-model
evaluator, a truth-table oracle and a checker for emitted tableau documents.

Nothing here imports foltab: inputs go to the program as text and its
outputs come back as text, so the oracles stay independent of the code
they check.

Terms are ("V", name) or ("F", functor, args).  Formulas are
("lit", positive, predicate, args), ("and", parts), ("or", parts),
("not", f), ("imp", a, b), ("all", var, body), ("ex", var, body), ("top",)
and ("bot",).  Equality is not needed by the workloads and not supported.
"""

from __future__ import annotations

import itertools
import random
import re

TOP = ("top",)
BOT = ("bot",)


def var(name):
    return ("V", name)


def fn(name, *args):
    return ("F", name, tuple(args))


def lit(name, *args):
    return ("lit", True, name, tuple(args))


def neg(literal):
    return ("lit", not literal[1], literal[2], literal[3])


def conj(parts):
    parts = list(parts)
    if not parts:
        return TOP
    return parts[0] if len(parts) == 1 else ("and", tuple(parts))


def disj(parts):
    parts = list(parts)
    if not parts:
        return BOT
    return parts[0] if len(parts) == 1 else ("or", tuple(parts))


def forall(names, body):
    for v in reversed(list(names)):
        body = ("all", v, body)
    return body


# ---------------------------------------------------------------------------
# Printing


def term_text(t) -> str:
    if t[0] == "V":
        return t[1]
    if not t[2]:
        return t[1]
    return f"{t[1]}({','.join(term_text(a) for a in t[2])})"


def literal_text(f) -> str:
    _, positive, pred, args = f
    body = pred if not args else f"{pred}({','.join(term_text(a) for a in args)})"
    return body if positive else "~" + body


def formula_text(f) -> str:
    """Fully parenthesised TPTP text."""
    tag = f[0]
    if tag == "lit":
        return literal_text(f)
    if tag == "top":
        return "$true"
    if tag == "bot":
        return "$false"
    if tag == "not":
        return f"~{formula_text(f[1])}"
    if tag in ("and", "or"):
        sep = " & " if tag == "and" else " | "
        return "(" + sep.join(formula_text(p) for p in f[1]) + ")"
    if tag == "imp":
        return f"({formula_text(f[1])} => {formula_text(f[2])})"
    q = "!" if tag == "all" else "?"
    return f"({q} [{f[1]}] : {formula_text(f[2])})"


def fof_text(records) -> str:
    """A fof file from (name, role, formula) records."""
    return "".join(f"fof({n}, {r}, {formula_text(f)}).\n" for n, r, f in records)


# ---------------------------------------------------------------------------
# Parsing the fof formula syntax


class SyntaxFailure(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(=>|~|&|\||\(|\)|\[|\]|,|:|!|\?)|(\$true|\$false)|([A-Za-z0-9_]+))"
)


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise SyntaxFailure(f"bad character at {pos} in {text!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


def parse_formula(text: str):
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else ""

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if expected is not None and tok != expected:
            raise SyntaxFailure(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def implication():
        lhs = disjunction()
        if peek() == "=>":
            take()
            return ("imp", lhs, implication())
        return lhs

    def disjunction():
        parts = [conjunction()]
        while peek() == "|":
            take()
            parts.append(conjunction())
        return disj(parts)

    def conjunction():
        parts = [unit()]
        while peek() == "&":
            take()
            parts.append(unit())
        return conj(parts)

    def unit():
        tok = peek()
        if tok == "~":
            take()
            return ("not", unit())
        if tok in ("!", "?"):
            take()
            take("[")
            names = [take()]
            while peek() == ",":
                take()
                names.append(take())
            take("]")
            take(":")
            body = unit()
            for v in reversed(names):
                body = ("all" if tok == "!" else "ex", v, body)
            return body
        if tok == "(":
            take()
            f = implication()
            take(")")
            return f
        if tok == "$true":
            take()
            return TOP
        if tok == "$false":
            take()
            return BOT
        left = term()
        if left[0] == "V":
            raise SyntaxFailure(f"variable {left[1]} used as an atom")
        return ("lit", True, left[1], left[2])

    def term():
        name = take()
        if not name or not (name[0].isalnum() or name[0] == "_"):
            raise SyntaxFailure(f"expected a symbol, found {name!r}")
        if name[0].isupper():
            return ("V", name)
        args = []
        if peek() == "(":
            take()
            args.append(term())
            while peek() == ",":
                take()
                args.append(term())
            take(")")
        return ("F", name, tuple(args))

    f = implication()
    if pos != len(toks):
        raise SyntaxFailure(f"trailing input in {text!r}")
    return f


# ---------------------------------------------------------------------------
# Finite models


def literals(f):
    """Every literal occurrence in f."""
    stack = [f]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "lit":
            yield g
        elif tag in ("and", "or"):
            stack.extend(g[1])
        elif tag == "not":
            stack.append(g[1])
        elif tag == "imp":
            stack.extend(g[1:])
        elif tag in ("all", "ex"):
            stack.append(g[2])


def symbols(formulas):
    """(functions, predicates) as {(name, arity)} sets."""
    funcs, preds = set(), set()
    for f in formulas:
        for literal in literals(f):
            preds.add((literal[2], len(literal[3])))
            terms = list(literal[3])
            while terms:
                t = terms.pop()
                if t[0] == "F":
                    funcs.add((t[1], len(t[2])))
                    terms.extend(t[2])
    return funcs, preds


def free_vars(f, bound=frozenset()):
    tag = f[0]
    if tag == "lit":
        out = set()
        stack = list(f[3])
        while stack:
            t = stack.pop()
            if t[0] == "V":
                if t[1] not in bound:
                    out.add(t[1])
            else:
                stack.extend(t[2])
        return out
    if tag in ("and", "or"):
        return set().union(*(free_vars(p, bound) for p in f[1]))
    if tag == "not":
        return free_vars(f[1], bound)
    if tag == "imp":
        return free_vars(f[1], bound) | free_vars(f[2], bound)
    if tag in ("all", "ex"):
        return free_vars(f[2], bound | {f[1]})
    return set()


def random_model(rng: random.Random, funcs, preds, size: int, density: float):
    """A model over {0..size-1}; each ground atom holds with probability
    `density`."""
    domain = range(size)
    ftab = {
        s: {args: rng.randrange(size) for args in itertools.product(domain, repeat=s[1])}
        for s in sorted(funcs)
    }
    ptab = {
        s: {args for args in itertools.product(domain, repeat=s[1]) if rng.random() < density}
        for s in sorted(preds)
    }
    return size, ftab, ptab


def _eval_term(t, model, env):
    if t[0] == "V":
        return env[t[1]]
    return model[1][(t[1], len(t[2]))][tuple(_eval_term(a, model, env) for a in t[2])]


def holds(f, model, env) -> bool:
    tag = f[0]
    if tag == "lit":
        args = tuple(_eval_term(a, model, env) for a in f[3])
        return (args in model[2][(f[2], len(args))]) == f[1]
    if tag == "and":
        return all(holds(p, model, env) for p in f[1])
    if tag == "or":
        return any(holds(p, model, env) for p in f[1])
    if tag == "not":
        return not holds(f[1], model, env)
    if tag == "imp":
        return not holds(f[1], model, env) or holds(f[2], model, env)
    if tag == "all":
        return all(holds(f[2], model, {**env, f[1]: d}) for d in range(model[0]))
    if tag == "ex":
        return any(holds(f[2], model, {**env, f[1]: d}) for d in range(model[0]))
    return tag == "top"


def entailment_counterexample(f, h, g, rng: random.Random, samples: int):
    """A sampled finite model refuting F |= H or H |= G, as a message, or
    None when every sample agrees.  Free variables range over the domain.
    Samples cycle through domain sizes 1-3 and sparse, even and dense
    predicate extensions, so that models of rule sets turn up often."""
    funcs, preds = symbols([f, h, g])
    names = sorted(free_vars(f) | free_vars(h) | free_vars(g))
    for i in range(samples):
        model = random_model(rng, funcs, preds, 1 + i % 3, (0.15, 0.5, 0.85)[i // 3 % 3])
        for values in itertools.product(range(model[0]), repeat=len(names)):
            env = dict(zip(names, values))
            vf, vh, vg = holds(f, model, env), holds(h, model, env), holds(g, model, env)
            if vf and not vh:
                return f"model {i} satisfies F but not H"
            if vh and not vg:
                return f"model {i} satisfies H but not G"
    return None


# ---------------------------------------------------------------------------
# Ground clause sets


def satisfiable(clauses) -> bool:
    """Truth-table satisfiability of ground clauses given as sequences of
    (positive, atom) pairs."""
    atoms = sorted({a for c in clauses for _, a in c})
    for bits in itertools.product((False, True), repeat=len(atoms)):
        value = dict(zip(atoms, bits))
        if all(any(value[a] == p for p, a in c) for c in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Tableau documents


_NODE_LINE = re.compile(r"^(?P<indent> *)(?P<lit>.*?)(?:\s+\[[FG]\])?(?:\s+->\s+(?P<target>\d+))?$")


def _polarity(text: str):
    """(positive, atom text) of a printed literal."""
    if text.startswith("~"):
        return False, text[1:]
    if " != " in text:
        return False, text.replace(" != ", " = ", 1)
    return True, text


def check_tableau_document(text: str, hyper: bool):
    """(nodes, inner nodes, problem or None) for a document in foltab's
    indented tableau format; the root is not counted.  Every leaf must point
    at a complementary ancestor; with `hyper` the negative literals must be
    exactly the leaves."""
    lines = text.splitlines()
    if not lines or lines[0] != "tableau":
        return 0, 0, "missing tableau header"
    rows = []
    for raw in lines[1:]:
        m = _NODE_LINE.match(raw)
        indent = len(m.group("indent"))
        if indent % 2 or not m.group("lit"):
            return 0, 0, f"malformed line {raw!r}"
        target = m.group("target")
        rows.append((indent // 2, _polarity(m.group("lit")), None if target is None else int(target)))
    if not rows:
        return 0, 0, "empty tableau"
    inner = 0
    path: list = []  # path[d - 1] = literal of the current node at depth d
    for i, (depth, literal, target) in enumerate(rows):
        if depth < 1 or depth > len(path) + 1:
            return len(rows), inner, f"bad nesting at node {i}"
        del path[depth - 1:]
        path.append(literal)
        leaf = i + 1 == len(rows) or rows[i + 1][0] <= depth
        inner += not leaf
        if leaf:
            if target is None or not 1 <= target < depth:
                return len(rows), inner, f"open leaf at node {i}"
            positive, atom = path[target - 1]
            if atom != literal[1] or positive == literal[0]:
                return len(rows), inner, f"leaf {i} targets a non-complementary ancestor"
        if hyper and literal[0] == leaf:
            return len(rows), inner, f"node {i} breaks the hyper property"
    return len(rows), inner, None
