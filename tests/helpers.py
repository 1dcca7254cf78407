"""Shared test machinery: seeded random generators for formulas, clause
sets and theorem-suite instances, a finite-model evaluator used as an
independent semantic oracle, a truth-table satisfiability oracle, the
whole-tree hyper conversion as an oracle for the incremental one, the
prover without its candidate index as an oracle for `prove`, and the
recursive formula walkers as oracles for the walks on `occurrences` and
`map_formula`, the recursive passes of the clausal normal form, the
fragment deciders and lifting as oracles for their iterative versions,
the front end with a token object per token as an
oracle for the parsers and proof import, the recursive tableau walkers
with an ancestor scan per target as an oracle for `branch_walk` and the
walkers on it, `entails` clausifying both sides per conjunct as an oracle
for the one that clausifies once, side assignment matching every clause as
an oracle for the one that matches by shape, dataclass twins of the value
classes as oracles for their hand-written methods, the recursive printers
as oracles for the printers on explicit stacks, the name-keyed binding
store as an oracle for the copy store read at one copy, and checkers of
the tableaux, unifiers and formulas the pipeline makes."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
import re
import time
from dataclasses import dataclass, field
from operator import is_
from pathlib import Path
from typing import Iterable, Optional

from foltab.hyperconv import (
    OMEGA,
    ConversionRound,
    ConversionTrace,
    MeasureViolation,
    measure_string,
)
from foltab.syntax import (
    And,
    App,
    BOTTOM,
    Bottom,
    Clause,
    Exists,
    ForAll,
    Formula,
    FreshNamer,
    Iff,
    Implies,
    InputError,
    Literal,
    Not,
    Or,
    Signature,
    Subst,
    TOP,
    Term,
    Top,
    Var,
    apply_term,
    clause as mk_clause,
    clause_formula,
    is_ground,
    literal_key,
    map_literal_terms,
    mk_and,
    mk_or,
    ordered_vars,
    read_symbols,
    undo,
)
from foltab.proofs import DeductionStep, ProofDocument, ProofError
from foltab.interpolation import _universal_conjuncts, simp_and, simp_or
from foltab.normalize import (
    DEFAULT_CLAUSE_LIMIT,
    ClausificationResult,
    ClauseLimitError,
    PrenexNormalForm,
    freeze_free_vars,
    skolemize_clausify,
    wrap_prefix,
)
from foltab.tableaux import (
    Branch,
    Node,
    ProveResult,
    ResourceLimitError,
    StructureError,
    Tableau,
    branch_walk,
    clause_at,
    is_hyper,
    match_clause,
    prove,
    simplify,
)
from foltab.tptp import FofRecord, ParseError


def namer_for(*formulas: Formula) -> FreshNamer:
    """The namer a run on `formulas` starts with: it avoids every name
    they use."""
    return FreshNamer(frozenset().union(*(read_symbols(f).names for f in formulas)))


# ---------------------------------------------------------------------------
# Finite models


@dataclass(frozen=True)
class Model:
    domain: tuple[int, ...]
    funcs: dict  # (name, arity) -> dict[args tuple -> element]
    preds: dict  # (name, arity) -> frozenset[args tuple]


def eval_term(t: Term, model: Model, env: dict[str, int]) -> int:
    if isinstance(t, Var):
        return env[t.name]
    args = tuple(eval_term(a, model, env) for a in t.args)
    return model.funcs[(t.functor, len(t.args))][args]


def eval_formula(f: Formula, model: Model, env: dict[str, int]) -> bool:
    if isinstance(f, Literal):
        args = tuple(eval_term(a, model, env) for a in f.args)
        if f.predicate == "=":
            holds = args[0] == args[1]
        else:
            holds = args in model.preds[(f.predicate, len(f.args))]
        return holds if f.positive else not holds
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return all(eval_formula(p, model, env) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, model, env) for p in f.parts)
    if isinstance(f, Not):
        return not eval_formula(f.body, model, env)
    if isinstance(f, Implies):
        return (not eval_formula(f.lhs, model, env)) or eval_formula(f.rhs, model, env)
    if isinstance(f, Iff):
        return eval_formula(f.lhs, model, env) == eval_formula(f.rhs, model, env)
    if isinstance(f, ForAll):
        return all(eval_formula(f.body, model, {**env, f.var: d}) for d in model.domain)
    if isinstance(f, Exists):
        return any(eval_formula(f.body, model, {**env, f.var: d}) for d in model.domain)
    raise TypeError(f"not a formula: {f!r}")


def random_model(rng: random.Random, sig: Signature, size: int = 2) -> Model:
    domain = tuple(range(size))
    funcs = {}
    for name, arity in sig.functions.items():
        table = {}
        for args in itertools.product(domain, repeat=arity):
            table[args] = rng.randrange(size)
        funcs[(name, arity)] = table
    preds = {}
    for name, arity in sig.predicates.items():
        ext = set()
        for args in itertools.product(domain, repeat=arity):
            if rng.random() < 0.5:
                ext.add(args)
        preds[(name, arity)] = frozenset(ext)
    return Model(domain, funcs, preds)


def all_models(sig: Signature, size: int = 2):
    """Every model over a domain of the given size; tiny signatures only."""
    domain = tuple(range(size))
    f_items = sorted(sig.functions.items())
    p_items = sorted((n, a) for n, a in sig.predicates.items() if n != "=")
    f_spaces = []
    for name, arity in f_items:
        keys = list(itertools.product(domain, repeat=arity))
        f_spaces.append([(name, arity, keys, values) for values in itertools.product(domain, repeat=len(keys))])
    p_spaces = []
    for name, arity in p_items:
        keys = list(itertools.product(domain, repeat=arity))
        subsets = []
        for bits in itertools.product((False, True), repeat=len(keys)):
            subsets.append(frozenset(k for k, b in zip(keys, bits) if b))
        p_spaces.append([(name, arity, ext) for ext in subsets])
    for f_choice in itertools.product(*f_spaces) if f_spaces else [()]:
        funcs = {}
        for name, arity, keys, values in f_choice:
            funcs[(name, arity)] = dict(zip(keys, values))
        for p_choice in itertools.product(*p_spaces) if p_spaces else [()]:
            preds = {}
            for name, arity, ext in p_choice:
                preds[(name, arity)] = ext
            yield Model(domain, funcs, preds)


def formulas_equivalent(f: Formula, g: Formula, rng: random.Random, samples: int = 30) -> bool:
    """Semantic equivalence sampled over random two-element models."""
    sig = reference_signature_of([f, g])
    from foltab.syntax import free_vars

    fv = sorted(free_vars(f) | free_vars(g))
    for _ in range(samples):
        model = random_model(rng, sig, 2)
        env = {v: rng.randrange(2) for v in fv}
        if eval_formula(f, model, env) != eval_formula(g, model, env):
            return False
    return True


# ---------------------------------------------------------------------------
# Random formulas

_PRED_POOL = (("p", 1), ("q", 1), ("r", 2), ("s", 0))
_FUNC_POOL = (("a", 0), ("b", 0), ("f", 1))
_VAR_POOL = ("X", "Y", "Z")


def random_term(rng: random.Random, vars_allowed: tuple[str, ...], depth: int = 1) -> Term:
    roll = rng.random()
    if vars_allowed and roll < 0.4:
        return Var(rng.choice(vars_allowed))
    name, arity = rng.choice(_FUNC_POOL)
    if arity == 0 or depth <= 0:
        name0 = rng.choice([n for n, a in _FUNC_POOL if a == 0])
        return App(name0)
    return App(name, tuple(random_term(rng, vars_allowed, depth - 1) for _ in range(arity)))


def random_literal(rng: random.Random, vars_allowed: tuple[str, ...]) -> Literal:
    name, arity = rng.choice(_PRED_POOL)
    args = tuple(random_term(rng, vars_allowed) for _ in range(arity))
    return Literal(rng.random() < 0.5, name, args)


def random_formula(
    rng: random.Random,
    depth: int = 4,
    vars_allowed: tuple[str, ...] = _VAR_POOL,
    allow_quantifiers: bool = True,
    allow_consts: bool = True,
) -> Formula:
    if depth <= 0:
        if allow_consts and rng.random() < 0.1:
            return TOP if rng.random() < 0.5 else BOTTOM
        return random_literal(rng, vars_allowed)
    roll = rng.random()
    if roll < 0.25:
        n = rng.randint(2, 3)
        return And(tuple(random_formula(rng, depth - 1, vars_allowed, allow_quantifiers, allow_consts) for _ in range(n)))
    if roll < 0.5:
        n = rng.randint(2, 3)
        return Or(tuple(random_formula(rng, depth - 1, vars_allowed, allow_quantifiers, allow_consts) for _ in range(n)))
    if roll < 0.62:
        return Not(random_formula(rng, depth - 1, vars_allowed, allow_quantifiers, allow_consts))
    if roll < 0.7:
        return Implies(
            random_formula(rng, depth - 1, vars_allowed, allow_quantifiers, allow_consts),
            random_formula(rng, depth - 1, vars_allowed, allow_quantifiers, allow_consts),
        )
    if roll < 0.74:
        return Iff(
            random_formula(rng, depth - 2, vars_allowed, allow_quantifiers, allow_consts),
            random_formula(rng, depth - 2, vars_allowed, allow_quantifiers, allow_consts),
        )
    if allow_quantifiers and roll < 0.9:
        v = rng.choice(_VAR_POOL)
        ctor = ForAll if rng.random() < 0.5 else Exists
        return ctor(v, random_formula(rng, depth - 1, vars_allowed, allow_quantifiers, allow_consts))
    return random_literal(rng, vars_allowed)


def random_nnf(rng: random.Random, depth: int = 3, ground: bool = False) -> Formula:
    vars_allowed = () if ground else _VAR_POOL
    if depth <= 0:
        if rng.random() < 0.08:
            return TOP if rng.random() < 0.5 else BOTTOM
        return random_literal(rng, vars_allowed)
    roll = rng.random()
    if roll < 0.45:
        n = rng.randint(2, 3)
        return And(tuple(random_nnf(rng, depth - 1, ground) for _ in range(n)))
    if roll < 0.9:
        n = rng.randint(2, 3)
        return Or(tuple(random_nnf(rng, depth - 1, ground) for _ in range(n)))
    return random_literal(rng, vars_allowed)


def random_prenex_nnf(rng: random.Random, depth: int = 3) -> Formula:
    body = random_nnf(rng, depth)
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(_VAR_POOL)
        ctor = ForAll if rng.random() < 0.5 else Exists
        body = ctor(v, body)
    return body


def random_horn_like(rng: random.Random, depth: int = 3) -> Formula:
    """A Horn-like NNF: conjunctions, and disjunctions of negative literals
    with one Horn-like part."""

    def lit(negative_only: bool = False) -> Literal:
        name = rng.choice(("p", "q", "r"))
        positive = False if negative_only else rng.random() < 0.5
        return Literal(positive, name, (Var(rng.choice(("X", "Y"))),))

    if depth <= 0:
        roll = rng.random()
        if roll < 0.05:
            return TOP
        if roll < 0.1:
            return BOTTOM
        return lit()
    if rng.random() < 0.5:
        return mk_and([random_horn_like(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    parts = [lit(negative_only=True) for _ in range(rng.randint(1, 2))]
    parts.append(random_horn_like(rng, depth - 1))
    rng.shuffle(parts)
    return mk_or(parts)


def random_sentence(rng: random.Random, depth: int = 3) -> Formula:
    """Closed formula, biased toward prenex shapes."""
    if rng.random() < 0.6:
        f = random_prenex_nnf(rng, depth)
    else:
        f = random_formula(rng, depth)
    from foltab.syntax import free_vars

    out = f
    for v in sorted(free_vars(f)):
        out = ForAll(v, out) if rng.random() < 0.5 else Exists(v, out)
    return out


# ---------------------------------------------------------------------------
# Ground clause sets and the truth-table oracle


def random_ground_clauses(
    rng: random.Random, max_atoms: int = 6, max_clauses: int = 8
) -> list[Clause]:
    n_atoms = rng.randint(1, max_atoms)
    atoms = [f"a{i}" for i in range(1, n_atoms + 1)]
    n_clauses = rng.randint(1, max_clauses)
    out = []
    for _ in range(n_clauses):
        width = rng.randint(1, 3)
        lits = []
        for _ in range(width):
            a = rng.choice(atoms)
            lits.append(Literal(rng.random() < 0.5, a))
        c = Clause(tuple(dict.fromkeys(lits)))
        if c not in out:
            out.append(c)
    return out


def tt_satisfiable(clauses: list[Clause]) -> bool:
    atoms = sorted({l.predicate for c in clauses for l in c.literals})
    for bits in itertools.product((False, True), repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if all(
            any(val[l.predicate] == l.positive for l in c.literals) for c in clauses
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Theorem-suite instance generators.  All instances keep F |= G structural:
# G is a weakening of F (a subset of conjuncts, a disjunctive widening, or
# an instance of a universal conjunct).


def _atom(name: str, *args: Term) -> Literal:
    return Literal(True, name, tuple(args))


def _rule(body: list[Literal], head: Literal, vars_used: list[str]) -> Formula:
    cl = mk_or([l.complement() for l in body] + [head])
    for v in sorted(set(vars_used)):
        cl = ForAll(v, cl)
    return cl


def gen_urr_instance(rng: random.Random, horn_only: bool = False):
    """(F, G) with F a U-range-restricted (and Horn) conjunction of ground
    facts and guarded rules, and G entailed by F by construction."""
    preds = [(f"p{i}", rng.choice((1, 1, 2))) for i in range(1, rng.randint(2, 4) + 1)]
    consts = [App("a"), App("b")]
    conjuncts: list[Formula] = []
    # facts
    for _ in range(rng.randint(1, 2)):
        name, arity = rng.choice(preds)
        conjuncts.append(_atom(name, *rng.sample(consts, k=arity) if arity <= 2 else ()))
    # guarded rules: head variables all occur in the negative body
    for _ in range(rng.randint(1, 2)):
        bname, barity = rng.choice(preds)
        hname, harity = rng.choice(preds)
        bvars = [f"X{i}" for i in range(1, barity + 1)]
        body = [_atom(bname, *[Var(v) for v in bvars])]
        if rng.random() < 0.4 and not horn_only:
            b2name, b2arity = rng.choice(preds)
            body.append(_atom(b2name, *[Var(v) for v in (bvars * 2)[:b2arity]]))
        if rng.random() < 0.4 and horn_only:
            b2name, b2arity = rng.choice(preds)
            body.append(_atom(b2name, *[Var(v) for v in (bvars * 2)[:b2arity]]))
        head_args = [Var(rng.choice(bvars)) if rng.random() < 0.8 else rng.choice(consts) for _ in range(harity)]
        conjuncts.append(_rule(body, _atom(hname, *head_args), bvars))
    # occasionally a purely existential conjunct (not usable for weakening
    # variants that instantiate)
    if not horn_only and rng.random() < 0.25:
        name, arity = rng.choice(preds)
        body = _atom(name, *[Var("Y")] * arity)
        conjuncts.append(Exists("Y", body) if arity else body)
    f = mk_and(conjuncts)
    # weakening
    k = rng.randint(1, min(2, len(conjuncts)))
    picked = rng.sample(conjuncts, k=k)
    mode = rng.random()
    if mode < 0.6 or len(conjuncts) == 1:
        g = mk_and(picked)
    else:
        g = mk_or(picked)
    return f, g


def gen_horn_instance(rng: random.Random):
    return gen_urr_instance(rng, horn_only=True)


def gen_vx_instance(rng: random.Random):
    """(K, Q, targets) for definability: K is a biconditional chain, Q a
    query atom over the chain, targets a predicate from the chain."""
    length = rng.randint(2, 3)
    names = [f"e{i}" for i in range(1, length + 1)]
    arity = rng.choice((1, 1, 2))
    xs = [f"X{i}" for i in range(1, arity + 1)]
    conj: list[Formula] = []
    for left, right in zip(names, names[1:]):
        largs = [Var(v) for v in xs]
        conj.append(_rule([_atom(left, *largs)], _atom(right, *largs), xs))
        conj.append(_rule([_atom(right, *largs)], _atom(left, *largs), xs))
    # a ground fact keeps the knowledge base interesting but harmless
    if rng.random() < 0.5:
        conj.append(_atom(names[0], *[App("a")] * arity))
    kb = mk_and(conj)
    query = _atom(names[0], *[Var(v) for v in xs])
    target = rng.choice(names[1:])
    return kb, query, frozenset([target])


def definition_sides(kb: Formula, query: Formula, targets: frozenset[str]) -> tuple[Formula, Formula]:
    """F and G of the definability problem: kb & query against ~kb' | query',
    where ' renames every non-target predicate to a fresh one."""
    namer = namer_for(kb, query)
    preds = {p for p, _ in read_symbols(And((kb, query))).predicates}
    mapping = {p: namer.fresh(f"{p}_p") for p in sorted(preds - targets)}
    primed = [reference_rename_predicates(x, mapping) for x in (kb, query)]
    return And((kb, query)), Or((Not(primed[0]), primed[1]))


# ---------------------------------------------------------------------------
# Checkers for the properties the pipeline's tableaux, unifiers and
# formulas must have.  The tableau checkers run on `branch_walk`, so they
# take branches deeper than the recursion limit.


def ancestors(node: Node):
    """The nodes above `node`, nearest first, the root included."""
    n = node.parent
    while n is not None:
        yield n
        n = n.parent


def is_leaf_closing(tab: Tableau) -> bool:
    return all(target is None for n, _, target in branch_walk(tab.root) if n.children)


def is_leaf_closed(tab: Tableau) -> bool:
    """Closed, with exactly the leaves closing; the root, which has no
    target, must have children."""
    return all((target is None) == bool(n.children) for n, _, target in branch_walk(tab.root))


def is_regular(tab: Tableau) -> bool:
    on: Branch = {}
    return all(depth == 0 or len(on[n.literal]) == 1 for n, depth, _ in branch_walk(tab.root, on))


def side_path_literals(node: Node, side: str) -> list[Literal]:
    """Literals with the given side on the path from the root to node,
    node included."""
    path = [n for n in (node, *ancestors(node)) if n.literal is not None and n.side == side]
    return [n.literal for n in reversed(path)]


def tableau_size(tab: Tableau) -> int:
    return sum(1 for _ in tab.nodes())


def is_ground_tableau(tab: Tableau) -> bool:
    return all(is_ground(a) for n in tab.non_root_nodes() for a in n.literal.args)


def tableau_clauses(tab: Tableau) -> list[tuple[Literal, ...]]:
    return [clause_at(n) for n in tab.nodes() if n.children]


def atomic_cut_clauses(tab: Tableau) -> list[tuple[Literal, ...]]:
    return [c for c in tableau_clauses(tab) if len(c) == 2 and c[0] == c[1].complement()]


# ---------------------------------------------------------------------------
# The name-keyed binding store of the term kernel before proof import moved
# to the copy store: `walk`, `occurs`, `resolve` (the rebuild loop in its
# chain-following mode), `apply_literal` and the proof documents'
# `_add_bindings`, copied as they were.  An oracle for `resolve_copy` and
# `occurs_copy` at one copy, and the store that `unify_args`,
# `reference_prove` and the reference proof import run on.

_REFERENCE_REBUILD = object()


def reference_walk(t: Term, store: Subst) -> Term:
    """Follow variable bindings in `store` until an unbound variable or an
    application."""
    while isinstance(t, Var) and t.name in store:
        t = store[t.name]
    return t


def reference_occurs(name: str, t: Term, store: Subst) -> bool:
    """Whether variable `name` occurs in t under `store`, bindings followed."""
    stack = [t]
    while stack:
        t = reference_walk(stack.pop(), store)
        if isinstance(t, Var):
            if t.name == name:
                return True
        elif not t._ground:
            stack.extend(t.args)
    return False


def reference_resolve(t: Term, store: Subst) -> Term:
    """t with `store` applied in full: every bound variable is replaced by
    its binding, resolved in turn.  Unchanged subterms are shared; a
    ground subterm cannot change and is not visited."""
    out: list[Term] = []
    # a term to visit, or _REFERENCE_REBUILD above an application to
    # rebuild from `out`
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is _REFERENCE_REBUILD:
            s = todo.pop()
            k = len(out) - len(s.args)
            args = tuple(out[k:])
            del out[k:]
            out.append(s if all(map(is_, args, s.args)) else App(s.functor, args))
            continue
        if s.__class__ is Var:
            r = store.get(s.name)
        elif s._ground:
            out.append(s)
            continue
        else:
            r = None
        if r is not None:
            todo.append(r)
        elif s.__class__ is App and s.args:
            todo.append(s)
            todo.append(_REFERENCE_REBUILD)
            todo.extend(reversed(s.args))
        else:
            out.append(s)
    return out[0]


def reference_apply_literal(l: Literal, store: Subst) -> Literal:
    """l with `store` applied in full to its arguments; for an idempotent
    substitution this is the same as applying it once."""
    return map_literal_terms(l, lambda t: reference_resolve(t, store)) if store else l


def reference_add_bindings(store: Subst, bindings: Subst, line: Optional[int] = None) -> None:
    """Add recorded bindings to the document's binding store.  The store
    stays triangular: a variable keeps its first binding as written, and a
    binding that would make a cycle is rejected."""
    for v, t in bindings.items():
        old = store.get(v)
        if old is None:
            if reference_occurs(v, t, store):
                raise ProofError(f"cyclic bindings through {v}", line)
            store[v] = t
        elif old != t:
            raise ProofError(f"variable {v} bound to both {old} and {t}", line)


def bind(store: Subst, trail: list[str], name: str, t: Term) -> bool:
    """Bind the unbound variable `name` to t and record it on `trail`,
    unless the occurs check fails."""
    if reference_occurs(name, t, store):
        return False
    store[name] = t
    trail.append(name)
    return True


def unify_args(
    xs: Iterable[Term], ys: Iterable[Term], store: Subst, trail: list[str]
) -> bool:
    """Extend the name-keyed binding store `store` to a unifier of each
    pair xs[i], ys[i], or fail: the unifier the prover ran on renamed clause
    copies before it read clauses in their copies (`syntax.unify_copies`),
    and the one `reference_prove` still runs.

    Pairs are solved left to right, outside in.  The left side is bound
    when it is a variable, else the right side when it is one; so of two
    variables the right one survives.  After a failure the store may hold
    some of the new bindings: undo to a mark taken before the call.

    Terms are compared by identity and variables by name, never with the
    generated `==`, which recurses on term depth; equal applications that
    are distinct objects are decomposed, which binds nothing."""
    stack = list(zip(xs, ys))
    stack.reverse()
    while stack:
        a, b = stack.pop()
        a = reference_walk(a, store)
        b = reference_walk(b, store)
        if a is b:
            continue
        if isinstance(a, Var):
            if isinstance(b, Var) and a.name == b.name:
                continue
            if not bind(store, trail, a.name, b):
                return False
        elif isinstance(b, Var):
            if not bind(store, trail, b.name, a):
                return False
        elif a.functor != b.functor or len(a.args) != len(b.args):
            return False
        else:
            stack.extend(zip(reversed(a.args), reversed(b.args)))
    return True


def unify(t1: Term, t2: Term) -> Optional[Subst]:
    """The most general unifier of t1 and t2 (`unify_args`), resolved in
    full so that it is idempotent, or None."""
    store: Subst = {}
    if not unify_args((t1,), (t2,), store, []):
        return None
    return {v: reference_resolve(t, store) for v, t in store.items()}


# ---------------------------------------------------------------------------
# Reference tableau walkers: each recursed on its own, and each target came
# from a scan of the node's ancestors.  An oracle for `branch_walk` and the
# walkers on it in tableaux.py, hyperconv.py, documents.py and
# interpolation.py: targets, results, splice and truncation counts,
# documents and interpolant values must agree exactly.


def reference_closing_target(node: Node) -> Optional[Node]:
    """Nearest ancestor with complementary literal, if any."""
    if node.literal is None:
        return None
    comp = node.literal.complement()
    for anc in ancestors(node):
        if anc.literal == comp:
            return anc
    return None


def reference_is_closing(node: Node) -> bool:
    return reference_closing_target(node) is not None


def reference_compute_targets(tab: Tableau) -> dict[Node, Optional[Node]]:
    """The target of every node below the root."""
    return {n: reference_closing_target(n) for n in tab.non_root_nodes()}


def reference_depths(tab: Tableau) -> dict[Node, int]:
    """The depth of every node, the root at depth 0."""
    depths: dict[Node, int] = {}

    def go(n: Node, depth: int) -> None:
        depths[n] = depth
        for c in n.children:
            go(c, depth + 1)

    go(tab.root, 0)
    return depths


def reference_is_closed(tab: Tableau) -> bool:
    """True iff every branch contains complementary literals."""
    targets = reference_compute_targets(tab)

    def closed(n: Node, inherited: bool) -> bool:
        here = inherited or targets.get(n) is not None
        if not n.children:
            return here
        return all(closed(c, here) for c in n.children)

    return closed(tab.root, False)


def reference_is_leaf_closing(tab: Tableau) -> bool:
    return all(not reference_is_closing(n) for n in tab.nodes() if n.children)


def reference_is_leaf_closed(tab: Tableau) -> bool:
    return (
        reference_is_closed(tab)
        and reference_is_leaf_closing(tab)
        and all(reference_is_closing(n) for n in tab.nodes() if not n.children)
    )


def reference_is_regular(tab: Tableau) -> bool:
    def walk(n: Node, seen: frozenset[Literal]) -> bool:
        if n.literal is not None and n.literal in seen:
            return False
        seen2 = seen | ({n.literal} if n.literal is not None else frozenset())
        return all(walk(c, seen2) for c in n.children)

    return walk(tab.root, frozenset())


def reference_simplify_in_place(root: Node) -> tuple[int, int]:
    splices = 0
    truncations = 0
    counts: dict[Literal, int] = {}

    def visit(n: Node) -> None:
        nonlocal splices, truncations
        # splice irregular children until the clause below n is clean
        restart = True
        while restart:
            restart = False
            for c in n.children:
                if counts.get(c.literal, 0) > 0:
                    n.set_children(c.children)
                    splices += 1
                    restart = True
                    break
        for c in n.children:
            if c.children and counts.get(c.literal.complement(), 0) > 0:
                c.children = []  # closing inner node becomes a leaf
                truncations += 1
            counts[c.literal] = counts.get(c.literal, 0) + 1
            visit(c)
            counts[c.literal] -= 1

    visit(root)
    return splices, truncations


def reference_copy_subtree(node: Node) -> tuple[Node, dict[int, Node]]:
    """Fresh copy; returns the copy and a map id(original) -> copy, which
    the reference hyper conversion reads."""
    mapping: dict[int, Node] = {}

    def go(n: Node) -> Node:
        c = Node(n.literal, n.side)
        mapping[id(n)] = c
        for ch in n.children:
            cc = go(ch)
            cc.parent = c
            c.children.append(cc)
        return c

    return go(node), mapping


def reference_copy(tab: Tableau) -> Tableau:
    return Tableau(reference_copy_subtree(tab.root)[0])


def reference_assign_sides(
    tab: Tableau,
    f_clauses: Iterable[Clause],
    g_clauses: Iterable[Clause],
    tie: str = "F",
) -> Tableau:
    """Side labels on a copy of tab, each clause instance matched against
    every clause of both sides."""
    if tie not in ("F", "G"):
        raise InputError(f"bad tie policy: {tie}")
    fcs = tuple(f_clauses)
    gcs = tuple(g_clauses)
    out = tab.copy()
    for n in out.nodes():
        if not n.children:
            continue
        inst = clause_at(n)
        in_f = any(match_clause(inst, c) is not None for c in fcs)
        in_g = any(match_clause(inst, c) is not None for c in gcs)
        if in_f and in_g:
            side = tie
        elif in_f:
            side = "F"
        elif in_g:
            side = "G"
        else:
            raise StructureError(
                f"tableau clause is an instance of neither side: {' | '.join(map(str, inst))}"
            )
        for c in n.children:
            c.side = side
    return out


def reference_format_tableau(tab: Tableau) -> str:
    targets = reference_compute_targets(tab)
    depths = reference_depths(tab)
    lines = ["tableau"]

    def emit(n: Node) -> None:
        for c in n.children:
            parts = ["  " * depths[c] + str(c.literal)]
            if c.side is not None:
                parts.append(f"[{c.side}]")
            if targets[c] is not None:
                parts.append(f"-> {depths[targets[c]]}")
            lines.append(" ".join(parts))
            emit(c)

    emit(tab.root)
    return "\n".join(lines) + "\n"


def reference_tableau_equal(a: Tableau, b: Tableau) -> bool:
    """Structural equality: shape, literals, sides, and target depths."""
    a_targets, a_depths = reference_compute_targets(a), reference_depths(a)
    b_targets, b_depths = reference_compute_targets(b), reference_depths(b)

    def eq(x: Node, y: Node) -> bool:
        if x.literal != y.literal or x.side != y.side:
            return False
        xt = a_depths[a_targets[x]] if a_targets.get(x) is not None else None
        yt = b_depths[b_targets[y]] if b_targets.get(y) is not None else None
        if xt != yt:
            return False
        if len(x.children) != len(y.children):
            return False
        return all(eq(c, d) for c, d in zip(x.children, y.children))

    return eq(a.root, b.root)


def reference_ipol_map(tab: Tableau) -> dict[Node, Formula]:
    """Truth-value-simplified interpolant value for every node of a
    leaf-closed, ground, two-sided tableau."""
    for n in tab.non_root_nodes():
        if n.side not in ("F", "G"):
            raise StructureError("interpolant extraction needs side labels on every node")
        if not all(is_ground(a) for a in n.literal.args):
            raise StructureError("interpolant extraction needs a ground tableau")
    targets = reference_compute_targets(tab)
    values: dict[Node, Formula] = {}

    def go(n: Node) -> Formula:
        if not n.children:
            t = targets.get(n)
            if t is None:
                raise StructureError("tableau is not leaf-closed: open leaf")
            if n.side == "F" and t.side == "F":
                v: Formula = BOTTOM
            elif n.side == "F":
                v = n.literal
            elif t.side == "F":
                v = n.literal.complement()
            else:
                v = TOP
        else:
            side = n.children[0].side
            parts = [go(c) for c in n.children]
            v = simp_or(parts) if side == "F" else simp_and(parts)
        values[n] = v
        return v

    if not tab.root.children:
        raise StructureError("empty tableau")
    go(tab.root)
    return values


# ---------------------------------------------------------------------------
# Reference hyper conversion with whole-tree rounds, an oracle for the
# incremental rounds of hyper_convert: each round copies the whole subtree
# at nprime, rescans and simplifies the whole tree, and recounts its nodes.
# Its measure walks the subtree of nprime and, per ancestor, finds the
# node's place among its siblings.


def node_path(root: Node, node: Node) -> tuple[int, ...]:
    path: list[int] = []
    n = node
    while n is not root:
        path.append(n.parent.children.index(n))
        n = n.parent
    return tuple(reversed(path))


def node_measure(root: Node, node: Node) -> tuple:
    """Right-sibling counts along the root-to-node path, then a symbol
    larger than every number, then the count of distinct negative literals
    on inner strict descendants of the node."""
    chain: list[Node] = []
    n = node
    while n is not None:
        chain.append(n)
        n = n.parent
    chain.reverse()
    code: list[float] = []
    for n in chain:
        if n.parent is None:
            code.append(0)
        else:
            sibs = n.parent.children
            code.append(len(sibs) - 1 - sibs.index(n))
    bad = badlits(node)
    return tuple(code) + (OMEGA, len(bad))


def badlits(node: Node) -> set:
    return {
        n.literal for n in node.pre_order() if n is not node and n.children and not n.literal.positive
    }


def reference_hyper_convert(
    tab, max_nodes: int = 10_000_000, grafts: Optional[list[int]] = None
):
    """The converted copy of `tab` and its trace; `grafts`, if given,
    receives the number of graft points of each round."""
    def select(root):
        for n in root.pre_order():
            for c in n.children:
                if c.children and not c.literal.positive:
                    return n, c
        return None

    if not reference_is_closed(tab):
        raise StructureError("hyper conversion requires a closed tableau")
    trace = ConversionTrace(input_size=tab.inner_size())
    work = reference_copy(tab)
    root = work.root
    spl, tru = reference_simplify_in_place(root)
    trace.regular_splices += spl
    trace.leaf_truncations += tru
    prev = None
    while True:
        sel = select(root)
        if sel is None:
            break
        nprime, n = sel
        measure = node_measure(root, nprime)
        if prev is not None and not measure < prev:
            raise MeasureViolation(
                f"measure did not decrease: {measure_string(prev)} -> {measure_string(measure)}"
            )
        prev = measure
        path = node_path(root, nprime)
        u_root, mapping = reference_copy_subtree(nprime)
        mapping[id(n)].children = []
        nprime.set_children(n.children)
        comp = n.literal.complement()
        points = [
            m
            for m in nprime.pre_order()
            if m is not nprime and not m.children and m.literal == comp
        ]
        if grafts is not None:
            grafts.append(len(points))
        for m in points:
            u_copy, _ = reference_copy_subtree(u_root)
            m.set_children(u_copy.children)
        spl, tru = reference_simplify_in_place(root)
        trace.regular_splices += spl
        trace.leaf_truncations += tru
        size = sum(1 for _ in root.pre_order())
        if size > max_nodes:
            raise ResourceLimitError(f"hyper conversion exceeded {max_nodes} nodes")
        trace.rounds.append(ConversionRound(path, measure, size))
    if not is_hyper(work):
        raise StructureError("conversion finished on a non-hyper tableau")
    trace.output_size = work.inner_size()
    return work, trace


# ---------------------------------------------------------------------------
# Reference prover: the connection prover before the candidate index, an
# oracle for tableaux.prove.  It renames a copy of the clause for every
# literal of the opposite sign and checks regularity of each child against
# every ancestor afresh.  Statuses, inference counts and proofs must agree
# exactly, and depths too, except that this one reports depth 0 when a
# limit stops the search.


class _Deadline(Exception):
    pass


class _InferenceCap(Exception):
    pass


def reference_prove(
    clauses: Iterable[Clause],
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
) -> ProveResult:
    """Search for a leaf-closed closed clausal tableau for the clause set.

    On 'saturated' the search space was exhausted without hitting the depth
    limit, so no closed tableau exists at any depth."""
    cls = tuple(clauses)
    if not cls:
        raise InputError("prove expects a nonempty clause list")
    for c in cls:
        if not c.literals:
            raise InputError("prove cannot represent the empty clause; refutation is trivial")

    deadline = time.monotonic() + timeout if timeout is not None else None
    binding: Subst = {}
    trail: list[str] = []
    counters = {"inf": 0}
    cutoff = [False]
    copies = [0]

    def unify_complement(l1: Literal, l2: Literal) -> bool:
        if l1.positive == l2.positive or l1.predicate != l2.predicate:
            return False
        if len(l1.args) != len(l2.args):
            return False
        return unify_args(l1.args, l2.args, binding, trail)

    def tick() -> None:
        counters["inf"] += 1
        if max_inferences is not None and counters["inf"] > max_inferences:
            raise _InferenceCap
        if deadline is not None and counters["inf"] % 256 == 0:
            if time.monotonic() > deadline:
                raise _Deadline

    def instantiate(c: Clause) -> tuple[Literal, ...]:
        copies[0] += 1
        k = copies[0]
        ren: dict[str, Term] = {}

        def rt(t: Term) -> Term:
            if isinstance(t, Var):
                got = ren.get(t.name)
                if got is None:
                    got = Var(f"{t.name}_{k}")
                    ren[t.name] = got
                return got
            if not t.args:
                return t
            return App(t.functor, tuple(rt(a) for a in t.args))

        return tuple(Literal(l.positive, l.predicate, tuple(rt(a) for a in l.args)) for l in c.literals)

    def regular(children: list[Node]) -> bool:
        for ch in children:
            lit = reference_apply_literal(ch.literal, binding)
            for anc in ancestors(ch):
                if anc.literal is not None and reference_apply_literal(anc.literal, binding) == lit:
                    return False
        return True

    def solve(goals: list[Node], limit: int) -> bool:
        if not goals:
            return True
        goal, rest = goals[0], goals[1:]
        # reduction: close against an ancestor
        for anc in ancestors(goal):
            if anc.literal is None:
                continue
            tick()
            mark = len(trail)
            if unify_complement(goal.literal, anc.literal) and solve(rest, limit):
                return True
            undo(binding, trail, mark)
        # extension: attach a clause instance containing a closing literal
        # the depth of the goal's children: the goal's ancestors count the root
        if sum(1 for _ in ancestors(goal)) + 1 > limit:
            cutoff[0] = True
            return False
        for c in cls:
            for idx in range(len(c.literals)):
                if c.literals[idx].positive == goal.literal.positive:
                    continue
                tick()
                mark = len(trail)
                lits = instantiate(c)
                if unify_complement(goal.literal, lits[idx]):
                    children = [Node(l) for l in lits]
                    goal.set_children(children)
                    if regular(children):
                        new_goals = [ch for i, ch in enumerate(children) if i != idx]
                        if solve(new_goals + rest, limit):
                            return True
                    goal.children = []
                undo(binding, trail, mark)
        return False

    try:
        for limit in range(1, max_depth + 1):
            cutoff[0] = False
            for c in cls:
                root = Node()
                children = [Node(l) for l in instantiate(c)]
                root.set_children(children)
                if regular(children) and solve(children, limit):
                    for n in root.pre_order():
                        if n.literal is not None:
                            n.literal = reference_apply_literal(n.literal, binding)
                    tab = simplify(Tableau(root))
                    return ProveResult("proved", tab, counters["inf"], limit)
            if not cutoff[0]:
                return ProveResult("saturated", None, counters["inf"], limit)
    except _Deadline:
        return ProveResult("timeout", None, counters["inf"], 0)
    except _InferenceCap:
        return ProveResult("inference_limit", None, counters["inf"], 0)
    return ProveResult("depth_limit", None, counters["inf"], max_depth)


# ---------------------------------------------------------------------------
# Reference formula walks: the recursive walkers each of which dispatched
# on the connectives itself, before `occurrences` and `map_formula`, an
# oracle for the walks in syntax.py and for normalize.standardize.  Results
# must agree exactly, errors included.


def reference_term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    out: set[str] = set()
    for a in t.args:
        out |= reference_term_vars(a)
    return out


def reference_term_functions(t: Term) -> set[str]:
    if isinstance(t, Var):
        return set()
    out = {t.functor}
    for a in t.args:
        out |= reference_term_functions(a)
    return out


def reference_free_vars(f: Formula) -> set[str]:
    out: set[str] = set()

    def walk(g: Formula, bound: frozenset[str]) -> None:
        if isinstance(g, Literal):
            for a in g.args:
                out.update(reference_term_vars(a) - bound)
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p, bound)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, (Implies, Iff)):
            walk(g.lhs, bound)
            walk(g.rhs, bound)
        elif isinstance(g, (ForAll, Exists)):
            walk(g.body, bound | {g.var})
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, frozenset())
    return out


def reference_polarity_vars(f: Formula) -> tuple[set[str], set[str]]:
    pos: set[str] = set()
    neg: set[str] = set()

    def walk(g: Formula, bound: frozenset[str], pol: bool) -> None:
        if isinstance(g, Literal):
            atom_pol = pol if g.positive else not pol
            vs: set[str] = set()
            for a in g.args:
                vs |= reference_term_vars(a)
            (pos if atom_pol else neg).update(vs - bound)
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p, bound, pol)
        elif isinstance(g, Not):
            walk(g.body, bound, not pol)
        elif isinstance(g, Implies):
            walk(g.lhs, bound, not pol)
            walk(g.rhs, bound, pol)
        elif isinstance(g, Iff):
            for side in (g.lhs, g.rhs):
                walk(side, bound, pol)
                walk(side, bound, not pol)
        elif isinstance(g, (ForAll, Exists)):
            walk(g.body, bound | {g.var}, pol)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, frozenset(), True)
    return pos, neg


def reference_vocabulary(f: Formula) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    funcs: set[str] = set()
    preds: set[tuple[str, str]] = set()

    def walk(g: Formula, pol: bool) -> None:
        if isinstance(g, Literal):
            atom_pol = pol if g.positive else not pol
            preds.add((g.predicate, "+" if atom_pol else "-"))
            for a in g.args:
                funcs.update(reference_term_functions(a))
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p, pol)
        elif isinstance(g, Not):
            walk(g.body, not pol)
        elif isinstance(g, Implies):
            walk(g.lhs, not pol)
            walk(g.rhs, pol)
        elif isinstance(g, Iff):
            for side in (g.lhs, g.rhs):
                walk(side, pol)
                walk(side, not pol)
        elif isinstance(g, (ForAll, Exists)):
            walk(g.body, pol)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, True)
    return frozenset(funcs), frozenset(preds)


def reference_formula_symbols(f: Formula) -> set[str]:
    funcs, preds = reference_vocabulary(f)
    out = set(funcs) | {p for p, _ in preds} | reference_free_vars(f)
    out |= _reference_bound_names(f)
    return out


def _reference_bound_names(f: Formula) -> set[str]:
    if isinstance(f, (Literal, Top, Bottom)):
        return set()
    if isinstance(f, (And, Or)):
        out: set[str] = set()
        for p in f.parts:
            out |= _reference_bound_names(p)
        return out
    if isinstance(f, Not):
        return _reference_bound_names(f.body)
    if isinstance(f, (Implies, Iff)):
        return _reference_bound_names(f.lhs) | _reference_bound_names(f.rhs)
    if isinstance(f, (ForAll, Exists)):
        return {f.var} | _reference_bound_names(f.body)
    raise TypeError(f"not a formula: {f!r}")


def _reference_map_literal_terms(l: Literal, fn) -> Literal:
    return Literal(l.positive, l.predicate, tuple(fn(a) for a in l.args))


def reference_formula_subst(f: Formula, subst: Subst) -> Formula:
    if isinstance(f, Literal):
        return _reference_map_literal_terms(f, lambda t: apply_term(t, subst))
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, And):
        return And(tuple(reference_formula_subst(p, subst) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(reference_formula_subst(p, subst) for p in f.parts))
    if isinstance(f, Not):
        return Not(reference_formula_subst(f.body, subst))
    if isinstance(f, Implies):
        return Implies(reference_formula_subst(f.lhs, subst), reference_formula_subst(f.rhs, subst))
    if isinstance(f, Iff):
        return Iff(reference_formula_subst(f.lhs, subst), reference_formula_subst(f.rhs, subst))
    if isinstance(f, (ForAll, Exists)):
        inner = {v: t for v, t in subst.items() if v != f.var}
        body = reference_formula_subst(f.body, inner) if inner else f.body
        return type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def reference_rename_predicates(f: Formula, mapping: dict[str, str]) -> Formula:
    if isinstance(f, Literal):
        return Literal(f.positive, mapping.get(f.predicate, f.predicate), f.args)
    if isinstance(f, (Top, Bottom)):
        return f
    if isinstance(f, And):
        return And(tuple(reference_rename_predicates(p, mapping) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(reference_rename_predicates(p, mapping) for p in f.parts))
    if isinstance(f, Not):
        return Not(reference_rename_predicates(f.body, mapping))
    if isinstance(f, Implies):
        return Implies(reference_rename_predicates(f.lhs, mapping), reference_rename_predicates(f.rhs, mapping))
    if isinstance(f, Iff):
        return Iff(reference_rename_predicates(f.lhs, mapping), reference_rename_predicates(f.rhs, mapping))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.var, reference_rename_predicates(f.body, mapping))
    raise TypeError(f"not a formula: {f!r}")


def reference_alpha_equal(f: Formula, g: Formula) -> bool:
    return _reference_canon(f, {}, [0]) == _reference_canon(g, {}, [0])


def _reference_canon(f: Formula, env: Subst, counter: list[int]):
    if isinstance(f, Literal):
        return ("lit", f.positive, f.predicate, tuple(apply_term(a, env) for a in f.args))
    if isinstance(f, Top):
        return ("top",)
    if isinstance(f, Bottom):
        return ("bot",)
    if isinstance(f, (And, Or)):
        tag = "and" if isinstance(f, And) else "or"
        return (tag, tuple(_reference_canon(p, env, counter) for p in f.parts))
    if isinstance(f, Not):
        return ("not", _reference_canon(f.body, env, counter))
    if isinstance(f, Implies):
        return ("imp", _reference_canon(f.lhs, env, counter), _reference_canon(f.rhs, env, counter))
    if isinstance(f, Iff):
        return ("iff", _reference_canon(f.lhs, env, counter), _reference_canon(f.rhs, env, counter))
    if isinstance(f, (ForAll, Exists)):
        counter[0] += 1
        fresh = Var(f"#{counter[0]}")
        tag = "all" if isinstance(f, ForAll) else "ex"
        return (tag, _reference_canon(f.body, {**env, f.var: fresh}, counter))
    raise TypeError(f"not a formula: {f!r}")


def reference_standardize(f: Formula, reserved: Iterable[str] = ()) -> Formula:
    used = set(reserved) | reference_free_vars(f)

    def pick(name: str) -> str:
        if name not in used:
            used.add(name)
            return name
        n = 2
        while f"{name}_{n}" in used:
            n += 1
        fresh = f"{name}_{n}"
        used.add(fresh)
        return fresh

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Literal):
            if not env:
                return g
            sub: Subst = {v: Var(w) for v, w in env.items()}
            return reference_formula_subst(g, sub)
        if isinstance(g, (Top, Bottom)):
            return g
        if isinstance(g, And):
            return And(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Not):
            return Not(walk(g.body, env))
        if isinstance(g, Implies):
            return Implies(walk(g.lhs, env), walk(g.rhs, env))
        if isinstance(g, Iff):
            return Iff(walk(g.lhs, env), walk(g.rhs, env))
        if isinstance(g, (ForAll, Exists)):
            new = pick(g.var)
            return type(g)(new, walk(g.body, {**env, g.var: new}))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {})


def reference_signature_of(formulas: Iterable[Formula]) -> Signature:
    sig = Signature()

    def extend_with_term(t: Term) -> None:
        if isinstance(t, App):
            sig.add_function(t.functor, len(t.args))
            for a in t.args:
                extend_with_term(a)

    def extend_with_formula(f: Formula) -> None:
        if isinstance(f, Literal):
            sig.add_predicate(f.predicate, len(f.args))
            for a in f.args:
                extend_with_term(a)
        elif isinstance(f, (Top, Bottom)):
            pass
        elif isinstance(f, (And, Or)):
            for p in f.parts:
                extend_with_formula(p)
        elif isinstance(f, Not):
            extend_with_formula(f.body)
        elif isinstance(f, (Implies, Iff)):
            extend_with_formula(f.lhs)
            extend_with_formula(f.rhs)
        elif isinstance(f, (ForAll, Exists)):
            extend_with_formula(f.body)
        else:
            raise TypeError(f"not a formula: {f!r}")

    for f in formulas:
        extend_with_formula(f)
    return sig


# ---------------------------------------------------------------------------
# The clausal normal form before the one walk of `cnf`: recursive NNF,
# standardization, prenexing and distribution, one intermediate formula per
# pass; and the recursive fragment deciders, truth-value simplification,
# maximal-term scan and lifting


def reference_nnf(f: Formula) -> Formula:
    if isinstance(f, (Literal, Top, Bottom)):
        return f
    if isinstance(f, And):
        return And(tuple(reference_nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(reference_nnf(p) for p in f.parts))
    if isinstance(f, Implies):
        return Or((reference_nnf(Not(f.lhs)), reference_nnf(f.rhs)))
    if isinstance(f, Iff):
        return And(
            (
                Or((reference_nnf(Not(f.lhs)), reference_nnf(f.rhs))),
                Or((reference_nnf(Not(f.rhs)), reference_nnf(f.lhs))),
            )
        )
    if isinstance(f, ForAll):
        return ForAll(f.var, reference_nnf(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, reference_nnf(f.body))
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Literal):
            return g.complement()
        if isinstance(g, Top):
            return BOTTOM
        if isinstance(g, Bottom):
            return TOP
        if isinstance(g, Not):
            return reference_nnf(g.body)
        if isinstance(g, And):
            return Or(tuple(reference_nnf(Not(p)) for p in g.parts))
        if isinstance(g, Or):
            return And(tuple(reference_nnf(Not(p)) for p in g.parts))
        if isinstance(g, Implies):
            return And((reference_nnf(g.lhs), reference_nnf(Not(g.rhs))))
        if isinstance(g, Iff):
            return Or(
                (
                    And((reference_nnf(g.lhs), reference_nnf(Not(g.rhs)))),
                    And((reference_nnf(g.rhs), reference_nnf(Not(g.lhs)))),
                )
            )
        if isinstance(g, ForAll):
            return Exists(g.var, reference_nnf(Not(g.body)))
        if isinstance(g, Exists):
            return ForAll(g.var, reference_nnf(Not(g.body)))
    raise TypeError(f"not a formula: {f!r}")


def reference_prenex(f: Formula) -> tuple[tuple[tuple[str, str], ...], Formula]:
    prefix: list[tuple[str, str]] = []

    def walk(g: Formula) -> Formula:
        if isinstance(g, (Literal, Top, Bottom)):
            return g
        if isinstance(g, And):
            return And(tuple(walk(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p) for p in g.parts))
        if isinstance(g, ForAll):
            prefix.append(("forall", g.var))
            return walk(g.body)
        if isinstance(g, Exists):
            prefix.append(("exists", g.var))
            return walk(g.body)
        raise InputError("prenex expects an NNF formula")

    matrix = walk(f)
    return tuple(prefix), matrix


def reference_matrix_cnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> tuple[Clause, ...]:
    def dedup(clauses: list[Clause]) -> list[Clause]:
        return list(dict.fromkeys(clauses))

    def go(g: Formula) -> list[Clause]:
        if isinstance(g, Literal):
            return [Clause((g,))]
        if isinstance(g, Top):
            return []
        if isinstance(g, Bottom):
            return [Clause(())]
        if isinstance(g, And):
            merged: list[Clause] = []
            for p in g.parts:
                merged.extend(go(p))
            return dedup(merged)
        if isinstance(g, Or):
            acc: list[Clause] = [Clause(())]
            for p in g.parts:
                cs = go(p)
                if len(acc) * len(cs) > max_clauses:
                    raise ClauseLimitError(f"distribution exceeds {max_clauses} clauses")
                acc = [mk_clause(a.literals + c.literals) for a in acc for c in cs]
            return dedup(acc)
        raise InputError("matrix distribution expects a quantifier-free NNF")

    return tuple(go(f))


def reference_cnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    prefix, matrix = reference_prenex(reference_standardize(reference_nnf(f)))
    return PrenexNormalForm(prefix, reference_matrix_cnf(matrix, max_clauses), "cnf")


def reference_dnf(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> PrenexNormalForm:
    return reference_cnf(Not(f), max_clauses).dual()


def reference_skolemize_clausify(
    f: Formula, namer: Optional[FreshNamer] = None, max_clauses: int = DEFAULT_CLAUSE_LIMIT
) -> ClausificationResult:
    if reference_free_vars(f):
        raise InputError("skolemize_clausify expects a sentence")
    if namer is None:
        namer = FreshNamer(reference_formula_symbols(f))
    p = reference_cnf(f, max_clauses)
    sub: Subst = {}
    skolems: list[str] = []
    universals: list[str] = []
    for q, v in p.prefix:
        if q == "forall":
            universals.append(v)
        else:
            name = namer.fresh("sk")
            skolems.append(name)
            sub[v] = App(name, tuple(Var(u) for u in universals))
    if sub:
        clauses = tuple(mk_clause(reference_apply_literal(l, sub) for l in c.literals) for c in p.matrix)
    else:
        clauses = p.matrix
    return ClausificationResult(clauses, frozenset(skolems), frozenset(universals))


def reference_is_horn(f: Formula) -> bool:
    if isinstance(f, (Top, Bottom, Literal)):
        return _reference_is_horn_clause(f)
    if isinstance(f, And):
        return all(reference_is_horn(p) for p in f.parts)
    if isinstance(f, (ForAll, Exists)):
        return reference_is_horn(f.body)
    if isinstance(f, Or):
        return _reference_is_horn_clause(f)
    return False


def _reference_is_horn_clause(f: Formula) -> bool:
    if isinstance(f, (Top, Bottom, Literal)):
        return True
    if isinstance(f, Or):
        positives = 0
        for p in f.parts:
            if isinstance(p, Literal):
                positives += 1 if p.positive else 0
            elif isinstance(p, Bottom):
                continue
            else:
                return False
        return positives <= 1
    return False


def reference_is_horn_like(f: Formula) -> bool:
    if isinstance(f, (Literal, Top, Bottom)):
        return True
    if isinstance(f, And):
        return all(reference_is_horn_like(p) for p in f.parts)
    if isinstance(f, Or):
        others = 0
        for p in f.parts:
            if isinstance(p, Literal) and not p.positive:
                continue
            if isinstance(p, Bottom):
                continue
            others += 1
            if others > 1 or not reference_is_horn_like(p):
                return False
        return True
    return False


def reference_truth_simplify(f: Formula) -> Formula:
    if isinstance(f, And):
        return simp_and(reference_truth_simplify(p) for p in f.parts)
    if isinstance(f, Or):
        return simp_or(reference_truth_simplify(p) for p in f.parts)
    return f


def reference_hornify(f: Formula, max_clauses: int = DEFAULT_CLAUSE_LIMIT) -> Formula:
    if not reference_is_horn_like(f):
        raise InputError("hornify expects a Horn-like NNF")
    g = reference_truth_simplify(f)
    if isinstance(g, (Top, Bottom, Literal)):
        return g
    clauses = reference_matrix_cnf(g, max_clauses)
    for c in clauses:
        if sum(1 for l in c.literals if l.positive) > 1:
            raise AssertionError("distribution of a Horn-like NNF produced a non-Horn clause")
    return mk_and(mk_or(c.literals) for c in clauses)


def reference_smax_by(member, f: Formula, sign: str = "all") -> set[Term]:
    if sign not in ("all", "positive", "negative"):
        raise InputError(f"bad sign filter: {sign}")
    out: set[Term] = set()

    def scan_term(t: Term) -> None:
        if member(t):
            out.add(t)
            return
        if isinstance(t, App):
            for a in t.args:
                scan_term(a)

    def walk(g: Formula) -> None:
        if isinstance(g, Literal):
            if sign == "positive" and not g.positive:
                return
            if sign == "negative" and g.positive:
                return
            for a in g.args:
                scan_term(a)
        elif isinstance(g, (Top, Bottom)):
            pass
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        else:
            raise InputError("smax expects a quantifier-free NNF")

    walk(f)
    return out


def _reference_term_depth(t: Term) -> int:
    if isinstance(t, Var) or not t.args:
        return 1
    return 1 + max(_reference_term_depth(a) for a in t.args)


def reference_lift_parts(h_grd: Formula, ctx, namer: Optional[FreshNamer] = None):
    if namer is None:
        namer = FreshNamer(reference_formula_symbols(h_grd))

    def member(t: Term) -> bool:
        return ctx.e_member(t) or ctx.u_member(t)

    occurrence: list[Term] = []

    def scan(t: Term) -> None:
        if member(t):
            if t not in occurrence:
                occurrence.append(t)
            return
        if isinstance(t, App):
            for a in t.args:
                scan(a)

    def walk_scan(g: Formula) -> None:
        if isinstance(g, Literal):
            for a in g.args:
                scan(a)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk_scan(p)
        elif isinstance(g, (Top, Bottom)):
            pass
        else:
            raise StructureError("lifting expects a quantifier-free NNF")

    walk_scan(h_grd)
    ordered = sorted(occurrence, key=lambda t: (_reference_term_depth(t), occurrence.index(t)))
    names = {t: namer.fresh("V") for t in ordered}
    prefix = tuple(("exists" if ctx.e_member(t) else "forall", names[t]) for t in ordered)

    def replace(t: Term) -> Term:
        if member(t):
            return Var(names[t])
        if isinstance(t, App) and t.args:
            return App(t.functor, tuple(replace(a) for a in t.args))
        return t

    def rebuild(g: Formula) -> Formula:
        if isinstance(g, Literal):
            return _reference_map_literal_terms(g, replace)
        if isinstance(g, (And, Or)):
            return type(g)(tuple(rebuild(p) for p in g.parts))
        return g

    return prefix, rebuild(h_grd), tuple(ordered)


def pnf_formula(p: PrenexNormalForm) -> Formula:
    """The formula a prenex normal form stands for: its clauses, joined by
    & in a CNF and by | in a DNF, under its prefix."""
    join = mk_and if p.kind == "cnf" else mk_or
    return wrap_prefix(p.prefix, join(clause_formula(c) for c in p.matrix))


def reference_entails(
    a: Formula,
    b: Formula,
    max_depth: int = 30,
    timeout: Optional[float] = None,
    max_inferences: Optional[int] = None,
) -> str:
    """`entails` as it was before it froze and clausified a once per call:
    each universal conjunct of b is frozen and clausified together with a
    again, and every conjunct is tried."""
    statuses = [
        _reference_entails_single(a, part, max_depth, timeout, max_inferences)
        for part in _universal_conjuncts(b)
    ]
    if any(s == "fail" for s in statuses):
        return "fail"
    if any(s == "inconclusive" for s in statuses):
        return "inconclusive"
    return "pass"


def _reference_entails_single(a, b, max_depth, timeout, max_inferences) -> str:
    sa, sb = read_symbols(a), read_symbols(b)
    namer = FreshNamer(sa.names | sb.names)
    frozen, _, _ = freeze_free_vars(namer, (sa.free, sb.free))
    ares = skolemize_clausify(reference_formula_subst(a, frozen), namer)
    bres = skolemize_clausify(Not(reference_formula_subst(b, frozen)), namer)
    if ares.has_empty_clause() or bres.has_empty_clause():
        return "pass"
    result = prove(
        ares.clauses + bres.clauses,
        max_depth=max_depth,
        timeout=timeout,
        max_inferences=max_inferences,
    )
    if result.proved:
        return "pass"
    if result.status == "saturated":
        return "fail"
    return "inconclusive"


@functools.cache
def _gen_samples():
    path = Path(__file__).resolve().parent.parent / "scripts" / "gen_samples.py"
    spec = importlib.util.spec_from_file_location("gen_samples", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def proof_family(family: str, k: int) -> str:
    """Resolution proof text of the `chain`, `wide` or `fol_chain` family
    of size k, from the sample generator script."""
    return getattr(_gen_samples(), family)(k)


def doubling_dag_proof(levels: int) -> str:
    """A proof whose step s_k uses s_(k-1) twice, so that its tree
    expansion doubles with every level."""
    lines = ["s0 input p0"]
    for k in range(1, levels + 1):
        j = k - 1
        lines += [
            f"c{k} input ~p{j} | q{k}",
            f"d{k} input ~p{j} | ~q{k} | p{k}",
            f"t{k} resolve(s{j}, c{k}, p{j}) q{k}",
            f"u{k} resolve(s{j}, d{k}, p{j}) ~q{k} | p{k}",
            f"s{k} resolve(t{k}, u{k}, q{k}) p{k}",
        ]
    lines += [f"n input ~p{levels}", f"r resolve(s{levels}, n, p{levels}) false"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference front end: the tokenizer and recursive-descent parser that made
# one `_ReferenceToken` dataclass per token and one parser per line, the
# proof parser with replay by sorted clauses, the grounding that resolved
# every literal twice, and the tableau-document parser.  An oracle for
# tptp.py, proofs.py and documents.py: results must be equal and errors
# must agree in type, message, line and column.  One known difference: a
# proof record cut off after a step reference or a fof record cut off after
# its name or role makes this parser read past the end of its tokens and
# raise IndexError, where the current one reports a ParseError.


@dataclass
class _ReferenceToken:
    kind: str
    text: str
    line: int
    col: int


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*|\#[^\n]*)
  | (?P<op><=>|=>|!=|->|=|~|&|\||\(|\)|\[|\]|\{|\}|,|:|\.)
  | (?P<defined>\$true|\$false)
  | (?P<upper>[A-Z][A-Za-z0-9_]*)
  | (?P<lower>[a-z0-9][A-Za-z0-9_]*)
  | (?P<quant>[!?])
""",
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[_ReferenceToken]:
    out: list[_ReferenceToken] = []
    line = 1
    col = 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            out.append(_ReferenceToken(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    out.append(_ReferenceToken("eof", "", line, col))
    return out


class ReferenceParser:
    def __init__(self, text: str):
        self.toks = reference_tokenize(text)
        self.i = 0

    def peek(self) -> _ReferenceToken:
        return self.toks[self.i]

    def next(self) -> _ReferenceToken:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _ReferenceToken:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def formula(self) -> Formula:
        lhs = self.implication()
        if self.peek().text == "<=>":
            self.next()
            rhs = self.implication()
            return Iff(lhs, rhs)
        return lhs

    def implication(self) -> Formula:
        lhs = self.disjunction()
        if self.peek().text == "=>":
            self.next()
            rhs = self.implication()
            return Implies(lhs, rhs)
        return lhs

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek().text == "|":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unit()]
        while self.peek().text == "&":
            self.next()
            parts.append(self.unit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unit(self) -> Formula:
        t = self.peek()
        if t.text == "~":
            self.next()
            body = self.unit()
            if isinstance(body, Literal):
                return body.complement()
            return Not(body)
        if t.kind == "quant":
            self.next()
            self.expect("[")
            names = [self.variable_name()]
            while self.peek().text == ",":
                self.next()
                names.append(self.variable_name())
            self.expect("]")
            self.expect(":")
            body = self.unit()
            ctor = ForAll if t.text == "!" else Exists
            for name in reversed(names):
                body = ctor(name, body)
            return body
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "defined":
            self.next()
            return TOP if t.text == "$true" else BOTTOM
        return self.atom()

    def variable_name(self) -> str:
        t = self.next()
        if t.kind != "upper":
            raise ParseError(f"expected a variable, found {t.text!r}", t.line, t.col)
        return t.text

    def atom(self) -> Formula:
        first = self.term()
        nxt = self.peek().text
        if nxt == "=" or nxt == "!=":
            self.next()
            second = self.term()
            return Literal(nxt == "=", "=", (first, second))
        if isinstance(first, Var):
            self.error("a variable is not a formula")
        return Literal(True, first.functor, first.args)

    def term(self) -> Term:
        t = self.next()
        if t.kind == "upper":
            return Var(t.text)
        if t.kind != "lower":
            raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)
        if self.peek().text == "(":
            self.next()
            args = [self.term()]
            while self.peek().text == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
            return App(t.text, tuple(args))
        return App(t.text)

    def fof_records(self) -> list[FofRecord]:
        out = []
        while self.peek().kind != "eof":
            self.expect("fof")
            self.expect("(")
            name = self.next().text
            self.expect(",")
            role = self.next().text
            self.expect(",")
            f = self.formula()
            self.expect(")")
            self.expect(".")
            out.append(FofRecord(name, role, f))
        return out


def reference_parse_formula(text: str) -> Formula:
    p = ReferenceParser(text)
    f = p.formula()
    if p.peek().kind != "eof":
        p.error("trailing input after formula")
    return f


def reference_parse_fof_file(text: str) -> list[FofRecord]:
    records = ReferenceParser(text).fof_records()
    reference_signature_of(r.formula for r in records)  # raises on a clash
    return records


def reference_parse_clause(text: str, line: int = 1) -> Clause:
    stripped = text.strip()
    if stripped in ("$false", "false"):
        return Clause(())
    p = ReferenceParser(text)
    lits: list[Literal] = []
    while True:
        lits.append(reference_parse_literal(p))
        if p.peek().text == "|":
            p.next()
            continue
        break
    if p.peek().kind != "eof":
        p.error("trailing input after clause")
    return mk_clause(lits)


def reference_parse_literal(p: ReferenceParser) -> Literal:
    negated = False
    while p.peek().text == "~":
        p.next()
        negated = not negated
    if p.peek().text == "(":
        p.next()
        inner = reference_parse_literal(p)
        p.expect(")")
        return inner.complement() if negated else inner
    f = p.atom()
    if not isinstance(f, Literal):
        p.error("expected a literal")
    return f.complement() if negated else f


def reference_extend_signature(
    sig: Signature, literals: Iterable[Literal], terms: Iterable[Term] = (), line: Optional[int] = None
) -> None:
    """Add the predicates and function symbols of `literals`, then the
    function symbols of `terms`, to sig, walking every term in full; a
    clash names `line` when one is given."""
    if line is not None:
        try:
            reference_extend_signature(sig, literals, terms)
        except InputError as e:
            raise InputError(f"{e} at line {line}") from None
        return

    def extend_with_term(t: Term) -> None:
        if isinstance(t, App):
            sig.add_function(t.functor, len(t.args))
            for a in t.args:
                extend_with_term(a)

    for l in literals:
        sig.add_predicate(l.predicate, len(l.args))
        for a in l.args:
            extend_with_term(a)
    for t in terms:
        extend_with_term(t)


def reference_parse_clause_file(text: str) -> list[Clause]:
    out = []
    sig = Signature()
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("%"):
            continue
        try:
            c = reference_parse_clause(stripped, i)
        except ParseError as e:
            raise ParseError(e.message, i, len(raw) - len(raw.lstrip()) + e.col) from None
        reference_extend_signature(sig, c.literals, line=i)
        out.append(c)
    return out


def reference_normalize_clause(c: Clause) -> tuple[Literal, ...]:
    return tuple(sorted(set(c.literals), key=literal_key))


def reference_parse_proof(text: str) -> ProofDocument:
    steps: dict[str, DeductionStep] = {}
    sig = Signature()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("%"):
            continue
        step = _reference_parse_record(stripped, line_no, steps)
        # each record's atom and clause, then its binding terms
        atom = (step.atom,) if step.atom is not None else ()
        reference_extend_signature(sig, atom + step.clause.literals, step.bindings.values(), line_no)
        steps[step.step_id] = step
    if not steps:
        raise ProofError("empty proof document")
    doc = ProofDocument(list(steps.values()))
    _reference_replay_validate(doc)
    return doc


def _reference_parse_record(text: str, line_no: int, known: dict[str, DeductionStep]) -> DeductionStep:
    try:
        p = ReferenceParser(text)
        tid = p.next()
        if tid.kind not in ("lower", "upper"):
            raise ParseError("expected a step id", tid.line, tid.col)
        step_id = tid.text
        if step_id in known:
            raise ParseError(f"duplicate step id {step_id!r}", tid.line, tid.col)
        rule_tok = p.next()
        rule = rule_tok.text
        if rule == "input":
            clause = _reference_parse_clause_tokens(p)
            return DeductionStep("input", clause, step_id=step_id, line=line_no)
        if rule == "resolve":
            p.expect("(")
            ref1 = p.next().text
            p.expect(",")
            ref2 = p.next().text
            p.expect(",")
            atom = reference_parse_literal(p)
            if not atom.positive:
                raise ParseError("resolved atom must be positive", rule_tok.line, rule_tok.col)
            p.expect(")")
            bindings: dict[str, Term] = {}
            if p.peek().text == "{":
                p.next()
                while True:
                    vt = p.next()
                    if vt.kind != "upper":
                        raise ParseError("expected a variable in bindings", vt.line, vt.col)
                    p.expect("->")
                    t = p.term()
                    if vt.text in bindings:
                        raise ParseError(f"variable bound twice: {vt.text}", vt.line, vt.col)
                    bindings[vt.text] = t
                    if p.peek().text == ",":
                        p.next()
                        continue
                    break
                p.expect("}")
            for ref in (ref1, ref2):
                if ref not in known:
                    raise ParseError(f"dangling step reference {ref!r}", tid.line, tid.col)
            clause = _reference_parse_clause_tokens(p)
            return DeductionStep(
                "resolve", clause, atom, known[ref1], known[ref2], bindings, step_id, line_no
            )
        if rule in {"paramod", "paramodulation", "para", "pm"}:
            raise ParseError(
                "paramodulation steps are not supported; add equality axioms "
                "(substitutivity) and re-prove with binary resolution",
                rule_tok.line,
                rule_tok.col,
            )
        raise ParseError(f"unknown rule {rule!r} (only input and resolve)", rule_tok.line, rule_tok.col)
    except ParseError as e:
        raise ProofError(e.message, line_no) from None


def _reference_parse_clause_tokens(p: ReferenceParser) -> Clause:
    if p.peek().text in ("$false", "false"):
        p.next()
        if p.peek().kind != "eof":
            p.error("trailing input after clause")
        return Clause(())
    lits = [reference_parse_literal(p)]
    while p.peek().text == "|":
        p.next()
        lits.append(reference_parse_literal(p))
    if p.peek().kind != "eof":
        p.error("trailing input after clause")
    return mk_clause(lits)


def _reference_resolvent(left: Clause, right: Clause, atom: Literal, store: Subst) -> tuple:
    atom_s = reference_apply_literal(atom, store)
    comp_s = atom_s.complement()
    left_s = [reference_apply_literal(l, store) for l in left.literals]
    right_s = [reference_apply_literal(l, store) for l in right.literals]
    if atom_s not in left_s:
        raise ValueError(f"resolved atom {atom_s} not in first parent")
    if comp_s not in right_s:
        raise ValueError(f"complement {comp_s} not in second parent")
    merged = [l for l in left_s if l != atom_s] + [l for l in right_s if l != comp_s]
    return reference_normalize_clause(mk_clause(merged))


def _reference_replay_validate(doc: ProofDocument) -> None:
    store: Subst = {}
    for r in doc.records:
        reference_add_bindings(store, r.bindings, r.line)
        if r.kind != "resolve":
            continue
        try:
            got = _reference_resolvent(r.left.clause, r.right.clause, r.atom, store)
        except ValueError as e:
            raise ProofError(str(e), r.line) from None
        if got != reference_normalize_clause(mk_clause(reference_apply_literal(l, store) for l in r.clause.literals)):
            raise ProofError(
                f"declared resolvent {r.clause} does not match "
                f"recomputed {Clause(got)}",
                r.line,
            )


def _reference_steps(step: DeductionStep):
    yield step
    if step.left is not None:
        yield from _reference_steps(step.left)
    if step.right is not None:
        yield from _reference_steps(step.right)


def reference_ground_deduction(tree: DeductionStep, namer: Optional[FreshNamer] = None) -> DeductionStep:
    store: Subst = {}
    for step in _reference_steps(tree):
        reference_add_bindings(store, step.bindings)
    symbols: set[str] = set()
    terms: list[Term] = []
    for step in _reference_steps(tree):
        lits = list(step.clause.literals) + ([step.atom] if step.atom else [])
        for l in lits:
            symbols.add(l.predicate)
            for a in l.args:
                symbols |= reference_term_functions(a)
                terms.append(reference_resolve(a, store))
        # fresh constants avoid the symbols of the binding terms too
        for t in step.bindings.values():
            symbols |= reference_term_functions(t)
    if namer is None:
        namer = FreshNamer(symbols)
    for v in ordered_vars(terms):
        store[v] = App(namer.fresh("g"))

    def rebuild(step: DeductionStep) -> DeductionStep:
        cl = mk_clause(reference_apply_literal(l, store) for l in step.clause.literals)
        if step.kind == "input":
            return DeductionStep("input", cl, step_id=step.step_id)
        out = DeductionStep(
            "resolve",
            cl,
            atom=reference_apply_literal(step.atom, store),
            left=rebuild(step.left),
            right=rebuild(step.right),
            step_id=step.step_id,
        )
        try:
            got = _reference_resolvent(out.left.clause, out.right.clause, out.atom, {})
        except ValueError as e:
            raise ProofError(f"step {step.step_id}: {e} after grounding") from None
        if got != reference_normalize_clause(out.clause):
            raise ProofError(
                f"step {step.step_id} is not a valid ground resolution step after grounding"
            )
        return out

    return rebuild(tree)


_REFERENCE_LINE_RE = re.compile(
    r"^(?P<indent> *)(?P<lit>.*?)(?:\s+\[(?P<side>[FG])\])?(?:\s+->\s+(?P<target>\d+))?\s*$"
)


def reference_parse_tableau(text: str) -> Tableau:
    lines = text.splitlines()
    body: list[tuple[int, str]] = []
    for i, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.lstrip().startswith("#") or raw.lstrip().startswith("%"):
            continue
        body.append((i, raw))
    if not body or body[0][1].strip() != "tableau":
        line = body[0][0] if body else 1
        raise ParseError("expected 'tableau' header", line, 1)
    root = Node()
    stack: list[Node] = [root]
    depths = {root: 0}
    targets: list[tuple[Node, int, int]] = []
    sig = Signature()
    for line_no, raw in body[1:]:
        m = _REFERENCE_LINE_RE.match(raw)
        if m is None or not m.group("lit").strip():
            raise ParseError("malformed tableau line", line_no, 1)
        indent = len(m.group("indent"))
        if indent % 2 != 0:
            raise ParseError("indentation must be a multiple of two spaces", line_no, 1)
        depth = indent // 2
        if depth < 1 or depth > len(stack):
            raise ParseError(f"bad nesting depth {depth}", line_no, 1)
        lit = _reference_parse_single_literal(m.group("lit"), line_no, m.start("lit"))
        reference_extend_signature(sig, (lit,), line=line_no)
        node = Node(lit, m.group("side"))
        stack[depth - 1].add(node)
        depths[node] = depth
        del stack[depth:]
        stack.append(node)
        if m.group("target") is not None:
            targets.append((node, int(m.group("target")), line_no))
    for node, tdepth, line_no in targets:
        anc: Optional[Node] = node
        while anc is not None and depths[anc] != tdepth:
            anc = anc.parent
        if anc is None or anc.literal is None:
            raise ParseError(f"no ancestor at depth {tdepth}", line_no, 1)
        if anc.literal != node.literal.complement():
            raise ParseError(f"target at depth {tdepth} is not complementary", line_no, 1)
    return Tableau(root)


def _reference_parse_single_literal(text: str, line_no: int, offset: int) -> Literal:
    try:
        p = ReferenceParser(text)
        lit = reference_parse_literal(p)
        if p.peek().kind != "eof":
            p.error("trailing input after literal")
        return lit
    except ParseError as e:
        raise ParseError(e.message, line_no, offset + e.col) from None


# ---------------------------------------------------------------------------
# Reference printers: the recursive formula printer of `tptp` (`_fmt`,
# `_fmt_unit`, `_wrap`) and the recursive __str__ of terms, literals and
# clauses, as oracles for the printers on explicit stacks.

_REF_PREC_IFF = 0
_REF_PREC_IMP = 1
_REF_PREC_OR = 2
_REF_PREC_AND = 3
_REF_PREC_UNIT = 4


def reference_term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.functor
    return f"{t.functor}({','.join(reference_term_str(a) for a in t.args)})"


def reference_literal_str(l: Literal) -> str:
    if l.predicate == "=" and len(l.args) == 2:
        left, right = map(reference_term_str, l.args)
        return f"{left} {'=' if l.positive else '!='} {right}"
    body = l.predicate if not l.args else f"{l.predicate}({','.join(reference_term_str(a) for a in l.args)})"
    return body if l.positive else "~" + body


def reference_clause_str(c: Clause) -> str:
    if not c.literals:
        return "$true" if c.conjunctive else "$false"
    sep = " & " if c.conjunctive else " | "
    return sep.join(reference_literal_str(l) for l in c.literals)


def reference_format_formula(f: Formula) -> str:
    return _reference_fmt(f, 0)


def _reference_fmt(f: Formula, min_prec: int) -> str:
    if isinstance(f, Literal):
        return reference_literal_str(f)
    if isinstance(f, Top):
        return "$true"
    if isinstance(f, Bottom):
        return "$false"
    if isinstance(f, Not):
        return "~" + _reference_fmt_unit(f.body)
    if isinstance(f, (ForAll, Exists)):
        q = "!" if isinstance(f, ForAll) else "?"
        return f"{q} [{f.var}] : {_reference_fmt_unit(f.body)}"
    if isinstance(f, And):
        body = " & ".join(_reference_fmt(p, _REF_PREC_AND + 1) for p in f.parts)
        return _reference_wrap(body, _REF_PREC_AND, min_prec)
    if isinstance(f, Or):
        body = " | ".join(_reference_fmt(p, _REF_PREC_OR + 1) for p in f.parts)
        return _reference_wrap(body, _REF_PREC_OR, min_prec)
    if isinstance(f, Implies):
        body = f"{_reference_fmt(f.lhs, _REF_PREC_IMP + 1)} => {_reference_fmt(f.rhs, _REF_PREC_IMP)}"
        return _reference_wrap(body, _REF_PREC_IMP, min_prec)
    if isinstance(f, Iff):
        body = f"{_reference_fmt(f.lhs, _REF_PREC_IFF + 1)} <=> {_reference_fmt(f.rhs, _REF_PREC_IFF + 1)}"
        return _reference_wrap(body, _REF_PREC_IFF, min_prec)
    raise TypeError(f"not a formula: {f!r}")


def _reference_fmt_unit(f: Formula) -> str:
    if isinstance(f, (Literal, Top, Bottom, Not, ForAll, Exists)):
        out = _reference_fmt(f, _REF_PREC_UNIT)
        # infix equality still needs parentheses in unit position
        if isinstance(f, Literal) and f.predicate == "=" and len(f.args) == 2:
            return f"({out})"
        return out
    return f"({_reference_fmt(f, 0)})"


def _reference_wrap(body: str, prec: int, min_prec: int) -> str:
    return body if prec >= min_prec else f"({body})"


# ---------------------------------------------------------------------------
# Dataclass twins of the value classes: `Var`, `App`, `Literal`, the
# formula classes and `Clause` as the generated dataclasses they were, with
# their field lists, compare and repr flags, and cached hashes.  Each twin
# prints under the name of the value class it mirrors, since the generated
# __repr__ reads the class's __qualname__ (which also means pickle cannot
# find a twin by name: the tests pickle only values); `to_twin` rebuilds a
# value out of twins, so that the hand-written methods can be checked
# against the generated ones.


def _twin(cls):
    cls.__qualname__ = cls.__name__.removeprefix("Twin")
    return cls


@_twin
@dataclass(frozen=True, slots=True)
class TwinVar:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)
    _ground = False

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.name,))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return TwinVar, (self.name,)


@_twin
@dataclass(frozen=True, slots=True)
class TwinApp:
    functor: str
    args: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _ground: bool = field(init=False, repr=False, compare=False)

    def __init__(self, functor: str, args: tuple = ()):
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_ground", all(a._ground for a in args))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.functor, self.args))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return TwinApp, (self.functor, self.args)


class _TwinFormula:
    __slots__ = ()


@_twin
@dataclass(frozen=True, slots=True)
class TwinLiteral(_TwinFormula):
    positive: bool
    predicate: str
    args: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _complement: object = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.positive, self.predicate, self.args))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        return TwinLiteral, (self.positive, self.predicate, self.args)


@_twin
@dataclass(frozen=True)
class TwinTop(_TwinFormula):
    pass


@_twin
@dataclass(frozen=True)
class TwinBottom(_TwinFormula):
    pass


@_twin
@dataclass(frozen=True)
class TwinAnd(_TwinFormula):
    parts: tuple


@_twin
@dataclass(frozen=True)
class TwinOr(_TwinFormula):
    parts: tuple


@_twin
@dataclass(frozen=True)
class TwinNot(_TwinFormula):
    body: object


@_twin
@dataclass(frozen=True)
class TwinImplies(_TwinFormula):
    lhs: object
    rhs: object


@_twin
@dataclass(frozen=True)
class TwinIff(_TwinFormula):
    lhs: object
    rhs: object


@_twin
@dataclass(frozen=True)
class TwinForAll(_TwinFormula):
    var: str
    body: object


@_twin
@dataclass(frozen=True)
class TwinExists(_TwinFormula):
    var: str
    body: object


@_twin
@dataclass(frozen=True)
class TwinClause:
    literals: tuple
    conjunctive: bool = False


def to_twin(x):
    """The value x rebuilt out of twins, field by field."""
    cls = x.__class__
    if cls is Var:
        return TwinVar(x.name)
    if cls is App:
        return TwinApp(x.functor, tuple(map(to_twin, x.args)))
    if cls is Literal:
        return TwinLiteral(x.positive, x.predicate, tuple(map(to_twin, x.args)))
    if cls is Clause:
        return TwinClause(tuple(map(to_twin, x.literals)), x.conjunctive)
    if cls is Top:
        return TwinTop()
    if cls is Bottom:
        return TwinBottom()
    if cls is And or cls is Or:
        return (TwinAnd if cls is And else TwinOr)(tuple(map(to_twin, x.parts)))
    if cls is Not:
        return TwinNot(to_twin(x.body))
    if cls is Implies or cls is Iff:
        return (TwinImplies if cls is Implies else TwinIff)(to_twin(x.lhs), to_twin(x.rhs))
    if cls is ForAll or cls is Exists:
        return (TwinForAll if cls is ForAll else TwinExists)(x.var, to_twin(x.body))
    raise TypeError(f"not a value: {x!r}")
