"""Shared test machinery: seeded random generators for formulas, clause
sets and theorem-suite instances, a finite-model evaluator used as an
independent semantic oracle, a truth-table satisfiability oracle, the
whole-tree hyper conversion as an oracle for the incremental one, the
prover without its candidate index as an oracle for `prove`, and the
recursive formula walkers as oracles for the walks on `occurrences` and
`map_formula`."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from foltab.hyperconv import (
    ConversionRound,
    ConversionTrace,
    MeasureViolation,
    measure_string,
    node_measure,
    node_path,
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
    apply_literal,
    apply_term,
    mk_and,
    mk_or,
    undo,
    unify_args,
)
from foltab.tableaux import (
    Node,
    ProveResult,
    ResourceLimitError,
    StructureError,
    Tableau,
    compute_targets,
    is_closed,
    is_hyper,
    simplify,
    simplify_in_place,
)

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
    sig = Signature.of([f, g])
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


def gen_sentence_pair(rng: random.Random):
    """(F, G) sentences with F and ~G both U-range-restricted."""
    f, g = gen_urr_instance(rng)
    return f, g


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


# ---------------------------------------------------------------------------
# Reference hyper conversion with whole-tree rounds, an oracle for the
# incremental rounds of hyper_convert: each round copies the whole subtree
# at nprime, rescans and simplifies the whole tree, and recounts its nodes.


def reference_hyper_convert(tab, max_nodes: int = 10_000_000):
    def select(root):
        for n in root.pre_order():
            for c in n.children:
                if c.children and not c.literal.positive:
                    return n, c
        return None

    if not is_closed(tab):
        raise StructureError("hyper conversion requires a closed tableau")
    trace = ConversionTrace(input_size=tab.inner_size())
    work = tab.copy()
    root = work.root
    spl, tru = simplify_in_place(root)
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
        u_root, mapping = nprime.copy_subtree()
        mapping[id(n)].children = []
        nprime.set_children(n.children)
        comp = n.literal.complement()
        grafts = [
            m
            for m in nprime.pre_order()
            if m is not nprime and not m.children and m.literal == comp
        ]
        for m in grafts:
            u_copy, _ = u_root.copy_subtree()
            m.set_children(u_copy.children)
        spl, tru = simplify_in_place(root)
        trace.regular_splices += spl
        trace.leaf_truncations += tru
        size = sum(1 for _ in root.pre_order())
        if size > max_nodes:
            raise ResourceLimitError(f"hyper conversion exceeded {max_nodes} nodes")
        trace.rounds.append(ConversionRound(path, measure, size))
    compute_targets(work)
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
            lit = apply_literal(ch.literal, binding)
            for anc in ch.ancestors():
                if anc.literal is not None and apply_literal(anc.literal, binding) == lit:
                    return False
        return True

    def solve(goals: list[Node], limit: int) -> bool:
        if not goals:
            return True
        goal, rest = goals[0], goals[1:]
        # reduction: close against an ancestor
        for anc in goal.ancestors():
            if anc.literal is None:
                continue
            tick()
            mark = len(trail)
            if unify_complement(goal.literal, anc.literal):
                goal.target = anc
                if solve(rest, limit):
                    return True
                goal.target = None
            undo(binding, trail, mark)
        # extension: attach a clause instance containing a closing literal
        if goal.depth + 1 > limit:
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
                    children[idx].target = goal
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
                            n.literal = apply_literal(n.literal, binding)
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
    sig = Signature.empty()

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
