"""Seeded input generators.  Each takes its random source (or the names it
should use) as an argument and returns text in the formats the foltab
command line reads, so that edits to the test helpers or to the sample
generator script never change a workload.

The proof families are copies of `chain`, `wide` and `fol_chain` from the
sample generator; the interpolation and ground-clause generators are copies
of the test-suite generators, rewritten over the tuple syntax of `logic`.
"""

from __future__ import annotations

import random
import string

from . import logic as L

# ---------------------------------------------------------------------------
# Symbol names


def lower_name(rng: random.Random) -> str:
    return rng.choice(string.ascii_lowercase) + "".join(
        rng.choice(string.ascii_lowercase + string.digits) for _ in range(rng.randint(0, 3))
    )


def upper_name(rng: random.Random) -> str:
    return rng.choice(string.ascii_uppercase) + "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randint(0, 2))
    )


# ---------------------------------------------------------------------------
# Resolution proof documents; `p`, `f`, `a`, `X` name the predicate stem,
# function, constant and variable stem.


def chain(k: int, p: str = "p") -> str:
    lines = [f"s0 input {p}0"]
    for i in range(k):
        lines.append(f"s{i+1} input ~{p}{i} | {p}{i+1}")
    lines.append(f"s{k+1} input ~{p}{k}")
    prev = "s0"
    for i in range(k):
        lines.append(f"r{i+1} resolve({prev}, s{i+1}, {p}{i}) {p}{i+1}")
        prev = f"r{i+1}"
    lines.append(f"r{k+1} resolve({prev}, s{k+1}, {p}{k}) false")
    return "\n".join(lines) + "\n"


def fol_chain(k: int, p: str = "p", f: str = "f", a: str = "a", x: str = "X") -> str:
    lines = [f"s0 input {p}0({a})"]
    for i in range(k):
        lines.append(f"s{i+1} input ~{p}{i}({x}{i+1}) | {p}{i+1}({f}({x}{i+1}))")
    term = a
    prev = "s0"
    steps = []
    for i in range(k):
        nxt = f"{f}({term})"
        steps.append(
            f"r{i+1} resolve({prev}, s{i+1}, {p}{i}({term})) {{{x}{i+1} -> {term}}} {p}{i+1}({nxt})"
        )
        prev = f"r{i+1}"
        term = nxt
    lines.append(f"s{k+1} input ~{p}{k}({term})")
    lines.extend(steps)
    lines.append(f"r{k+1} resolve({prev}, s{k+1}, {p}{k}({term})) false")
    return "\n".join(lines) + "\n"


def wide(m: int, q: str = "q") -> str:
    lines = [f"s0 input " + " | ".join(f"{q}{i}" for i in range(1, m + 1))]
    for i in range(1, m + 1):
        lines.append(f"s{i} input ~{q}{i}")
    prev = "s0"
    for i in range(1, m + 1):
        rest = " | ".join(f"{q}{j}" for j in range(i + 1, m + 1)) or "false"
        lines.append(f"r{i} resolve({prev}, s{i}, {q}{i}) {rest}")
        prev = f"r{i}"
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Clause sets for the prover


def ground_clauses(rng: random.Random, n_atoms: int, n_clauses: int):
    """Up to n_clauses distinct random ground clauses of one to three
    literals over n_atoms atoms, as tuples of (positive, atom) pairs."""
    atoms = [f"a{i}" for i in range(1, n_atoms + 1)]
    out = []
    for _ in range(n_clauses):
        lits = [(rng.random() < 0.5, rng.choice(atoms)) for _ in range(rng.randint(1, 3))]
        c = tuple(dict.fromkeys(lits))
        if c not in out:
            out.append(c)
    return out


def clause_file(clauses) -> str:
    return "".join(
        " | ".join(a if positive else "~" + a for positive, a in c) + "\n" for c in clauses
    )


def implication_chain(k: int, p: str, goal: bool) -> str:
    """p0, ~p_i | p_i+1 for i < k, and ~p_k when `goal`."""
    lines = [f"{p}0"] + [f"~{p}{i} | {p}{i+1}" for i in range(k)]
    if goal:
        lines.append(f"~{p}{k}")
    return "\n".join(lines) + "\n"


def term_chain(k: int, p: str, f: str, a: str, goal: bool) -> str:
    """p0(a), ~p_i(X) | p_i+1(f(X)) for i < k, and ~p_k(f^k(a)) when `goal`."""
    lines = [f"{p}0({a})"] + [f"~{p}{i}(X) | {p}{i+1}({f}(X))" for i in range(k)]
    if goal:
        lines.append(f"~{p}{k}(" + f"{f}(" * k + a + ")" * k + ")")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Interpolation instances.  F |= G holds by construction: G is a weakening
# of F (a subset of conjuncts, a disjunctive widening, or the tail of a
# rule chain whose head F reaches).


def _rule(body, head, names):
    return L.forall(sorted(set(names)), L.disj([L.neg(b) for b in body] + [head]))


def urr_instance(rng: random.Random, horn_only: bool = False):
    """(F, G): F a universally range-restricted conjunction of ground facts
    and guarded rules (Horn when `horn_only`)."""
    preds = [(f"p{i}", rng.choice((1, 1, 2))) for i in range(1, rng.randint(2, 4) + 1)]
    consts = [L.fn("a"), L.fn("b")]
    conjuncts = []
    for _ in range(rng.randint(1, 2)):
        name, arity = rng.choice(preds)
        conjuncts.append(L.lit(name, *rng.sample(consts, k=arity)))
    for _ in range(rng.randint(1, 2)):
        bname, barity = rng.choice(preds)
        hname, harity = rng.choice(preds)
        bvars = [f"X{i}" for i in range(1, barity + 1)]
        body = [L.lit(bname, *[L.var(v) for v in bvars])]
        if rng.random() < 0.4:
            b2name, b2arity = rng.choice(preds)
            body.append(L.lit(b2name, *[L.var(v) for v in (bvars * 2)[:b2arity]]))
        head_args = [
            L.var(rng.choice(bvars)) if rng.random() < 0.8 else rng.choice(consts)
            for _ in range(harity)
        ]
        conjuncts.append(_rule(body, L.lit(hname, *head_args), bvars))
    if not horn_only and rng.random() < 0.25:
        name, arity = rng.choice(preds)
        atom = L.lit(name, *[L.var("Y")] * arity)
        conjuncts.append(("ex", "Y", atom))
    f = L.conj(conjuncts)
    picked = rng.sample(conjuncts, k=rng.randint(1, min(2, len(conjuncts))))
    if rng.random() < 0.6 or len(conjuncts) == 1:
        g = L.conj(picked)
    else:
        g = L.disj(picked)
    return f, g


def vx_instance(rng: random.Random, length: int):
    """(KB, query, target) for definability: KB a chain of biconditional
    rules e1 <-> e2 <-> ... over a query atom e1(X..), target a random
    predicate after e1."""
    names = [f"e{i}" for i in range(1, length + 1)]
    xs = [f"X{i}" for i in range(1, rng.choice((1, 1, 2)) + 1)]
    args = [L.var(v) for v in xs]
    kb = []
    for left, right in zip(names, names[1:]):
        kb.append(_rule([L.lit(left, *args)], L.lit(right, *args), xs))
        kb.append(_rule([L.lit(right, *args)], L.lit(left, *args), xs))
    if rng.random() < 0.5:
        kb.append(L.lit(names[0], *[L.fn("a")] * len(xs)))
    return kb, L.lit(names[0], *args), rng.choice(names[1:])


def rule_chain_instance(rng: random.Random, length: int):
    """(F, G) splitting a unary rule chain q0 -> q1 -> ... -> q_length in
    the middle: F holds the fact q0(c) and the first half of the rules, G
    says the remaining rules lead from q_m to q_length(c), and one
    distractor rule over unrelated predicates sits on each side.  Every
    interpolant is equivalent to q_m(c) under the rules.  The seed picks
    the names; the length alone sets the cost."""
    m = length // 2
    stem = lower_name(rng) + "q"
    c = L.fn(lower_name(rng) + "_c")
    x = L.var(upper_name(rng))

    def rule(p, i):
        return _rule([L.lit(f"{p}{i}", x)], L.lit(f"{p}{i+1}", x), [x[1]])

    f_parts = [L.lit(f"{stem}0", c)] + [rule(stem, i) for i in range(m)] + [rule(stem + "f", 0)]
    g_rules = [rule(stem, i) for i in range(m, length)] + [rule(stem + "g", 0)]
    g = ("imp", L.conj(g_rules), L.lit(f"{stem}{length}", c))
    return L.conj(f_parts), g
