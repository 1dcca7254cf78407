"""The certificate of one interpolation run, and its independent check.

`interpolate` keeps what it derived on the way from F and G to an
interpolant H: the clauses of F and of ~G, the side-labeled closed ground
tableau, the ground interpolant H_grd, its lifting and the placeholder
map.  `check_certificate` re-derives F |= H and H |= G from these without
proof search and without clausifying again:

(a) the tableau: every literal is ground, the children of every inner node
    are an instance of a clause of their side, and every leaf closes
    against a complementary ancestor;
(b) the ground interpolant: F-instances & ~H_grd and H_grd & G-instances
    are unsatisfiable, shown by a small DPLL over Tseitin clauses with each
    ground atom a propositional letter;
(c) the lifting: putting the lifted terms back for their variables gives
    H_grd; an existential term's outermost functor occurs in no G clause,
    a universal term's in no F clause, and a lifted term inside another is
    quantified before it;
(d) the final matrix is propositionally equivalent to the lifted one, which
    covers `hornify`, and H is the final matrix under the prefix with the
    placeholders unfrozen.

A run that took a shortcut has the empty clause among the clauses of F
(H is $false) or of ~G (H is $true).  The check trusts the clausifier,
that the clause sets stand for F and ~G and the shared symbols for what F
and G have in common, and the lifting lemma (Wernhard,
Craig Interpolation with Clausal First-Order Tableaux, JAR 2021), which
turns (b) and (c) into F |= H and H |= G.  Each inference is checked again
on its own, as in Sutcliffe's semantic derivation verification (IJAIT
2006).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .normalize import unfreeze, wrap_prefix
from .syntax import (
    And,
    App,
    Bottom,
    Clause,
    Formula,
    Literal,
    Top,
    apply_term,
    is_ground,
    map_formula_terms,
    subterms,
)
from .tableaux import Node, branch_walk, match_clause

if TYPE_CHECKING:
    from .interpolation import LiftResult

# the function symbols, the (predicate, polarity) pairs and the free
# variables that F and G have in common
SharedSymbols = tuple[frozenset[str], frozenset[tuple[str, str]], frozenset[str]]


class Certificate:
    """What one `interpolate` run derived, enough to check its interpolant
    without proof search.  A run that took a shortcut has no tableau, no
    lifting and no matrix."""

    def __init__(
        self,
        f_clauses: tuple[Clause, ...],
        g_clauses: tuple[Clause, ...],
        placeholders: dict[str, str],
        shared_symbols: SharedSymbols,
        shortcut: Optional[str] = None,
        tableau: Optional[Node] = None,
        ground_interpolant: Optional[Formula] = None,
        lifted: Optional[LiftResult] = None,
        matrix: Optional[Formula] = None,
    ):
        self.f_clauses = f_clauses
        self.g_clauses = g_clauses  # the clauses of ~G
        self.placeholders = placeholders  # placeholder constant -> free variable
        self.shared_symbols = shared_symbols  # for the Craig conditions, which read only H
        self.shortcut = shortcut  # f-unsatisfiable | g-valid
        self.tableau = tableau  # the root of a side-labeled, closed, ground tableau
        self.ground_interpolant = ground_interpolant
        self.lifted = lifted
        self.matrix = matrix  # the final matrix: lifted.matrix, or its hornified form


def check_certificate(cert: Certificate, h: Formula) -> tuple[str, str]:
    """The verdicts on F |= h and h |= G that `cert` gives, each 'pass' when
    every check it rests on holds and 'fail' otherwise."""
    if cert.shortcut is not None:
        if cert.shortcut == "f-unsatisfiable":
            ok = h.__class__ is Bottom and any(not c.literals for c in cert.f_clauses)
        else:
            ok = (
                cert.shortcut == "g-valid"
                and h.__class__ is Top
                and any(not c.literals for c in cert.g_clauses)
            )
        return _verdict(ok), _verdict(ok)
    lifted, h_grd = cert.lifted, cert.ground_interpolant
    instances = _tableau_instances(cert.tableau, cert.f_clauses, cert.g_clauses)
    back = {v: t for (_, v), t in zip(lifted.prefix, lifted.terms)}
    # the checks both entailments rest on
    both = (
        instances is not None
        and len(back) == len(lifted.prefix) == len(lifted.terms)
        and all(t.__class__ is App for t in lifted.terms)
        and _lifted_order_ok(lifted.terms)
        and map_formula_terms(lifted.matrix, lambda t: apply_term(t, back)) == h_grd
        and h == unfreeze(wrap_prefix(lifted.prefix, cert.matrix), cert.placeholders)
    )
    if not both:
        return "fail", "fail"
    f_instances, g_instances = instances
    letters = _Letters()
    f_ok = (
        # F |= H_grd, H_grd |= lifted under the prefix, lifted |= final
        not _satisfiable(letters.clauses(f_instances) + letters.tseitin(h_grd, False))
        and _functors_avoid(lifted, "forall", cert.f_clauses)
        and _implies(letters, lifted.matrix, cert.matrix)
    )
    h_ok = (
        not _satisfiable(letters.tseitin(h_grd, True) + letters.clauses(g_instances))
        and _functors_avoid(lifted, "exists", cert.g_clauses)
        and _implies(letters, cert.matrix, lifted.matrix)
    )
    return _verdict(f_ok), _verdict(h_ok)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# (a) The tableau


def _tableau_instances(
    root: Node, f_clauses: tuple[Clause, ...], g_clauses: tuple[Clause, ...]
) -> Optional[tuple[list[tuple[Literal, ...]], list[tuple[Literal, ...]]]]:
    """The clause instances of the F side and of the G side of the tableau
    `root` heads, in pre-order, when every literal is ground, every inner
    node's children carry one side and are an instance of a clause of it,
    and every leaf closes; None otherwise.  An instance is matched against every clause
    of its side: `match_clause` rejects a clause of another shape at its
    first check, which costs less than grouping the clauses by shape."""
    instances: dict[str, list[tuple[Literal, ...]]] = {"F": [], "G": []}
    clauses = {"F": f_clauses, "G": g_clauses}
    for n, _, target in branch_walk(root):
        if not n.children:
            if target is None:
                return None
            continue
        side = n.children[0].side
        inst = tuple(c.literal for c in n.children)
        if (
            side not in clauses
            or any(c.side != side for c in n.children)
            or not all(is_ground(a) for l in inst for a in l.args)
            or not any(match_clause(inst, c) is not None for c in clauses[side])
        ):
            return None
        instances[side].append(inst)
    return instances["F"], instances["G"]


# ---------------------------------------------------------------------------
# (c) The lifting


def _lifted_order_ok(terms: tuple) -> bool:
    """Each lifted term that occurs inside another is quantified before it."""
    position = {t: i for i, t in enumerate(terms)}
    return len(position) == len(terms) and all(
        position.get(s, -1) < i for i, t in enumerate(terms) for s in subterms(*t.args)
    )


def _functors_avoid(lifted: "LiftResult", quantifier: str, clauses: Iterable[Clause]) -> bool:
    """No term lifted under `quantifier` has an outermost functor that
    occurs in `clauses`."""
    heads = {t.functor for (q, _), t in zip(lifted.prefix, lifted.terms) if q == quantifier}
    if not heads:
        return True
    return not any(
        s.__class__ is App and s.functor in heads
        for c in clauses
        for l in c.literals
        for s in subterms(*l.args)
    )


# ---------------------------------------------------------------------------
# (b) and (d): propositional reasoning, each atom a letter


class _Letters:
    """Propositional letters: one per atom, and fresh ones for Tseitin
    definitions.  A literal becomes its atom's letter, negated when the
    literal is negative."""

    def __init__(self) -> None:
        self._of: dict[Literal, int] = {}
        self._count = 0

    def letter(self, l: Literal) -> int:
        v = self._of.get(l.atom())
        if v is None:
            v = self._of[l.atom()] = self.fresh()
        return v if l.positive else -v

    def fresh(self) -> int:
        self._count += 1
        return self._count

    def clauses(self, instances: list[tuple[Literal, ...]]) -> list[tuple[int, ...]]:
        return [tuple(self.letter(l) for l in c) for c in instances]

    def tseitin(self, f: Formula, positive: bool) -> list[tuple[int, ...]]:
        """Clauses satisfiable exactly when f (with `positive`, else ~f) is,
        for f a quantifier-free NNF.  Each conjunction or disjunction of
        more than one part gets a fresh letter x and, since the negation is
        pushed to the atoms, only the clauses of x -> part."""
        out: list[tuple[int, ...]] = []
        values: list = []  # a letter, or True or False
        # (g, False) visits g; (g, True) defines g from its parts in `values`
        todo: list[tuple[Formula, bool]] = [(f, False)]
        while todo:
            g, define = todo.pop()
            cls = g.__class__
            if not define:
                if cls is Literal:
                    v = self.letter(g)
                    values.append(v if positive else -v)
                elif cls is Top or cls is Bottom:
                    values.append((cls is Top) == positive)
                else:
                    todo.append((g, True))
                    todo.extend((p, False) for p in reversed(g.parts))
                continue
            k = len(values) - len(g.parts)
            parts = values[k:]
            del values[k:]
            conjunctive = (cls is And) == positive
            # a false part of a conjunction, or a true one of a disjunction
            if any(p is (not conjunctive) for p in parts):
                values.append(not conjunctive)
                continue
            parts = [p for p in parts if p is not conjunctive]
            if len(parts) < 2:
                values.append(parts[0] if parts else conjunctive)
                continue
            x = self.fresh()
            if conjunctive:
                out.extend((-x, p) for p in parts)
            else:
                out.append((-x, *parts))
            values.append(x)
        v = values[0]
        if v is False:
            out.append(())
        elif v is not True:
            out.append((v,))
        return out


def _implies(letters: _Letters, a: Formula, b: Formula) -> bool:
    """a |= b propositionally, for quantifier-free NNFs; an object implies
    itself."""
    return a is b or not _satisfiable(letters.tseitin(a, True) + letters.tseitin(b, False))


def _satisfiable(clauses: list[tuple[int, ...]]) -> bool:
    """DPLL: unit propagation, then a choice of the first open literal of
    the first clause not yet satisfied, undone and flipped on a conflict."""
    if () in clauses:
        return False
    # watch[x]: the clauses that making literal x true may leave unit or false
    watch: dict[int, list[tuple[int, ...]]] = {}
    for c in clauses:
        for l in c:
            watch.setdefault(-l, []).append(c)
    true: set[int] = set()
    trail: list[int] = []
    choices: list[tuple[int, int, bool]] = []  # (trail length, literal, flipped)
    todo = list(clauses)
    while True:
        conflict = False
        while todo:
            c = todo.pop()
            unit = None  # the one literal of c not yet false
            for l in c:
                if l in true:
                    break
                if -l not in true:
                    if unit is not None:
                        break
                    unit = l
            else:
                if unit is None:
                    conflict = True
                    break
                true.add(unit)
                trail.append(unit)
                todo.extend(watch.get(unit, ()))
        if conflict:
            while choices:
                mark, l, flipped = choices.pop()
                for x in trail[mark:]:
                    true.discard(x)
                del trail[mark:]
                if not flipped:
                    break
            else:
                return False
            l = -l
            choices.append((mark, l, True))
        else:
            l = next(
                (
                    x
                    for c in clauses
                    if not any(y in true for y in c)
                    for x in c
                    if x not in true and -x not in true
                ),
                None,
            )
            if l is None:
                return True
            choices.append((len(trail), l, False))
        true.add(l)
        trail.append(l)
        todo = list(watch.get(l, ()))
