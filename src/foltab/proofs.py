"""Binary-resolution proof documents: parsing, replay validation, grounding,
and translation into closed clausal ground tableaux in cut normal form.

Document format, one record per line (blank lines and #/% comments allowed):

    <id> input <clause>
    <id> resolve(<id1>, <id2>, <atom>) [{X -> t, ...}] <clause>

The resolved atom occurs positively in the first parent and negatively in
the second.  Variables are rigid across the whole document; bindings
recorded at resolve steps therefore apply document-wide.  The last record is
the root of the proof.  Step ids may be referenced more than once; tree
expansion duplicates the shared subproofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    App,
    Clause,
    FreshNamer,
    Literal,
    Subst,
    Term,
    apply_literal,
    clause as mk_clause,
    is_ground,
    literal_key,
    occurs,
    ordered_vars,
    resolve,
    term_functions,
)
from .tableaux import Node, ResourceLimitError, Tableau, compute_targets, is_closed
from .tptp import ParseError, _Parser, _parse_literal, format_clause, format_term


class ProofError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# Documents


@dataclass
class ProofRecord:
    step_id: str
    rule: str  # input | resolve
    refs: tuple[str, ...]
    atom: Optional[Literal]
    bindings: dict[str, Term]
    clause: Clause
    line: int


@dataclass
class ProofDocument:
    records: list[ProofRecord]

    @property
    def root(self) -> ProofRecord:
        return self.records[-1]

    def input_clauses(self) -> list[Clause]:
        return [r.clause for r in self.records if r.rule == "input"]

    def by_id(self) -> dict[str, ProofRecord]:
        return {r.step_id: r for r in self.records}


@dataclass
class DeductionStep:
    """Tree node of a binary-resolution deduction (inputs at the leaves)."""

    kind: str  # input | resolve
    clause: Clause
    atom: Optional[Literal] = None
    left: Optional["DeductionStep"] = None
    right: Optional["DeductionStep"] = None
    bindings: dict[str, Term] = field(default_factory=dict)
    step_id: str = ""

    def steps(self):
        yield self
        if self.left is not None:
            yield from self.left.steps()
        if self.right is not None:
            yield from self.right.steps()


def normalize_clause(c: Clause) -> tuple[Literal, ...]:
    return tuple(sorted(set(c.literals), key=literal_key))


# ---------------------------------------------------------------------------
# Parsing


_PARAMOD_NAMES = {"paramod", "paramodulation", "para", "pm"}


def parse_proof(text: str) -> ProofDocument:
    records: list[ProofRecord] = []
    ids: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("%"):
            continue
        records.append(_parse_record(stripped, line_no, ids))
        ids.add(records[-1].step_id)
    if not records:
        raise ProofError("empty proof document")
    doc = ProofDocument(records)
    _replay_validate(doc)
    return doc


def _parse_record(text: str, line_no: int, known_ids: set[str]) -> ProofRecord:
    try:
        p = _Parser(text)
        tid = p.next()
        if tid.kind not in ("lower", "upper"):
            raise ParseError("expected a step id", tid.line, tid.col)
        step_id = tid.text
        if step_id in known_ids:
            raise ParseError(f"duplicate step id {step_id!r}", tid.line, tid.col)
        rule_tok = p.next()
        rule = rule_tok.text
        if rule == "input":
            clause = _parse_clause_tokens(p)
            return ProofRecord(step_id, "input", (), None, {}, clause, line_no)
        if rule == "resolve":
            p.expect("(")
            ref1 = p.next().text
            p.expect(",")
            ref2 = p.next().text
            p.expect(",")
            atom = _parse_literal(p)
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
                if ref not in known_ids:
                    raise ParseError(f"dangling step reference {ref!r}", tid.line, tid.col)
            clause = _parse_clause_tokens(p)
            return ProofRecord(step_id, "resolve", (ref1, ref2), atom, bindings, clause, line_no)
        if rule in _PARAMOD_NAMES:
            raise ParseError(
                "paramodulation steps are not supported; add equality axioms "
                "(substitutivity) and re-prove with binary resolution",
                rule_tok.line,
                rule_tok.col,
            )
        raise ParseError(f"unknown rule {rule!r} (only input and resolve)", rule_tok.line, rule_tok.col)
    except ParseError as e:
        raise ProofError(e.message, line_no) from None


def _parse_clause_tokens(p: _Parser) -> Clause:
    if p.peek().text in ("$false", "false"):
        p.next()
        if p.peek().kind != "eof":
            p.error("trailing input after clause")
        return Clause(())
    lits = [_parse_literal(p)]
    while p.peek().text == "|":
        p.next()
        lits.append(_parse_literal(p))
    if p.peek().kind != "eof":
        p.error("trailing input after clause")
    return mk_clause(lits)


def format_proof(doc: ProofDocument) -> str:
    lines = []
    for r in doc.records:
        if r.rule == "input":
            lines.append(f"{r.step_id} input {format_clause(r.clause)}")
        else:
            head = f"{r.step_id} resolve({r.refs[0]}, {r.refs[1]}, {format_clause(Clause((r.atom,)))})"
            if r.bindings:
                binds = ", ".join(
                    f"{v} -> {format_term(t)}" for v, t in sorted(r.bindings.items())
                )
                head += " {" + binds + "}"
            lines.append(f"{head} {format_clause(r.clause)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Replay validation


def _resolvent(left: Clause, right: Clause, atom: Literal, store: Subst) -> tuple:
    atom_s = apply_literal(atom, store)
    comp_s = atom_s.complement()
    left_s = [apply_literal(l, store) for l in left.literals]
    right_s = [apply_literal(l, store) for l in right.literals]
    if atom_s not in left_s:
        raise ValueError(f"resolved atom {atom_s} not in first parent")
    if comp_s not in right_s:
        raise ValueError(f"complement {comp_s} not in second parent")
    merged = [l for l in left_s if l != atom_s] + [l for l in right_s if l != comp_s]
    return normalize_clause(mk_clause(merged))


def _add_bindings(store: Subst, bindings: Subst, line: Optional[int] = None) -> None:
    """Add recorded bindings to the document's binding store.  The store
    stays triangular: a variable keeps its first binding as written, and a
    binding that would make a cycle is rejected."""
    for v, t in bindings.items():
        old = store.get(v)
        if old is None:
            if occurs(v, t, store):
                raise ProofError(f"cyclic bindings through {v}", line)
            store[v] = t
        elif old != t:
            raise ProofError(f"variable {v} bound to both {old} and {t}", line)


def _replay_validate(doc: ProofDocument) -> None:
    # variables are rigid across the document, so bindings accumulate in
    # record order and each step is checked under everything seen so far
    table = doc.by_id()
    store: Subst = {}
    for r in doc.records:
        _add_bindings(store, r.bindings, r.line)
        if r.rule != "resolve":
            continue
        left = table[r.refs[0]].clause
        right = table[r.refs[1]].clause
        try:
            got = _resolvent(left, right, r.atom, store)
        except ValueError as e:
            raise ProofError(str(e), r.line) from None
        if got != normalize_clause(mk_clause(apply_literal(l, store) for l in r.clause.literals)):
            raise ProofError(
                f"declared resolvent {format_clause(r.clause)} does not match "
                f"recomputed {format_clause(Clause(got))}",
                r.line,
            )


# ---------------------------------------------------------------------------
# DAG to tree expansion


def to_tree(doc: ProofDocument, max_nodes: int = 10_000_000) -> DeductionStep:
    table = doc.by_id()
    count = [0]

    def build(step_id: str) -> DeductionStep:
        count[0] += 1
        if count[0] > max_nodes:
            raise ResourceLimitError(f"proof tree expansion exceeded {max_nodes} nodes")
        r = table[step_id]
        if r.rule == "input":
            return DeductionStep("input", r.clause, step_id=step_id)
        return DeductionStep(
            "resolve",
            r.clause,
            atom=r.atom,
            left=build(r.refs[0]),
            right=build(r.refs[1]),
            bindings=r.bindings,
            step_id=step_id,
        )

    return build(doc.root.step_id)


# ---------------------------------------------------------------------------
# Grounding


def ground_deduction(tree: DeductionStep, namer: Optional[FreshNamer] = None) -> DeductionStep:
    """Apply all recorded bindings and map residual variables to fresh
    constants; every resolve step is revalidated as a ground step."""
    store: Subst = {}
    for step in tree.steps():
        _add_bindings(store, step.bindings)
    symbols: set[str] = set()
    terms: list[Term] = []
    for step in tree.steps():
        lits = list(step.clause.literals) + ([step.atom] if step.atom else [])
        for l in lits:
            symbols.add(l.predicate)
            for a in l.args:
                symbols |= term_functions(a)
                terms.append(resolve(a, store))
    if namer is None:
        namer = FreshNamer(symbols)
    for v in ordered_vars(terms):
        store[v] = App(namer.fresh("g"))

    def rebuild(step: DeductionStep) -> DeductionStep:
        cl = mk_clause(apply_literal(l, store) for l in step.clause.literals)
        if step.kind == "input":
            return DeductionStep("input", cl, step_id=step.step_id)
        out = DeductionStep(
            "resolve",
            cl,
            atom=apply_literal(step.atom, store),
            left=rebuild(step.left),
            right=rebuild(step.right),
            step_id=step.step_id,
        )
        try:
            got = _resolvent(out.left.clause, out.right.clause, out.atom, {})
        except ValueError as e:
            raise ProofError(f"step {step.step_id}: {e} after grounding") from None
        if got != normalize_clause(out.clause):
            raise ProofError(
                f"step {step.step_id} is not a valid ground resolution step after grounding"
            )
        return out

    return rebuild(tree)


def is_ground_deduction(tree: DeductionStep) -> bool:
    return all(
        is_ground(a) for step in tree.steps() for l in step.clause.literals for a in l.args
    )


# ---------------------------------------------------------------------------
# Cut normal form


def to_cut_normal_form(tree: DeductionStep) -> Tableau:
    """Closed clausal ground tableau whose inner clauses are atomic cuts
    for the resolution steps; input clauses sit just above the leaves."""
    if not is_ground_deduction(tree):
        raise ProofError("cut normal form requires a ground deduction; run grounding first")
    if tree.clause.literals:
        raise ProofError("root of the deduction does not derive the empty clause")
    if tree.kind == "input":
        raise ProofError("trivial refutation by an input empty clause cannot be represented")

    def attach(node: Node, step: DeductionStep) -> None:
        if step.kind == "input":
            if not step.clause.literals:
                raise ProofError("input step with empty clause inside a refutation")
            for l in step.clause.literals:
                node.add(Node(l))
            return
        neg = Node(step.atom.complement())
        pos = Node(step.atom)
        node.add(neg)
        node.add(pos)
        attach(neg, step.left)
        attach(pos, step.right)

    root = Node()
    attach(root, tree)
    tab = Tableau(root)
    if not is_closed(tab):
        raise ProofError("translated tableau is not closed; invalid proof")
    compute_targets(tab)
    return tab
