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
    subterms,
)
from .tableaux import Node, ResourceLimitError, Tableau, is_closed, shared
from .tptp import _LOWER, _UPPER, ParseError, _Parser


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
        """The steps of the tree in pre-order: a step, then its left and its
        right subtree."""
        stack = [self]
        while stack:
            step = stack.pop()
            yield step
            if step.right is not None:
                stack.append(step.right)
            if step.left is not None:
                stack.append(step.left)


# ---------------------------------------------------------------------------
# Parsing


_PARAMOD_NAMES = {"paramod", "paramodulation", "para", "pm"}


def parse_proof(text: str) -> ProofDocument:
    records: list[ProofRecord] = []
    ids: set[str] = set()
    p = _Parser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("%"):
            continue
        try:
            p.load(stripped)
            record = _parse_record(p, line_no, ids)
        except ParseError as e:
            raise ProofError(e.message, line_no) from None
        records.append(record)
        ids.add(record.step_id)
    if not records:
        raise ProofError("empty proof document")
    doc = ProofDocument(records)
    _replay_validate(doc)
    return doc


def _parse_record(p: _Parser, line_no: int, known_ids: set[str]) -> ProofRecord:
    """The record whose text `p` has just loaded."""
    id_at = p.i
    step_id = p.take()
    if step_id[:1] not in _LOWER and step_id[:1] not in _UPPER:
        raise p.error("expected a step id", id_at)
    if step_id in known_ids:
        raise p.error(f"duplicate step id {step_id!r}", id_at)
    rule_at = p.i
    rule = p.take()
    if rule == "input":
        return ProofRecord(step_id, "input", (), None, {}, _parse_clause_tokens(p), line_no)
    if rule == "resolve":
        p.expect("(")
        ref1 = p.take()
        p.expect(",")
        ref2 = p.take()
        p.expect(",")
        atom = p.literal()
        if not atom.positive:
            raise p.error("resolved atom must be positive", rule_at)
        p.expect(")")
        bindings: dict[str, Term] = {}
        if p.toks[p.i] == "{":
            p.i += 1
            while True:
                at = p.i
                var = p.take()
                if var[:1] not in _UPPER:
                    raise p.error("expected a variable in bindings", at)
                p.expect("->")
                t = p.term()
                if var in bindings:
                    raise p.error(f"variable bound twice: {var}", at)
                bindings[var] = t
                if p.toks[p.i] != ",":
                    break
                p.i += 1
            p.expect("}")
        for ref in (ref1, ref2):
            if ref not in known_ids:
                raise p.error(f"dangling step reference {ref!r}", id_at)
        clause = _parse_clause_tokens(p)
        return ProofRecord(step_id, "resolve", (ref1, ref2), atom, bindings, clause, line_no)
    if rule in _PARAMOD_NAMES:
        raise p.error(
            "paramodulation steps are not supported; add equality axioms "
            "(substitutivity) and re-prove with binary resolution",
            rule_at,
        )
    raise p.error(f"unknown rule {rule!r} (only input and resolve)", rule_at)


def _parse_clause_tokens(p: _Parser) -> Clause:
    if p.toks[p.i] in ("$false", "false"):
        p.i += 1
        p.at_end("trailing input after clause")
        return Clause(())
    return p.clause()


def format_proof(doc: ProofDocument) -> str:
    lines = []
    for r in doc.records:
        if r.rule == "input":
            lines.append(f"{r.step_id} input {r.clause}")
        else:
            head = f"{r.step_id} resolve({r.refs[0]}, {r.refs[1]}, {r.atom})"
            if r.bindings:
                binds = ", ".join(f"{v} -> {t}" for v, t in sorted(r.bindings.items()))
                head += " {" + binds + "}"
            lines.append(f"{head} {r.clause}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Replay validation


def _resolvent(left: set[Literal], right: set[Literal], atom: Literal) -> set[Literal]:
    """The binary resolvent on `atom` of two clauses given as literal sets,
    which it consumes: `atom` must occur in `left` and its complement in
    `right`.  Each is compared once, by removing it."""
    comp = atom.complement()
    size = len(left)
    left.discard(atom)
    if len(left) == size:
        raise ValueError(f"resolved atom {atom} not in first parent")
    size = len(right)
    right.discard(comp)
    if len(right) == size:
        raise ValueError(f"complement {comp} not in second parent")
    return left | right


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
        left = {apply_literal(l, store) for l in table[r.refs[0]].clause.literals}
        right = {apply_literal(l, store) for l in table[r.refs[1]].clause.literals}
        try:
            got = _resolvent(left, right, apply_literal(r.atom, store))
        except ValueError as e:
            raise ProofError(str(e), r.line) from None
        if got != {apply_literal(l, store) for l in r.clause.literals}:
            # printed in literal_key order, whatever the hash seed
            recomputed = Clause(tuple(sorted(got, key=literal_key)))
            raise ProofError(
                f"declared resolvent {r.clause} does not match "
                f"recomputed {recomputed}",
                r.line,
            )


# ---------------------------------------------------------------------------
# DAG to tree expansion


def to_tree(doc: ProofDocument, max_nodes: int = 10_000_000) -> DeductionStep:
    table = doc.by_id()
    count = 0
    tree: Optional[DeductionStep] = None
    stack = [(doc.root.step_id, None, "")]  # (step id, parent, side), pre-order
    while stack:
        step_id, parent, side = stack.pop()
        count += 1
        if count > max_nodes:
            raise ResourceLimitError(f"proof tree expansion exceeded {max_nodes} nodes")
        r = table[step_id]
        if r.rule == "input":
            step = DeductionStep("input", r.clause, step_id=step_id)
        else:
            step = DeductionStep("resolve", r.clause, atom=r.atom, bindings=r.bindings, step_id=step_id)
            stack.append((r.refs[1], step, "right"))
            stack.append((r.refs[0], step, "left"))
        if parent is None:
            tree = step
        else:
            setattr(parent, side, step)
    return tree


# ---------------------------------------------------------------------------
# Grounding


def ground_deduction(tree: DeductionStep) -> DeductionStep:
    """Apply all recorded bindings and map residual variables to fresh
    constants; every resolve step is revalidated as a ground step."""
    steps = list(tree.steps())
    store: Subst = {}
    for step in steps:
        _add_bindings(store, step.bindings)
    # each literal object is resolved once: the steps of a subproof that the
    # tree repeats share the literals of their records
    ground: dict[int, Literal] = {}
    originals: list[Literal] = []
    terms: list[Term] = []
    for step in steps:
        for l in step.clause.literals + ((step.atom,) if step.atom else ()):
            if id(l) in ground:
                continue
            originals.append(l)
            l_s = apply_literal(l, store)
            terms.extend(l_s.args)
            ground[id(l)] = l_s
    residual = ordered_vars(terms)
    if residual:
        # fresh constants avoid every symbol of the document as written
        symbols = {l.predicate for l in originals}
        symbols.update(
            t.functor for t in subterms(*(a for l in originals for a in l.args)) if t.__class__ is App
        )
        namer = FreshNamer(symbols)
        fresh = {v: App(namer.fresh("g")) for v in residual}
        for key, l in ground.items():
            ground[key] = apply_literal(l, fresh)

    # rebuild in post-order (left subtree, right subtree, step), which fixes
    # the step an error names; it is the reverse of a pre-order that visits
    # the right subtree first
    order = []
    stack = [tree]
    while stack:
        step = stack.pop()
        order.append(step)
        if step.left is not None:
            stack.append(step.left)
        if step.right is not None:
            stack.append(step.right)
    done: dict[int, DeductionStep] = {}
    for step in reversed(order):
        cl = mk_clause(ground[id(l)] for l in step.clause.literals)
        if step.kind == "input":
            out = DeductionStep("input", cl, step_id=step.step_id)
        else:
            out = DeductionStep(
                "resolve",
                cl,
                atom=ground[id(step.atom)],
                left=done[id(step.left)],
                right=done[id(step.right)],
                step_id=step.step_id,
            )
            try:
                got = _resolvent(set(out.left.clause.literals), set(out.right.clause.literals), out.atom)
            except ValueError as e:
                raise ProofError(f"step {step.step_id}: {e} after grounding") from None
            if got != set(cl.literals):
                raise ProofError(
                    f"step {step.step_id} is not a valid ground resolution step after grounding"
                )
        done[id(step)] = out
    return done[id(tree)]


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

    atoms: dict[Literal, Literal] = {}
    root = Node()
    stack = [(root, tree)]  # (node, the step to attach below it), pre-order
    while stack:
        node, step = stack.pop()
        if step.kind == "input":
            if not step.clause.literals:
                raise ProofError("input step with empty clause inside a refutation")
            for l in step.clause.literals:
                node.add(Node(shared(l, atoms)))
            continue
        atom = shared(step.atom, atoms)
        neg = Node(atom.complement())
        pos = Node(atom)
        node.add(neg)
        node.add(pos)
        stack.append((pos, step.right))
        stack.append((neg, step.left))
    tab = Tableau(root)
    if not is_closed(tab):
        raise ProofError("translated tableau is not closed; invalid proof")
    return tab
