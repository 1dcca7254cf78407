"""Binary-resolution proof documents: parsing, replay validation, grounding,
and translation into closed clausal ground tableaux in cut normal form.

Document format, one record per line (blank lines and #/% comments allowed):

    <id> input <clause>
    <id> resolve(<id1>, <id2>, <atom>) [{X -> t, ...}] <clause>

The resolved atom occurs positively in the first parent and negatively in
the second.  Variables are rigid across the whole document; bindings
recorded at resolve steps therefore apply document-wide.  The last record is
the root of the proof.  Step ids may be referenced more than once: a parsed
proof links each resolve step to its parent steps, so a step used twice is
one object and the deduction stays a DAG.  The size of its tree expansion
is counted before anything is built, and only the cut normal form expands
it, into the tableau.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    App,
    Clause,
    CopyStore,
    FreshNamer,
    Literal,
    Signature,
    Subst,
    Term,
    Var,
    clause as mk_clause,
    is_ground,
    literal_key,
    map_literal_terms,
    occurs_copy,
    resolve_copy,
    subterms,
)
from .tableaux import Node, ResourceLimitError, Tableau, is_closed
from .tptp import _LOWER, _UPPER, ParseError, _Parser, content_lines


class ProofError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# Documents


class DeductionStep:
    """A step of a binary-resolution deduction: an input clause, or the
    resolvent on `atom` of its `left` and `right` parent steps.  A step that
    several steps use is shared, so equality is identity."""

    def __init__(
        self,
        kind: str,
        clause: Clause,
        atom: Optional[Literal] = None,
        left: Optional[DeductionStep] = None,
        right: Optional[DeductionStep] = None,
        bindings: Optional[dict[str, Term]] = None,
        step_id: str = "",
        line: Optional[int] = None,
    ):
        self.kind = kind  # input | resolve
        self.clause = clause
        self.atom = atom
        self.left = left
        self.right = right
        self.bindings = {} if bindings is None else bindings
        self.step_id = step_id
        self.line = line

    def __repr__(self) -> str:
        # the parents are left out: walking them would expand the DAG
        return (
            f"DeductionStep(kind={self.kind!r}, clause={self.clause!r}, atom={self.atom!r},"
            f" bindings={self.bindings!r}, step_id={self.step_id!r}, line={self.line!r})"
        )

    def steps(self):
        """Each step once, in the pre-order of the tree: a step, then its
        left and its right subtree.  A step met again is skipped with its
        subtree, whose steps have all come already."""
        seen = set()
        stack = [self]
        while stack:
            step = stack.pop()
            if step in seen:
                continue
            seen.add(step)
            yield step
            if step.right is not None:
                stack.append(step.right)
            if step.left is not None:
                stack.append(step.left)


class ProofDocument:
    def __init__(self, records: list[DeductionStep]):
        self.records = records  # in document order: parents come first

    @property
    def root(self) -> DeductionStep:
        return self.records[-1]


# ---------------------------------------------------------------------------
# Parsing


_PARAMOD_NAMES = {"paramod", "paramodulation", "para", "pm"}


def parse_proof(text: str) -> ProofDocument:
    steps: dict[str, DeductionStep] = {}
    sig = Signature()
    p = _Parser()
    for line_no, stripped, _ in content_lines(text):
        try:
            p.load(stripped)
            step = _parse_record(p, line_no, steps)
        except ParseError as e:
            raise ProofError(e.message, line_no) from None
        # arities are checked as in a clause file, and the binding terms too
        sig.extend_with_line(line_no, p.literals, step.bindings.values())
        steps[step.step_id] = step
    if not steps:
        raise ProofError("empty proof document")
    doc = ProofDocument(list(steps.values()))
    _replay_validate(doc)
    return doc


def _parse_record(p: _Parser, line_no: int, known: dict[str, DeductionStep]) -> DeductionStep:
    """The step whose text `p` has just loaded; `known` has the steps of
    the records before it by id."""
    id_at = p.i
    step_id = p.take()
    if step_id[:1] not in _LOWER and step_id[:1] not in _UPPER:
        raise p.error("expected a step id", id_at)
    if step_id in known:
        raise p.error(f"duplicate step id {step_id!r}", id_at)
    rule_at = p.i
    rule = p.take()
    if rule == "input":
        return DeductionStep("input", _parse_clause_tokens(p), step_id=step_id, line=line_no)
    if rule == "resolve":
        p.expect("(")
        ref1 = p.take()
        p.expect(",")
        ref2 = p.take()
        p.expect(",")
        # the atom's tokens run up to the `)` of `resolve(`
        atom = p.table_literal(p.closing(p.i))
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
            if ref not in known:
                raise p.error(f"dangling step reference {ref!r}", id_at)
        clause = _parse_clause_tokens(p)
        return DeductionStep("resolve", clause, atom, known[ref1], known[ref2], bindings, step_id, line_no)
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
        if r.kind == "input":
            lines.append(f"{r.step_id} input {r.clause}")
        else:
            head = f"{r.step_id} resolve({r.left.step_id}, {r.right.step_id}, {r.atom})"
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


def _add_bindings(store: CopyStore, bindings: Subst, line: Optional[int] = None) -> None:
    """Add recorded bindings to the document's binding store, which binds
    every variable as copy 0.  The store stays triangular: a variable keeps
    its first binding as written, and a binding that would make a cycle is
    rejected."""
    for v, t in bindings.items():
        old = store.get((v, 0))
        if old is None:
            if occurs_copy(v, 0, t, 0, store):
                raise ProofError(f"cyclic bindings through {v}", line)
            store[v, 0] = (t, 0)
        elif old[0] is not t:
            raise ProofError(f"variable {v} bound to both {old[0]} and {t}", line)


def _replay_validate(doc: ProofDocument) -> None:
    # variables are rigid across the document, so bindings accumulate in
    # record order and each step is checked under everything seen so far;
    # a literal stands for itself until the first binding, and is read
    # once until a record adds bindings
    store: CopyStore = {}
    read: dict[Literal, Literal] = {}
    table: dict = {}

    def term(t: Term) -> Term:
        return resolve_copy(t, 0, store, table, lambda v, k: Var(v))

    def apply(l: Literal) -> Literal:
        got = read.get(l) if store else l
        if got is None:
            got = read[l] = map_literal_terms(l, term)
        return got

    for r in doc.records:
        if r.bindings:
            _add_bindings(store, r.bindings, r.line)
            read.clear()
            table.clear()
        if r.kind != "resolve":
            continue
        left = {apply(l) for l in r.left.clause.literals}
        right = {apply(l) for l in r.right.clause.literals}
        try:
            got = _resolvent(left, right, apply(r.atom))
        except ValueError as e:
            raise ProofError(str(e), r.line) from None
        if got != {apply(l) for l in r.clause.literals}:
            # printed in literal_key order, whatever the hash seed
            recomputed = Clause(tuple(sorted(got, key=literal_key)))
            raise ProofError(
                f"declared resolvent {r.clause} does not match "
                f"recomputed {recomputed}",
                r.line,
            )


# ---------------------------------------------------------------------------
# The bound on the tree expansion


def to_tree(doc: ProofDocument, max_nodes: int = 10_000_000) -> DeductionStep:
    """The root step, once the tree expansion of the deduction is known to
    have at most `max_nodes` steps.  The size is counted, not built: in
    document order, a step's expansion is one step more than its parents',
    which come earlier.  Sizes stop at `max_nodes + 1`, which is too many
    already."""
    size: dict[DeductionStep, int] = {}
    for step in doc.records:
        n = 1 if step.kind == "input" else 1 + size[step.left] + size[step.right]
        size[step] = min(n, max_nodes + 1)
    if size[doc.root] > max_nodes:
        raise ResourceLimitError(f"proof tree expansion exceeded {max_nodes} nodes")
    return doc.root


# ---------------------------------------------------------------------------
# Grounding


def ground_deduction(tree: DeductionStep) -> DeductionStep:
    """Apply all recorded bindings and map residual variables to fresh
    constants; every resolve step is revalidated as a ground step.  Each
    distinct step is grounded and checked once, and the result shares a
    step wherever `tree` does."""
    steps = list(tree.steps())
    store: CopyStore = {}
    for step in steps:
        _add_bindings(store, step.bindings)
    # the distinct literals in step order, each mapped to its ground literal
    ground = dict.fromkeys(
        l for step in steps for l in step.clause.literals + ((step.atom,) if step.atom else ())
    )
    namer: Optional[FreshNamer] = None
    table: dict = {}

    def fresh(v: str, k: int) -> App:
        # a residual variable, named the first time the resolver meets it;
        # fresh constants avoid every symbol of the steps as written, in
        # their literals and binding terms
        nonlocal namer
        if namer is None:
            terms = [a for l in ground for a in l.args]
            terms += [t for step in steps for t in step.bindings.values()]
            symbols = {l.predicate for l in ground}
            symbols.update(t.functor for t in subterms(*terms) if t.__class__ is App)
            namer = FreshNamer(symbols)
        return App(namer.fresh("g"))

    def term(t: Term) -> Term:
        return resolve_copy(t, 0, store, table, fresh)

    for l in ground:
        # a literal whose arguments are all ground is its own ground literal
        ground[l] = l if all(map(is_ground, l.args)) else map_literal_terms(l, term)

    # rebuild in post-order (left subtree, right subtree, step), each step
    # once, which fixes the step an error names
    done: dict[DeductionStep, DeductionStep] = {}
    stack = [(tree, False)]  # (step, whether its parents are done)
    while stack:
        step, ready = stack.pop()
        if step in done:
            continue
        if step.kind != "input" and not ready:
            stack += [(step, True), (step.right, False), (step.left, False)]
            continue
        cl = mk_clause(ground[l] for l in step.clause.literals)
        if step.kind == "input":
            out = DeductionStep("input", cl, step_id=step.step_id)
        else:
            out = DeductionStep(
                "resolve",
                cl,
                atom=ground[step.atom],
                left=done[step.left],
                right=done[step.right],
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
        done[step] = out
    return done[tree]


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

    root = Node()
    stack = [(root, tree)]  # (node, the step to attach below it), pre-order
    while stack:
        node, step = stack.pop()
        if step.kind == "input":
            if not step.clause.literals:
                raise ProofError("input step with empty clause inside a refutation")
            for l in step.clause.literals:
                node.add(Node(l))
            continue
        neg = Node(step.atom.complement())
        pos = Node(step.atom)
        node.add(neg)
        node.add(pos)
        stack.append((pos, step.right))
        stack.append((neg, step.left))
    tab = Tableau(root)
    if not is_closed(tab):
        raise ProofError("translated tableau is not closed; invalid proof")
    return tab
