"""The front end against the reference tokenizer and parsers in helpers.

For formulas, fof files, clause files, proof documents and tableau
documents, intact and damaged, both must return equal results or raise
errors of the same type, message, line and column.  Proof import past
parsing (grounding and the cut normal form) is compared the same way.
"""

import random
import re

import pytest

from foltab.cli import bundled_samples_dir
from foltab.documents import format_tableau, parse_tableau
from foltab.proofs import ProofError, ground_deduction, parse_proof, to_cut_normal_form, to_tree
from foltab.syntax import App, Clause, InputError, Literal
from foltab import tptp
from foltab.tableaux import branch_walk
from foltab.tptp import (
    ParseError,
    format_formula,
    parse_clause_file,
    parse_fof_file,
    parse_formula,
)

from helpers import (
    proof_family,
    random_formula,
    random_literal,
    random_term,
    reference_ground_deduction,
    reference_parse_clause_file,
    reference_parse_fof_file,
    reference_parse_formula,
    reference_parse_proof,
    reference_parse_tableau,
    reference_tokenize,
)

# characters the damaged variants are made of: every token's first
# character, blanks of several kinds, comment starts, and some that no
# token starts with
_NOISE = "()[]{},:.~&|=!?<>-$%#XYafpq01 \t\n\r\x0c\x85é@\\"


def damaged(text: str, rng: random.Random, n: int = 6) -> list[str]:
    """Truncated, byte-flipped and garbage variants of `text`."""
    out = []
    for _ in range(n):
        cut = rng.randrange(len(text) + 1)
        out.append(text[:cut])
        pos = rng.randrange(max(1, len(text)))
        out.append(text[:pos] + rng.choice(_NOISE) + text[pos + 1:])
        pos = rng.randrange(len(text) + 1)
        out.append(text[:pos] + rng.choice(_NOISE) + text[pos:])
        out.append("".join(rng.choice(_NOISE) for _ in range(rng.randint(0, 12))))
    return out


def renamed(text: str, rng: random.Random, n: int = 6) -> list[str]:
    """Variants of `text` with one name occurrence replaced by another name
    of the text: wrong resolvents, missing atoms, bindings that clash."""
    names = [m for m in re.finditer(r"[A-Za-z][A-Za-z0-9_]*", text) if m[0] not in ("input", "resolve")]
    out = []
    for _ in range(n):
        m = rng.choice(names)
        out.append(text[: m.start()] + rng.choice(names)[0] + text[m.end():])
    return out


def outcome(parse, text):
    """("ok", result) or the error's type, message, line and column; the
    reference's IndexError on a record cut off after a name stays
    distinguishable."""
    try:
        return ("ok", parse(text))
    except (ParseError, ProofError, InputError) as e:
        return (type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "col", None))
    except IndexError:
        return ("IndexError",)


def assert_agree(new, reference, text, key=lambda r: r):
    got = outcome(new, text)
    want = outcome(reference, text)
    if want == ("IndexError",):
        # the reference read past the end of its tokens; the current parser
        # reports the record as cut off
        assert got[0] in ("ParseError", "ProofError") and "found ''" in got[1], (text, got)
        return
    if got[0] == "ok" and want[0] == "ok":
        assert key(got[1]) == key(want[1]), text
    else:
        assert got == want, text


def tableau_rows(tab):
    """Depth, literal, side and target depth of every node in pre-order,
    the root first, as the branch walk reads them."""
    depth_of = {}
    out = []
    for n, depth, target in branch_walk(tab.root):
        depth_of[n] = depth
        out.append((depth, n.literal, n.side, depth_of[target] if target is not None else None))
    return out


def proof_rows(doc):
    """Id, kind, parent ids, atom, bindings, clause and line of every step
    in document order: the steps link their parents, and equality of
    steps is identity."""
    out = []
    for s in doc.records:
        parents = (s.left.step_id, s.right.step_id) if s.kind == "resolve" else ()
        out.append((s.step_id, s.kind, parents, s.atom, s.bindings, s.clause, s.line))
    return out


def sample_proofs() -> list[str]:
    return [p.read_text() for p in sorted(bundled_samples_dir().glob("*.proof"))]


def test_formulas_agree_with_the_reference():
    rng = random.Random(61)
    for _ in range(150):
        text = format_formula(random_formula(rng, depth=rng.randint(0, 4)))
        for t in [text] + damaged(text, rng, 2):
            assert_agree(parse_formula, reference_parse_formula, t)


def test_fof_files_agree_with_the_reference():
    rng = random.Random(62)
    for _ in range(40):
        records = [
            f"fof(f{i}, {rng.choice(['axiom', 'conjecture'])}, {format_formula(random_formula(rng, depth=3))})."
            for i in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.3:  # an arity clash with p/1
            records.append("fof(clash, axiom, p(a, b)).")
        text = "% a fof file\n" + "\n".join(records) + "\n"
        for t in [text] + damaged(text, rng):
            assert_agree(parse_fof_file, reference_parse_fof_file, t)
    # cut off after the name and after the role
    for t in ["fof(a", "fof(a, axiom"]:
        assert_agree(parse_fof_file, reference_parse_fof_file, t)


def test_clause_files_agree_with_the_reference():
    rng = random.Random(63)
    for _ in range(40):
        lines = []
        for _ in range(rng.randint(1, 6)):
            lits = [random_literal(rng, ("X", "Y")) for _ in range(rng.randint(1, 3))]
            lines.append(str(Clause(tuple(lits))))
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["# note", "% note", "", "false", "$false"]))
        text = "\n".join(lines) + "\n"
        for t in [text] + damaged(text, rng):
            assert_agree(parse_clause_file, reference_parse_clause_file, t)


def test_proofs_agree_with_the_reference():
    rng = random.Random(64)
    texts = sample_proofs() + [proof_family(f, 5) for f in ("chain", "wide", "fol_chain")]
    assert len(texts) == 27
    for text in texts:
        for t in [text] + damaged(text, rng, 10) + renamed(text, rng, 10):
            assert_agree(parse_proof, reference_parse_proof, t, key=proof_rows)
    for t in ["s1 input p\ns2 resolve(", "s1 input p\ns2 resolve(s1, s1", "s1 input p\ns2 resolve(s1,"]:
        assert_agree(parse_proof, reference_parse_proof, t, key=proof_rows)


# hand-made documents for the binding store, each with what importing it
# gives: None for a proof that imports, else the start of the error
HAND_MADE_PROOFS = [
    # a chain of bindings, X -> f(Y) -> f(Z) -> f(a), over two records
    (
        "s1 input p(X) | q(Y)\n"
        "s2 input ~p(f(Z))\n"
        "s3 resolve(s1, s2, p(X)) {X -> f(Y), Y -> Z} q(Z)\n"
        "s4 input ~q(a)\n"
        "s5 resolve(s3, s4, q(Z)) {Z -> a} false\n",
        None,
    ),
    # a residual variable inside a binding, and a variable bound to it
    (
        "s1 input p(X)\n"
        "s2 input ~p(f(Y)) | q(Y)\n"
        "s3 resolve(s1, s2, p(X)) {X -> f(Y)} q(Y)\n"
        "s4 input ~q(W)\n"
        "s5 resolve(s3, s4, q(Y)) {W -> Y} false\n",
        None,
    ),
    # a cycle within one record and a cycle through an earlier record
    (
        "s1 input p(X) | q(Y)\n"
        "s2 input ~p(X)\n"
        "s3 resolve(s1, s2, p(X)) {X -> g(Y), Y -> h(a, X)} q(Y)\n",
        "cyclic bindings through Y at line 3",
    ),
    (
        "s1 input p(X) | q(Y)\n"
        "s2 input ~p(f(Y))\n"
        "s3 resolve(s1, s2, p(X)) {X -> f(Y)} q(Y)\n"
        "s4 input ~q(X)\n"
        "s5 resolve(s3, s4, q(Y)) {Y -> X} false\n",
        "cyclic bindings through Y at line 5",
    ),
    # a variable bound to two terms, the second reached through a chain
    (
        "s1 input p(X) | q(Y)\n"
        "s2 input ~p(Y)\n"
        "s3 resolve(s1, s2, p(X)) {X -> Y, Y -> a} q(a)\n"
        "s4 input ~q(a)\n"
        "s5 resolve(s3, s4, q(a)) {Y -> f(a)} false\n",
        "variable Y bound to both a and f(a) at line 5",
    ),
    # a binding on a record the root does not reach: replay reads it,
    # grounding does not
    (
        "s1 input p(X) | q\n"
        "s2 input ~p(a)\n"
        "u1 resolve(s1, s2, p(X)) {X -> a} q\n"
        "s3 input ~p(X)\n"
        "r1 resolve(s1, s3, p(X)) q\n"
        "s4 input ~q\n"
        "r2 resolve(r1, s4, q) false\n",
        None,
    ),
    # a constant written only in a binding, with the name the first fresh
    # constant would take
    (
        "s1 input p(X) | p(Y)\n"
        "s2 input ~p(X)\n"
        "s3 input ~p(Y)\n"
        "r1 resolve(s1, s2, p(X)) {X -> g1} p(Y)\n"
        "r2 resolve(r1, s3, p(Y)) $false\n",
        None,
    ),
]


def import_tableau(ground, text):
    """The cut normal form of the proof `text`, grounded by `ground`."""
    return format_tableau(to_cut_normal_form(ground(to_tree(parse_proof(text)))))


def test_hand_made_proofs_import_as_written():
    for text, error in HAND_MADE_PROOFS:
        got = outcome(lambda t: import_tableau(ground_deduction, t), text)
        if error is None:
            assert got[0] == "ok", (text, got)
        else:
            assert got[0] == "ProofError" and got[1].startswith(error), (text, got)


def test_proof_import_agrees_with_the_reference():
    rng = random.Random(65)
    texts = sample_proofs() + [proof_family(f, 6) for f in ("chain", "wide", "fol_chain")]
    texts += [text for text, _ in HAND_MADE_PROOFS]
    for text in texts:
        for t in [text] + damaged(text, rng, 10) + renamed(text, rng, 10):
            assert_agree(parse_proof, reference_parse_proof, t, key=proof_rows)
            try:
                doc = parse_proof(t)
            except (ProofError, InputError):
                continue
            got = outcome(lambda _: format_tableau(to_cut_normal_form(ground_deduction(to_tree(doc)))), t)
            want = outcome(
                lambda _: format_tableau(to_cut_normal_form(reference_ground_deduction(to_tree(doc)))), t
            )
            assert got == want, t


def test_tableau_documents_agree_with_the_reference():
    rng = random.Random(66)
    for text in sample_proofs():
        doc = format_tableau(to_cut_normal_form(ground_deduction(to_tree(parse_proof(text)))))
        for t in [doc] + damaged(doc, rng, 4):
            assert_agree(parse_tableau, reference_parse_tableau, t, key=tableau_rows)


# a line's literals: a clause file's line, a proof record's clause (after
# `input ` or after a `resolve(..)` whose atom has no parentheses) or a
# tableau line's literal, before its side and target
_LINE_LITERALS = re.compile(
    r"^(?: *\S+ input | *\S+ resolve\([^()]*\) | *)(?P<lits>\S.*?)(?:\s+\[[FG]\])?(?:\s+->\s+\d+)?$",
    re.M,
)


def repeated_literal_spans(text: str) -> list[tuple[int, int]]:
    """The start and end offsets of every literal of `text` whose text
    occurs earlier in it: the literals a parser can take from its table."""
    seen = set()
    out = []
    for m in _LINE_LITERALS.finditer(text):
        at = m.start("lits")
        for lit in m["lits"].split(" | "):
            if lit in seen:
                out.append((at, at + len(lit)))
            seen.add(lit)
            at += len(lit) + 3
    return out


def damaged_repeats(text: str, rng: random.Random, n: int = 6) -> list[str]:
    """Variants of `text` with a character replaced, inserted or deleted
    inside a repeated literal, or with a stray token after one, before the
    next `|` (`p q | p`)."""
    spans = repeated_literal_spans(text)
    out = []
    for _ in range(n):
        start, end = rng.choice(spans)
        pos = rng.randrange(start, end)
        noise = rng.choice(_NOISE)
        out.append(text[:pos] + noise + text[pos + 1:])
        out.append(text[:pos] + noise + text[pos:])
        out.append(text[:pos] + text[pos + 1:])
        out.append(text[:end] + " " + rng.choice(["q", "p(a)", "X", "~p", "("]) + text[end:])
    return out


def test_documents_with_repeated_literals_agree_with_the_reference():
    """Clause files, proof documents and tableau documents whose literals
    repeat, intact, damaged inside a repeated literal, with a stray token
    after one, and with an arity clash first seen on a later line."""
    rng = random.Random(67)
    for _ in range(40):
        pool = [random_literal(rng, ("X", "Y")) for _ in range(rng.randint(1, 4))]
        lines = []
        for _ in range(rng.randint(2, 6)):
            lits = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            lines.append(" | ".join(str(l if rng.random() < 0.7 else l.complement()) for l in lits))
        text = "\n".join(lines) + "\n"
        if not repeated_literal_spans(text):
            continue
        # a symbol of the pool with another arity, or as a function
        lit = rng.choice(pool)
        clash = rng.choice([
            Literal(True, lit.predicate, lit.args + (App("a"),)),
            Literal(True, "r", (App(lit.predicate), App("a"))),
        ])
        clashing = text + f"{rng.choice(pool)} | {clash}\n"
        for t in [text, clashing] + damaged_repeats(text, rng) + damaged_repeats(clashing, rng, 2):
            assert_agree(parse_clause_file, reference_parse_clause_file, t)

    proofs = [proof_family("wide", k) for k in (3, 12)] + [proof_family("chain", 8)]
    for text in proofs:
        for t in [text] + damaged_repeats(text, rng, 12):
            assert_agree(parse_proof, reference_parse_proof, t, key=proof_rows)

    for text in proofs[:2] + sample_proofs()[:6]:
        doc = format_tableau(to_cut_normal_form(ground_deduction(to_tree(parse_proof(text)))))
        for t in [doc] + damaged_repeats(doc, rng, 8):
            assert_agree(parse_tableau, reference_parse_tableau, t, key=tableau_rows)


def repeated_application_spans(text: str) -> list[tuple[int, int]]:
    """The start and end offsets of every application `name(...)` of
    `text`, atom or term, whose text occurs earlier in it: the resolved
    atoms, bindings and arguments a parser can take from its tables, and
    formula atoms, whose arguments it can."""
    seen = set()
    out = []
    for m in re.finditer(r"\b[a-z0-9][A-Za-z0-9_]*\(", text):
        if m[0] in ("resolve(", "fof("):
            continue
        depth = 0
        for end in range(m.end() - 1, len(text)):
            depth += {"(": 1, ")": -1}.get(text[end], 0)
            if depth == 0:
                span = text[m.start(): end + 1]
                if span in seen:
                    out.append((m.start(), end + 1))
                seen.add(span)
                break
    return out


def damaged_repeated_applications(text: str, rng: random.Random, n: int = 6) -> list[str]:
    """Variants of `text` with, in or after a repeated application, an
    unbalanced `(` or `)`, a stray token, `= b` or `!= b` (an atom then
    reads as the left side of an equation), or one more argument (an
    arity clash)."""
    spans = repeated_application_spans(text)
    out = []
    for _ in range(n):
        start, end = rng.choice(spans)
        pos = rng.randrange(start, end + 1)
        out.append(text[:pos] + rng.choice("()") + text[pos:])
        out.append(text[:end] + " " + rng.choice(["q", "a", "X", "f(a)", ",", "("]) + text[end:])
        out.append(text[:end] + rng.choice([" = b", " != b"]) + text[end:])
        out.append(text[: end - 1] + ", a" + text[end - 1:])
    return out


def formula_with_repeated_subterms(rng: random.Random) -> str:
    """A formula whose atoms draw their arguments from two terms, so that
    atoms and subterms repeat."""
    terms = [str(App("f", (random_term(rng, ("X", "Y"), depth=rng.randint(0, 3)),))) for _ in range(2)]

    def atom() -> str:
        t, u = rng.choice(terms), rng.choice(terms)
        return rng.choice([f"p({t})", f"r({t},{u})", f"{t} = {u}", f"q(f({t}))"])

    f = atom()
    for _ in range(rng.randint(2, 5)):
        f = rng.choice(["({} & {})", "({} | {})", "({} => {})", "(~{} <=> {})"]).format(f, atom())
    return f"! [X, Y] : {f}"


def test_repeated_atoms_and_terms_agree_with_the_reference():
    """Proof documents whose resolved atoms, bindings and arguments repeat
    earlier text, and formulas and fof files whose atoms and subterms
    repeat: intact and damaged in or after a repeated application."""
    rng = random.Random(68)
    for text in [proof_family("fol_chain", k) for k in (3, 12)]:
        for t in [text] + damaged_repeated_applications(text, rng, 30):
            assert_agree(parse_proof, reference_parse_proof, t, key=proof_rows)
    for _ in range(40):
        formulas = [formula_with_repeated_subterms(rng) for _ in range(rng.randint(1, 3))]
        assert repeated_application_spans(formulas[0])
        for t in [formulas[0]] + damaged_repeated_applications(formulas[0], rng, 2):
            assert_agree(parse_formula, reference_parse_formula, t)
        text = "".join(f"fof(f{i}, axiom, {f}).\n" for i, f in enumerate(formulas))
        for t in [text] + damaged_repeated_applications(text, rng, 3):
            assert_agree(parse_fof_file, reference_parse_fof_file, t)


def _tokens_or_error(tokens, text):
    try:
        return tokens(text)
    except ParseError as e:
        return (e.message, e.line, e.col)


def test_tokens_and_their_positions_agree_with_the_reference_tokenizer():
    """`_tokenize` reads the token texts with one `findall`, and a second
    scan of the text gives the line and column of a token only when an
    error needs them: texts, positions and the errors for unexpected
    characters agree with the reference tokenizer."""

    def fast(text):
        toks = tptp._tokenize(text)
        # the end token comes twice
        assert toks[-2:] == ["", ""]
        return [(t, *tptp._token_position(text, i)) for i, t in enumerate(toks[:-1])]

    def reference(text):
        return [(t.text, t.line, t.col) for t in reference_tokenize(text)]

    rng = random.Random(17)
    pieces = list(_NOISE) + ["_x", "$foo", "$true", "é", "\x85", "% note\n", "# note\n", "p(X)", "<=>", "->"]
    texts = ["", " ", "_x", "$foo", "é", "\x85", "% only a comment", "# c\n\n", "p(a) % c", "! [X] : p(X)\n"]
    texts += ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 12))) for _ in range(3000)]
    errors = 0
    for text in texts:
        want = _tokens_or_error(reference, text)
        assert _tokens_or_error(fast, text) == want, repr(text)
        errors += isinstance(want, tuple)
    assert 500 < errors < len(texts) - 500


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("p(a) &\n  q(b) $", 2, 8),
        ("p(a)\n& (q(b)\n| r(c) d)", 3, 8),
        ("p(f(a, ))", 1, 8),
        ("! [X, a] : p(X)", 1, 7),
        ("X", 1, 2),
    ],
)
def test_formula_errors_carry_line_and_column(text, line, col):
    with pytest.raises(ParseError) as e:
        parse_formula(text)
    assert (e.value.line, e.value.col) == (line, col)
    assert outcome(parse_formula, text) == outcome(reference_parse_formula, text)


def test_clause_file_errors_carry_the_file_line_and_the_column():
    # columns are those of the file, indentation included
    for text, error in [
        ("p | q\n\n% note\n  ~r(a) | s(b c)\n", ("expected ')', found 'c'", 4, 15)),
        ("    p(a) | q(b\n", ("expected ')', found ''", 1, 15)),
    ]:
        with pytest.raises(ParseError) as e:
            parse_clause_file(text)
        assert (e.value.message, e.value.line, e.value.col) == error
        assert outcome(parse_clause_file, text) == outcome(reference_parse_clause_file, text)


def test_tableau_literal_errors_carry_the_document_line_and_the_column():
    # columns are those of the document, indentation included
    for text, error in [
        ("tableau\n  p\n    ~p(a -> 1\n", ("expected ')', found ''", 3, 9)),
        ("tableau\n  p\n    q\n      ~p(a b) [F]\n", ("expected ')', found 'b'", 4, 12)),
    ]:
        with pytest.raises(ParseError) as e:
            parse_tableau(text)
        assert (e.value.message, e.value.line, e.value.col) == error
        assert outcome(parse_tableau, text) == outcome(reference_parse_tableau, text)
