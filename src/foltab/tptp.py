"""TPTP FOF subset parser and printer, plus the bare clause syntax used by
clause files and proof documents.

Supported connectives: ~ & | => <=>, quantifiers ! [..] : and ? [..] :,
equality = and !=, $true/$false.  Variables start with an uppercase letter,
everything else with a lowercase letter or digit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .syntax import (
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
    Literal,
    Not,
    Or,
    Signature,
    Term,
    TOP,
    Top,
    Var,
    clause as mk_clause,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{message} at line {line}, column {col}")


# A token, as the alternatives of one regular expression, tried in order.
_TOKEN = r"""
    <=>|=>|!=|->|=|~|&|\||\(|\)|\[|\]|\{|\}|,|:|\.
  | \$true|\$false
  | [A-Z][A-Za-z0-9_]*
  | [a-z0-9][A-Za-z0-9_]*
  | [!?]
"""

# One match per token, its text the one group: the blanks and comments
# before it are skipped inside the pattern.  The text ends with an empty
# match; an unexpected character starts a match that swallows the rest of
# the text, so it is always the second to last.
_TOKEN_RE = re.compile(
    rf"""
    (?:\s+|[%\#][^\n]*)*
    ({_TOKEN} | \Z | .[\s\S]*)
""",
    re.VERBOSE,
)
_TOKEN_ONLY_RE = re.compile(_TOKEN, re.VERBOSE)

# the first characters of variables and of the other names
_UPPER = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_LOWER = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")


def _token_position(text: str, i: int) -> tuple[int, int]:
    """1-based (line, column) of the `i`th token of `text`, by a scan that
    matches the tokens again; a token past the end is at the end, and
    lines end at newlines."""
    offsets = [m.start(1) for m in _TOKEN_RE.finditer(text)]
    offset = offsets[min(i, len(offsets) - 1)]
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, ending with the empty end token twice: a
    parser that takes one token past the end still reads the end.  A
    variable starts with a character of `_UPPER`, any other name with one
    of `_LOWER`."""
    toks = _TOKEN_RE.findall(text)
    # after a nonempty match that reaches the end, findall adds an empty
    # match there: an unexpected character is always second to last
    if len(toks) > 1 and toks[-2] and not _TOKEN_ONLY_RE.fullmatch(toks[-2]):
        raise ParseError(
            f"unexpected character {toks[-2][0]!r}", *_token_position(text, len(toks) - 2)
        )
    if len(toks) == 1 or toks[-2]:
        toks.append("")
    return toks


class _Parser:
    """Recursive descent over the tokens of one text at a time;
    `load` moves it to the next text, so that a file of many records needs
    one parser.  Every literal that `atom` makes is kept in `literals`, in
    text order, until the next `load`.

    `terms` is the parser's term table, kept across `load` calls: a
    variable or a constant by its name, any other application by its
    functor and arguments.  Each distinct term of the texts is made once,
    so equal terms of one document are one object, found by identity in
    sets and dicts.  `literal_table` does the same for the literals of
    clauses and tableau lines (see `table_literal`)."""

    __slots__ = ("text", "toks", "i", "literals", "terms", "literal_table")

    def __init__(self, text: str = ""):
        self.terms: dict = {}
        self.literal_table: dict[tuple[str, ...], Literal] = {}
        self.load(text)

    def load(self, text: str) -> None:
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.literals: list[Literal] = []

    def error(self, msg: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at the token with index `at`, by default at the
        current token."""
        return ParseError(msg, *_token_position(self.text, self.i if at is None else at))

    def take(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> None:
        found = self.toks[self.i]
        self.i += 1
        if found != text:
            raise self.error(f"expected {text!r}, found {found!r}", self.i - 1)

    def at_end(self, msg: str) -> None:
        if self.toks[self.i]:
            raise self.error(msg)

    # formulas ------------------------------------------------------------

    def formula(self) -> Formula:
        lhs = self.implication()
        if self.toks[self.i] == "<=>":
            self.i += 1
            return Iff(lhs, self.implication())
        return lhs

    def implication(self) -> Formula:
        lhs = self.disjunction()
        if self.toks[self.i] == "=>":
            self.i += 1
            return Implies(lhs, self.implication())
        return lhs

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.toks[self.i] == "|":
            self.i += 1
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unit()]
        while self.toks[self.i] == "&":
            self.i += 1
            parts.append(self.unit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unit(self) -> Formula:
        text = self.toks[self.i]
        if text == "~":
            self.i += 1
            body = self.unit()
            # negated atoms are literals, not Not nodes
            if body.__class__ is Literal:
                return body.complement()
            return Not(body)
        if text == "!" or text == "?":
            self.i += 1
            self.expect("[")
            names = [self.variable_name()]
            while self.toks[self.i] == ",":
                self.i += 1
                names.append(self.variable_name())
            self.expect("]")
            self.expect(":")
            body = self.unit()
            ctor = ForAll if text == "!" else Exists
            for name in reversed(names):
                body = ctor(name, body)
            return body
        if text == "(":
            self.i += 1
            f = self.formula()
            self.expect(")")
            return f
        if text == "$true" or text == "$false":
            self.i += 1
            return TOP if text == "$true" else BOTTOM
        return self.atom()

    def variable_name(self) -> str:
        text = self.take()
        if text[:1] not in _UPPER:
            raise self.error(f"expected a variable, found {text!r}", self.i - 1)
        return text

    def atom(self) -> Literal:
        text = self.toks[self.i]
        if text[:1] in _LOWER and self.toks[self.i + 1] not in ("(", "=", "!="):
            # a propositional atom: no term to build first
            self.i += 1
            lit = Literal(True, text)
        else:
            first = self.term()
            nxt = self.toks[self.i]
            if nxt == "=" or nxt == "!=":
                self.i += 1
                lit = Literal(nxt == "=", "=", (first, self.term()))
            elif first.__class__ is Var:
                raise self.error("a variable is not a formula")
            else:
                lit = Literal(True, first.functor, first.args)
        self.literals.append(lit)
        return lit

    def term(self) -> Term:
        """One term, on an explicit stack of the applications still open.
        A term is taken from the table, or made and entered there once its
        arguments are; an application is hashed when it is entered, so
        hashing it never recurses."""
        toks = self.toks
        table = self.terms
        i = self.i
        open_apps: list[tuple[str, list[Term]]] = []
        while True:
            text = toks[i]
            i += 1
            first = text[:1]
            if first in _LOWER and toks[i] == "(":
                i += 1
                open_apps.append((text, []))
                continue
            if first not in _UPPER and first not in _LOWER:
                raise self.error(f"expected a term, found {text!r}", i - 1)
            # a variable's name starts with an uppercase letter and a
            # constant's never does, so the table keys both by name
            t = table.get(text)
            if t is None:
                t = table[text] = Var(text) if first in _UPPER else App(text)
            # t is complete: add it to the innermost open application and
            # close every application that ends after it
            while open_apps:
                open_apps[-1][1].append(t)
                found = toks[i]
                i += 1
                if found == ",":
                    break
                if found != ")":
                    raise self.error(f"expected ')', found {found!r}", i - 1)
                functor, args = open_apps.pop()
                key = (functor, tuple(args))
                t = table.get(key)
                if t is None:
                    t = table[key] = App(functor, key[1])
                    hash(t)
            else:
                self.i = i
                return t

    # clause syntax ---------------------------------------------------------

    def literal(self) -> Literal:
        """A literal: an atom under any number of `~` and parentheses."""
        negated = False
        while self.toks[self.i] == "~":
            self.i += 1
            negated = not negated
        if self.toks[self.i] == "(":
            self.i += 1
            inner = self.literal()
            self.expect(")")
        else:
            inner = self.atom()
        return inner.complement() if negated else inner

    def table_literal(self) -> Literal:
        """A literal as `literal` reads it, taken from the literal table
        when its tokens after the leading `~` run up to the next `|` or to
        the end of the text and are a key there; the parser then jumps to
        that separator.  A literal read anew is entered in the table only
        when it ends at that separator, so text that does not parse is
        read, and its error raised, as `literal` would.  The table holds
        the literal without the leading `~`, whose complement object is
        made once: `~p(a)` is the complement of the object read for
        `p(a)`."""
        toks = self.toks
        i = self.i
        negated = False
        while toks[i] == "~":
            i += 1
            negated = not negated
        end = len(toks) - 2  # the first of the two end tokens
        try:
            stop = toks.index("|", i, end)
        except ValueError:
            stop = end
        key = tuple(toks[i:stop])
        lit = self.literal_table.get(key)
        if lit is None:
            self.i = i
            lit = self.literal()
            if self.i == stop:
                self.literal_table[key] = lit
        else:
            self.i = stop
        return lit.complement() if negated else lit

    def clause(self) -> Clause:
        """`l1 | ... | ln` up to the end of the text."""
        lits = [self.table_literal()]
        while self.toks[self.i] == "|":
            self.i += 1
            lits.append(self.table_literal())
        self.at_end("trailing input after clause")
        return mk_clause(lits)

    # fof records ----------------------------------------------------------

    def fof_records(self) -> list["FofRecord"]:
        out = []
        while self.toks[self.i]:
            self.expect("fof")
            self.expect("(")
            name = self.take()
            self.expect(",")
            role = self.take()
            self.expect(",")
            f = self.formula()
            self.expect(")")
            self.expect(".")
            out.append(FofRecord(name, role, f))
        return out


@dataclass(frozen=True)
class FofRecord:
    name: str
    role: str
    formula: Formula


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.at_end("trailing input after formula")
    return f


def parse_fof_file(text: str) -> list[FofRecord]:
    p = _Parser(text)
    records = p.fof_records()
    # global arity consistency is a hard input error; the parser's literals
    # come in the order `occurrences` would walk the records in
    sig = Signature.empty()
    for l in p.literals:
        sig.extend_with_literal(l)
    return records


def split_problem(records: list[FofRecord]) -> tuple[list[Formula], list[Formula]]:
    """Axiom-role formulas and conjecture-role formulas, in file order."""
    axioms = [r.formula for r in records if r.role != "conjecture"]
    conjectures = [r.formula for r in records if r.role == "conjecture"]
    return axioms, conjectures


# ---------------------------------------------------------------------------
# Line documents: clause files, proof documents and tableau documents


def content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """The line number, the stripped text and the text as written of each
    line of a line document but the blank ones and those whose first
    non-blank character starts a comment, `#` or `%`."""
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and stripped[0] not in "#%":
            yield i, stripped, raw


def parse_clause_file(text: str) -> list[Clause]:
    """One clause per content line."""
    out = []
    sig = Signature.empty()
    p = _Parser()
    for i, stripped, raw in content_lines(text):
        if stripped in ("$false", "false"):
            out.append(Clause(()))
            continue
        try:
            p.load(stripped)
            c = p.clause()
        except ParseError as e:
            raise ParseError(e.message, i, len(raw) - len(raw.lstrip()) + e.col) from None
        # the literals read anew: one taken from the table was checked on
        # the line that entered it
        sig.extend_with_line(i, p.literals)
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# Printing

_PREC_IFF = 0
_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNIT = 4


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, min_prec: int) -> str:
    if isinstance(f, Literal):
        return str(f)
    if isinstance(f, Top):
        return "$true"
    if isinstance(f, Bottom):
        return "$false"
    if isinstance(f, Not):
        return "~" + _fmt_unit(f.body)
    if isinstance(f, (ForAll, Exists)):
        q = "!" if isinstance(f, ForAll) else "?"
        return f"{q} [{f.var}] : {_fmt_unit(f.body)}"
    if isinstance(f, And):
        body = " & ".join(_fmt(p, _PREC_AND + 1) for p in f.parts)
        return _wrap(body, _PREC_AND, min_prec)
    if isinstance(f, Or):
        body = " | ".join(_fmt(p, _PREC_OR + 1) for p in f.parts)
        return _wrap(body, _PREC_OR, min_prec)
    if isinstance(f, Implies):
        body = f"{_fmt(f.lhs, _PREC_IMP + 1)} => {_fmt(f.rhs, _PREC_IMP)}"
        return _wrap(body, _PREC_IMP, min_prec)
    if isinstance(f, Iff):
        body = f"{_fmt(f.lhs, _PREC_IFF + 1)} <=> {_fmt(f.rhs, _PREC_IFF + 1)}"
        return _wrap(body, _PREC_IFF, min_prec)
    raise TypeError(f"not a formula: {f!r}")


def _fmt_unit(f: Formula) -> str:
    if isinstance(f, (Literal, Top, Bottom, Not, ForAll, Exists)):
        out = _fmt(f, _PREC_UNIT)
        # infix equality still needs parentheses in unit position
        if isinstance(f, Literal) and f.predicate == "=" and len(f.args) == 2:
            return f"({out})"
        return out
    return f"({_fmt(f, 0)})"


def _wrap(body: str, prec: int, min_prec: int) -> str:
    return body if prec >= min_prec else f"({body})"
