"""TPTP FOF subset parser and printer, plus the bare clause syntax used by
clause files and proof documents.

Supported connectives: ~ & | => <=>, quantifiers ! [..] : and ? [..] :,
equality = and !=, $true/$false.  Variables start with an uppercase letter,
everything else with a lowercase letter or digit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    clause,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{message} at line {line}, column {col}")


_TOKEN_RE = re.compile(
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


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    line = 1
    col = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            out.append(_Token(kind, tok, line, col))
        newlines = tok.count("\n")
        if newlines:
            line += newlines
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    out.append(_Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # formulas ------------------------------------------------------------

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
            # negated atoms are literals, not Not nodes
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

    # fof records ----------------------------------------------------------

    def fof_records(self) -> list["FofRecord"]:
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


@dataclass(frozen=True)
class FofRecord:
    name: str
    role: str
    formula: Formula


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    if p.peek().kind != "eof":
        p.error("trailing input after formula")
    return f


def parse_fof_file(text: str) -> list[FofRecord]:
    records = _Parser(text).fof_records()
    # global arity consistency is a hard input error
    sig = Signature.empty()
    for r in records:
        sig.extend_with_formula(r.formula)
    return records


def split_problem(records: list[FofRecord]) -> tuple[list[Formula], list[Formula]]:
    """Axiom-role formulas and conjecture-role formulas, in file order."""
    axioms = [r.formula for r in records if r.role != "conjecture"]
    conjectures = [r.formula for r in records if r.role == "conjecture"]
    return axioms, conjectures


# ---------------------------------------------------------------------------
# Clause syntax: one clause per nonblank, non-comment line


def parse_clause(text: str, line: int = 1) -> Clause:
    stripped = text.strip()
    if stripped in ("$false", "false"):
        return Clause(())
    p = _Parser(text)
    lits: list[Literal] = []
    while True:
        lits.append(_parse_literal(p))
        if p.peek().text == "|":
            p.next()
            continue
        break
    if p.peek().kind != "eof":
        p.error("trailing input after clause")
    return clause(lits)


def _parse_literal(p: _Parser) -> Literal:
    negated = False
    while p.peek().text == "~":
        p.next()
        negated = not negated
    if p.peek().text == "(":
        p.next()
        inner = _parse_literal(p)
        p.expect(")")
        return inner.complement() if negated else inner
    f = p.atom()
    if not isinstance(f, Literal):
        p.error("expected a literal")
    return f.complement() if negated else f


def parse_clause_file(text: str) -> list[Clause]:
    out = []
    sig = Signature.empty()
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith("%"):
            continue
        try:
            c = parse_clause(stripped, i)
        except ParseError as e:
            raise ParseError(e.message, i, e.col) from None
        for l in c.literals:
            sig.extend_with_literal(l)
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# Printing

_PREC_IFF = 0
_PREC_IMP = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNIT = 4


def format_term(t: Term) -> str:
    return str(t)


def format_literal(l: Literal) -> str:
    if l.predicate == "=" and len(l.args) == 2:
        op = "=" if l.positive else "!="
        return f"{l.args[0]} {op} {l.args[1]}"
    return str(l)


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, min_prec: int) -> str:
    if isinstance(f, Literal):
        return format_literal(f)
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


def format_clause(c: Clause) -> str:
    if not c.literals:
        return "$true" if c.conjunctive else "$false"
    sep = " & " if c.conjunctive else " | "
    return sep.join(format_literal(l) for l in c.literals)
