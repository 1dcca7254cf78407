"""TPTP FOF subset parser and printer, plus the bare clause syntax used by
clause files and proof documents.

Supported connectives: ~ & | => <=>, quantifiers ! [..] : and ? [..] :,
equality = and !=, $true/$false.  Variables start with an uppercase letter,
everything else with a lowercase letter or digit.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat
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


# The binary connectives, loosest first: a connective's precedence is its
# place here.  `|` and `&` join n-ary nodes, `=>` is right associative, and
# `<=>` joins two implications.
_CONNECTIVES = (("<=>", Iff), ("=>", Implies), ("|", Or), ("&", And))
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND = range(4)
_BINARY = {text: (prec, cls) for prec, (text, cls) in enumerate(_CONNECTIVES)}

# the change in parenthesis depth at a token
_PAREN_STEP = {"(": 1, ")": -1}

# the formula parser's mark for an open parenthesis, and its prefix `~`
_PAREN = object()
_NOT = (Not, ())


def _join(operator: list, rhs: Formula) -> Formula:
    """The formula of an open operator [precedence, class, parts] of the
    formula parser, closed after its last part `rhs`."""
    prec, cls, parts = operator
    return cls((*parts, rhs)) if prec >= _PREC_OR else cls(parts[0], rhs)


class _Parser:
    """A parser over the tokens of one text at a time, on explicit stacks
    (formulas, terms and parenthesized literals alike); `load` moves it to
    the next text, so that a file of many records needs one parser.  Every
    literal read anew is kept in `literals`, in text order, until the next
    `load`.

    Terms and literals are shared values (see `syntax`), so reading a
    repeated one again only finds the object it already is.  Two tables,
    kept across `load` calls, spare that work: `literal_table` maps the
    tokens of each literal of a clause or a tableau line and of each
    resolved atom of a proof record to the literal read from them, and
    `term_table` maps the tokens of each application at the top two levels
    of a term to the term.  A repeated literal or term is then one slice
    and one dict lookup, whatever its size; looking up every level instead
    would slice the tokens of a deep term once per level.  A span is
    entered only after it has been read whole, so text that does not parse
    is read, and its error raised, as without the tables.  `closing` finds
    where a span ends by one `list.index` into `depths`, the parenthesis
    depth after each token, made at most once per `load`."""

    __slots__ = ("text", "toks", "depths", "i", "literals", "literal_table", "term_table")

    def __init__(self, text: str = ""):
        self.literal_table: dict[tuple[str, ...], Literal] = {}
        self.term_table: dict[tuple[str, ...], App] = {}
        self.load(text)

    def load(self, text: str) -> None:
        self.text = text
        self.toks = _tokenize(text)
        self.depths: Optional[list[int]] = None
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

    def closing(self, i: int) -> Optional[int]:
        """The index of the `)` that closes the innermost parenthesis open
        before token i, or None if the text never closes it."""
        toks = self.toks
        if toks[i + 1] == ")" and toks[i] != "(" and toks[i] != ")":
            # one token in between, as in `f(a)`: most texts then need no
            # depths at all
            return i + 1
        depths = self.depths
        if depths is None:
            depths = self.depths = list(accumulate(map(_PAREN_STEP.get, toks, repeat(0))))
        try:
            return depths.index(depths[i - 1] - 1, i)
        except ValueError:
            return None

    # formulas ------------------------------------------------------------

    def formula(self) -> Formula:
        """A formula, by precedence climbing on one explicit stack (Pratt,
        Top Down Operator Precedence, POPL 1973).  A unit is an atom,
        `$true`, `$false`, `~` or a quantifier over a unit, or a formula
        in parentheses; a token that cannot continue the formula ends it,
        for the caller to read.

        The stack holds the prefixes of the units still open, as (`Not`,
        ()) or (quantifier class, names), the open parentheses, and above
        each parenthesis and at the bottom the operators of that level
        still open, as [precedence, class, parts], in rising precedence."""
        toks = self.toks
        stack: list = []
        while True:
            # read the prefixes of a unit up to its atom or constant
            text = toks[self.i]
            if text == "~":
                self.i += 1
                stack.append(_NOT)
                continue
            if text == "!" or text == "?":
                self.i += 1
                self.expect("[")
                names = [self.variable_name()]
                while toks[self.i] == ",":
                    self.i += 1
                    names.append(self.variable_name())
                self.expect("]")
                self.expect(":")
                stack.append((ForAll if text == "!" else Exists, names))
                continue
            if text == "(":
                self.i += 1
                stack.append(_PAREN)
                continue
            if text == "$true" or text == "$false":
                self.i += 1
                f = TOP if text == "$true" else BOTTOM
            else:
                f = self.atom()
            while True:
                # f is a whole unit: apply the prefixes around it
                while stack and stack[-1].__class__ is tuple:
                    ctor, names = stack.pop()
                    if ctor is Not:
                        # negated atoms are literals, not Not nodes
                        f = f.complement() if f.__class__ is Literal else Not(f)
                    for name in reversed(names):
                        f = ctor(name, f)
                prec, cls = _BINARY.get(toks[self.i], (-1, None))
                # close the operators that bind tighter than the next one
                while stack and stack[-1].__class__ is list and stack[-1][0] > prec:
                    f = _join(stack.pop(), f)
                if prec == _PREC_IFF and stack and stack[-1].__class__ is list:
                    # a second `<=>` ends the level
                    prec = -1
                    f = _join(stack.pop(), f)
                if prec >= 0:
                    self.i += 1
                    top = stack[-1] if stack else None
                    if prec >= _PREC_OR and top.__class__ is list and top[0] == prec:
                        top[2].append(f)
                    else:
                        stack.append([prec, cls, [f]])
                    break
                # the formula of this level ends here
                if not stack:
                    return f
                self.expect(")")
                stack.pop()

    def variable_name(self) -> str:
        text = self.take()
        if text[:1] not in _UPPER:
            raise self.error(f"expected a variable, found {text!r}", self.i - 1)
        return text

    def atom(self) -> Literal:
        """A predicate applied to its arguments, a propositional atom or an
        equation; a predicate's arguments are read without making an
        application of the predicate, which only an equation's left side
        needs."""
        toks = self.toks
        text = toks[self.i]
        nxt = toks[self.i + 1] if text[:1] in _LOWER else None
        if nxt == "(":
            self.i += 2
            args = [self.term()]
            while (found := self.take()) == ",":
                args.append(self.term())
            if found != ")":
                raise self.error(f"expected ')', found {found!r}", self.i - 1)
            nxt = toks[self.i]
            if nxt == "=" or nxt == "!=":
                self.i += 1
                lit = Literal(nxt == "=", "=", (App(text, tuple(args)), self.term()))
            else:
                lit = Literal(True, text, tuple(args))
        elif nxt is not None and nxt != "=" and nxt != "!=":
            # a propositional atom: no term to build first
            self.i += 1
            lit = Literal(True, text)
        else:
            first = self.term()
            nxt = toks[self.i]
            if nxt != "=" and nxt != "!=":
                raise self.error("a variable is not a formula")
            self.i += 1
            lit = Literal(nxt == "=", "=", (first, self.term()))
        self.literals.append(lit)
        return lit

    def term(self) -> Term:
        """One term, on an explicit stack of the applications still open;
        an application is made once its arguments are.  An application at
        the top two levels is taken from the term table when its tokens
        are a key there, and one read anew there is entered when it
        closes."""
        toks = self.toks
        table = self.term_table
        i = self.i
        # (functor, arguments read so far, key or None) of each open application
        open_apps: list[tuple[str, list[Term], Optional[tuple[str, ...]]]] = []
        while True:
            text = toks[i]
            i += 1
            first = text[:1]
            if first in _LOWER and toks[i] == "(":
                t = key = None
                if len(open_apps) < 2 and (end := self.closing(i + 1)) is not None:
                    key = tuple(toks[i - 1 : end + 1])
                    t = table.get(key)
                if t is None:
                    i += 1
                    open_apps.append((text, [], key))
                    continue
                i = end + 1
            elif first in _UPPER:
                t = Var(text)
            elif first in _LOWER:
                t = App(text)
            else:
                raise self.error(f"expected a term, found {text!r}", i - 1)
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
                functor, args, key = open_apps.pop()
                t = App(functor, tuple(args))
                if key is not None:
                    table[key] = t
            else:
                self.i = i
                return t

    # clause syntax ---------------------------------------------------------

    def literal(self) -> Literal:
        """A literal: an atom under any number of `~` and parentheses."""
        negated = False
        parens = 0
        while self.toks[self.i] in ("~", "("):
            if self.toks[self.i] == "~":
                negated = not negated
            else:
                parens += 1
            self.i += 1
        inner = self.atom()
        for _ in range(parens):
            self.expect(")")
        return inner.complement() if negated else inner

    def table_literal(self, stop: Optional[int] = None) -> Literal:
        """A literal as `literal` reads it, taken from the literal table
        when its tokens after the leading `~` run up to `stop`, by default
        the next `|` or the end of the text, and are a key there; the
        parser then jumps to `stop` without parsing the tokens again.  A
        literal read anew is entered in the table only when it ends at
        `stop`, so text that does not parse is read, and its error raised,
        as `literal` would.  The table holds the literal without the
        leading `~`: `~p(a)` is the complement of the literal read for
        `p(a)`."""
        toks = self.toks
        i = self.i
        negated = False
        while toks[i] == "~":
            i += 1
            negated = not negated
        if stop is None:
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


class FofRecord:
    def __init__(self, name: str, role: str, formula: Formula):
        self.name = name
        self.role = role
        self.formula = formula

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.role, self.formula) == (other.name, other.role, other.formula)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FofRecord(name={self.name!r}, role={self.role!r}, formula={self.formula!r})"


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
    sig = Signature()
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
    sig = Signature()
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

# the precedence a unit's position needs (the body of `~` or of a
# quantifier): every connective is parenthesized there, and so is an
# equation
_UNIT = _PREC_AND + 2
_INFIX = {cls: (prec, f" {text} ") for prec, (text, cls) in enumerate(_CONNECTIVES)}


def format_formula(f: Formula) -> str:
    """f in the syntax `parse_formula` reads, printed on an explicit stack."""
    out: list[str] = []
    # a string to print as it is, or (formula, the precedence its position needs)
    todo: list = [(f, _PREC_IFF)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        g, need = item
        cls = g.__class__
        if cls is Literal:
            text = str(g)
            equation = g.predicate == "=" and len(g.args) == 2
            out.append(f"({text})" if equation and need == _UNIT else text)
        elif cls is Top or cls is Bottom:
            out.append(str(g))
        elif cls is Not:
            out.append("~")
            todo.append((g.body, _UNIT))
        elif cls is ForAll or cls is Exists:
            out.append(f"{'!' if cls is ForAll else '?'} [{g.var}] : ")
            todo.append((g.body, _UNIT))
        elif cls in _INFIX:
            prec, sep = _INFIX[cls]
            if cls is And or cls is Or:
                parts = [(p, prec + 1) for p in g.parts]
            else:
                # `=>` groups to the right, `<=>` not at all
                parts = [(g.lhs, prec + 1), (g.rhs, prec if cls is Implies else prec + 1)]
            if prec < need:
                out.append("(")
                todo.append(")")
            for k in range(len(parts) - 1, -1, -1):
                todo.append(parts[k])
                if k:
                    todo.append(sep)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)
