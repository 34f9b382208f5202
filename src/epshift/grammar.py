"""Text grammar for sets, elements, families and CLI commands.

Set atoms: ``{}``, ``{a,b,c}``, ``[k)``, ``a+p*w``; unions with ``|``.
Elements: ``(i,j;<set>)`` or ``0``; products with ``*``.
Families: ``family{ <set>; ... }`` or ``closure{ <set>; ... }``.

The token pattern alone decides each token's kind, by the group that
matched: ``INT`` (decimal digits of any script), ``NAME`` (an ASCII letter
first), a punctuation character, whose kind is the character itself, or
whitespace.  Anything else, a letter outside ASCII included, is an
unexpected character.  A token keeps only its offset in the text; the line
and column are computed when a :class:`ParseError` is raised.

Printing lives on the value types themselves; parsing any printed value
returns an equal value (everything normalizes to canonical form).
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Tuple

from .core import Element, ZERO
from .errors import ParseError
from .family import Family, close
from .omega_sets import EpSet, union

_TOKEN_RE = re.compile(r"(?P<INT>-?\d+)|(?P<NAME>[A-Za-z][A-Za-z0-9_-]*)"
                       r"|(?P<PUNCT>[{}\[\]();,*|+])|(?P<SPACE>\s+)|(?P<BAD>.)")


Token = namedtuple("Token", "kind text pos")


def _position(text: str, pos: int):
    """The line and column of offset ``pos``; only a newline starts a line."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, s = m.lastgroup, m.group()
        if kind == "BAD":
            raise ParseError(f"unexpected character {s!r}",
                             *_position(text, m.start()))
        if kind != "SPACE":
            tokens.append(Token(s if kind == "PUNCT" else kind, s, m.start()))
    tokens.append(Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, expected=(), tok=None):
        """Raise at ``tok``, by default the next token."""
        tok = tok or self.peek()
        raise ParseError(message, *_position(self.text, tok.pos), expected)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}",
                       expected=(what,))
        return self.advance()

    def expect_name(self, *names: str) -> Token:
        tok = self.peek()
        if tok.kind != "NAME" or (names and tok.text not in names):
            self.error(
                f"expected {' or '.join(names) if names else 'a name'}, "
                f"found {tok.text or 'end of input'!r}", expected=names)
        return self.advance()

    def int_value(self, what: str = "an integer") -> int:
        tok = self.expect("INT", what)
        try:
            return int(tok.text)
        except ValueError:  # past Python's digit limit for int()
            pass
        self.error(f"integer literal of {len(tok.text)} characters "
                   "is too long", (what,), tok)

    def natural(self, what: str = "a natural number", least: int = 0) -> int:
        tok = self.peek()
        n = self.int_value(what)
        if n < least:
            self.error(f"expected {what}, found {n}", (what,), tok)
        return n

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "EOF":
            self.error(f"unexpected trailing input {tok.text!r}",
                       expected=("end of input",))

    # -- set expressions --------------------------------------------------

    def set_atom(self) -> EpSet:
        tok = self.peek()
        if tok.kind == "{":
            self.advance()
            members = []
            if self.peek().kind != "}":
                members.append(self.natural("a natural member"))
                while self.peek().kind == ",":
                    self.advance()
                    members.append(self.natural("a natural member"))
            self.expect("}", "'}'")
            return EpSet.from_members(members)
        if tok.kind == "[":
            self.advance()
            k = self.natural("a natural ray start")
            self.expect(")", "')'")
            return EpSet.ray(k)
        if tok.kind == "INT":
            start = self.natural("a natural progression start")
            self.expect("+", "'+'")
            step = self.natural("a positive step", least=1)
            self.expect("*", "'*'")
            self.expect_name("w")
            return EpSet.progression(start, step)
        self.error("expected a set: '{...}', '[k)' or 'a+p*w'",
                   expected=("set",))

    def set_expr(self) -> EpSet:
        acc = self.set_atom()
        while self.peek().kind == "|":
            self.advance()
            acc = union(acc, self.set_atom())
        return acc

    # -- elements ----------------------------------------------------------

    def element(self) -> Element:
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "0":
            self.advance()
            return ZERO
        self.expect("(", "'(' or '0'")
        i = self.int_value()
        self.expect(",", "','")
        j = self.int_value()
        self.expect(";", "';'")
        fset = self.set_expr()
        self.expect(")", "')'")
        if fset.is_empty:
            return ZERO
        return Element(i, j, fset)

    def product(self) -> Tuple[Element, ...]:
        factors = [self.element()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.element())
        return tuple(factors)

    # -- families ----------------------------------------------------------

    def family_literal(self) -> Tuple[str, Tuple[EpSet, ...]]:
        kw = self.expect_name("family", "closure").text
        self.expect("{", "'{'")
        sets = [self.set_expr()]
        while self.peek().kind == ";":
            self.advance()
            if self.peek().kind == "}":
                break
            sets.append(self.set_expr())
        self.expect("}", "'}'")
        return kw, tuple(sets)


# -- commands -----------------------------------------------------------------

MAP_NAMES = ("sigma", "ext-bicyclic", "matrix-units", "brandt", "reindex")
HOM_NAMES = (*MAP_NAMES, "shift-iso")


def _command(p: _Parser):
    head = p.expect_name("eval", "closure", "classify", "green", "order",
                         "map", "check-hom", "oracle-check", "selftest").text
    if head == "eval":
        return head, p.product()
    if head == "closure":
        p.pos -= 1  # the keyword doubles as the family literal opener
        return head, p.family_literal()[1]
    if head == "classify":
        return (head, *p.family_literal())
    if head == "green":
        return (head, p.element(), p.element(),
                p.expect_name("R", "L", "H", "D", "J").text)
    if head == "order":
        return head, p.element(), p.element()
    if head == "map":
        name = p.expect_name(*MAP_NAMES).text
        args: Tuple[int, ...] = ()
        if name == "reindex":
            p.expect("(", "'('")
            a1 = p.natural("old progression start")
            p.expect(",", "','")
            a2 = p.natural("new progression start")
            p.expect(",", "','")
            step = p.natural("a positive progression step", least=1)
            p.expect(")", "')'")
            args = (a1, a2, step)
        return head, name, args, p.element()
    if head == "check-hom":
        return head, p.expect_name(*HOM_NAMES).text
    if head == "oracle-check":
        return "selftest", "oracle"
    return head, p.advance().text if p.peek().kind == "NAME" else None


# -- entry points -------------------------------------------------------------

def _parse_all(text: str, rule):
    """Run ``rule`` on a parser of ``text`` and require the end after it."""
    p = _Parser(text)
    out = rule(p)
    p.expect_end()
    return out


def parse_command(text: str):
    """Parse one CLI command into ``(keyword, *args)``, the arguments of
    the keyword's runner in :mod:`epshift.cli` (``oracle-check`` is
    ``("selftest", "oracle")``); raises :class:`ParseError` with position
    info."""
    return _parse_all(text, _command)


def parse_set(text: str) -> EpSet:
    return _parse_all(text, _Parser.set_expr)


def parse_element(text: str) -> Element:
    return _parse_all(text, _Parser.element)


def parse_family(text: str):
    kind, sets = _parse_all(text, _Parser.family_literal)
    if kind == "closure":
        return close(sets)
    return Family(sets)
