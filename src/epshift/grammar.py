"""Text grammar for sets, elements, families and CLI commands.

Set atoms: ``{}``, ``{a,b,c}``, ``[k)``, ``a+p*w``; unions with ``|``.
Elements: ``(i,j;<set>)`` or ``0``; products with ``*``.
Families: ``family{ <set>; ... }`` or ``closure{ <set>; ... }``.

Printing lives on the value types themselves; parsing any printed value
returns an equal value (everything normalizes to canonical form).
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Tuple

from .core import Element, ZERO
from .errors import ParseError
from .omega_sets import EpSet, union

_TOKEN_RE = re.compile(r"-?\d+|[A-Za-z][A-Za-z0-9_-]*|[{}\[\]();,*|+]|\s+|.")

_PUNCT = {
    "{": "LBRACE", "}": "RBRACE", "[": "LBRACK", "]": "RBRACK",
    "(": "LPAREN", ")": "RPAREN", ";": "SEMI", ",": "COMMA",
    "*": "STAR", "|": "PIPE", "+": "PLUS",
}


Token = namedtuple("Token", "kind text line col")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        s = m.group(0)
        if not s.isspace():
            if s in _PUNCT:
                kind = _PUNCT[s]
            elif s[0].isdecimal() or (s[0] == "-" and len(s) > 1):
                kind = "INT"
            elif s[0].isalpha():
                kind = "NAME"
            else:
                raise ParseError(f"unexpected character {s!r}", line, col)
            tokens.append(Token(kind, s, line, col))
        for ch in s:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

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
            raise ParseError(f"integer literal of {len(tok.text)} characters "
                             "is too long", tok.line, tok.col, (what,)) from None

    def natural(self, what: str = "a natural number", least: int = 0) -> int:
        tok = self.peek()
        n = self.int_value(what)
        if n < least:
            raise ParseError(f"expected {what}, found {n}", tok.line, tok.col,
                             (what,))
        return n

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    def expect_end(self):
        if not self.at_end():
            self.error(f"unexpected trailing input {self.peek().text!r}",
                       expected=("end of input",))

    # -- set expressions --------------------------------------------------

    def set_atom(self) -> EpSet:
        tok = self.peek()
        if tok.kind == "LBRACE":
            self.advance()
            members = []
            if self.peek().kind != "RBRACE":
                members.append(self.natural("a natural member"))
                while self.peek().kind == "COMMA":
                    self.advance()
                    members.append(self.natural("a natural member"))
            self.expect("RBRACE", "'}'")
            return EpSet.from_members(members)
        if tok.kind == "LBRACK":
            self.advance()
            k = self.natural("a natural ray start")
            self.expect("RPAREN", "')'")
            return EpSet.ray(k)
        if tok.kind == "INT":
            start = self.natural("a natural progression start")
            self.expect("PLUS", "'+'")
            step = self.natural("a positive step", least=1)
            self.expect("STAR", "'*'")
            self.expect_name("w")
            return EpSet.progression(start, step)
        self.error("expected a set: '{...}', '[k)' or 'a+p*w'",
                   expected=("set",))

    def set_expr(self) -> EpSet:
        acc = self.set_atom()
        while self.peek().kind == "PIPE":
            self.advance()
            acc = union(acc, self.set_atom())
        return acc

    # -- elements ----------------------------------------------------------

    def element(self) -> Element:
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "0":
            self.advance()
            return ZERO
        self.expect("LPAREN", "'(' or '0'")
        i = self.int_value()
        self.expect("COMMA", "','")
        j = self.int_value()
        self.expect("SEMI", "';'")
        fset = self.set_expr()
        self.expect("RPAREN", "')'")
        if fset.is_empty:
            return ZERO
        return Element(i, j, fset)

    def product(self) -> Tuple[Element, ...]:
        factors = [self.element()]
        while self.peek().kind == "STAR":
            self.advance()
            factors.append(self.element())
        return tuple(factors)

    # -- families ----------------------------------------------------------

    def family_literal(self) -> Tuple[str, Tuple[EpSet, ...]]:
        kw = self.expect_name("family", "closure").text
        self.expect("LBRACE", "'{'")
        sets = [self.set_expr()]
        while self.peek().kind == "SEMI":
            self.advance()
            if self.peek().kind == "RBRACE":
                break
            sets.append(self.set_expr())
        self.expect("RBRACE", "'}'")
        return kw, tuple(sets)


# -- commands -----------------------------------------------------------------

EvalCmd = namedtuple("EvalCmd", "factors")
ClosureCmd = namedtuple("ClosureCmd", "sets")
ClassifyCmd = namedtuple("ClassifyCmd", "kind sets")  # kind: family|closure
GreenCmd = namedtuple("GreenCmd", "a b rel")
OrderCmd = namedtuple("OrderCmd", "a b")
MapCmd = namedtuple("MapCmd", "name args element")
CheckHomCmd = namedtuple("CheckHomCmd", "name")
SelfTestCmd = namedtuple("SelfTestCmd", "suite")  # suite: a name or None


MAP_NAMES = ("sigma", "ext-bicyclic", "matrix-units", "brandt", "reindex")
HOM_NAMES = ("sigma", "ext-bicyclic", "matrix-units", "brandt", "reindex",
             "shift-iso")


def parse_command(text: str):
    """Parse one CLI command; raises :class:`ParseError` with position info."""
    p = _Parser(text)
    head = p.expect_name("eval", "closure", "classify", "green", "order",
                         "map", "check-hom", "oracle-check", "selftest").text
    if head == "eval":
        cmd = EvalCmd(p.product())
    elif head == "closure":
        p.pos -= 1  # the keyword doubles as the family literal opener
        _, sets = p.family_literal()
        cmd = ClosureCmd(sets)
    elif head == "classify":
        kind, sets = p.family_literal()
        cmd = ClassifyCmd(kind, sets)
    elif head == "green":
        a = p.element()
        b = p.element()
        rel = p.expect_name("R", "L", "H", "D", "J").text
        cmd = GreenCmd(a, b, rel)
    elif head == "order":
        cmd = OrderCmd(p.element(), p.element())
    elif head == "map":
        name = p.expect_name(*MAP_NAMES).text
        args: Tuple[int, ...] = ()
        if name == "reindex":
            p.expect("LPAREN", "'('")
            a1 = p.natural("old progression start")
            p.expect("COMMA", "','")
            a2 = p.natural("new progression start")
            p.expect("COMMA", "','")
            step = p.natural("a positive progression step", least=1)
            p.expect("RPAREN", "')'")
            args = (a1, a2, step)
        cmd = MapCmd(name, args, p.element())
    elif head == "check-hom":
        cmd = CheckHomCmd(p.expect_name(*HOM_NAMES).text)
    elif head == "oracle-check":
        cmd = SelfTestCmd("oracle")
    else:
        suite = None
        if p.peek().kind == "NAME":
            suite = p.advance().text
        cmd = SelfTestCmd(suite)
    p.expect_end()
    return cmd


# -- standalone value parsers ---------------------------------------------

def parse_set(text: str) -> EpSet:
    p = _Parser(text)
    out = p.set_expr()
    p.expect_end()
    return out


def parse_element(text: str) -> Element:
    p = _Parser(text)
    out = p.element()
    p.expect_end()
    return out


def parse_family(text: str):
    from .family import Family, close

    p = _Parser(text)
    kind, sets = p.family_literal()
    p.expect_end()
    if kind == "closure":
        return close(sets)
    return Family(sets)
