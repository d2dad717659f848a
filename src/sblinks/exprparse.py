"""Tiny expression grammar for field-element literals on the command line.

    expr     = term , { ( "+" | "-" ) , term } ;
    term     = factor , { ( "*" | "/" ) , factor } ;
    factor   = base , [ "^" , [ "-" ] , integer ] ;
    base     = integer | "zeta" | variable | "(" , expr , ")" | "-" , base ;
    variable = "t" , integer ;                     (* t1 .. tn *)
    integer  = digit , { digit } ;

This is the EBNF of `docs/cli.md`; a quotient is the term `a / b`.  A literal is an element of the one tower it is parsed in; no name stands for
a radical, so `cbrt(...)` and `sqrt(...)` are unknown names.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .field_tower import FieldElement, TowerField

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[a-zA-Z_][a-zA-Z_0-9]*)|(?P<op>[-+*/^()]))"
)


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("num"):
            out.append(("num", int(m.group("num"))))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


class _Parser:
    def __init__(self, tokens, tower: TowerField):
        self.tokens = tokens
        self.pos = 0
        self.tower = tower

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of expression")
        if kind and tok[0] != kind:
            raise ParseError(f"expected {kind}, got {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> FieldElement:
        v = self.expr()
        if self.peek()[0] is not None:
            raise ParseError(f"trailing input at token {self.peek()[1]!r}")
        return v

    def expr(self) -> FieldElement:
        v = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self) -> FieldElement:
        v = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            w = self.factor()
            if op == "*":
                v = v * w
            else:
                if w.is_zero():
                    raise ParseError("division by zero")
                v = v / w
        return v

    def factor(self) -> FieldElement:
        v = self.base()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            k = self.take("num")[1] * sign
            if k < 0 and v.is_zero():
                raise ParseError("zero to a negative power")
            v = v ** k
        return v

    def base(self) -> FieldElement:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.base()
        if kind == "op" and val == "(":
            self.take()
            v = self.expr()
            self.take("op", ")")
            return v
        if kind == "num":
            self.take()
            return self.tower.scalar(val)
        if kind == "name":
            self.take()
            if val == "zeta":
                return self.tower.zeta()
            m = re.fullmatch(r"t(\d+)", val)
            if m:
                i = int(m.group(1))
                if not 1 <= i <= self.tower.nvars:
                    raise ParseError(
                        f"variable {val} out of range (1..{self.tower.nvars})"
                    )
                return self.tower.t_var(i - 1)
            raise ParseError(f"unknown name {val!r}")
        raise ParseError(f"unexpected token {val!r}")


def parse_element(text: str, tower: TowerField) -> FieldElement:
    """Parse a literal as an element of tower."""
    return _Parser(tokenize(text), tower).parse()
