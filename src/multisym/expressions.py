"""A small expression grammar over the invariant ring, used by the CLI.

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := INT
            | 'M' '(' INT (',' INT)* ')'          power sum
            | 'E' '(' INT (',' INT)* ')'          elementary multisymmetric
            | 'Ep' '(' INT ')'                    full product of one column
            | 'frobenius' '(' expr ')'
            | 'psi' '(' expr ')'                  Frobenius splitting
            | 'polarize' '(' expr ',' a ',' b ',' i ')'
            | 'x' '[' INT ',' INT ']'             a single variable
            | '(' expr ')'

Parse errors carry the character position of the offending token.
"""

from __future__ import annotations

import re

from .invariants import elementary, elementary_column, power_sum
from .operators import PolarizationOp, frobenius_split, polarize
from .poly import Poly, frobenius

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]+)|(.))")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                raise ParseError("cannot tokenize", pos)
            if m.group(1) is not None:
                self.items.append(("int", m.group(1), m.start(1)))
            elif m.group(2) is not None:
                self.items.append(("name", m.group(2), m.start(2)))
            else:
                ch = m.group(3)
                if ch not in "+-*^()[],":
                    raise ParseError(f"unexpected character {ch!r}", m.start(3))
                self.items.append((ch, ch, m.start(3)))
            pos = m.end()
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        if self.i < len(self.items):
            return self.items[self.i]
        return ("end", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


class ExpressionParser:
    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width

    def parse(self, text: str) -> Poly:
        toks = _Tokens(text)
        value = self._expr(toks)
        tok = toks.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def _expr(self, toks: _Tokens) -> Poly:
        negate = False
        if toks.peek()[0] == "-":
            toks.next()
            negate = True
        value = self._term(toks)
        if negate:
            value = -value
        while toks.peek()[0] in ("+", "-"):
            op = toks.next()[0]
            rhs = self._term(toks)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, toks: _Tokens) -> Poly:
        value = self._factor(toks)
        while toks.peek()[0] == "*":
            toks.next()
            value = value * self._factor(toks)
        return value

    def _factor(self, toks: _Tokens) -> Poly:
        value = self._atom(toks)
        if toks.peek()[0] == "^":
            toks.next()
            tok = toks.expect("int")
            value = value ** int(tok[1])
        return value

    def _int_list(self, toks: _Tokens) -> list[int]:
        toks.expect("(")
        out = [int(toks.expect("int")[1])]
        while toks.peek()[0] == ",":
            toks.next()
            out.append(int(toks.expect("int")[1]))
        toks.expect(")")
        return out

    def _atom(self, toks: _Tokens) -> Poly:
        kind, value, pos = toks.next()
        p, w = self.p, self.width
        if kind == "int":
            return Poly.const(p, p, int(value))
        if kind == "(":
            inner = self._expr(toks)
            toks.expect(")")
            return inner
        if kind != "name":
            raise ParseError(f"unexpected token {value!r}", pos)
        try:
            if value == "M":
                return power_sum(self._int_list(toks), p, w)
            if value == "E":
                return elementary(self._int_list(toks), p, w)
            if value == "Ep":
                args = self._int_list(toks)
                if len(args) != 1:
                    raise ParseError("Ep takes one column argument", pos)
                return elementary_column(p, args[0], p, w)
            if value == "frobenius":
                toks.expect("(")
                inner = self._expr(toks)
                toks.expect(")")
                return frobenius(inner)
            if value == "psi":
                toks.expect("(")
                inner = self._expr(toks)
                toks.expect(")")
                return frobenius_split(inner)
            if value == "polarize":
                toks.expect("(")
                inner = self._expr(toks)
                args = []
                for _ in range(3):
                    toks.expect(",")
                    args.append(int(toks.expect("int")[1]))
                toks.expect(")")
                return polarize(inner, PolarizationOp(args[0], args[1], args[2]), width=w)
            if value == "x":
                toks.expect("[")
                r = int(toks.expect("int")[1])
                toks.expect(",")
                c = int(toks.expect("int")[1])
                toks.expect("]")
                if c > w:
                    raise ValueError(f"column {c} exceeds width {w}")
                return Poly.variable(p, p, r, c)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        raise ParseError(f"unknown function {value!r}", pos)


def parse_expression(text: str, p: int, width: int) -> Poly:
    return ExpressionParser(p, width).parse(text)


def recognize(f: Poly, width: int) -> str | None:
    """Return "M(...)" or "E(...)" when f equals a single power sum or a
    single elementary multisymmetric polynomial, for readable output."""
    from .exptuples import format_tuple
    if f.is_zero:
        return "0"
    p = f.char
    lead = f.leading_monomial()
    if not lead:  # a nonzero constant: no power sum or generator is one
        return None
    alpha = lead.row_exponents(lead[0][0])
    try:
        if f == power_sum(alpha, p, width):
            return "M" + format_tuple(alpha)
    except ValueError:
        pass
    coldegs = lead.column_degrees()
    if sum(coldegs) <= p:
        try:
            if f == elementary(coldegs, p, width):
                return "E" + format_tuple(coldegs)
        except ValueError:
            pass
    return None
