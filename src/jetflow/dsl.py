"""Model-file language: systems, operators, characteristics, densities.

A model file is a sequence of declarations::

    set eps_order = 1;
    system gardner { rhs: 6*(u + eps*u^2)*u_x - u_xxx; }
    operator E { 4*u*Dx + 2*u_x + 3*eps*(u*u_x + u^2*Dx) - Dx^3 }
    char Q3 = 6*t*u_x + 1 - 2*eps*u;
    density H0 = u^2/2;

Expressions know rationals, ``x``, ``t``, ``eps``, the dependent variable
``u`` with derivatives ``u_x``/``u_xx``/... or ``u{k}``, the operator atoms
``Dx`` (with ``Dx^k``) and ``Dxi`` (for Dx^-1), ``+ - * / ^`` and
parentheses.  ``*`` between operators is composition; a plain function used
in operator position acts by multiplication; ``/`` divides a polynomial or
an operator by a nonzero rational constant.

Numbers are ASCII digits; names are letters, digits and ``_``, starting with
a letter or ``_``; ``#`` comments run to the end of the line.  Any other
character outside a comment is a ParseError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Union

from .engine import DEFAULT_MAX_JET_ORDER
from .errors import JetflowError, ParseError, ResourceLimit, UnknownName
from .jets import Context, DiffPoly, EvolutionSystem, Functional
from .operators import PseudoDiffOp
from .printing import format_operator, format_poly

# Term pairs that the products of one declaration may multiply in all (a
# power counts each of its products), so that no model file parses for long.
MAX_PRODUCT_PAIRS = 2 ** 14
# Bits that the largest numerator plus the largest denominator of the two
# factors of one product may have together, so that no coefficient grows
# huge; the fixtures' coefficients have a few bits each.
MAX_COEFF_BITS = 2 ** 12
# Digits of one integer literal (Python refuses to convert 4300 or more).
MAX_LITERAL_DIGITS = 1000
# The highest `set eps_order`: `eps` and every EpsPoly view of a coefficient
# hold one slot per degree.
MAX_EPS_ORDER = 64
# The highest jet order `u{k}` or `u_x...x` may name, and the highest
# `set max_jet_order`: a check builds D_x towers up to the orders its
# operands hold, so a huge one would run for minutes, and a flow of a higher
# order could not be printed back into a model that parses.  It leaves room
# for printed hierarchy flows (12 by default, 24 for a seven-step Gardner
# hierarchy).
MAX_JET_INDEX = 64

KEYWORDS = {"set", "system", "operator", "char", "density", "rhs"}
RESERVED = {"x", "t", "eps", "u", "Dx", "Dxi"} | KEYWORDS
# a name that spells the jet u_k as u_x...x (k letters x), reserved as well
_SPELT_JET = re.compile(r"u_x+")

Value = Union[DiffPoly, PseudoDiffOp]


def _size(value: Value) -> int:
    """Terms a product pairs up.  For an operator these are the terms of its
    coefficients, a*Dx^j counting j + 1 times for its Leibniz expansion."""
    if isinstance(value, DiffPoly):
        return max(1, len(value._flat))
    return max(1, sum((j + 1) * len(c._flat)
                      for j, c in value.local_terms.items())
               + sum(len(a._flat) + len(b._flat)
                     for a, b in value.nonlocal_terms))


def _bits(value: Value) -> int:
    """Bit length of the largest numerator plus that of the largest
    denominator among the coefficients of a value."""
    polys = ((value,) if isinstance(value, DiffPoly)
             else (*value.local_terms.values(), *chain(*value.nonlocal_terms)))
    top, den = 0, 1
    for P in polys:
        for c in P._flat.values():
            if type(c) is not int:
                den = max(den, c.denominator)
                c = c.numerator
            if abs(c) > top:
                top = abs(c)
    return top.bit_length() + den.bit_length()


# One alternative per lexeme; the last takes any character no other does, so
# that every character of the text is matched.
_LEXEME = re.compile(r"""
    (?P<NL>\n)
  | (?P<SKIP>[ \t\r]+|\#[^\n]*)
  | u\{(?P<JET>[0-9]+)\}
  | (?P<BADJET>u\{)
  | (?P<INT>[0-9]+)
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<PUNCT>[{}()=;:+\-*/^])
  | (?P<OTHER>.)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # INT IDENT JET PUNCT EOF
    text: str
    line: int
    column: int


def tokenize(text: str) -> List[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        word, column = m[kind], m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BADJET":
            raise ParseError("malformed jet index after 'u{'", line, column)
        elif kind == "OTHER" or kind == "IDENT" and not (word[0].isalpha()
                                                         or word[0] == "_"):
            # [^\W\d] also takes '²', '½' and other numerals that are not
            # decimal digits, but an identifier starts with a letter or '_'
            raise ParseError(f"unexpected character {word[0]!r}", line, column)
        elif kind in ("INT", "JET") and len(word) > MAX_LITERAL_DIGITS:
            raise ResourceLimit(f"line {line}, column {column}: integer literal "
                                f"longer than {MAX_LITERAL_DIGITS} digits")
        else:
            tokens.append(Token(kind, word, line, column))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


@dataclass
class ModelIR:
    """Parsed model: named values plus session settings."""

    eps_order: int = 1
    max_jet_order: int = DEFAULT_MAX_JET_ORDER
    systems: Dict[str, EvolutionSystem] = field(default_factory=dict)
    operators: Dict[str, PseudoDiffOp] = field(default_factory=dict)
    characteristics: Dict[str, DiffPoly] = field(default_factory=dict)
    densities: Dict[str, Functional] = field(default_factory=dict)

    @property
    def context(self) -> Context:
        return Context(eps_order=self.eps_order)

    def lookup(self, name: str):
        for table in (self.systems, self.operators,
                      self.characteristics, self.densities):
            if name in table:
                return table[name]
        return None

    def __eq__(self, other):
        if not isinstance(other, ModelIR):
            return NotImplemented
        return (self.eps_order == other.eps_order
                and self.max_jet_order == other.max_jet_order
                and {k: v.rhs for k, v in self.systems.items()}
                    == {k: v.rhs for k, v in other.systems.items()}
                and self.operators == other.operators
                and self.characteristics == other.characteristics
                and {k: v.density for k, v in self.densities.items()}
                    == {k: v.density for k, v in other.densities.items()})


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.model = ModelIR()
        self.ctx = Context(eps_order=self.model.eps_order)
        self.declared = False

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            expected = {text if text is not None else kind.lower()}
            raise ParseError(f"found {tok.text!r}" if tok.text else "unexpected end of input",
                             tok.line, tok.column, expected)
        return self.advance()

    def fail(self, message: str, tok: Optional[Token] = None, expected=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column, expected)

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> ModelIR:
        declarations = {"set": self.parse_set, "system": self.parse_system,
                        "operator": self.parse_operator, "char": self.parse_char,
                        "density": self.parse_density}
        while self.peek().kind != "EOF":
            tok = self.advance()
            parse = declarations.get(tok.text) if tok.kind == "IDENT" else None
            if parse is None:
                self.fail(f"found {tok.text!r}", tok, expected=set(declarations))
            parse()
        return self.model

    def parse_set(self):
        key = self.expect("IDENT")
        self.expect("PUNCT", "=")
        value_tok = self.expect("INT")
        self.expect("PUNCT", ";")
        value = int(value_tok.text)
        if key.text == "eps_order":
            if self.declared:
                self.fail("set eps_order must precede all declarations", key)
            if value < 0:
                self.fail("eps_order must be non-negative", value_tok)
            if value > MAX_EPS_ORDER:
                raise ResourceLimit(f"line {value_tok.line}, column "
                                    f"{value_tok.column}: eps_order {value} "
                                    f"exceeds the cap {MAX_EPS_ORDER}")
            self.model.eps_order = value
            self.ctx = Context(eps_order=value)
        elif key.text == "max_jet_order":
            if value < 1:
                self.fail("max_jet_order must be positive", value_tok)
            if value > MAX_JET_INDEX:
                raise ResourceLimit(f"line {value_tok.line}, column "
                                    f"{value_tok.column}: max_jet_order {value} "
                                    f"exceeds the cap {MAX_JET_INDEX}")
            self.model.max_jet_order = value
        else:
            self.fail(f"unknown setting {key.text!r}", key,
                      expected={"eps_order", "max_jet_order"})

    def declare(self, name_tok: Token) -> str:
        name = name_tok.text
        if name in RESERVED or _SPELT_JET.fullmatch(name):
            self.fail(f"{name!r} is reserved", name_tok)
        if self.model.lookup(name) is not None:
            self.fail(f"name {name!r} is already declared", name_tok)
        self.declared = True
        self.pairs = 0
        return name

    def parse_system(self):
        name = self.declare(self.expect("IDENT"))
        self.expect("PUNCT", "{")
        self.expect("IDENT", "rhs")
        self.expect("PUNCT", ":")
        rhs = self.require_poly(self.parse_expr(), "system right-hand side")
        self.expect("PUNCT", ";")
        self.expect("PUNCT", "}")
        self.model.systems[name] = EvolutionSystem(rhs, name=name)

    def parse_operator(self):
        name = self.declare(self.expect("IDENT"))
        self.expect("PUNCT", "{")
        value = self.parse_expr()
        if self.peek().kind == "PUNCT" and self.peek().text == ";":
            self.advance()
        self.expect("PUNCT", "}")
        if isinstance(value, DiffPoly):
            value = PseudoDiffOp.from_poly(value)
        self.model.operators[name] = value

    def parse_char(self):
        name = self.declare(self.expect("IDENT"))
        self.expect("PUNCT", "=")
        value = self.require_poly(self.parse_expr(), "characteristic")
        self.expect("PUNCT", ";")
        self.model.characteristics[name] = value

    def parse_density(self):
        name = self.declare(self.expect("IDENT"))
        self.expect("PUNCT", "=")
        value = self.require_poly(self.parse_expr(), "density")
        self.expect("PUNCT", ";")
        self.model.densities[name] = Functional(value, name=name)

    def require_poly(self, value: Value, what: str) -> DiffPoly:
        if isinstance(value, PseudoDiffOp):
            self.fail(f"{what} must be a differential polynomial, not an operator")
        return value

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Value:
        value = self.parse_term()
        while self.peek().kind == "PUNCT" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            value = self.binary(op, value, rhs)
        return value

    def parse_term(self) -> Value:
        value = self.parse_factor()
        while self.peek().kind == "PUNCT" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_factor()
            value = self.binary(op, value, rhs)
        return value

    def parse_factor(self) -> Value:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text in "+-":
            self.advance()
            value = self.parse_factor()
            return value if tok.text == "+" else -value
        value = self.parse_atom()
        if self.peek().kind == "PUNCT" and self.peek().text == "^":
            caret = self.advance()
            exp_tok = self.expect("INT")
            exponent = int(exp_tok.text)
            try:
                result = (DiffPoly.constant(1, value.eps_order)
                          if isinstance(value, DiffPoly)
                          else PseudoDiffOp.identity(value.eps_order))
                for _ in range(exponent):
                    result = self.multiply(result, value)
                value = result
            except ResourceLimit:
                raise
            except JetflowError as err:
                self.fail(str(err), caret)
        return value

    def parse_atom(self) -> Value:
        tok = self.advance()
        if tok.kind == "INT":
            return self.ctx.const(int(tok.text))
        if tok.kind == "JET":
            return self.jet(int(tok.text), tok)
        if tok.kind == "PUNCT" and tok.text == "(":
            value = self.parse_expr()
            self.expect("PUNCT", ")")
            return value
        if tok.kind == "IDENT":
            name = tok.text
            if name == "x":
                return self.ctx.x
            if name == "t":
                return self.ctx.t
            if name == "eps":
                return self.ctx.eps
            if name == "u":
                return self.ctx.u(0)
            if _SPELT_JET.fullmatch(name):
                return self.jet(len(name) - 2, tok)
            if name == "Dx":
                return PseudoDiffOp.dx(self.model.eps_order)
            if name == "Dxi":
                return PseudoDiffOp.dxi(self.model.eps_order)
            if name in KEYWORDS:
                self.fail(f"keyword {name!r} cannot appear in an expression", tok)
            value = self.model.lookup(name)
            if value is None:
                raise UnknownName(name, tok.line, tok.column)
            if isinstance(value, EvolutionSystem):
                return value.rhs
            if isinstance(value, Functional):
                return value.density
            return value
        self.fail(f"found {tok.text!r}" if tok.text else "unexpected end of input",
                  tok, expected={"an expression"})

    def jet(self, order: int, tok: Token) -> DiffPoly:
        """u_order, or ResourceLimit above MAX_JET_INDEX."""
        if order > MAX_JET_INDEX:
            raise ResourceLimit(f"line {tok.line}, column {tok.column}: jet "
                                f"order {order} exceeds the cap {MAX_JET_INDEX}")
        return self.ctx.u(order)

    def binary(self, op: str, left: Value, right: Value) -> Value:
        if op == "/":
            if not isinstance(right, DiffPoly):
                self.fail("division only by rational constants")
            r = right.rational_constant()
            if r is None or r == 0:
                self.fail("division only by nonzero rational constants")
            return left * (1 / r)
        try:
            if op == "*":
                return self.multiply(left, right)
            return left + right if op == "+" else left - right
        except ResourceLimit:
            raise
        except JetflowError as err:
            self.fail(str(err))

    def multiply(self, left: Value, right: Value) -> Value:
        """left * right, or ResourceLimit before multiplying when the current
        declaration would pair up more than MAX_PRODUCT_PAIRS terms or the
        coefficients of the factors have more than MAX_COEFF_BITS bits."""
        self.pairs += _size(left) * _size(right)
        if self.pairs > MAX_PRODUCT_PAIRS:
            raise ResourceLimit(f"products in one declaration pair up more "
                                f"than {MAX_PRODUCT_PAIRS} terms")
        if _bits(left) + _bits(right) > MAX_COEFF_BITS:
            raise ResourceLimit(f"the coefficients of a product have more "
                                f"than {MAX_COEFF_BITS} bits")
        return left * right


def parse_model(text: str) -> ModelIR:
    """Parse a model file into its IR; raises ParseError / UnknownName."""
    return _Parser(tokenize(text)).parse_model()


def print_model(model: ModelIR) -> str:
    """Canonical, re-parseable rendering of a model (deterministic)."""
    lines = [f"set eps_order = {model.eps_order};",
             f"set max_jet_order = {model.max_jet_order};"]
    for name, system in model.systems.items():
        lines.append(f"system {name} {{ rhs: {format_poly(system.rhs)}; }}")
    for name, op in model.operators.items():
        lines.append(f"operator {name} {{ {format_operator(op)} }}")
    for name, poly in model.characteristics.items():
        lines.append(f"char {name} = {format_poly(poly)};")
    for name, functional in model.densities.items():
        lines.append(f"density {name} = {format_poly(functional.density)};")
    return "\n".join(lines) + "\n"
