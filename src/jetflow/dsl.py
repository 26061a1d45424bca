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

The declaration kinds live in one table, ``DECLARATIONS``: the parser, the
printer, ``ModelIR`` and the CLI's model references all read it.

Numbers are ASCII digits; names are letters, digits and ``_``, starting with
a letter or ``_``; ``#`` comments run to the end of the line.  Any other
character outside a comment is a ParseError.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Union

from .errors import ClosureError, ParseError, ResourceLimit, UnknownName
from .jets import (Context, DiffPoly, EvolutionSystem, Functional, Monomial,
                   _checked, _exact, _pack, _u)
from .operators import PseudoDiffOp
from .printing import format_operator, format_poly

# Term pairs that the products of one declaration may multiply in all (a
# power counts each of its products), so that no model file parses for long.
# A power reaches u^16384 at most; any one exponent is capped by
# jets._MAX_EXPONENT (65535), so two such powers still multiply.
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
# The jet order a check may reach when a model does not `set max_jet_order`.
DEFAULT_MAX_JET_ORDER = 12
# The highest jet order `u{k}` or `u_x...x` may name, and the highest
# `set max_jet_order`: a check builds D_x towers up to the orders its
# operands hold, so a huge one would run for minutes, and a flow of a higher
# order could not be printed back into a model that parses.  It leaves room
# for printed hierarchy flows (12 by default, 24 for a seven-step Gardner
# hierarchy).
MAX_JET_INDEX = 64
# The deepest parentheses may nest: each level is a few Python frames, and
# printed models nest at most two deep.
MAX_NESTING = 100

# Declaration keyword -> (ModelIR field, the noun errors use, the text before
# the value, the text after it).  Systems and densities are stored as an
# EvolutionSystem and a Functional; an operator may end in an optional `;`.
DECLARATIONS = {
    "system": ("systems", "system", "{ rhs:", "; }"),
    "operator": ("operators", "operator", "{", " }"),
    "char": ("characteristics", "characteristic", "=", ";"),
    "density": ("densities", "density", "=", ";"),
}
KEYWORDS = {"set", "rhs", *DECLARATIONS}
RESERVED = {"x", "t", "eps", "u", "Dx", "Dxi"} | KEYWORDS
# a name that spells the jet u_k as u_x...x (k letters x), reserved as well
_SPELT_JET = re.compile(r"u_x+")

# A product of atoms is folded into one term, a plain tuple (c, m, e)
# standing for c*m*eps^e with m a packed monomial and c a stored rational, 0
# for a zero term.  It becomes a DiffPoly only where it meets a sum, an
# operator, a named value or any other product, and it costs the caps what
# that DiffPoly would.
Value = Union[DiffPoly, PseudoDiffOp, tuple]
_ONE, _ZERO = (1, 0, 0), (0, 0, 0)
_ATOMS = {"x": (1, _pack(Monomial(1, 0, ())), 0),
          "t": (1, _pack(Monomial(0, 1, ())), 0), "u": (1, _u(0), 0)}


def _size(value: Value) -> int:
    """Terms a product pairs up.  For an operator these are the terms of its
    coefficients, a*Dx^j counting j + 1 times for its Leibniz expansion."""
    if type(value) is tuple:
        return 1
    if isinstance(value, DiffPoly):
        return max(1, len(value._flat))
    return max(1, sum((j + 1) * len(c._flat)
                      for j, c in value.local_terms.items())
               + sum(len(a._flat) + len(b._flat)
                     for a, b in value.nonlocal_terms))


def _bits(value: Value) -> int:
    """Bit length of the largest numerator plus that of the largest
    denominator among the coefficients of a value."""
    if type(value) is tuple:
        c = value[0]
        return (abs(c).bit_length() + 1 if type(c) is int else
                abs(c.numerator).bit_length() + c.denominator.bit_length())
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


def _limit(tok: Token, message: str) -> ResourceLimit:
    """The ResourceLimit for `message`, positioned at `tok`."""
    return ResourceLimit(f"line {tok.line}, column {tok.column}: {message}")


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
            raise _limit(Token(kind, word, line, column), f"integer literal "
                         f"longer than {MAX_LITERAL_DIGITS} digits")
        else:
            tokens.append(Token(kind, word, line, column))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# The (kind, text) of each token before and after a declaration's value
_DELIMITERS = {keyword: tuple([tok[:2] for tok in tokenize(text)[:-1]]
                              for text in spec[2:])
               for keyword, spec in DECLARATIONS.items()}


def _value(stored):
    """The expression a declared value stands for (rhs, density or itself)."""
    if isinstance(stored, EvolutionSystem):
        return stored.rhs
    if isinstance(stored, Functional):
        return stored.density
    return stored


class _Record:
    """Field-wise equality and repr for a plain record class."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class ModelIR(_Record):
    """Parsed model: named values plus session settings."""

    def __init__(self, eps_order: int = 1,
                 max_jet_order: int = DEFAULT_MAX_JET_ORDER,
                 systems: Optional[Dict[str, EvolutionSystem]] = None,
                 operators: Optional[Dict[str, PseudoDiffOp]] = None,
                 characteristics: Optional[Dict[str, DiffPoly]] = None,
                 densities: Optional[Dict[str, Functional]] = None):
        self.eps_order = eps_order
        self.max_jet_order = max_jet_order
        self.systems = {} if systems is None else systems
        self.operators = {} if operators is None else operators
        self.characteristics = {} if characteristics is None else characteristics
        self.densities = {} if densities is None else densities

    @property
    def context(self) -> Context:
        return Context(eps_order=self.eps_order)

    def lookup(self, name: str):
        for table, *_ in DECLARATIONS.values():
            if name in getattr(self, table):
                return getattr(self, table)[name]
        return None

    def __eq__(self, other):
        if not isinstance(other, ModelIR):
            return NotImplemented
        view = lambda m: [m.eps_order, m.max_jet_order, *(
            {name: _value(v) for name, v in getattr(m, table).items()}
            for table, *_ in DECLARATIONS.values())]
        return view(self) == view(other)


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.model = ModelIR()
        self.declared = False
        self.depth = 0  # of the parentheses open at the current token

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
            self.fail(f"found {tok.text!r}" if tok.text else "unexpected end of input",
                      tok, {text if text is not None else kind.lower()})
        return self.advance()

    def fail(self, message: str, tok: Optional[Token] = None, expected=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column, expected)

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> ModelIR:
        while self.peek().kind != "EOF":
            tok = self.advance()
            if tok.text == "set":
                self.parse_set()
            elif tok.text in DECLARATIONS:
                self.parse_declaration(tok.text)
            else:
                self.fail(f"found {tok.text!r}", tok, {"set", *DECLARATIONS})
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
            if value > MAX_EPS_ORDER:
                raise _limit(value_tok, f"eps_order {value} exceeds the cap "
                                        f"{MAX_EPS_ORDER}")
            self.model.eps_order = value
        elif key.text == "max_jet_order":
            if value < 1:
                self.fail("max_jet_order must be positive", value_tok)
            if value > MAX_JET_INDEX:
                raise _limit(value_tok, f"max_jet_order {value} exceeds the "
                                        f"cap {MAX_JET_INDEX}")
            self.model.max_jet_order = value
        else:
            self.fail(f"unknown setting {key.text!r}", key,
                      expected={"eps_order", "max_jet_order"})

    def parse_declaration(self, keyword: str):
        table, noun = DECLARATIONS[keyword][:2]
        before, after = _DELIMITERS[keyword]
        name_tok = self.expect("IDENT")
        name = name_tok.text
        if name in RESERVED or _SPELT_JET.fullmatch(name):
            self.fail(f"{name!r} is reserved", name_tok)
        if self.model.lookup(name) is not None:
            self.fail(f"name {name!r} is already declared", name_tok)
        self.declared, self.pairs = True, 0
        for kind, text in before:
            self.expect(kind, text)
        value = self.poly(self.parse_expr())
        if keyword == "operator":
            if self.peek()[:2] == ("PUNCT", ";"):
                self.advance()
            if isinstance(value, DiffPoly):
                value = PseudoDiffOp.from_poly(value)
        elif isinstance(value, PseudoDiffOp):
            what = "system right-hand side" if keyword == "system" else noun
            self.fail(f"{what} must be a differential polynomial, not an operator")
        for kind, text in after:
            self.expect(kind, text)
        store = {"system": EvolutionSystem, "density": Functional}.get(keyword)
        getattr(self.model, table)[name] = (store(value, name=name) if store
                                            else value)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Value:
        value = self.parse_term()
        while self.peek().kind == "PUNCT" and self.peek().text in "+-":
            op = self.advance().text
            value = self.binary(op, value, self.parse_term())
        return value

    def parse_term(self) -> Value:
        value = self.parse_factor()
        while self.peek().kind == "PUNCT" and self.peek().text in "*/":
            op = self.advance().text
            value = self.binary(op, value, self.parse_factor())
        return value

    def parse_factor(self) -> Value:
        """Signs, an atom and an optional `^ n`; the signs apply last."""
        negate = False
        while self.peek().kind == "PUNCT" and self.peek().text in "+-":
            negate ^= self.advance().text == "-"
        value = self.parse_atom()
        if self.peek().kind == "PUNCT" and self.peek().text == "^":
            caret = self.advance()
            value = self.binary("^", value, int(self.expect("INT").text), caret)
        if not negate:
            return value
        return (-value[0], *value[1:]) if type(value) is tuple else -value

    def parse_atom(self) -> Value:
        tok = self.advance()
        if tok.kind == "INT":
            return int(tok.text), 0, 0
        if tok.kind == "JET":
            return self.jet(int(tok.text), tok)
        if tok.kind == "PUNCT" and tok.text == "(":
            if self.depth >= MAX_NESTING:
                raise _limit(tok, f"parentheses nest deeper than the cap "
                                  f"{MAX_NESTING}")
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            self.expect("PUNCT", ")")
            return value
        if tok.kind == "IDENT":
            name = tok.text
            if name in _ATOMS:
                return _ATOMS[name]
            if name == "eps":
                return (1, 0, 1) if self.model.eps_order else _ZERO
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
            return _value(value)
        self.fail(f"found {tok.text!r}" if tok.text else "unexpected end of input",
                  tok, {"an expression"})

    def jet(self, order: int, tok: Token) -> tuple:
        """u_order, or ResourceLimit above MAX_JET_INDEX."""
        if order > MAX_JET_INDEX:
            raise _limit(tok, f"jet order {order} exceeds the cap "
                              f"{MAX_JET_INDEX}")
        return 1, _u(order), 0

    def poly(self, value: Value) -> Union[DiffPoly, PseudoDiffOp]:
        """A value with a term made a DiffPoly."""
        if type(value) is not tuple:
            return value
        c, mon, e = value
        return DiffPoly._from_flat({(mon, e): c} if c else {},
                                   self.model.eps_order)

    def binary(self, op: str, left: Value, right, at: Optional[Token] = None) -> Value:
        """left op right (for `^` an int); a composition that leaves the
        class is a ParseError at `at`, by default the current token."""
        if op == "/":
            if isinstance(right, PseudoDiffOp):
                self.fail("division only by rational constants")
            r = self.poly(right).rational_constant()
            if r is None or r == 0:
                self.fail("division only by nonzero rational constants")
            if type(left) is tuple:
                return (_exact(left[0] * (1 / r)), *left[1:])
            return left * (1 / r)
        try:
            if op == "*":
                return self.multiply(left, right)
            if op == "^":
                power = (PseudoDiffOp.identity(left.eps_order)
                         if isinstance(left, PseudoDiffOp) else _ONE)
                for _ in range(right):
                    power = self.multiply(power, left)
                return power
            left, right = self.poly(left), self.poly(right)
            return left + right if op == "+" else left - right
        except ClosureError as err:
            self.fail(str(err), at)

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
        if type(left) is not tuple or type(right) is not tuple:
            return self.poly(left) * self.poly(right)
        (c, m, e), (c2, m2, e2) = left, right
        c, e = c * c2, e + e2
        if not c or e > self.model.eps_order:
            return _ZERO
        return _exact(c), _checked(m + m2), e


def parse_model(text: str) -> ModelIR:
    """Parse a model file into its IR; raises ParseError / UnknownName."""
    return _Parser(tokenize(text)).parse_model()


def print_model(model: ModelIR) -> str:
    """Canonical, re-parseable rendering of a model (deterministic)."""
    lines = [f"set eps_order = {model.eps_order};",
             f"set max_jet_order = {model.max_jet_order};"]
    for keyword, (table, _, before, after) in DECLARATIONS.items():
        for name, stored in getattr(model, table).items():
            value = _value(stored)
            text = (format_operator(value) if isinstance(value, PseudoDiffOp)
                    else format_poly(value))
            lines.append(f"{keyword} {name} {before} {text}{after}")
    return "\n".join(lines) + "\n"
