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

Tokens carry their character offset only; the line and column that an
error reports are counted from the offset when the error is raised.  Most
products skip the general algebra: a product of atoms folds into one term,
and a power of ``Dx^j`` or of a term of coefficient 1 or -1 is built in one
step.  A function times an operator is composed by the Leibniz loop of
``operators.compose``, and any other product of polynomials is
``DiffPoly.__mul__``.  Each counts against the caps exactly what the
general product would, so every cap raises at the same product.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Dict, List, Optional, Union

from .errors import ClosureError, ParseError, ResourceLimit, UnknownName
from .jets import (_MAX_EXPONENT, Context, DiffPoly, EvolutionSystem,
                   Functional, Monomial, _checked, _degree, _pack, _u)
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

# A product of atoms is folded into one term, a plain tuple (n, d, m, e)
# standing for n/d*m*eps^e with m a packed monomial and n/d in lowest terms,
# d > 0; a zero term is n = 0 over d = 1.  The tuple serves products,
# powers, quotients and negation alone.  It becomes a DiffPoly where it
# meets a sum, an operator, a named value or any other product, and it costs
# the caps what that DiffPoly would; a sum is DiffPoly or PseudoDiffOp
# arithmetic.
Value = Union[DiffPoly, PseudoDiffOp, tuple]
_ONE, _ZERO = (1, 1, 0, 0), (0, 1, 0, 0)
_ATOMS = {"x": (1, 1, _pack(Monomial(1, 0, ())), 0),
          "t": (1, 1, _pack(Monomial(0, 1, ())), 0), "u": (1, 1, _u(0), 0)}


def _term(n: int, d: int, m: int, e: int) -> tuple:
    """The term n/d*m*eps^e, its rational in lowest terms over a d > 0."""
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // g, d // g, m, e


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
    denominator among the coefficients of a value, each in lowest terms."""
    if type(value) is tuple:
        return abs(value[0]).bit_length() + value[1].bit_length()
    polys = ((value,) if isinstance(value, DiffPoly)
             else (*value.local_terms.values(), *chain(*value.nonlocal_terms)))
    top, den = 0, 1
    for P in polys:
        d = P._den
        if d == 1:
            top = max(top, max(map(abs, P._flat.values()), default=0))
            continue
        for c in P._flat.values():
            g = gcd(c, d)
            top, den = max(top, abs(c) // g), max(den, d // g)
    return top.bit_length() + den.bit_length()


# One alternative per lexeme; the last takes any character no other does, so
# that every character of the text is matched.
_LEXEME = re.compile(r"""
    (?P<SKIP>[ \t\r\n]+|\#[^\n]*)
  | u\{(?P<JET>[0-9]+)\}
  | (?P<BADJET>u\{)
  | (?P<INT>[0-9]+)
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<PUNCT>[{}()=;:+\-*/^])
  | (?P<OTHER>.)
""", re.VERBOSE)
_SIGNS, _PRODUCTS = ("+", "-"), ("*", "/")


def _position(text: str, offset: int):
    """The line and column of a character offset, both counted from 1; only
    an error needs them, so tokens carry the offset alone."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _limit(text: str, offset: int, message: str) -> ResourceLimit:
    """The ResourceLimit for `message`, positioned at `offset`."""
    line, column = _position(text, offset)
    return ResourceLimit(f"line {line}, column {column}: {message}")


def tokenize(text: str) -> List[tuple]:
    """The lexemes of `text` as (kind, text, offset) tuples, kind one of
    INT IDENT JET PUNCT (a JET's text is its digits), then one EOF."""
    tokens = []
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        word, offset = m[kind], m.start()
        if kind == "BADJET":
            raise ParseError("malformed jet index after 'u{'",
                             *_position(text, offset))
        if kind == "OTHER" or kind == "IDENT" and not (word[0].isalpha()
                                                       or word[0] == "_"):
            # [^\W\d] also takes '²', '½' and other numerals that are not
            # decimal digits, but an identifier starts with a letter or '_'
            raise ParseError(f"unexpected character {word[0]!r}",
                             *_position(text, offset))
        if len(word) > MAX_LITERAL_DIGITS and kind in ("INT", "JET"):
            raise _limit(text, offset, f"integer literal longer than "
                                       f"{MAX_LITERAL_DIGITS} digits")
        tokens.append((kind, word, offset))
    tokens.append(("EOF", "", len(text)))
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
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.model = ModelIR()
        self.declared = False
        self.depth = 0  # of the parentheses open at the current token

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            self.fail(f"found {tok[1]!r}" if tok[1] else "unexpected end of input",
                      tok, {text if text is not None else kind.lower()})
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[tuple] = None, expected=None):
        tok = tok or self.peek()
        raise ParseError(message, *_position(self.text, tok[2]), expected)

    def limit(self, tok: tuple, message: str) -> ResourceLimit:
        return _limit(self.text, tok[2], message)

    # -- grammar -----------------------------------------------------------

    def parse_model(self) -> ModelIR:
        while self.peek()[0] != "EOF":
            tok = self.advance()
            if tok[1] == "set":
                self.parse_set()
            elif tok[1] in DECLARATIONS:
                self.parse_declaration(tok[1])
            else:
                self.fail(f"found {tok[1]!r}", tok, {"set", *DECLARATIONS})
        return self.model

    def parse_set(self):
        key_tok = self.expect("IDENT")
        key = key_tok[1]
        self.expect("PUNCT", "=")
        value_tok = self.expect("INT")
        self.expect("PUNCT", ";")
        value = int(value_tok[1])
        if key == "eps_order":
            if self.declared:
                self.fail("set eps_order must precede all declarations", key_tok)
            if value > MAX_EPS_ORDER:
                raise self.limit(value_tok, f"eps_order {value} exceeds the "
                                            f"cap {MAX_EPS_ORDER}")
            self.model.eps_order = value
        elif key == "max_jet_order":
            if value < 1:
                self.fail("max_jet_order must be positive", value_tok)
            if value > MAX_JET_INDEX:
                raise self.limit(value_tok, f"max_jet_order {value} exceeds "
                                            f"the cap {MAX_JET_INDEX}")
            self.model.max_jet_order = value
        else:
            self.fail(f"unknown setting {key!r}", key_tok,
                      expected={"eps_order", "max_jet_order"})

    def parse_declaration(self, keyword: str):
        table, noun = DECLARATIONS[keyword][:2]
        before, after = _DELIMITERS[keyword]
        name_tok = self.expect("IDENT")
        name = name_tok[1]
        if name in RESERVED or _SPELT_JET.fullmatch(name):
            self.fail(f"{name!r} is reserved", name_tok)
        if self.model.lookup(name) is not None:
            self.fail(f"name {name!r} is already declared", name_tok)
        self.declared, self.pairs = True, 0
        for kind, text in before:
            self.expect(kind, text)
        value = self.poly(self.parse_expr())
        if keyword == "operator":
            if self.peek()[1] == ";":
                self.pos += 1
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
        tokens = self.tokens
        while tokens[self.pos][1] in _SIGNS:  # only PUNCT texts are signs
            negate = tokens[self.pos][1] == "-"
            self.pos += 1
            value = self.add(value, self.parse_term(), negate)
        return value

    def parse_term(self) -> Value:
        value = self.parse_factor()
        tokens = self.tokens
        while tokens[self.pos][1] in _PRODUCTS:
            divide = tokens[self.pos][1] == "/"
            self.pos += 1
            right = self.parse_factor()
            value = (self.divide(value, right) if divide
                     else self.multiply(value, right))
        return value

    def parse_factor(self) -> Value:
        """Signs, an atom and an optional `^ n`; the signs apply last."""
        negate = False
        tokens = self.tokens
        while tokens[self.pos][1] in _SIGNS:
            negate ^= tokens[self.pos][1] == "-"
            self.pos += 1
        value = self.parse_atom()
        if tokens[self.pos][1] == "^":
            caret = self.advance()
            value = self.power(value, int(self.expect("INT")[1]), caret)
        if not negate:
            return value
        return (-value[0], *value[1:]) if type(value) is tuple else -value

    def parse_atom(self) -> Value:
        tok = self.advance()
        kind, word = tok[0], tok[1]
        if kind == "INT":
            return int(word), 1, 0, 0
        if kind == "JET":
            return self.jet(int(word), tok)
        if word == "(":
            if self.depth >= MAX_NESTING:
                raise self.limit(tok, f"parentheses nest deeper than the cap "
                                      f"{MAX_NESTING}")
            self.depth += 1
            value = self.parse_expr()
            self.depth -= 1
            self.expect("PUNCT", ")")
            return value
        if kind == "IDENT":
            if word in _ATOMS:
                return _ATOMS[word]
            if word == "eps":
                return (1, 1, 0, 1) if self.model.eps_order else _ZERO
            if _SPELT_JET.fullmatch(word):
                return self.jet(len(word) - 2, tok)
            if word == "Dx":
                return PseudoDiffOp.dx(self.model.eps_order)
            if word == "Dxi":
                return PseudoDiffOp.dxi(self.model.eps_order)
            if word in KEYWORDS:
                self.fail(f"keyword {word!r} cannot appear in an expression", tok)
            value = self.model.lookup(word)
            if value is None:
                raise UnknownName(word, *_position(self.text, tok[2]))
            return _value(value)
        self.fail(f"found {word!r}" if word else "unexpected end of input",
                  tok, {"an expression"})

    def jet(self, order: int, tok: tuple) -> tuple:
        """u_order, or ResourceLimit above MAX_JET_INDEX."""
        if order > MAX_JET_INDEX:
            raise self.limit(tok, f"jet order {order} exceeds the cap "
                                  f"{MAX_JET_INDEX}")
        return 1, 1, _u(order), 0

    def poly(self, value: Value) -> Union[DiffPoly, PseudoDiffOp]:
        """A value with a term made a DiffPoly."""
        if type(value) is not tuple:
            return value
        n, d, mon, e = value
        return DiffPoly._from_flat({(mon, e): n} if n else {},
                                   self.model.eps_order, d)

    def add(self, left: Value, right: Value, negate: bool) -> Value:
        """left + right, or left - right when `negate`: a term is made a
        DiffPoly, and the sum is DiffPoly or PseudoDiffOp arithmetic."""
        left, right = self.poly(left), self.poly(right)
        return left - right if negate else left + right

    def divide(self, left: Value, right: Value) -> Value:
        """left / right for a nonzero rational constant right; an error is
        a ParseError at the current token."""
        if isinstance(right, PseudoDiffOp):
            self.fail("division only by rational constants")
        if type(right) is tuple:
            r = Fraction(*right[:2]) if right[2:] == (0, 0) else None
        else:
            r = right.rational_constant()
        if not r:
            self.fail("division only by nonzero rational constants")
        if type(left) is tuple:
            n, d, m, e = left
            return _term(n * r.denominator, d * r.numerator, m, e)
        return left * Fraction(1, r)

    def count(self, pairs: int, bits: int):
        """Count a product of `pairs` term pairs whose two factors have
        coefficients of `bits` bits together: ResourceLimit, before it is
        multiplied, when the products of the declaration pair up more than
        MAX_PRODUCT_PAIRS terms or `bits` exceeds MAX_COEFF_BITS."""
        self.pairs += pairs
        if self.pairs > MAX_PRODUCT_PAIRS:
            raise ResourceLimit(f"products in one declaration pair up more "
                                f"than {MAX_PRODUCT_PAIRS} terms")
        if bits > MAX_COEFF_BITS:
            raise ResourceLimit(f"the coefficients of a product have more "
                                f"than {MAX_COEFF_BITS} bits")

    def multiply(self, left: Value, right: Value,
                 at: Optional[tuple] = None) -> Value:
        """left * right, counted; a composition that leaves the class is a
        ParseError at `at`, by default the current token.  A term times a
        term is one term; a function times an operator is composed by the
        Leibniz loop of operators.compose."""
        self.count(_size(left) * _size(right), _bits(left) + _bits(right))
        if type(left) is tuple and type(right) is tuple:
            (n, d, m, e), (n2, d2, m2, e2) = left, right
            n, e = n * n2, e + e2
            if not n or e > self.model.eps_order:
                return _ZERO
            d *= d2
            return (n, 1, _checked(m + m2), e) if d == 1 else _term(
                n, d, _checked(m + m2), e)
        try:
            return self.poly(left) * self.poly(right)
        except ClosureError as err:
            self.fail(str(err), at)

    def power(self, base: Value, n: int, caret: tuple) -> Value:
        """base^n, counted as the n products base*...*base; a composition
        that leaves the class is a ParseError at the caret.  A pure Dx^j,
        and a term of coefficient 1 or -1 when no cap can be reached, skip
        the products."""
        is_op = isinstance(base, PseudoDiffOp)
        j = base._dx_power() if is_op else None
        if j is not None:
            for i in range(n):  # Dx^(i*j) times Dx^j, with 1 + 1 bits
                self.count((i * j + 1) * (j + 1), 4)
            return base ** n
        if type(base) is tuple:
            c, d, m, e = base
            if (c in (1, -1) and d == 1 and self.pairs + n <= MAX_PRODUCT_PAIRS
                    and 4 <= MAX_COEFF_BITS and n * _degree(m) <= _MAX_EXPONENT):
                self.pairs += n  # each product pairs 1 x 1 terms, 1 + 1 bits
                return ((c ** n, 1, m * n, e * n)
                        if e * n <= self.model.eps_order else _ZERO)
        power = PseudoDiffOp.identity(base.eps_order) if is_op else _ONE
        for _ in range(n):
            power = self.multiply(power, base, caret)
        return power


def parse_model(text: str) -> ModelIR:
    """Parse a model file into its IR; raises ParseError / UnknownName."""
    return _Parser(text).parse_model()


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
