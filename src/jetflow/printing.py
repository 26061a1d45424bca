"""Canonical text and LaTeX rendering of ring elements, polynomials, operators.

The ASCII forms are exactly the model-file syntax, so printing a value and
parsing it back yields the same value.  Term order is deterministic: terms
sort as their Monomials (x, t, jets) do.  Every printed sum is one join of
``(negated, text)`` parts, and every part comes from one row renderer,
``_row``.  It walks the fields of a packed monomial once and builds the
term's sort key, its factor text and its coefficient text together, with no
Monomial built on the way.  An eps polynomial is the sum of its degrees,
each a row of the monomial 1.
"""

from __future__ import annotations

import math

from .jets import _JETS, _MASK, _W, DiffPoly
from .ring import EpsPoly

_EPS = ("eps", "\\varepsilon")
_TIMES = ("*", "")  # the product sign, in ASCII and in LaTeX


def _jet_name(order, latex=False):
    if order == 0:
        return "u"
    if latex:
        return "u_x" if order == 1 else "u_{" + "x" * order + "}"
    return "u_" + "x" * order if order <= 4 else f"u{{{order}}}"


def _frac_str(n: int, d: int, latex=False) -> str:
    """The rational n/d, d > 0, in lowest terms: 'n' or 'n/d' as
    str(Fraction(n, d)) writes it, or a LaTeX fraction."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if d == 1:
        return str(n)
    if latex:
        sign = "-" if n < 0 else ""
        return f"{sign}\\frac{{{abs(n)}}}{{{d}}}"
    return f"{n}/{d}"


def _power(base: str, n: int, latex=False) -> str:
    """base^n for n >= 1, written as base when n == 1 and with the exponent
    in braces in LaTeX."""
    if n == 1:
        return base
    return f"{base}^{{{n}}}" if latex else f"{base}^{n}"


def _join(parts) -> str:
    """The signed sum of parts that end in (negated, text), such as rows;
    '0' when there are none."""
    if not parts:
        return "0"
    out = "".join([(" - " if part[-2] else " + ") + part[-1] for part in parts])
    return ("-" if parts[0][-2] else "") + out[3:]


def format_eps_poly(c: EpsPoly, latex=False) -> str:
    """Render an eps polynomial, e.g. '8 + 22*eps' or '3/2'."""
    return _eps_sum([(i, a.numerator, a.denominator)
                     for i, a in enumerate(c.coeffs) if a], latex)


def _eps_sum(pairs, latex=False) -> str:
    """The eps polynomial of nonzero (eps degree, numerator, denominator)
    triples."""
    return _join([_row(0, [pair], latex) for pair in sorted(pairs)])


def _row(m: int, pairs, latex=False):
    """The term of packed monomial m with the nonzero (eps degree,
    numerator, denominator) triples as (sort key, negated, text without its
    sign).  The key (x, t, jets) orders as the Monomial of m does.  In LaTeX
    a lone '\\varepsilon' is followed by a space before a factor, which TeX
    would otherwise read as part of one control word."""
    x, t = m & _MASK, m >> _W & _MASK
    factors = []
    if x:
        factors.append(_power("x", x, latex))
    if t:
        factors.append(_power("t", t, latex))
    jets, k, rest = [], 0, m >> _JETS
    while rest:
        e = rest & _MASK
        if e:
            jets.append((k, e))
            factors.append(_power(_jet_name(k, latex), e, latex))
        k, rest = k + 1, rest >> _W
    key = (x, t, tuple(jets))
    if len(pairs) > 1:
        return key, False, _TIMES[latex].join(
            [f"({_eps_sum(pairs, latex)})", *factors])
    ((deg, n, d),) = pairs
    neg = n < 0
    if neg:
        n = -n
    pieces = [] if n == d and (deg or factors) else [_frac_str(n, d, latex)]
    if deg:
        eps = _power(_EPS[latex], deg, latex)
        pieces.append(eps + " " if latex and deg == 1 and factors else eps)
    return key, neg, _TIMES[latex].join(pieces + factors)


def format_poly(P: DiffPoly, latex=False) -> str:
    """Canonical rendering of a differential polynomial."""
    terms, d = {}, P._den
    for (m, e), c in P._flat.items():
        terms.setdefault(m, []).append((e, c, d))
    # factor a common pure eps^k out front when every term carries it
    degrees = {pairs[0][0] if len(pairs) == 1 else -1 for pairs in terms.values()}
    prefix = ""
    if len(terms) > 1 and len(degrees) == 1 and not degrees & {-1, 0}:
        prefix = (_power(_EPS[latex], degrees.pop(), latex)
                  + ("(" if latex else "*("))
        terms = {m: [(0, *pairs[0][1:])] for m, pairs in terms.items()}
    body = _join(sorted([_row(m, pairs, latex) for m, pairs in terms.items()]))
    return prefix + body + ")" if prefix else body


def _coeff_factor(P: DiffPoly, latex=False):
    """A polynomial as a multiplicative factor: (negated, text).  A
    polynomial of one monomial is one row, such as '(1 + eps)*u'."""
    mons = {m for m, _ in P._flat}
    if len(mons) == 1:
        return _row(mons.pop(), [(e, c, P._den)
                                 for (_, e), c in P._flat.items()], latex)[1:]
    return False, f"({format_poly(P, latex)})"


def format_operator(A, latex=False) -> str:
    """Canonical rendering of a pseudo-differential operator.  A coefficient
    that renders as '1' is left out, so -1*Dx^j prints as '-Dx^j' and
    -1*Dxi as '-Dxi'."""
    parts = []
    for j in sorted(A.local_terms):
        if j == 0:  # the first part, written with its own sign
            parts.append((False, format_poly(A.local_terms[0], latex)))
            continue
        neg, text = _coeff_factor(A.local_terms[j], latex)
        op = _power("D_x" if latex else "Dx", j, latex)
        parts.append((neg, _factors((text, op), latex)))
    for a, b in A.nonlocal_terms:
        neg, left = _coeff_factor(a, latex)
        parts.append((neg, _factors((left, "D_x^{-1}" if latex else "Dxi",
                                     _coeff_factor(b, latex)[1]), latex)))
    return _join(parts)


def _factors(factors, latex=False) -> str:
    """The product of the factors that are not '1'.  A factor that ends in
    '\\varepsilon' is a coefficient before an operator symbol, which starts
    with a letter, so in LaTeX a space follows it."""
    factors = [f for f in factors if f != "1"]
    if latex:
        factors[:-1] = [f + " " if f.endswith(_EPS[1]) else f
                        for f in factors[:-1]]
    return _TIMES[latex].join(factors)


def format_multivector(W, latex=False) -> str:
    """Canonical rendering of a functional multivector: the sum over its
    wedges of a coefficient times 'theta_i ^ theta_j ^ ...' (LaTeX
    '\\theta_{i}\\wedge\\theta_{j}...'), theta_k being the k-th x-derivative
    of theta.  Wedges sort as tuples of their orders; zero prints as '0'."""
    parts = []
    for wedge in sorted(W._parts):
        if not wedge:  # the first part, written with its own sign
            parts.append((False, format_poly(W._parts[wedge], latex)))
            continue
        neg, coeff = _coeff_factor(W._parts[wedge], latex)
        thetas = ("\\wedge" if latex else " ^ ").join(
            [f"\\theta_{{{k}}}" if latex else f"theta_{k}" for k in wedge])
        parts.append((neg, _factors((coeff, thetas), latex)))
    return _join(parts)


def format_value(v, latex=False) -> str:
    from .hamiltonian import MultiVector
    from .operators import PseudoDiffOp

    if isinstance(v, DiffPoly):
        return format_poly(v, latex)
    if isinstance(v, PseudoDiffOp):
        return format_operator(v, latex)
    if isinstance(v, EpsPoly):
        return format_eps_poly(v, latex)
    if isinstance(v, MultiVector):
        return format_multivector(v, latex)
    if latex and v == math.inf:
        return "\\infty"
    return str(v)
