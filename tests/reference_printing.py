"""The renderer of printing.py as it was before each term was rendered in
one pass from its packed key: the reference the printer property tests
compare the current printer against.  Kept as it was, apart from its
imports.
"""

from __future__ import annotations

import re
from fractions import Fraction

from jetflow.jets import ONE_MONOMIAL, DiffPoly, Monomial, _unpack
from jetflow.ring import EpsPoly

# where '\varepsilon' meets a letter, which TeX would read as one control word
_EPS_LETTER = re.compile(r"(?<=\\varepsilon)(?=[A-Za-z])")


def _jet_name(order, latex=False):
    if order == 0:
        return "u"
    if latex:
        return "u_x" if order == 1 else "u_{" + "x" * order + "}"
    return "u_" + "x" * order if order <= 4 else f"u{{{order}}}"


def _frac_str(r, latex=False) -> str:
    """An int or a Fraction; str(n) == str(Fraction(n)) for an int n."""
    if latex and r.denominator != 1:
        sign = "-" if r < 0 else ""
        return f"{sign}\\frac{{{abs(r.numerator)}}}{{{r.denominator}}}"
    return str(r)


def _power(base: str, n: int, latex=False) -> str:
    """base^n for n >= 1, written as base when n == 1 and with the exponent
    in braces in LaTeX."""
    if n == 1:
        return base
    return f"{base}^{{{n}}}" if latex else f"{base}^{n}"


def _product(factors, latex=False) -> str:
    """Factors joined by '*' in ASCII and side by side in LaTeX, with a space
    between '\\varepsilon' and a letter."""
    if not latex:
        return "*".join(factors)
    text = "".join(factors)
    return _EPS_LETTER.sub(" ", text) if "\\varepsilon" in text else text


def _join(parts) -> str:
    """The signed sum of (negated, text) parts; '0' when there are none."""
    if not parts:
        return "0"
    out = "".join([(" - " if neg else " + ") + text for neg, text in parts])
    return ("-" if parts[0][0] else "") + out[3:]


def format_eps_poly(c: EpsPoly, latex=False) -> str:
    """Render an eps polynomial, e.g. '8 + 22*eps' or '3/2'."""
    return _eps_sum([(i, a) for i, a in enumerate(c.coeffs) if a], latex)


def _eps_sum(pairs, latex=False) -> str:
    """The eps polynomial of nonzero (eps degree, value) pairs."""
    return _join([_term_str(ONE_MONOMIAL, [pair], latex)
                  for pair in sorted(pairs)])


def _monomial_factors(mon: Monomial, latex=False):
    return ([_power(v, n, latex) for v, n in (("x", mon.x), ("t", mon.t)) if n]
            + [_power(_jet_name(k, latex), e, latex) for k, e in mon.jets])


def _term_str(mon: Monomial, pairs, latex=False):
    """Render one term, given its nonzero (eps degree, value) pairs, as
    (negated, text-without-sign)."""
    factors = _monomial_factors(mon, latex)
    if len(pairs) > 1:
        return False, _product([f"({_eps_sum(pairs, latex)})"] + factors, latex)
    ((deg, val),) = pairs
    neg = val < 0
    val = abs(val)
    pieces = []
    if val != 1 or (deg == 0 and not factors):
        pieces.append(_frac_str(val, latex))
    if deg:
        pieces.append(_power("\\varepsilon" if latex else "eps", deg, latex))
    return neg, _product(pieces + factors, latex)


def format_poly(P: DiffPoly, latex=False) -> str:
    """Canonical rendering of a differential polynomial."""
    terms = {}
    for (m, e), c in P._flat.items():
        terms.setdefault(m, []).append((e, Fraction(c, P._den)))
    terms = {_unpack(m): pairs for m, pairs in terms.items()}
    # factor a common pure eps^k out front when every term carries it
    degrees = {pairs[0][0] if len(pairs) == 1 else -1 for pairs in terms.values()}
    prefix = ""
    if len(terms) > 1 and len(degrees) == 1 and not degrees & {-1, 0}:
        prefix = (_power("\\varepsilon" if latex else "eps", degrees.pop(), latex)
                  + ("(" if latex else "*("))
        terms = {mon: [(0, pairs[0][1])] for mon, pairs in terms.items()}
    body = _join([_term_str(mon, terms[mon], latex) for mon in sorted(terms)])
    return prefix + body + ")" if prefix else body


def _coeff_factor(P: DiffPoly, latex=False):
    """A polynomial as a multiplicative factor: (negated, text).  A
    polynomial of one monomial is one term, such as '(1 + eps)*u'."""
    mons = {m for m, _ in P._flat}
    if len(mons) == 1:
        return _term_str(_unpack(mons.pop()),
                         [(e, Fraction(c, P._den))
                          for (_, e), c in P._flat.items()], latex)
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
    """The product of the factors that are not '1'."""
    return _product([f for f in factors if f != "1"], latex)


def format_value(v, latex=False) -> str:
    from jetflow.operators import PseudoDiffOp

    if isinstance(v, DiffPoly):
        return format_poly(v, latex)
    if isinstance(v, PseudoDiffOp):
        return format_operator(v, latex)
    if isinstance(v, EpsPoly):
        return format_eps_poly(v, latex)
    return str(v)
