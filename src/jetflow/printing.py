"""Canonical text and LaTeX rendering of ring elements, polynomials, operators.

The ASCII forms are exactly the model-file syntax, so printing a value and
parsing it back yields the same value.  Term order is deterministic.
"""

from __future__ import annotations

from .jets import DiffPoly, Monomial
from .ring import EpsPoly


def _jet_name(order, ascii_style=True):
    if order == 0:
        return "u"
    if not ascii_style:
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


def format_eps_poly(c: EpsPoly, latex=False) -> str:
    """Render an eps polynomial, e.g. '8 + 22*eps' or '3/2'."""
    return _format_coeffs(c.coeffs, latex)


def _format_coeffs(coeffs, latex=False) -> str:
    """Render the values of eps^0, eps^1, ... as one eps polynomial."""
    eps = "\\varepsilon" if latex else "eps"
    parts = []
    for i, a in enumerate(coeffs):
        if a == 0:
            continue
        if i == 0:
            core = _frac_str(a, latex)
        else:
            power = _power(eps, i, latex)
            if abs(a) == 1:
                core = power if a > 0 else f"-{power}"
            else:
                mul = "" if latex else "*"
                core = f"{_frac_str(a, latex)}{mul}{power}"
        parts.append(core)
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def _monomial_factors(mon: Monomial, latex=False):
    factors = [_power(var, n, latex)
               for var, n in (("x", mon.x), ("t", mon.t)) if n]
    for order, e in mon.jets:
        factors.append(_power(_jet_name(order, ascii_style=not latex), e, latex))
    return factors


def _single_degree(coeffs):
    """(degree, value) when exactly one eps coefficient is nonzero, else None."""
    found = None
    for i, a in enumerate(coeffs):
        if a != 0:
            if found is not None:
                return None
            found = (i, a)
    return found


def _term_str(mon: Monomial, coeffs, latex=False):
    """Render one term, given its value per eps degree, as
    (negated, text-without-sign)."""
    mul = "" if latex else "*"
    factors = _monomial_factors(mon, latex)
    single = _single_degree(coeffs)
    if single is None:
        inner = _format_coeffs(coeffs, latex)
        core = f"({inner})"
        if factors:
            core += mul + mul.join(factors)
        return False, core
    deg, val = single
    neg = val < 0
    val = abs(val)
    pieces = []
    if val != 1 or (deg == 0 and not factors):
        pieces.append(_frac_str(val, latex))
    if deg:
        pieces.append(_power("\\varepsilon" if latex else "eps", deg, latex))
    pieces.extend(factors)
    if not pieces:
        pieces.append("1")
    return neg, mul.join(pieces)


def format_poly(P: DiffPoly, latex=False) -> str:
    """Canonical rendering of a differential polynomial."""
    terms = P._grouped()
    if not terms:
        return "0"
    # factor a common pure eps^k out front when every term carries it
    degrees = set()
    for coeffs in terms.values():
        single = _single_degree(coeffs)
        degrees.add(single[0] if single else -1)
    prefix = ""
    if len(terms) > 1 and len(degrees) == 1 and degrees != {-1} and degrees != {0}:
        k = degrees.pop()
        prefix = (_power("\\varepsilon" if latex else "eps", k, latex)
                  + ("(" if latex else "*("))
        terms = {mon: (_single_degree(coeffs)[1],)
                 for mon, coeffs in terms.items()}
    out = []
    for mon in sorted(terms):
        neg, text = _term_str(mon, terms[mon], latex)
        if not out:
            out.append(("-" if neg else "") + text)
        else:
            out.append(("- " if neg else "+ ") + text)
    body = " ".join(out)
    if prefix:
        return prefix + body + ")"
    return body


def _coeff_factor(P: DiffPoly, latex=False):
    """A polynomial as a multiplicative factor: (negated, text)."""
    terms = P._grouped()
    if len(terms) == 1:
        ((mon, coeffs),) = terms.items()
        if _single_degree(coeffs) is not None:
            return _term_str(mon, coeffs, latex)
    return False, f"({format_poly(P, latex)})"


def format_operator(A, latex=False) -> str:
    """Canonical rendering of a pseudo-differential operator."""
    mul = "" if latex else "*"
    dx = "D_x" if latex else "Dx"
    dxi = "D_x^{-1}" if latex else "Dxi"
    parts = []
    for j in sorted(A.local_terms):
        coeff = A.local_terms[j]
        if j == 0:
            text = format_poly(coeff, latex)
            parts.append((text.startswith("-"), text.lstrip("-")))
            continue
        op = _power(dx, j, latex)
        if coeff == DiffPoly.constant(1, coeff.eps_order):
            parts.append((False, op))
        elif coeff == DiffPoly.constant(-1, coeff.eps_order):
            parts.append((True, op))
        else:
            neg, text = _coeff_factor(coeff, latex)
            parts.append((neg, text + mul + op))
    for a, b in A.nonlocal_terms:
        one = DiffPoly.constant(1, a.eps_order)
        neg = False
        text = dxi
        if a != one:
            neg, left = _coeff_factor(a, latex)
            text = left + mul + text
        if b != one:
            text = text + mul + _coeff_factor(b, latex)[1]
        parts.append((neg, text))
    if not parts:
        return "0"
    neg, text = parts[0]
    out = ("-" if neg else "") + text
    for neg, text in parts[1:]:
        out += (" - " if neg else " + ") + text
    return out


def format_value(v, latex=False) -> str:
    from .operators import PseudoDiffOp

    if isinstance(v, DiffPoly):
        return format_poly(v, latex)
    if isinstance(v, PseudoDiffOp):
        return format_operator(v, latex)
    if isinstance(v, EpsPoly):
        return format_eps_poly(v, latex)
    return str(v)
