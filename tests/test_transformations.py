"""Gardner symmetries pulled back from KdV through a near-identity map.

The map v = u + eps*(u^2 - u_xx/2) takes the Gardner equation
u_t = 6(u + eps*u^2)u_x - u_xxx to KdV, v_t = 6 v v_x - v_xxx, mod eps^2
(Gardner, Greene, Kruskal and Miura, J. Math. Phys. 11, 1970).  A KdV
symmetry Q_v then pulls back to the Gardner symmetry (v')^-1 Q_v(v(u)),
where v' is the Frechet derivative of the map, inverted as a series mod
eps^2.  The maps, the substitutions and the inversion are sympy's alone;
jetflow only reads each pullback, printed as a model, and gives the verdict.
"""

import pytest

from jetflow import check_symmetry, parse_model

sympy = pytest.importorskip("sympy")
from test_sympy_oracle import EPS, T, U, X, same, to_sympy, truncated  # noqa: E402


P = 1  # the map is exact mod eps^2, the order of the Gardner fixture


def gardner_map(f):
    return f + EPS * (f ** 2 - sympy.diff(f, X, 2) / 2)


def wrong_map(f):
    return f + EPS * f ** 2


# KdV symmetries: the translation, the KdV flow and the Galilean boost
KDV_SYMMETRIES = {
    "Q1": lambda v: sympy.diff(v, X),
    "Q2": lambda v: 6 * v * sympy.diff(v, X) - sympy.diff(v, X, 3),
    "Q3": lambda v: 6 * T * sympy.diff(v, X) + 1,
}


def pullback(Q_v, vmap, p=P):
    """(v')^-1 Q_v(v(u)) mod eps^(p+1).  With v' = 1 + eps*L, the preimage
    of W = Q_v(v(u)) is the fixed point of g -> W - eps*L(g), and each step
    of that map fixes one more eps degree."""
    s = sympy.Symbol("s")
    W = truncated(Q_v(vmap(U)), p)

    def frechet(g):
        return sympy.diff(vmap(U + s * g), s).subs(s, 0)

    g = W
    for _ in range(p):
        g = truncated(W - (frechet(g) - g), p)
    return g


def to_jetflow(expr, p=P):
    """The DiffPoly that jetflow parses from expr printed in model syntax."""
    expr = sympy.expand(expr)
    order = max((d.derivative_count for d in expr.atoms(sympy.Derivative)),
                default=0)
    jets = {sympy.diff(U, X, k): sympy.Symbol(f"u{{{k}}}")
            for k in range(1, order + 1)}
    jets[U] = sympy.Symbol("u")
    text = str(expr.xreplace(jets)).replace("**", "^")
    return parse_model(f"set eps_order = {p}; char Q = {text};"
                       ).characteristics["Q"]


@pytest.mark.parametrize("name", sorted(KDV_SYMMETRIES))
def test_kdv_symmetries_pull_back_to_gardner_symmetries(name, gardner,
                                                        gardner_sys):
    Q = pullback(KDV_SYMMETRIES[name], gardner_map)
    assert same(Q, to_sympy(gardner.characteristics[name]))
    assert check_symmetry(to_jetflow(Q), gardner_sys).passed


def test_pullback_through_a_wrong_map_is_not_a_symmetry(gardner_sys):
    # v = u + eps*u^2 leaves KdV's image of Gardner a residual
    # 6*eps*u_x*u_xx, so the pulled-back KdV flow is no Gardner symmetry
    Q = pullback(KDV_SYMMETRIES["Q2"], wrong_map)
    u1, u2, u3 = (sympy.diff(U, X, k) for k in (1, 2, 3))
    assert same(Q, 6 * EPS * U ** 2 * u1 - 6 * EPS * u1 * u2
                + 6 * U * u1 - u3)
    assert not check_symmetry(to_jetflow(Q), gardner_sys).passed
