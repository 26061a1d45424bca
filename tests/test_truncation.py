"""Metamorphic truncation property.

Truncating Q[eps]/(eps^(p+1)) to Q[eps]/(eps^(q+1)) is a ring map, so every
operation must commute with it: computing at p = 3 and truncating to q must
equal computing at q from the truncated inputs.  The paper's Rt hierarchy
runs end to end at p = 2 and 3 as well; the rest of the suite runs at p = 1
only.
"""

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from jetflow import (DiffPoly, EvolutionSystem, NotExact, PseudoDiffOp,
                     adjoint, apply_op, check_symmetry, compose, dx_total,
                     euler1, parse_model, solve_operator_equation)
from jetflow.cli import main
from jetflow.fixtures import GARDNER_SOURCE

from conftest import diff_polys, local_ops, nonlocal_ops

HIGH = 3
lower_orders = st.integers(0, HIGH - 1)


def truncate(P, q):
    return DiffPoly({m: c.truncate(q) for m, c in P.terms.items()}, q)


def truncate_op(A, q):
    return PseudoDiffOp(
        {j: truncate(c, q) for j, c in A.local_terms.items()},
        [(truncate(a, q), truncate(b, q)) for a, b in A.nonlocal_terms], q)


@settings(max_examples=60, deadline=None)
@given(diff_polys(order=HIGH), diff_polys(order=HIGH), lower_orders)
def test_product_commutes_with_truncation(a, b, q):
    assert truncate(a * b, q) == truncate(a, q) * truncate(b, q)


@settings(max_examples=60, deadline=None)
@given(diff_polys(order=HIGH), lower_orders)
def test_dx_total_commutes_with_truncation(p, q):
    assert truncate(dx_total(p), q) == dx_total(truncate(p, q))


@settings(max_examples=60, deadline=None)
@given(diff_polys(order=HIGH), lower_orders)
def test_euler_commutes_with_truncation(p, q):
    assert truncate(euler1(p), q) == euler1(truncate(p, q))


@settings(max_examples=60, deadline=None)
@given(nonlocal_ops(order=HIGH), diff_polys(max_terms=2, order=HIGH),
       lower_orders)
def test_apply_op_commutes_with_truncation(A, p, q):
    try:
        image = apply_op(A, p)
    except NotExact:
        assume(False)
    assert truncate(image, q) == apply_op(truncate_op(A, q), truncate(p, q))


@settings(max_examples=60, deadline=None)
@given(local_ops(order=HIGH), nonlocal_ops(order=HIGH), lower_orders)
def test_compose_commutes_with_truncation(A, B, q):
    assert (truncate_op(compose(A, B), q)
            == compose(truncate_op(A, q), truncate_op(B, q)))


@settings(max_examples=60, deadline=None)
@given(nonlocal_ops(order=HIGH), local_ops(order=HIGH), lower_orders)
def test_nonlocal_compose_commutes_with_truncation(A, B, q):
    assert (truncate_op(compose(A, B), q)
            == compose(truncate_op(A, q), truncate_op(B, q)))


@settings(max_examples=60, deadline=None)
@given(nonlocal_ops(order=HIGH), lower_orders)
def test_adjoint_commutes_with_truncation(A, q):
    assert truncate_op(adjoint(A), q) == adjoint(truncate_op(A, q))


# ---------------------------------------------------------------------------
# The engine: symmetry residuals, hierarchy iterates and the ansatz

GARDNER_HIGH = parse_model(GARDNER_SOURCE.replace("set eps_order = 1;",
                                                  f"set eps_order = {HIGH};"))


@settings(max_examples=40, deadline=None)
@given(diff_polys(max_terms=2, order=HIGH), diff_polys(max_terms=2, order=HIGH),
       lower_orders)
def test_symmetry_residual_commutes_with_truncation(Q, K, q):
    residual = check_symmetry(Q, EvolutionSystem(K)).residual
    assert (truncate(residual, q)
            == check_symmetry(truncate(Q, q),
                              EvolutionSystem(truncate(K, q))).residual)


@pytest.mark.parametrize("seed", ["Q1", "Q2", "Q4", "Kbar1"])
@pytest.mark.parametrize("q", range(HIGH))
def test_hierarchy_iterates_commute_with_truncation(seed, q):
    R = GARDNER_HIGH.operators["R"]
    K = GARDNER_HIGH.characteristics[seed]
    K_q = truncate(K, q)
    for _ in range(3):
        try:
            K = apply_op(R, K)
        except NotExact:
            break
        K_q = apply_op(truncate_op(R, q), K_q)
        assert truncate(K, q) == K_q


@settings(max_examples=20, deadline=None)
@given(diff_polys(max_terms=2, max_jet_order=1, max_degree=2, order=HIGH),
       lower_orders)
def test_ansatz_preimage_truncates_to_a_preimage(g, q):
    # g has jet order <= 1 and degree <= 2, inside the first order tier and
    # the degree bound of E(g), whose dense tier has at most 4 * 126 pairs
    E = GARDNER_HIGH.operators["E"]
    Q = apply_op(E, g)
    found = solve_operator_equation(E, Q)
    assert found is not None
    assert apply_op(truncate_op(E, q), truncate(found, q)) == truncate(Q, q)


# ---------------------------------------------------------------------------
# The CLI end to end: the paper's Rt hierarchy at p = 2 and 3

GOLDEN = Path(__file__).parent / "golden"


def hierarchy_at(capsys, tmp_path, model, p, *args):
    """The exit code and the JSON checks of `hierarchy` on a golden model
    with `set eps_order = p`."""
    path = tmp_path / f"p{p}.jf"
    path.write_text((GOLDEN / model).read_text().replace(
        "set eps_order = 1;", f"set eps_order = {p};"))
    code = main(["hierarchy", str(path), *args, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)["checks"]


def truncated(text, p):
    """A printed polynomial of order p, read back and truncated to eps^1."""
    model = parse_model(f"set eps_order = {p};\nchar F = {text};")
    return truncate(model.characteristics["F"], 1)


@pytest.mark.parametrize("p", [2, 3])
def test_rt_hierarchy_truncates_to_the_first_order_run(capsys, tmp_path, p):
    # Rt has no eps^2 term, so it stays a recursion operator at every p;
    # a product that dropped or kept the wrong eps pairs would break this
    args = ("--op", "Rt", "--seed", "Q1", "--steps", "4", "--dop", "D")
    code_1, low = hierarchy_at(capsys, tmp_path, "gardner_Rt_jet24.jf", 1, *args)
    code, high = hierarchy_at(capsys, tmp_path, "gardner_Rt_jet24.jf", p, *args)
    assert code == code_1 == 0
    assert len(high) == 46
    assert all(c["verdict"] == "pass" for c in high)
    assert [c["name"] for c in high] == [c["name"] for c in low]
    found = high[0]["certificates"]["hierarchy"]
    expected = low[0]["certificates"]["hierarchy"]
    for key in ("flows", "functionals"):
        assert ([truncated(text, p) for text in found[key]]
                == [truncated(text, 1) for text in expected[key]]), key


def test_barred_hierarchy_fails_at_its_seed_at_second_order(capsys, tmp_path):
    # the control: Kbar1 is a symmetry of Gardner only modulo eps^2
    code, checks = hierarchy_at(capsys, tmp_path, "gardner_jet24.jf", 2,
                                "--op", "R", "--seed", "Kbar1", "--steps",
                                "4", "--dop", "D")
    assert code == 1
    residual = "eps^2*(-36*u*u_x*u_xxx - 36*u*u_xx^2 - 72*u_x^2*u_xx)"
    assert [(c["name"], c["verdict"], c["residual"]) for c in checks] == [
        ("hierarchy R from Kbar1 (4 steps)", "fail", residual),
        ("seed symmetry", "fail", residual)]
