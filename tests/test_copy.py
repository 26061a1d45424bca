"""Values and whole models survive copy.copy, copy.deepcopy and pickle.

The value classes block attribute assignment, so each rebuilds itself
through its constructor on a copy; a kept D_x or kept partials are not
carried over.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from jetflow import (EpsPoly, MultiVector, diff_partial, dx_total, euler1,
                     format_eps_poly, format_operator, format_poly,
                     print_model)

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "pickle-0": lambda value: pickle.loads(pickle.dumps(value, protocol=0)),
}


@pytest.fixture(params=sorted(COPIES))
def duplicate(request):
    return COPIES[request.param]


def test_eps_poly(duplicate):
    a = EpsPoly([Fraction(-2, 3), 5])
    b = duplicate(a)
    assert b == a and format_eps_poly(b) == format_eps_poly(a)


def test_diff_poly_leaves_its_kept_derivative_behind(duplicate, gardner_sys):
    K = gardner_sys.rhs
    DK, dK, EK = dx_total(K), diff_partial(K, 1), euler1(K)
    copied = duplicate(K)
    assert copied == K and format_poly(copied) == format_poly(K)
    assert copied.eps_order == K.eps_order
    assert not hasattr(copied, "_dx") and not hasattr(copied, "_dp")
    assert dx_total(copied) == DK
    assert diff_partial(copied, 1) == dK and euler1(copied) == EK


@pytest.mark.parametrize("name", ["D", "E", "R"])
def test_pseudo_diff_op(duplicate, gardner, name):
    op = gardner.operators[name]
    copied = duplicate(op)
    assert copied == op and format_operator(copied) == format_operator(op)


def test_multivector(duplicate, gardner_sys):
    K = gardner_sys.rhs
    mv = (MultiVector.from_poly(K, (0,)).wedge(MultiVector.from_poly(K, (2,)))
          + MultiVector.from_poly(K * K, (1,)))
    copied = duplicate(mv)
    assert copied == mv and not copied.is_zero()
    shown = lambda v: {w: format_poly(P) for w, P in v._parts.items()}
    assert shown(copied) == shown(mv)


@pytest.mark.parametrize("fixture", ["gardner", "burgers"])
def test_model(duplicate, request, fixture):
    model = request.getfixturevalue(fixture)
    copied = duplicate(model)
    assert copied is not model
    assert copied == model and print_model(copied) == print_model(model)
