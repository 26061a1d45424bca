"""Symbolic verification of approximate symmetries, conservation laws and
bi-Hamiltonian structures of perturbed evolution equations.

The numeric validator (`jetflow.numeric`, and with it numpy) is imported on
the first numeric call: the first use of `GridSpec`, `Trajectory`,
`integrate_pde`, `max_drift`, `monitor_functional`, `sech_squared_profile`
or `jetflow.numeric`.  Symbolic work never loads numpy.
"""

import importlib

from .errors import (ClosureError, Diverged, JetflowError, ModelError,
                     NotExact, NotInImage, NotVariational, OrderMismatch,
                     ParseError, ResourceLimit, UnknownName, Unsupported)
from .ring import EpsPoly
from .jets import (Context, DiffPoly, EvolutionSystem, Functional, JetVar,
                   Monomial, diff_partial, dt_total, dx_total, dx_total_n,
                   euler, euler1, integrate_x, prolong_apply)
from .operators import (PseudoDiffOp, adjoint, apply_op, commutator, compose,
                        frechet, helmholtz_selfadjoint, op_time_derivative,
                        reconstruct_density)
from .hamiltonian import (MultiVector, flow_derivative_identity,
                          ham_vector_field, in_involution, is_distinguished,
                          is_skew_adjoint, pair_check, poisson_bracket)
from .engine import (CheckReport, HierarchyResult, check_conservation,
                     check_recursion_operator, check_symmetry,
                     generate_hierarchy, noether_inverse,
                     solve_operator_equation)
from .dsl import ModelIR, parse_model, print_model
from .fixtures import fixture_names, load_fixture
from .printing import format_eps_poly, format_operator, format_poly, format_value

__version__ = "0.1.0"

# names resolved from `numeric` by __getattr__ (PEP 562) on first use
_NUMERIC_NAMES = ("GridSpec", "Trajectory", "integrate_pde", "max_drift",
                  "monitor_functional", "sech_squared_profile")

__all__ = [
    "ClosureError", "Diverged", "JetflowError", "ModelError", "NotExact",
    "NotInImage", "NotVariational", "OrderMismatch", "ParseError",
    "ResourceLimit", "UnknownName", "Unsupported",
    "EpsPoly",
    "Context", "DiffPoly", "EvolutionSystem", "Functional", "JetVar",
    "Monomial", "diff_partial", "dt_total", "dx_total", "dx_total_n",
    "euler", "euler1", "integrate_x", "prolong_apply",
    "PseudoDiffOp", "adjoint", "apply_op", "commutator", "compose", "frechet",
    "helmholtz_selfadjoint", "op_time_derivative", "reconstruct_density",
    "MultiVector", "flow_derivative_identity", "ham_vector_field",
    "in_involution", "is_distinguished", "is_skew_adjoint", "pair_check",
    "poisson_bracket",
    "CheckReport", "HierarchyResult", "check_conservation",
    "check_recursion_operator", "check_symmetry", "generate_hierarchy",
    "noether_inverse", "solve_operator_equation",
    "ModelIR", "parse_model", "print_model",
    "fixture_names", "load_fixture",
    "GridSpec", "Trajectory", "integrate_pde", "max_drift",
    "monitor_functional", "sech_squared_profile",
    "format_eps_poly", "format_operator", "format_poly", "format_value",
    "__version__",
]


def __getattr__(name):
    if name == "numeric" or name in _NUMERIC_NAMES:
        numeric = importlib.import_module(".numeric", __name__)
        return numeric if name == "numeric" else getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_NUMERIC_NAMES, "numeric"})
