"""Symbolic verification of approximate symmetries, conservation laws and
bi-Hamiltonian structures of perturbed evolution equations.

`import jetflow` loads the layers that parse and print a model: errors,
ring, jets, operators, printing, dsl and fixtures.  Three layers load on
the first use of one of their names (see `_LAZY`), or of the module itself:

- `jetflow.engine`, the checks, Noether inversion and hierarchies;
- `jetflow.hamiltonian`, multivectors, Poisson brackets and pair checks;
- `jetflow.numeric`, the numeric validator, and numpy with it.

Symbolic work never loads numpy.
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
from .dsl import ModelIR, parse_model, print_model
from .fixtures import fixture_names, load_fixture
from .printing import format_eps_poly, format_operator, format_poly, format_value

__version__ = "0.1.0"

# name -> the submodule it is resolved from by __getattr__ (PEP 562) on
# first use; each submodule's own name maps to itself
_LAZY = {name: module for module, names in (
    ("engine", ("CheckReport", "HierarchyResult", "check_conservation",
                "check_recursion_operator", "check_symmetry",
                "generate_hierarchy", "noether_inverse",
                "solve_operator_equation")),
    ("hamiltonian", ("MultiVector", "flow_derivative_identity",
                     "ham_vector_field", "in_involution", "is_distinguished",
                     "is_skew_adjoint", "pair_check", "poisson_bracket")),
    ("numeric", ("GridSpec", "Trajectory", "integrate_pde", "max_drift",
                 "monitor_functional", "sech_squared_profile")),
) for name in (module, *names)}

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
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _LAZY[name], __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
