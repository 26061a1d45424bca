"""`import jetflow` loads only the layers that parse and print a model.

The engine, the Hamiltonian layer and the numeric validator (and numpy
with it) load on the first use of one of their names.  Each check runs in
a fresh interpreter, since this test session has imported them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetflow

SRC = str(Path(jetflow.__file__).resolve().parents[1])
NUMERIC_NAMES = ("GridSpec", "Trajectory", "integrate_pde", "max_drift",
                 "monitor_functional", "sech_squared_profile")
# each lazily loaded submodule -> the public names resolved from it
LAZY = {
    "engine": ("CheckReport", "HierarchyResult", "check_conservation",
               "check_recursion_operator", "check_symmetry",
               "generate_hierarchy", "noether_inverse",
               "solve_operator_equation"),
    "hamiltonian": ("MultiVector", "flow_derivative_identity",
                    "ham_vector_field", "in_involution", "is_distinguished",
                    "is_skew_adjoint", "pair_check", "poisson_bracket"),
    "numeric": NUMERIC_NAMES,
}
# modules that a model parse must not load
NOT_ON_THE_PARSE_PATH = ("dataclasses", "jetflow.engine", "jetflow.hamiltonian",
                         "jetflow.numeric", "numpy")


def python(code, *argv):
    """Run `code` in a fresh interpreter that imports this jetflow; return
    (exit status, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    return proc.returncode, proc.stdout, proc.stderr


# exits with the command's status, and prints whether numpy and
# dataclasses were loaded
RUN_CLI = ("import sys\n"
           "from jetflow.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print('numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
           "sys.exit(code)\n")


def test_import_jetflow_leaves_numpy_out():
    code, _, err = python("import sys, jetflow\n"
                          "assert 'numpy' not in sys.modules\n"
                          "assert 'jetflow.numeric' not in sys.modules\n")
    assert code == 0, err


def test_parsing_a_model_loads_only_the_parse_layers():
    code, out, err = python(
        "import sys, jetflow\n"
        "jetflow.load_fixture('gardner')\n"
        "print(' '.join(sorted(sys.modules)))\n")
    assert code == 0, err
    loaded = set(out.split())
    assert not loaded & set(NOT_ON_THE_PARSE_PATH)
    assert {m for m in loaded if m.startswith("jetflow")} == {
        "jetflow", "jetflow.errors", "jetflow.ring", "jetflow.jets",
        "jetflow.operators", "jetflow.printing", "jetflow.dsl",
        "jetflow.fixtures"}


@pytest.mark.parametrize("argv, status", [
    (["print", "gardner"], 0),
    (["check-symmetry", "gardner", "--char", "Q3", "--system", "gardner"], 0),
    (["check-claw", "gardner", "--density", "P1", "--system", "gardner"], 0),
    (["noether", "gardner", "--char", "Qbar5", "--op", "E"], 0),
    (["check-recursion", "gardner", "--op", "R", "--system", "gardner"], 1),
    (["check-pair", "gardner", "--op1", "D", "--op2", "E"], 0),
    (["hierarchy", "gardner", "--op", "R", "--seed", "Kbar1", "--steps", "1",
      "--dop", "D", "--format", "latex"], 0),
])
def test_symbolic_commands_leave_numpy_out(argv, status):
    code, out, err = python(RUN_CLI, *argv)
    assert code == status, err
    assert out.splitlines()[-1] == "False False"


def test_validate_numeric_loads_numpy_and_passes():
    code, out, err = python(RUN_CLI, "validate-numeric", "gardner",
                            "--system", "gardner", "--density", "M",
                            "--points", "32", "--dt", "1e-3", "--t-end", "0.01")
    assert code == 0, err
    assert "[PASS]" in out and out.splitlines()[-1] == "True True"


def test_numeric_names_resolve_on_first_use():
    code, out, err = python(
        "import sys, jetflow\n"
        "print(jetflow.numeric.MAX_POINTS)\n"
        "from jetflow import GridSpec\n"
        "print(GridSpec is jetflow.numeric.GridSpec, 'numpy' in sys.modules)\n")
    assert code == 0, err
    assert out.split() == [str(jetflow.numeric.MAX_POINTS), "True", "True"]


def test_lazy_names_are_their_modules_objects():
    code, out, err = python(
        "import importlib, json, sys, jetflow\n"
        "lazy = json.loads(sys.argv[1])\n"
        "before = [m for m in sys.modules if m.startswith('jetflow.')]\n"
        "for module, names in lazy.items():\n"
        "    assert 'jetflow.' + module not in sys.modules, module\n"
        "    assert getattr(jetflow, module) is sys.modules['jetflow.' + module]\n"
        "    for name in names:\n"
        "        assert name not in vars(jetflow), name\n"
        "        owner = importlib.import_module('jetflow.' + module)\n"
        "        assert getattr(jetflow, name) is getattr(owner, name), name\n"
        "lazy_names = {n for names in lazy.values() for n in names}\n"
        "eager = [n for n in jetflow.__all__ if n not in lazy_names]\n"
        "assert all(n in vars(jetflow) for n in eager)\n",
        json.dumps(LAZY))
    assert code == 0, err
    assert {n for names in LAZY.values() for n in names} <= set(jetflow.__all__)


def test_star_import_binds_all_names():
    code, _, err = python("import jetflow\n"
                          "from jetflow import *\n"
                          "missing = [n for n in jetflow.__all__\n"
                          "           if n not in globals()]\n"
                          "assert not missing, missing\n")
    assert code == 0, err


def test_dir_lists_the_numeric_names():
    code, out, err = python("import sys, jetflow\n"
                            "print(' '.join(dir(jetflow)))\n"
                            "print(' '.join(sorted(sys.modules)))\n")
    assert code == 0, err
    names, loaded = (line.split() for line in out.splitlines())
    for module, lazy in LAZY.items():
        assert {module, *lazy} <= set(names)
        assert "jetflow." + module not in loaded
    assert "numpy" not in loaded
    assert set(jetflow.__all__) <= set(names)
    assert names == sorted(names)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        jetflow.nonesuch
    with pytest.raises(ImportError):
        from jetflow import nonesuch  # noqa: F401
    assert not hasattr(jetflow, "numpy")
