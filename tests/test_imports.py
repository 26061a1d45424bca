"""The numeric validator, and numpy with it, loads on first use only.

Each check runs in a fresh interpreter, since this test session has
imported `jetflow.numeric` already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetflow

SRC = str(Path(jetflow.__file__).resolve().parents[1])
NUMERIC_NAMES = ("GridSpec", "Trajectory", "integrate_pde", "max_drift",
                 "monitor_functional", "sech_squared_profile")


def python(code, *argv):
    """Run `code` in a fresh interpreter that imports this jetflow; return
    (exit status, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    return proc.returncode, proc.stdout, proc.stderr


# exits with the command's status, and prints whether numpy was loaded
RUN_CLI = ("import sys\n"
           "from jetflow.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print('numpy' in sys.modules)\n"
           "sys.exit(code)\n")


def test_import_jetflow_leaves_numpy_out():
    code, _, err = python("import sys, jetflow\n"
                          "assert 'numpy' not in sys.modules\n"
                          "assert 'jetflow.numeric' not in sys.modules\n")
    assert code == 0, err


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
    assert out.splitlines()[-1] == "False"


def test_validate_numeric_loads_numpy_and_passes():
    code, out, err = python(RUN_CLI, "validate-numeric", "gardner",
                            "--system", "gardner", "--density", "M",
                            "--points", "32", "--dt", "1e-3", "--t-end", "0.01")
    assert code == 0, err
    assert "[PASS]" in out and out.splitlines()[-1] == "True"


def test_numeric_names_resolve_on_first_use():
    code, out, err = python(
        "import sys, jetflow\n"
        "print(jetflow.numeric.MAX_POINTS)\n"
        "from jetflow import GridSpec\n"
        "print(GridSpec is jetflow.numeric.GridSpec, 'numpy' in sys.modules)\n")
    assert code == 0, err
    assert out.split() == [str(jetflow.numeric.MAX_POINTS), "True", "True"]


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
                            "assert 'numpy' not in sys.modules\n")
    assert code == 0, err
    names = out.split()
    assert set(NUMERIC_NAMES) | {"numeric"} <= set(names)
    assert set(jetflow.__all__) <= set(names)
    assert names == sorted(names)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        jetflow.nonesuch
    with pytest.raises(ImportError):
        from jetflow import nonesuch  # noqa: F401
    assert not hasattr(jetflow, "numpy")
