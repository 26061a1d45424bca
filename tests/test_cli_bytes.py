"""Byte goldens of the CLI: the verify catalogue, help and usage errors.

`golden/verify_catalogue.json` holds the exit code and the sha256 of stdout
of each command below in each report format; `golden/usage/` holds the help
texts and the stderr of the usage errors.  Help and usage text are taken at
a terminal width of 80 columns.  Replace a file only for an intended change
of the CLI output, by running this file: `PYTHONPATH=src python
tests/test_cli_bytes.py`.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from jetflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
CATALOGUE_FILE = GOLDEN / "verify_catalogue.json"
USAGE_DIR = GOLDEN / "usage"
FORMATS = ("text", "json", "latex")
G, B = "gardner", "potential_burgers"


def _sym(model, char):
    return ["check-symmetry", model, "--char", char, "--system", model]


def _claw(density):
    return ["check-claw", G, "--density", density, "--system", G]


def _noether(char, op):
    return ["noether", G, "--char", char, "--op", op]


def _recursion(model, op, *extra):
    return ["check-recursion", model, "--op", op, "--system", model, *extra]


def _hierarchy(seed, steps):
    return ["hierarchy", G, "--op", "R", "--seed", seed, "--steps", str(steps),
            "--dop", "D"]


# The 56 small checks of the paper's criteria 2-9: symmetries, conservation
# laws, Noether inversions, recursion operators, a Hamiltonian pair, two
# hierarchies and the canonical text of the Gardner model.
CATALOGUE = [
    *(_sym(G, q) for q in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Qbar5",
                           "Kbar1")),
    *(_sym(B, f"Q{i}") for i in range(1, 13)),
    *(_claw(h) for h in ("M", "H0", "H1", "P1", "P2", "P4", "P5", "P6", "Pt2",
                         "Pt4", "Pt5", "Pt7", "Pbar5", "Hbar2", "Hbar3")),
    *(_noether(q, "D") for q in ("Q1", "Q2", "Q4", "Q5", "Q6")),
    *(_noether(q, "E") for q in ("Q2", "Q4", "Q5", "Q7", "Qbar5")),
    _noether("Qbar5", "D"),
    _noether("Q3", "D"),
    _recursion(B, "R1"),
    _recursion(B, "R2"),
    _recursion(G, "R", "--mode", "action", "--seeds", "Q1,Q4,Kbar1"),
    _recursion(G, "R"),
    ["check-pair", G, "--op1", "D", "--op2", "E"],
    _hierarchy("Kbar1", 2),
    _hierarchy("Q2", 2),
    ["print", G],
]

SUBCOMMANDS = ("check-symmetry", "check-claw", "noether", "check-recursion",
               "check-pair", "hierarchy", "validate-numeric", "print")
# golden file name -> (argv, exit code); a .txt holds stdout, a .err stderr
USAGE = {
    "help.txt": (["--help"], 0),
    **{f"help_{name}.txt": ([name, "--help"], 0) for name in SUBCOMMANDS},
    "no_arguments.err": ([], 2),
    "check_symmetry_alone.err": (["check-symmetry"], 2),
    "format_xml.err": (["print", G, "--format", "xml"], 2),
    "print_extra.err": (["print", G, "extra"], 2),
    "hierarchy_negative_steps.err": (
        ["hierarchy", G, "--op", "R", "--seed", "Kbar1", "--steps", "-1",
         "--dop", "D"], 2),
    "action_without_seeds.err": (
        ["check-recursion", G, "--op", "R", "--system", G, "--mode", "action"],
        2),
}


def _key(argv):
    return " ".join(argv)


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(argv):
    code, out, _ = run_main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


@pytest.mark.parametrize("argv", CATALOGUE, ids=_key)
def test_verify_catalogue_digests(argv):
    golden = json.loads(CATALOGUE_FILE.read_text())
    for fmt in FORMATS:
        full = argv + ["--format", fmt]
        assert _digest(full) == golden[_key(full)], f"changed: {_key(full)}"


@pytest.mark.parametrize("name", USAGE)
def test_help_and_usage_bytes(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    argv, exit_code = USAGE[name]
    code, out, err = run_main(argv)
    text = out if name.endswith(".txt") else err
    assert code == exit_code
    assert (out if name.endswith(".err") else err) == ""
    assert text.encode() == (USAGE_DIR / name).read_bytes(), _key(argv)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    digests = {_key(argv + ["--format", fmt]): _digest(argv + ["--format", fmt])
               for argv in CATALOGUE for fmt in FORMATS}
    CATALOGUE_FILE.write_text(json.dumps(digests, indent=1) + "\n")
    USAGE_DIR.mkdir(exist_ok=True)
    for name, (argv, _) in USAGE.items():
        code, out, err = run_main(argv)
        (USAGE_DIR / name).write_bytes(
            (out if name.endswith(".txt") else err).encode())
