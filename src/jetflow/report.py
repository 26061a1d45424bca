"""Report emitters: text for terminals, JSON for machines, LaTeX for papers."""

from __future__ import annotations

import hashlib
import json
import re
from typing import List, Optional

from .engine import CheckReport, HierarchyResult
from .jets import Functional
from .printing import format_value


# the characters special to TeX in text mode, escaped
_TEX_ESCAPES = str.maketrans({**{c: "\\" + c for c in "_{}#$%&"},
                              "^": "\\^{}", "~": "\\~{}",
                              "\\": "\\textbackslash{}"})
# a string certificate that reads as a number is set in math mode, like a
# formula; any other string, such as an error message, is prose
_NUMBER = re.compile(r"[-+]?\d+(\.\d*)?([eE][-+]?\d+)?")


def model_hash(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode()).hexdigest()[:16]


def _render(value, latex=False) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, Functional):
        return format_value(value.density, latex)
    if isinstance(value, (list, tuple)):
        return [_render(v, latex) for v in value]
    if isinstance(value, HierarchyResult):
        return {
            "flows": [_render(f, latex) for f in value.flows],
            "functionals": [_render(f, latex) for f in value.functionals],
            "stopped_at": None if value.stopped_at is None else {
                "index": value.stopped_at[0],
                "obstruction": _render(value.stopped_at[1], latex),
            },
            "assumptions": list(value.assumptions),
        }
    return format_value(value, latex)


def _tex_value(raw, rendered: str) -> str:
    """A rendered certificate for a LaTeX report: prose as escaped text,
    a formula or a number in math mode."""
    if isinstance(raw, str) and not _NUMBER.fullmatch(raw):
        return raw.translate(_TEX_ESCAPES)
    return f"${rendered}$"


def check_entry(report: CheckReport, latex=False) -> dict:
    entry = {
        "name": report.name,
        "verdict": report.verdict,
        "residual": _render(report.residual, latex),
    }
    if report.certificates:
        entry["certificates"] = {k: _render(v, latex)
                                 for k, v in report.certificates.items()}
    return entry


def emit_report(checks: List[CheckReport], command: str, digest: str,
                eps_order: int, max_jet_order: int, fmt: str = "text") -> str:
    """Serialize check outcomes in the requested format."""
    if fmt == "json":
        payload = {
            "command": command,
            "model_hash": digest,
            "eps_order": eps_order,
            "max_jet_order": max_jet_order,
            "checks": [check_entry(c) for c in checks],
        }
        return json.dumps(payload, indent=2)
    if fmt == "latex":
        lines = [
            "% command: " + command,
            "% model hash: " + digest,
            f"% eps order: {eps_order}, jet order cap: {max_jet_order}",
            "\\begin{description}",
        ]
        for c in checks:
            entry = check_entry(c, latex=True)
            label = f"{c.name} ({c.verdict})".translate(_TEX_ESCAPES)
            lines.append(f"\\item[{{{label}}}] residual $= {entry['residual']}$")
            for key, value in (entry.get("certificates") or {}).items():
                if isinstance(value, str):
                    lines.append(f"  \\\\ {key.translate(_TEX_ESCAPES)}: "
                                 + _tex_value(c.certificates[key], value))
        lines.append("\\end{description}")
        return "\n".join(lines)
    if fmt == "text":
        lines = [f"command: {command}",
                 f"model hash: {digest}",
                 f"eps order: {eps_order}  max jet order: {max_jet_order}"]
        for c in checks:
            entry = check_entry(c)
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}"
            if not c.passed:
                line += f"  residual: {entry['residual']}"
            lines.append(line)
            for key, value in (entry.get("certificates") or {}).items():
                if isinstance(value, str):
                    lines.append(f"         {key}: {value}")
                elif isinstance(value, dict):
                    lines.append(f"         {key}: {json.dumps(value)}")
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        lines.append(f"         {key}[{i}]: {item}")
        return "\n".join(lines)
    raise ValueError(f"unknown report format {fmt!r}")
