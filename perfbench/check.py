"""Compare an op's outputs with the reference recorded for its op seed.

Artifact text is split into numbers and the text between them.  The text
and every integer must match exactly: Whitney selections, kappa, the
in_I1/in_I2 flags, piece counts and the PASS/FAIL tags.  A float matches
when it is within RTOL of the reference value (plus ATOL for exact zeros),
so a faster path that agrees to rounding still passes.  Both tolerances are
stated in spec.json.
"""

import json
import re
from pathlib import Path

_TOL = json.loads((Path(__file__).parent / "spec.json").read_text())["tolerance"]
RTOL = _TOL["rtol"]
ATOL = _TOL["atol"]

_NUMBER = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def close(got: float, ref: float) -> bool:
    return abs(got - ref) <= RTOL * abs(ref) + ATOL


def compare_text(got: str, ref: str) -> str:
    """None when the texts agree, else the first difference."""
    a, b = _NUMBER.split(got), _NUMBER.split(ref)
    if len(a) != len(b):
        return f"{len(a) // 2} numbers where the reference has {len(b) // 2}"
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0 or not (_is_float(x) or _is_float(y)):
            if x != y:
                return f"{x!r} where the reference has {y!r}"
        elif not close(float(x), float(y)):
            return f"{x} where the reference has {y} (rtol {RTOL:g})"
    return None


def compare(outputs: dict, ref: dict) -> list:
    """Every mismatch between an op's outputs and its reference."""
    problems = []
    if "digest" in ref:
        if outputs["digest"] != ref["digest"]:
            problems.append("decomposition outputs differ from the reference")
        if not outputs["verified"]:
            problems.append("a verifier rejected an unmutated instance")
        if outputs["mutated_rejected"] is False:
            problems.append("verify_stopping accepted a mutated kappa")
        return problems
    if outputs["status"] != ref["status"]:
        problems.append(f"exit status {outputs['status']} != {ref['status']}")
    if sorted(outputs["files"]) != sorted(ref["files"]):
        problems.append(f"artifacts {sorted(outputs['files'])} != "
                        f"{sorted(ref['files'])}")
    for name in sorted(set(outputs["files"]) & set(ref["files"])):
        diff = compare_text(outputs["files"][name], ref["files"][name])
        if diff:
            problems.append(f"{name}: {diff}")
    for i, (got, want) in enumerate(zip(outputs.get("field", []),
                                        ref.get("field", []))):
        if not close(got, want):
            problems.append(f"maximal field statistic {i}: {got!r} != {want!r}")
    if len(outputs.get("field", [])) != len(ref.get("field", [])):
        problems.append("maximal field missing or unexpected")
    return problems
