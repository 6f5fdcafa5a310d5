"""Correctness gate: decides, after a request's timer has stopped, whether
its captured result is right.

A request fails when
  * its exit code is not 0;
  * the sha256 of its stdout differs from the reference recorded for the
    same argv in ``reference.json`` (or no reference exists);
  * a ``certify`` report says ``"verified": false``;
  * a ``member`` report's generator combination does not re-expand to
    the parsed target, or a p-th power target is reported as a non-member;
  * a ``mingens`` table has a row that does not match its prediction, or a
    ``witness`` report did not pass.

The intrinsic checks use the library's own ``Poly``/``elementary`` and
expression parser, so they run with tracing switched off.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_POWER_SUM = re.compile(r"M\(([\d,]+)\)")


def request_key(argv) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh)


def _option(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_member(argv, obj, expand: bool) -> str | None:
    p, expr = obj["p"], obj["expr"]
    if expr != argv[1] or p != int(_option(argv, "--p")):
        return "member report echoes another request"
    power = _POWER_SUM.fullmatch(expr)
    if power and all(int(a) % p == 0 for a in power.group(1).split(",")):
        if not obj["in_polarization_algebra"]:
            return "p-th power reported outside the generator algebra"
    if expand and obj["generator_combination"] is not None:
        return _expansion_failure(obj)
    return None


def _expansion_failure(obj) -> str | None:
    from multisym.exptuples import parse_tuple
    from multisym.expressions import parse_expression
    from multisym.invariants import elementary
    from multisym.poly import Poly

    p, width = obj["p"], obj["width"]
    target = parse_expression(obj["expr"], p, width)
    total = Poly.zero(p, p)
    for component in obj["generator_combination"]:
        for prod in component["products"]:
            term = Poly.const(p, p, prod["coeff"])
            for factor in prod["factors"]:
                term = term * elementary(parse_tuple(factor), p, width)
            total = total + term
    if total != target:
        return "generator combination does not re-expand to the target"
    return None


def intrinsic_failure(argv, stdout: str, expand: bool = True) -> str | None:
    """The reason a successful request's output is wrong, or None.  With
    `expand` off, member combinations are not re-expanded; call
    `expansion_failure` for them later."""
    command = argv[0]
    try:
        if command == "certify":
            if json.loads(stdout)["verified"] is not True:
                return "certificate not verified"
        elif command == "member":
            return _check_member(argv, json.loads(stdout), expand)
        elif command == "mingens":
            rows = stdout.strip().splitlines()[1:]
            if not rows or not all(r.endswith(",true") for r in rows):
                return "generator table does not match its prediction"
        elif command == "witness":
            if json.loads(stdout)["passed"] is not True:
                return "witness report did not pass"
        elif command == "eval":
            json.loads(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc}"
    return None


def expansion_failure(argv, stdout: str) -> str | None:
    """The member re-expansion check on its own (None for other commands
    and for non-members)."""
    if argv[0] != "member":
        return None
    obj = json.loads(stdout)
    if obj["generator_combination"] is None:
        return None
    return _expansion_failure(obj)


def failure(argv, code: int, stdout: str, reference: dict[str, str],
            expand: bool = True) -> str | None:
    """Why a captured request result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    expected = reference.get(request_key(argv))
    if expected is None:
        return "no reference output for this request"
    if digest(stdout) != expected:
        return "output differs from the reference"
    return intrinsic_failure(argv, stdout, expand)
