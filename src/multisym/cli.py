"""Command-line surface.

Every command reads its configuration from flags, falling back to the
MULTISYM_* environment variables and then to defaults, and emits
deterministic output: the same configuration and seed always produce the
same bytes.  Exit codes: 0 success, 2 parse or configuration error,
3 internal self-check failure (including failed suites and mismatched
tables), 4 dimension cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from .certify import certify_power_sum, certify_pth_power, verify
from .errors import CapExceeded, SelfCheckError
from .expressions import ParseError, parse_expression, recognize
from .exptuples import format_tuple, parse_tuple
from .invariants import is_invariant, orbit_min
from .poly import validate_prime
from .selftest import format_results, run_selftest
from .spans import DEFAULT_CAP, in_p_algebra, square_ideal_quotient
from .witness import witness_check

ENV_PREFIX = "MULTISYM_"

DEFAULTS = {
    "p": 2,
    "width": 2,
    "max_degree": 4,
    "seed": 0,
    "format": "text",
    "cap": DEFAULT_CAP,
}


@dataclass
class RunConfig:
    p: int
    width: int
    max_degree: int
    seed: int
    fmt: str
    cap: int
    out: str | None

    def validate(self) -> "RunConfig":
        validate_prime(self.p)
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.max_degree < 1:
            raise ValueError(f"max-degree must be >= 1, got {self.max_degree}")
        if self.fmt not in ("text", "json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.cap < 1:
            raise ValueError("cap must be positive")
        return self


def _resolve(args: argparse.Namespace, name: str, cast=int):
    value = getattr(args, name)
    if value is not None:
        return value
    env = os.environ.get(ENV_PREFIX + name.upper())
    if env is not None:
        return cast(env)
    return DEFAULTS[name]


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        p=_resolve(args, "p"),
        width=_resolve(args, "width"),
        max_degree=_resolve(args, "max_degree"),
        seed=_resolve(args, "seed"),
        fmt=_resolve(args, "format", cast=str),
        cap=_resolve(args, "cap"),
        out=args.out,
    ).validate()


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        sys.stdout.write(f"wrote {cfg.out}\n")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_eval(cfg: RunConfig, args) -> int:
    poly = parse_expression(args.expr, cfg.p, cfg.width)
    name = recognize(poly, cfg.width)
    if cfg.fmt == "json":
        obj = {
            "p": cfg.p,
            "width": cfg.width,
            "expr": args.expr,
            "terms": poly.to_json_obj(),
        }
        if name:
            obj["recognized"] = name
        _emit(json.dumps(obj, indent=2) + "\n", cfg)
    elif cfg.fmt == "text":
        lines = [poly.text()]
        if name and name != poly.text():
            lines.append(f"recognized: {name}")
        _emit("\n".join(lines) + "\n", cfg)
    else:
        raise ValueError("eval supports text or json output")
    return 0


def cmd_member(cfg: RunConfig, args) -> int:
    poly = parse_expression(args.expr, cfg.p, cfg.width)
    if not poly.is_zero and poly.homogeneous_degree is None:
        raise ValueError("membership reports need a homogeneous target")
    in_gamma = is_invariant(poly)
    orbit_coords = None
    if in_gamma and not poly.is_zero:
        orbit_coords = {}
        for m, c in sorted(poly.terms.items(),
                           key=lambda item: item[0]):
            orbit_coords.setdefault(orbit_min(m, poly.nrows).text(), c)
    membership = in_p_algebra(poly, cap=cfg.cap) if in_gamma else None
    in_p = membership is not None
    combination = None
    if in_p:
        combination = [
            {
                "column_degrees": list(coldegs),
                "products": [
                    {
                        "coeff": coeff,
                        "factors": [format_tuple(b) for b in factors],
                    }
                    for factors, coeff in sorted(combo.items())
                ],
            }
            for coldegs, combo in membership
        ]
    if cfg.fmt == "json":
        obj = {
            "p": cfg.p,
            "width": cfg.width,
            "expr": args.expr,
            "in_invariant_ring": in_gamma,
            "in_polarization_algebra": in_p,
            "orbit_coordinates": orbit_coords,
            "generator_combination": combination,
        }
        _emit(json.dumps(obj, indent=2) + "\n", cfg)
    elif cfg.fmt == "text":
        lines = [
            f"expr: {args.expr}",
            f"in invariant ring: {str(in_gamma).lower()}",
            f"in polarization algebra: {str(in_p).lower()}",
        ]
        if orbit_coords:
            lines.append("orbit-sum coordinates:")
            for rep, c in orbit_coords.items():
                lines.append(f"  {c} * T[{rep}]")
        if combination:
            lines.append("generator combination:")
            for comp in combination:
                for prod in comp["products"]:
                    factors = " * ".join(
                        "E" + b for b in prod["factors"]) or "1"
                    lines.append(f"  {prod['coeff']} * {factors}")
        _emit("\n".join(lines) + "\n", cfg)
    else:
        raise ValueError("member supports text or json output")
    return 0


def cmd_certify(cfg: RunConfig, args) -> int:
    alpha = parse_tuple(args.alpha)
    if args.pth_power:
        cert = certify_pth_power(alpha, cfg.p, verify_on_build=False)
    else:
        cert = certify_power_sum(alpha, cfg.p, verify_on_build=False)
    ok = verify(cert)
    payload = json.dumps(
        {"certificate": cert.to_json_obj(), "verified": ok}, indent=2
    ) + "\n"
    if cfg.fmt == "text":
        summary = [
            f"target: M{format_tuple(cert.target)}",
            f"width: {cert.width}",
            f"terms: {len(cert.terms)}",
            f"constructive: {str(cert.constructive).lower()}",
            f"verified: {str(ok).lower()}",
        ]
        if cfg.out:
            cert_payload = json.dumps(cert.to_json_obj(), indent=2) + "\n"
            with open(cfg.out, "w") as fh:
                fh.write(cert_payload)
            summary.append(f"wrote {cfg.out}")
        sys.stdout.write("\n".join(summary) + "\n")
    elif cfg.fmt == "json":
        _emit(payload, cfg)
    else:
        raise ValueError("certify supports text or json output")
    if not ok:
        raise SelfCheckError("certificate failed verification")
    return 0


def cmd_mingens(cfg: RunConfig, args) -> int:
    reports = [
        square_ideal_quotient(d, cfg.width, cfg.p, cap=cfg.cap)
        for d in range(1, cfg.max_degree + 1)
    ]
    if cfg.fmt == "csv":
        lines = [reports[0].CSV_HEADER]
        lines.extend(r.csv_row() for r in reports)
        _emit("\n".join(lines) + "\n", cfg)
    elif cfg.fmt == "json":
        _emit(json.dumps([r.__dict__ for r in reports], indent=2) + "\n", cfg)
    else:
        header = (
            f"{'d':>3} {'dim_gamma':>9} {'dim_P':>6} {'dim_square':>10} "
            f"{'quotient':>8} {'predicted':>9} {'match':>6}"
        )
        lines = [f"minimal generators p={cfg.p} width={cfg.width}", header]
        for r in reports:
            lines.append(
                f"{r.degree:>3} {r.dim_gamma:>9} {r.dim_p_algebra:>6} "
                f"{r.dim_square:>10} {r.dim_quotient:>8} "
                f"{r.predicted_count:>9} {str(r.match).lower():>6}"
            )
        _emit("\n".join(lines) + "\n", cfg)
    if not all(r.match for r in reports):
        raise SelfCheckError("a degree disagreed with the predicted count")
    return 0


def cmd_witness(cfg: RunConfig, args) -> int:
    if args.N <= args.d:
        raise ValueError(
            f"the witness argument needs N > d (got N={args.N}, d={args.d}): "
            "otherwise the target power sum is itself reachable from the "
            "ideal generators"
        )
    width = max(cfg.width, args.N)
    report, cert = witness_check(args.d, args.N, cfg.p, width=width,
                                 cap=cfg.cap)
    if cfg.fmt == "json":
        _emit(json.dumps(report.to_json_obj(), indent=2) + "\n", cfg)
    else:
        obj = report.to_json_obj()
        lines = [
            f"witness run p={cfg.p} d={args.d} N={args.N} width={width}",
            f"  (a) target outside products of positive-degree invariants: "
            f"{str(report.not_in_square).lower()}",
            f"  (b) p-th power certified in the generator algebra: "
            f"{str(report.pth_power_certified).lower()} "
            f"(oracle agrees: {str(report.oracle_agrees).lower()})",
            f"  (c) p-th power outside the degree-{cfg.p * args.N} ideal slice: "
            f"{str(report.not_in_ideal_slice).lower()}",
            f"  splitting replay closes: {str(report.splitting_replay_ok).lower()}",
            f"  dims: {json.dumps(obj['dims'])}",
            f"  passed: {str(report.passed).lower()}",
        ]
        _emit("\n".join(lines) + "\n", cfg)
    if not report.passed:
        raise SelfCheckError("witness checks failed")
    return 0


def cmd_selftest(cfg: RunConfig, args) -> int:
    results = run_selftest(cfg.seed, samples=args.samples,
                           inject_mutation=args.inject_mutation)
    _emit(format_results(results, cfg.seed, args.samples), cfg)
    if any(not r.passed for r in results):
        raise SelfCheckError("selftest reported failures")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; defaults stay None so
    that `_resolve` reads the environment on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=None,
                        help="prime characteristic (env MULTISYM_P, default 2)")
    common.add_argument("--width", type=int, default=None,
                        help="number of variable columns (env MULTISYM_WIDTH)")
    common.add_argument("--max-degree", dest="max_degree", type=int,
                        default=None, help="degree bound for tables")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized sweeps")
    common.add_argument("--format", dest="format", default=None,
                        choices=("text", "json", "csv"), help="output format")
    common.add_argument("--cap", type=int, default=None,
                        help="dimension cap for span computations")
    common.add_argument("--out", default=None, help="write output to FILE")

    parser = argparse.ArgumentParser(
        prog="multisym",
        description="multisymmetric polynomials over GF(p): evaluation, "
                    "membership, certificates, generator tables, and the "
                    "non-noetherianity witness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", parents=[common],
                        help="expand an expression canonically")
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("member", parents=[common],
                        help="membership report for an expression")
    sp.add_argument("expr")
    sp.set_defaults(fn=cmd_member)

    sp = sub.add_parser("certify", parents=[common],
                        help="build and verify a membership certificate")
    sp.add_argument("alpha", help="exponent tuple, e.g. \"(1,1)\"")
    sp.add_argument("--pth-power", action="store_true",
                    help="certify the p-th power of the given power sum")
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("mingens", parents=[common],
                        help="per-degree minimal generator table")
    sp.set_defaults(fn=cmd_mingens)

    sp = sub.add_parser("witness", parents=[common],
                        help="run the non-noetherianity witness computation")
    sp.add_argument("--d", type=int, required=True,
                    help="generator degree bound")
    sp.add_argument("--N", type=int, required=True,
                    help="number of ones in the witness tuple (needs N > d)")
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("selftest", parents=[common],
                        help="run every property suite with a fixed seed")
    sp.add_argument("--samples", type=int, default=25,
                    help="randomized samples per suite")
    sp.add_argument("--inject-mutation", action="store_true",
                    help="include a deliberately failing control suite")
    sp.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = config_from_args(args)
        return args.fn(cfg, args)
    except (ParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SelfCheckError as exc:
        sys.stderr.write(f"self-check failure: {exc}\n")
        return 3
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return 4


def console_main() -> None:
    raise SystemExit(main())
