"""Constructive membership certificates for power sums in the algebra
generated by the elementary multisymmetric polynomials.

A certificate expresses M_target as an explicit GF(p)-combination of
products of generators E_beta (|beta| <= p), together with a replayable
trace of how the expression was derived.  The derivation mirrors a double
induction:

* a power sum supported on one column is rewritten through the classical
  Newton recursion in that column's elementary symmetric polynomials;
* when the last column's exponent is below p, the last two entries are
  merged and the recursive certificate is polarized back apart (each
  product of generators is expanded through the Leibniz rule, using the
  validated closed form for polarizing one generator);
* when the last column's exponent is at least p, the Newton rewrite trades
  p units of it for generator factors of that column.

The verifier is independent of the builder: it expands every product from
scratch and compares with the target power sum, so a certificate that
passes `verify` is a machine-checked membership proof.  The builder also
refuses to use the polarization closed form at primes where its
brute-force validation has not run, falling back to a coordinate-style
certificate extracted from the linear-algebra membership oracle (flagged
non-constructive).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb

from .errors import SelfCheckError
from .exptuples import (
    ExpTuple, add_at, degree as tdeg, entry, exp_tuple, length as tlen, scale,
)
from .invariants import elementary, power_sum
from .operators import (
    newton_terms, polarize_elementary, power_to_elementary_one_column,
    validate_polarization_closed_form,
)
from .poly import Poly, sum_of_products

Factors = tuple[ExpTuple, ...]
TermMap = dict[Factors, int]


@dataclass
class CertStep:
    """One replayable derivation event; `kind` is one of base-case,
    newton-rewrite, merge, flatten, frobenius, or membership-fallback."""

    kind: str
    params: dict

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @staticmethod
    def from_json_obj(obj: dict) -> "CertStep":
        return CertStep(kind=obj["kind"], params=obj["params"])


@dataclass
class Certificate:
    """An explicit expression of a power sum over generator products.

    `terms` lists (coefficient, factor tuple) pairs; each factor is a
    generator exponent tuple with degree at most p.  The contract is that
    sum(coeff * prod E_factor) re-expands to the target power sum exactly;
    `verify` checks it from scratch.
    """

    p: int
    width: int
    target: ExpTuple
    terms: list[tuple[int, Factors]]
    trace: list[CertStep] = field(default_factory=list)
    constructive: bool = True

    def validate_shape(self) -> None:
        d = tdeg(self.target)
        if tlen(self.target) > self.width:
            raise ValueError("target does not fit in the certificate width")
        for coeff, factors in self.terms:
            if not (0 < coeff < self.p):
                raise ValueError(f"coefficient {coeff} out of range mod {self.p}")
            for beta in factors:
                if not beta or tdeg(beta) > self.p:
                    raise ValueError(f"factor {beta} is not a generator tuple")
                if tlen(beta) > self.width:
                    raise ValueError(f"factor {beta} exceeds width {self.width}")
            if sum(tdeg(b) for b in factors) != d:
                raise ValueError("term degree differs from the target degree")

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "width": self.width,
            "target": list(self.target),
            "terms": [
                {"coeff": c, "factors": [list(b) for b in fs]}
                for c, fs in self.terms
            ],
            "trace": [s.to_json_obj() for s in self.trace],
            "constructive": self.constructive,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "Certificate":
        return Certificate(
            p=int(obj["p"]),
            width=int(obj["width"]),
            target=exp_tuple(obj["target"]),
            terms=[
                (int(rec["coeff"]),
                 tuple(exp_tuple(b) for b in rec["factors"]))
                for rec in obj["terms"]
            ],
            trace=[CertStep.from_json_obj(s) for s in obj.get("trace", [])],
            constructive=bool(obj.get("constructive", True)),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "Certificate":
        with open(path) as fh:
            return Certificate.from_json_obj(json.load(fh))


# ---------------------------------------------------------------------------
# Term-map algebra
# ---------------------------------------------------------------------------

def _add_term(terms: TermMap, factors: Factors, coeff: int, p: int) -> None:
    key = tuple(sorted(factors))
    c = (terms.get(key, 0) + coeff) % p
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def _finalize(terms: TermMap) -> list[tuple[int, Factors]]:
    return [(c, fs) for fs, c in sorted(terms.items())]


def _flatten_terms(terms: TermMap, a: int, b: int, units: int, p: int) -> TermMap:
    """Apply the divided polarization (a -> b, `units` units) to a sum of
    generator products via the Leibniz expansion, each single-generator
    move taken from the validated closed form."""
    out: TermMap = {}
    for factors, coeff in terms.items():
        def rec(idx: int, remaining: int, acc: Factors, acc_coeff: int):
            if acc_coeff == 0:
                return
            if idx == len(factors):
                if remaining == 0:
                    _add_term(out, acc, acc_coeff, p)
                return
            beta = factors[idx]
            for k in range(min(remaining, entry(beta, a)) + 1):
                ck, moved = polarize_elementary(beta, a, b, k, p)
                if ck:
                    rec(idx + 1, remaining - k, acc + (moved,),
                        (acc_coeff * ck) % p)
        rec(0, units, (), coeff)
    return out


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------

def _assert_divisibility(alpha: ExpTuple, p: int) -> None:
    r = tlen(alpha)
    for i in range(1, r):
        if entry(alpha, i) % p:
            raise SelfCheckError(
                f"induction invariant violated: {p} does not divide entry "
                f"{i} of {alpha}"
            )


def _build(alpha: ExpTuple, p: int, trace: list[CertStep]) -> TermMap:
    _assert_divisibility(alpha, p)
    support = [i for i in range(1, tlen(alpha) + 1) if entry(alpha, i)]
    if len(support) == 1:
        col = support[0]
        m = entry(alpha, col)
        fragment = power_to_elementary_one_column(m, col, p, verify=True)
        trace.append(CertStep("base-case", {"column": col, "power": m}))
        terms: TermMap = {}
        for c, factors in fragment:
            _add_term(terms, factors, c, p)
        return terms
    r = tlen(alpha)
    last = entry(alpha, r)
    if last < p:
        # Merge the last two entries, certify the shorter tuple, then
        # polarize the merged exponent back apart.
        beta = add_at(add_at(alpha, r - 1, last), r, -last)
        trace.append(CertStep("merge", {"merged": list(beta)}))
        inner = _build(beta, p, trace)
        if comb(entry(beta, r - 1), last) % p != 1:
            raise SelfCheckError(
                f"transport multiplicity is not 1 mod {p} while flattening "
                f"{beta} back to {alpha}"
            )
        trace.append(CertStep(
            "flatten", {"source": r - 1, "target": r, "units": last}
        ))
        return _flatten_terms(inner, r - 1, r, last, p)
    # Newton rewrite in the last column; the expansion is re-checked by
    # newton_rewrite's own self-test at first use per (p, alpha_r) via the
    # sign-calibrated combination below.
    combination = newton_terms(alpha, r, p, signed=True)
    total: TermMap = {}
    branches = []
    for coeff, gen, m_tuple in combination:
        sub = _build(m_tuple, p, trace)
        for factors, c in sub.items():
            _add_term(total, factors + (gen,), (c * coeff) % p, p)
        branches.append({"units": p - tdeg(gen), "tuple": list(m_tuple)})
    trace.append(CertStep(
        "newton-rewrite", {"column": r, "branches": branches}
    ))
    return total


def certify_power_sum(alpha, p: int, width: int | None = None,
                      verify_on_build: bool = True) -> Certificate:
    """Build a verified certificate that M_alpha is a polynomial in the
    elementary multisymmetric generators.

    Requires p to divide every entry of alpha before the last nonzero one
    (the shape produced by p-th powers and preserved by the recursion).
    The working width equals the tuple length: the polarization step always
    re-splits the merged last column in place, so no extra columns are
    consumed.
    """
    alpha = exp_tuple(alpha)
    if not alpha:
        raise ValueError("the zero tuple has zero power sum; nothing to certify")
    _assert_divisibility(alpha, p)
    w = tlen(alpha) if width is None else width
    if w < tlen(alpha):
        raise ValueError(f"width {w} cannot hold a length-{tlen(alpha)} tuple")

    validated = validate_polarization_closed_form(p)
    trace: list[CertStep] = []
    if validated is True:
        terms = _finalize(_build(alpha, p, trace))
        cert = Certificate(p=p, width=w, target=alpha, terms=terms, trace=trace)
    elif validated is None:
        cert = _membership_fallback(alpha, p, w)
    else:
        raise SelfCheckError(
            f"polarization closed form failed validation at p={p}; refusing "
            "to emit certificates"
        )
    cert.validate_shape()
    if verify_on_build and not verify(cert):
        raise SelfCheckError(
            f"freshly built certificate for {alpha} failed verification"
        )
    return cert


def certify_pth_power(alpha, p: int, width: int | None = None,
                      verify_on_build: bool = True) -> Certificate:
    """Certificate that the p-th power of M_alpha lies in the generator
    algebra: M_alpha^p equals M_{p*alpha}, whose entries are all divisible
    by p, so the power-sum builder applies directly."""
    alpha = exp_tuple(alpha)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    target = scale(alpha, p)
    cert = certify_power_sum(target, p, width=width,
                             verify_on_build=verify_on_build)
    cert.trace.insert(0, CertStep("frobenius", {"base": list(alpha)}))
    return cert


def _membership_fallback(alpha: ExpTuple, p: int, width: int) -> Certificate:
    # Coordinate-style certificate from the linear-algebra oracle; used
    # only when the closed-form sweep is unavailable at this p.
    from .spans import in_p_algebra

    target_poly = power_sum(alpha, p, width)
    decomposition = in_p_algebra(target_poly)
    if decomposition is None:
        raise SelfCheckError(
            f"membership oracle rejected M_{alpha}; cannot certify"
        )
    terms: TermMap = {}
    for _, combo in decomposition:
        for factors, coeff in combo.items():
            _add_term(terms, factors, coeff, p)
    return Certificate(
        p=p, width=width, target=alpha, terms=_finalize(terms),
        trace=[CertStep("membership-fallback", {"reason": "closed form not validated at this p"})],
        constructive=False,
    )


# ---------------------------------------------------------------------------
# The independent verifier
# ---------------------------------------------------------------------------

def expand_certificate(cert: Certificate) -> Poly:
    """Re-expand the certificate's terms from scratch."""
    p = cert.p
    ecache: dict[ExpTuple, Poly] = {}

    def factor_poly(beta: ExpTuple) -> Poly:
        if beta not in ecache:
            ecache[beta] = elementary(beta, p, cert.width)
        return ecache[beta]

    return sum_of_products(cert.terms, factor_poly, Poly.one(p, p))


def certificate_diff(cert: Certificate) -> Poly:
    """Expansion minus target; zero exactly when the certificate is sound."""
    return expand_certificate(cert) - power_sum(cert.target, cert.p, cert.width)


def verify(cert: Certificate) -> bool:
    """Machine-check a certificate by full expansion.  Shares only the
    polynomial arithmetic and generator expansion with the builder."""
    try:
        cert.validate_shape()
    except ValueError:
        return False
    return certificate_diff(cert).is_zero


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------

def replay_trace(cert: Certificate) -> list[tuple[int, Factors]]:
    """Re-run the recorded derivation steps and return the terms they
    produce; a faithful certificate replays to its own terms list."""
    p = cert.p
    stack: list[TermMap] = []
    for step in cert.trace:
        kind = step.kind
        if kind == "frobenius" or kind == "merge":
            continue
        if kind == "base-case":
            terms: TermMap = {}
            fragment = power_to_elementary_one_column(
                step.params["power"], step.params["column"], p, verify=False
            )
            for c, factors in fragment:
                _add_term(terms, factors, c, p)
            stack.append(terms)
        elif kind == "flatten":
            top = stack.pop()
            stack.append(_flatten_terms(
                top, step.params["source"], step.params["target"],
                step.params["units"], p,
            ))
        elif kind == "newton-rewrite":
            branches = step.params["branches"]
            col = step.params["column"]
            subs = stack[-len(branches):]
            del stack[-len(branches):]
            total: TermMap = {}
            for branch, sub in zip(branches, subs):
                i = branch["units"]
                sign = (p - 1 if i % 2 else 1) % p
                gen = exp_tuple((0,) * (col - 1) + (p - i,))
                for factors, c in sub.items():
                    _add_term(total, factors + (gen,), (c * sign) % p, p)
            stack.append(total)
        elif kind == "membership-fallback":
            return list(cert.terms)
        else:
            raise ValueError(f"unknown trace step kind {kind!r}")
    if len(stack) != 1:
        raise ValueError("trace does not reduce to a single derivation")
    return _finalize(stack[0])


def replay_matches(cert: Certificate) -> bool:
    return replay_trace(cert) == cert.terms
