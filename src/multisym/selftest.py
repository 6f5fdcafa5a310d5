"""Seeded property suites covering every structural identity the package
relies on.  Each suite draws its randomness from its own `random.Random`
seeded deterministically from the run seed, so a run is reproducible
bit-for-bit and any counterexample can be replayed.

The suites are used two ways: the CLI `selftest` command runs all of them
with modest sample counts, and the test suite calls the underlying
checkers directly with the larger acceptance-level counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from .certify import Certificate, certify_power_sum, replay_matches, verify
from .exptuples import exp_tuple, tuples_up_to
from .invariants import (
    elementary, gamma, is_invariant, orbit_sum, power_sum, row_monomial,
    shuffle,
)
from .operators import (
    check_newton_tilde, expand_newton_terms, flatten_tuple, frobenius_split,
    newton_rewrite, newton_terms, polarize_raw,
    validate_polarization_closed_form,
)
from .poly import Monomial, Poly, frobenius
from .spans import (
    SpanBasis, embed_one_row, gamma_basis, gl_span, in_p_algebra,
    p_algebra_span, spans_equal, square_ideal_quotient,
)


@dataclass
class SuiteResult:
    name: str
    seed: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def ok(self) -> None:
        self.checks += 1

    def fail(self, message: str) -> None:
        self.checks += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def require(self, condition: bool, message: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(message)


# ---------------------------------------------------------------------------
# Random element generators
# ---------------------------------------------------------------------------

def random_poly(rng: random.Random, p: int, nrows: int, width: int,
                maxdeg: int, nterms: int) -> Poly:
    terms: dict[Monomial, int] = {}
    for _ in range(rng.randint(0, nterms)):
        deg = rng.randint(0, maxdeg)
        pairs = []
        for _ in range(deg):
            pairs.append((rng.randint(1, nrows), rng.randint(1, width), 1))
        m = Monomial.of(pairs)
        terms[m] = rng.randint(1, p - 1) if p > 2 else 1
    return Poly(p, nrows, terms)


def random_one_row(rng: random.Random, p: int, width: int,
                   maxdeg: int, nterms: int) -> Poly:
    return random_poly(rng, p, 1, width, maxdeg, nterms)


def random_invariant(rng: random.Random, p: int, width: int,
                     maxdeg: int, nterms: int,
                     homogeneous: bool = False) -> Poly:
    total = Poly.zero(p, p)
    deg = rng.randint(0, maxdeg)
    for _ in range(rng.randint(1, nterms)):
        if not homogeneous:
            deg = rng.randint(0, maxdeg)
        pairs = []
        for _ in range(deg):
            pairs.append((rng.randint(1, p), rng.randint(1, width), 1))
        coeff = rng.randint(1, p - 1)
        total = total + orbit_sum(Monomial.of(pairs), p) * coeff
    return total


def random_tuple(rng: random.Random, maxlen: int, maxdeg: int):
    while True:
        vec = [rng.randint(0, maxdeg) for _ in range(rng.randint(1, maxlen))]
        t = exp_tuple(vec)
        if 0 < sum(t) <= maxdeg:
            return t


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_ring_axioms(seed: int, samples: int = 30,
                      primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("ring_axioms", seed)
    rng = random.Random(seed)
    for p in primes:
        for _ in range(samples):
            f = random_poly(rng, p, p, 2, 3, 4)
            g = random_poly(rng, p, p, 2, 3, 4)
            h = random_poly(rng, p, p, 2, 3, 4)
            res.require(f + g == g + f, f"add commutativity p={p}")
            res.require(f * g == g * f, f"mul commutativity p={p}")
            res.require((f * g) * h == f * (g * h), f"associativity p={p}")
            res.require(f * (g + h) == f * g + f * h, f"distributivity p={p}")
            res.require((f + (-f)).is_zero, f"cancellation p={p}")
            res.require(frobenius(f + g) == frobenius(f) + frobenius(g),
                        f"frobenius additivity p={p}")
            res.require(frobenius(f * g) == frobenius(f) * frobenius(g),
                        f"frobenius multiplicativity p={p}")
            res.require(frobenius(f) == f ** p, f"frobenius is p-th power p={p}")
    return res


def _naive_mul(f: Poly, g: Poly) -> Poly:
    # Flat double loop over dense exponent lists; independent of Poly.mul's
    # internal merge.
    nrows = f.nrows
    width = max(f.max_col, g.max_col, 1)
    raw: list[tuple[tuple[int, ...], int]] = []
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            va, vb = ma.dense(nrows, width), mb.dense(nrows, width)
            raw.append((tuple(x + y for x, y in zip(va, vb)), ca * cb))
    acc: dict[tuple[int, ...], int] = {}
    for vec, c in raw:
        acc[vec] = acc.get(vec, 0) + c
    terms = {}
    for vec, c in acc.items():
        pairs = [
            (idx // width + 1, idx % width + 1, e)
            for idx, e in enumerate(vec) if e
        ]
        terms[Monomial.of(pairs)] = c
    return Poly(f.char, nrows, terms)


def suite_mul_oracle(seed: int, samples: int = 25, primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("mul_oracle", seed)
    rng = random.Random(seed)
    for p in primes:
        for _ in range(samples):
            f = random_poly(rng, p, p, 2, 3, 6)
            g = random_poly(rng, p, p, 2, 3, 6)
            res.require(f * g == _naive_mul(f, g), f"mul oracle p={p}")
    return res


def check_gamma_identities(rng: random.Random, p: int, samples: int,
                           res: SuiteResult, max_extra: int = 2,
                           width: int = 3) -> None:
    for _ in range(samples):
        d = rng.randint(0, p + max_extra)
        s = random_one_row(rng, p, width, 2, 3)
        t = random_one_row(rng, p, width, 2, 3)
        lam = rng.randrange(p)
        # scaling identity
        lhs = gamma(d, s.scale(lam), width=width)
        rhs = gamma(d, s, width=width).scale(pow(lam, d, p))
        res.require(lhs == rhs, f"gamma scaling p={p} d={d}")
        # additivity across shuffles
        if d <= p + max_extra:
            lhs2 = gamma(d, s + t, width=width)
            acc = None
            for d1 in range(d + 1):
                piece = shuffle(gamma(d1, s, width=width),
                                gamma(d - d1, t, width=width))
                acc = piece if acc is None else acc + piece
            res.require(lhs2 == acc, f"gamma additivity p={p} d={d}")
        # merge multiplicity
        e = rng.randint(0, max(0, p + max_extra - d))
        lhs3 = shuffle(gamma(d, s, width=width), gamma(e, s, width=width))
        rhs3 = gamma(d + e, s, width=width).scale(comb(d + e, e) % p)
        res.require(lhs3 == rhs3, f"gamma merge p={p} d={d} e={e}")


def suite_gamma_identities(seed: int, samples: int = 20,
                           primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("gamma_identities", seed)
    rng = random.Random(seed)
    for p in primes:
        check_gamma_identities(rng, p, samples, res)
    return res


def suite_shuffle_algebra(seed: int, samples: int = 10,
                          primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("shuffle_algebra", seed)
    rng = random.Random(seed)
    for p in primes:
        for _ in range(samples):
            degs = [rng.randint(0, 2) for _ in range(3)]
            xs = [
                gamma(degs[i], random_one_row(rng, p, 2, 2, 2), width=2)
                for i in range(3)
            ]
            res.require(shuffle(xs[0], xs[1]) == shuffle(xs[1], xs[0]),
                        f"shuffle commutativity p={p}")
            res.require(
                shuffle(shuffle(xs[0], xs[1]), xs[2])
                == shuffle(xs[0], shuffle(xs[1], xs[2])),
                f"shuffle associativity p={p}",
            )
    return res


def _elementary_extraction_oracle(alpha, p: int, width: int) -> Poly:
    # Coefficient of prod_c t_c^alpha_c in prod_r (1 + sum_c t_c x[r,c]):
    # walk the rows, each picking a column or skipping.
    alpha = exp_tuple(alpha)
    target = tuple(alpha) + (0,) * (width - len(alpha))
    total: dict[Monomial, int] = {}

    def rec(r: int, counts: tuple[int, ...], pairs):
        if any(c > t for c, t in zip(counts, target)):
            return
        if r > p:
            if counts == target:
                m = Monomial.of(pairs)
                total[m] = total.get(m, 0) + 1
            return
        rec(r + 1, counts, pairs)
        for c in range(1, width + 1):
            bumped = tuple(
                v + (1 if i == c - 1 else 0) for i, v in enumerate(counts)
            )
            rec(r + 1, bumped, pairs + [(r, c, 1)])

    rec(1, (0,) * width, [])
    return Poly(p, p, total)


def suite_constructor_oracles(seed: int, samples: int = 12,
                              primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("constructor_oracles", seed)
    rng = random.Random(seed)
    for p in primes:
        for _ in range(samples):
            alpha = random_tuple(rng, 3, 4)
            width = max(len(alpha), 1)
            # power sum against an independent row-by-row build
            expected = Poly.zero(p, p)
            for r in range(1, p + 1):
                expected = expected + Poly.monomial(p, p, row_monomial(alpha, r))
            res.require(power_sum(alpha, p, width) == expected,
                        f"power sum rows p={p} alpha={alpha}")
            # orbit sums are invariant
            m = Monomial.of([
                (rng.randint(1, p), rng.randint(1, 2), rng.randint(1, 2))
                for _ in range(rng.randint(1, 3))
            ])
            res.require(is_invariant(orbit_sum(m, p)),
                        f"orbit sum invariance p={p}")
        # elementary against coefficient extraction, exhaustively small
        for alpha in [(1,), (2,), (1, 1), (0, 1), (1, 0, 1)][: 4 + p]:
            if sum(alpha) > p:
                continue
            width = max(len(exp_tuple(alpha)), 1)
            res.require(
                elementary(alpha, p, width)
                == _elementary_extraction_oracle(alpha, p, width),
                f"elementary extraction p={p} alpha={alpha}",
            )
    return res


def suite_newton(seed: int, samples: int = 0, primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("newton", seed)
    for p in (2, 3, 5):
        res.require(check_newton_tilde(p), f"integer Newton identity p={p}")
    for p in primes:
        for alpha in tuples_up_to(6, 2):
            for r in (1, 2):
                if len(alpha) >= r and alpha[r - 1] >= p:
                    terms = newton_rewrite(alpha, r, p)  # self-checks inside
                    res.require(bool(terms), f"newton rewrite p={p} {alpha}")
        # the unsigned variant must fail somewhere for odd p
        if p % 2:
            bad = newton_terms((p,), 1, p, signed=False)
            res.require(
                expand_newton_terms(bad, p, 1) != power_sum((p,), p, 1),
                f"unsigned variant should fail at p={p}",
            )
    return res


def suite_flattening(seed: int, samples: int = 0, primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("flattening", seed)
    res.require(flatten_tuple((5,), 1, 3) == (3, 2), "flatten (5) at p=3")
    res.require(flatten_tuple((4,), 1, 3) == (3, 1), "flatten (4) at p=3")
    for p in primes:
        for alpha in tuples_up_to(6, 2):
            for col in range(1, len(alpha) + 1):
                if alpha[col - 1] % p:
                    # flatten_tuple verifies the polarization internally
                    flatten_tuple(alpha, col, p)
                    res.ok()
    return res


def suite_polarization(seed: int, samples: int = 20,
                       primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("polarization", seed)
    rng = random.Random(seed)
    for p in primes:
        res.require(validate_polarization_closed_form(p) is True,
                    f"generator closed form p={p}")
        for _ in range(samples):
            f = random_poly(rng, p, p, 2, 3, 4)
            g = random_poly(rng, p, p, 2, 3, 4)
            a, b = (1, 2) if rng.random() < 0.5 else (2, 1)
            i = rng.randint(0, p)
            lhs = polarize_raw(f * g, a, b, i)
            rhs = Poly.zero(p, p)
            for j in range(i + 1):
                rhs = rhs + polarize_raw(f, a, b, j) * polarize_raw(g, a, b, i - j)
            res.require(lhs == rhs, f"polarization Leibniz p={p} i={i}")
            res.require(polarize_raw(f, 1, 2, 0) == f, f"identity at i=0 p={p}")
    return res


def check_splitting_axioms(rng: random.Random, p: int, samples: int,
                           res: SuiteResult, width: int = 3,
                           maxdeg: int = 8) -> None:
    for _ in range(samples):
        da = rng.randint(0, maxdeg // p)
        db = rng.randint(0, maxdeg - p * da)
        a = random_invariant(rng, p, width, da, 2, homogeneous=True)
        b = random_invariant(rng, p, width, db, 2, homogeneous=True)
        res.require(
            frobenius_split(frobenius(a) * b) == a * frobenius_split(b),
            f"projection rule p={p}",
        )
        res.require(
            frobenius_split(a + b) == frobenius_split(a) + frobenius_split(b),
            f"additivity p={p}",
        )
        res.require(frobenius_split(frobenius(a)) == a, f"left inverse p={p}")
        img = frobenius_split(b)
        if not b.is_zero and b.homogeneous_degree and not img.is_zero:
            res.require(
                img.homogeneous_degree is not None
                and img.homogeneous_degree > 0
                and is_invariant(img),
                f"positive degree preservation p={p}",
            )
        else:
            res.ok()
    return None


def suite_splitting(seed: int, samples: int = 40, primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("splitting", seed)
    rng = random.Random(seed)
    for p in primes:
        check_splitting_axioms(rng, p, samples, res)
    return res


def suite_echelon(seed: int, samples: int = 8, primes=(2, 3)) -> SuiteResult:
    res = SuiteResult("echelon", seed)
    rng = random.Random(seed)
    for p in primes:
        for _ in range(samples):
            deg = rng.randint(1, 3)
            basis = SpanBasis(p, p, deg, 2)
            for _ in range(rng.randint(1, 6)):
                f = random_invariant(rng, p, 2, deg, 3, homogeneous=True)
                if f.is_zero or f.homogeneous_degree != deg:
                    continue
                basis.insert_poly(f)
            # idempotence: re-inserting any row must not grow the span
            grew = any(
                basis.insert_vector(basis.rows[i].copy())
                for i in range(basis.dim)
            )
            res.require(not grew, f"echelon idempotence p={p}")
            for i in range(basis.dim):
                coords = basis.contains(basis.row_poly(i))
                res.require(coords == {i: 1}, f"row self-membership p={p}")
    return res


def suite_minimal_generators(seed: int, samples: int = 0) -> SuiteResult:
    res = SuiteResult("minimal_generators", seed)
    for p, n, dmax in ((2, 2, 4), (3, 2, 3)):
        for d in range(1, dmax + 1):
            rep = square_ideal_quotient(d, n, p)
            res.require(
                rep.match,
                f"quotient mismatch p={p} n={n} d={d}: "
                f"dim={rep.dim_quotient} predicted={rep.predicted_count}",
            )
    return res


def suite_membership(seed: int, samples: int = 0) -> SuiteResult:
    res = SuiteResult("membership", seed)
    for p in (2, 3):
        for d in range(1, 5):
            dim_p = p_algebra_span(d, 2, p).dim
            dim_g = gamma_basis(d, 2, p).dim
            res.require(dim_p <= dim_g, f"P inside invariants p={p} d={d}")
        # p-th powers of small bounded tuples are in the generator algebra
        for alpha in [(1,), (1, 1)]:
            target = power_sum(tuple(p * a for a in alpha), p, len(alpha))
            res.require(in_p_algebra(target) is not None,
                        f"p-th power membership p={p} alpha={alpha}")
        # every generator is in the algebra generated by polarizing the
        # first column's generators, and conversely
        width = 2
        for beta in tuples_up_to(p, width):
            basis_deg = sum(beta)
            algebra = _polarized_column_algebra(p, width, basis_deg)
            res.require(
                algebra.contains(elementary(beta, p, width)) is not None,
                f"generator reachable by polarization p={p} beta={beta}",
            )
        for i in range(1, p + 1):
            closure = gl_span(elementary((i,), p, width), width)
            full = SpanBasis(p, p, i, width)
            for beta in tuples_up_to(p, width):
                if sum(beta) == i:
                    full.insert_poly(elementary(beta, p, width))
            for k in range(closure.dim):
                res.require(
                    full.contains(closure.row_poly(k)) is not None,
                    f"polarized generator stays elementary p={p} i={i}",
                )
    return res


def _polarized_column_algebra(p: int, width: int, deg: int) -> SpanBasis:
    # span of degree-`deg` products of column-closure images of the
    # one-column generators
    pieces: dict[int, list[Poly]] = {}
    for i in range(1, p + 1):
        closure = gl_span(elementary((i,), p, width), width)
        pieces[i] = closure.row_polys()
    basis = SpanBasis(p, p, deg, width)

    def rec(start: int, remaining: int, product: Poly):
        if remaining == 0:
            basis.insert_poly(product)
            return
        for i in range(start, p + 1):
            if i > remaining:
                break
            for piece in pieces[i]:
                rec(i, remaining - i, product * piece)

    rec(1, deg, Poly.one(p, p))
    return basis


def suite_gl_spans(seed: int, samples: int = 0) -> SuiteResult:
    res = SuiteResult("gl_spans", seed)
    g = gl_span(power_sum((1,), 2, 2), 2)
    res.require(g.dim == 2, "closure of M(1) at p=2 has dimension 2")
    g2 = gl_span(power_sum((5,), 3, 2), 2)
    res.require(g2.contains(power_sum((3, 2), 3, 2)) is not None,
                "closure of M(5) reaches M(3,2) at p=3")
    for p in (2, 3):
        for alpha in [(2,), (1, 1), (3,)]:
            if sum(alpha) > 3:
                continue
            width = 2
            seed_poly = power_sum(alpha, p, width)
            span = gl_span(seed_poly, width)
            # the same closure computed on one-row polynomials and embedded
            one_row = Poly.monomial(p, 1, row_monomial(exp_tuple(alpha), 1))
            model = gl_span(one_row, width)
            embedded = SpanBasis(p, p, sum(alpha), width)
            for i in range(model.dim):
                embedded.insert_poly(embed_one_row(model.row_poly(i), p))
            res.require(spans_equal(span, embedded),
                        f"one-row model commutes p={p} alpha={alpha}")
            # widening the divided-power range must not add anything new
            widened = gl_span(seed_poly, width, divided_cap=sum(alpha))
            res.require(spans_equal(span, widened),
                        f"full divided closure agrees p={p} alpha={alpha}")
    return res


def suite_certificates(seed: int, samples: int = 0) -> SuiteResult:
    res = SuiteResult("certificates", seed)
    for p, maxdeg in ((2, 3), (3, 2)):
        for alpha in tuples_up_to(maxdeg, 2):
            cert = certify_power_sum(tuple(p * a for a in alpha), p,
                                     verify_on_build=False)
            res.require(verify(cert), f"certificate verifies p={p} {alpha}")
            res.require(replay_matches(cert), f"trace replays p={p} {alpha}")
            d = sum(p * a for a in alpha)
            res.require(
                all(sum(map(sum, fs)) == d for _, fs in cert.terms),
                f"degree bookkeeping p={p} {alpha}",
            )
    # mutation control: flipping one coefficient must break verification
    cert = certify_power_sum((3, 3), 3)
    broken = Certificate.from_json_obj(cert.to_json_obj())
    coeff, factors = broken.terms[0]
    broken.terms[0] = (3 - coeff, factors)
    res.require(not verify(broken), "perturbed certificate is rejected")
    return res


def suite_mutation_control(seed: int, samples: int = 0) -> SuiteResult:
    # Deliberately broken identity: the unsigned Newton combination at p=3.
    # This suite exists to prove that a red result is visible; it is only
    # included when mutation injection is requested.
    res = SuiteResult("mutation_control", seed)
    bad = newton_terms((3,), 1, 3, signed=False)
    res.require(
        expand_newton_terms(bad, 3, 1) == power_sum((3,), 3, 1),
        "injected mutation: unsigned Newton combination",
    )
    return res


ALL_SUITES = [
    ("ring_axioms", suite_ring_axioms),
    ("mul_oracle", suite_mul_oracle),
    ("gamma_identities", suite_gamma_identities),
    ("shuffle_algebra", suite_shuffle_algebra),
    ("constructor_oracles", suite_constructor_oracles),
    ("newton", suite_newton),
    ("flattening", suite_flattening),
    ("polarization", suite_polarization),
    ("splitting", suite_splitting),
    ("echelon", suite_echelon),
    ("minimal_generators", suite_minimal_generators),
    ("membership", suite_membership),
    ("gl_spans", suite_gl_spans),
    ("certificates", suite_certificates),
]


def run_selftest(seed: int, samples: int = 25,
                 inject_mutation: bool = False) -> list[SuiteResult]:
    results = []
    suites = list(ALL_SUITES)
    if inject_mutation:
        suites.append(("mutation_control", suite_mutation_control))
    for offset, (name, fn) in enumerate(suites):
        results.append(fn(seed + offset, samples=samples))
    return results


def format_results(results: list[SuiteResult], seed: int,
                   samples: int) -> str:
    lines = [f"selftest prng=random.Random seed={seed} samples={samples}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name} checks={r.checks} seed={r.seed}")
        for msg in r.failures:
            lines.append(f"  counterexample: {msg}")
    npass = sum(1 for r in results if r.passed)
    lines.append(
        f"summary: {npass}/{len(results)} suites passed, "
        f"{sum(r.checks for r in results)} checks"
    )
    return "\n".join(lines) + "\n"
