"""Differential tests for `invariants.orbit_product`, the product of
invariants in orbit coordinates, against the full monomial product
`Poly.__mul__` read back through `orbit_coefficients`; and a guard that
the spans built from products never expand a product in monomial form."""

import random

import pytest

from multisym.exptuples import tuples_up_to
from multisym.invariants import (
    elementary, elementary_key, orbit_coefficients, orbit_key, orbit_product,
    orbit_size, orbit_sum, power_sum, rows_monomial,
)
from multisym.poly import Monomial, Poly
from multisym.selftest import random_invariant
from multisym.spans import (
    ideal_truncation_span, orbit_keys, p_algebra_span, p_multidegree_span,
    square_span,
)

PRIMES = (2, 3, 5, 7)


def coords(f: Poly, width: int) -> dict:
    """f in orbit coordinates at `width` columns (the kernel's input)."""
    return {orbit_key(rep, f.nrows, width): c
            for rep, c in orbit_coefficients(f).items()}


def reference(f: Poly, g: Poly) -> dict:
    """orbit_coefficients of the full monomial product."""
    return orbit_coefficients(f * g)


def as_reps(h: dict) -> dict:
    """Kernel output keyed like `orbit_coefficients`: a sorted row
    multiset is its orbit's graded-lex minimal monomial."""
    return {rows_monomial(key): c for key, c in h.items()}


def check(f: Poly, g: Poly, width: int) -> dict:
    p = f.char
    out = orbit_product(coords(f, width), coords(g, width), p)
    assert as_reps(out) == reference(f, g)
    assert all(0 < c < p for c in out.values())
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_random_invariants(p):
    rng = random.Random(100 + p)
    maxdeg, samples = (3, 40) if p < 7 else (2, 12)
    for _ in range(samples):
        width = rng.randint(1, 3)
        f = random_invariant(rng, p, width, maxdeg, 3)
        g = random_invariant(rng, p, width, maxdeg, 3)
        check(f, g, width)
        check(g, f, width)


@pytest.mark.parametrize("p", PRIMES)
def test_single_orbit_factors(p):
    """T_a * T_b for every pair of orbits of low degree, at width 2.  Many
    of these orbits have a size that p divides, so the quotient by |orb m|
    must be taken in Z before reducing mod p."""
    width, top = 2, (3 if p < 7 else 2)
    keys = [k for d in range(top + 1) for k in orbit_keys(p, width, d)]
    divisible = 0
    for a in keys:
        ta = orbit_sum(rows_monomial(a), p)
        for b in keys:
            if a > b:
                continue
            out = check(ta, orbit_sum(rows_monomial(b), p), width)
            divisible += sum(orbit_size(rows_monomial(m), p) % p == 0
                             for m in out)
    assert divisible > 0


@pytest.mark.parametrize("p", PRIMES)
def test_elementary_factors(p):
    """The products the generator spans take: an invariant times E_beta."""
    rng = random.Random(200 + p)
    width = 2
    for beta in ((1,), (0, 1), (1, 1), (2,), (p,), (p - 1, 1)):
        f = random_invariant(rng, p, width, 2, 3)
        check(f, elementary(beta, p, width), width)
        check(elementary(beta, p, width), elementary((1, 1), p, width), width)


@pytest.mark.parametrize("p", PRIMES)
def test_elementary_key_is_the_orbit_of_elementary(p):
    """The spans take E_beta as `elementary_key`; it must name the one
    orbit of the block-monomial construction in `elementary`."""
    for width in (1, 2, 3):
        for beta in tuples_up_to(p, width):
            assert coords(elementary(beta, p, width), width) == {
                elementary_key(beta, p, width): 1}, (p, beta, width)
    assert elementary_key((), p, 2) == ((0, 0),) * p


@pytest.mark.parametrize("p", PRIMES)
def test_zero_and_constant(p):
    width = 2
    one = ((0,) * width,) * p
    rng = random.Random(300 + p)
    f = random_invariant(rng, p, width, 3, 3)
    zero = Poly.zero(p, p)
    assert orbit_product({}, coords(f, width), p) == {}
    assert orbit_product(coords(f, width), {}, p) == {}
    assert check(zero, f, width) == {}
    for c in range(1, p):
        const = Poly.const(p, p, c)
        assert coords(const, width) == {one: c}
        scaled = check(const, f, width)
        assert as_reps(scaled) == orbit_coefficients(f.scale(c))
        assert check(f, const, width) == scaled
        assert orbit_product({one: c}, {one: p - c}, p) == {
            one: c * (p - c) % p}


@pytest.mark.parametrize("p", PRIMES)
def test_multi_orbit_second_factor(p):
    """f * g for a g spread over several orbits, and its additivity in g."""
    rng = random.Random(400 + p)
    width = 2
    for _ in range(6):
        f = random_invariant(rng, p, width, 2, 2, homogeneous=True)
        g = random_invariant(rng, p, width, 2, 4)
        out = check(f, g, width)
        parts = [orbit_product(coords(f, width), {b: c}, p)
                 for b, c in coords(g, width).items()]
        total: dict = {}
        for part in parts:
            for m, c in part.items():
                total[m] = (total.get(m, 0) + c) % p
        assert {m: c for m, c in total.items() if c} == out


def random_monomial(rng: random.Random, nrows: int) -> Monomial:
    return Monomial.of(
        (rng.randint(1, nrows), rng.randint(1, 2), rng.randint(1, 2))
        for _ in range(rng.randint(0, 3)))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_other_row_counts(p):
    """Keys of one row (the one-row model) and of two rows."""
    rng = random.Random(500 + p)
    for nrows in (1, 2):
        for _ in range(10):
            f, g = (orbit_sum(random_monomial(rng, nrows), p, nrows)
                    for _ in range(2))
            check(f, g, 2)


def test_exact_division_in_z():
    """In two rows, (x1 + x2)^2 = T_(0,2) + 2 T_(1,1).  The kernel sums 2
    for the orbit of (0,2), whose size is 2: reducing mod 2 before dividing
    would lose the term."""
    a = ((0,), (1,))
    assert orbit_product({a: 1}, {a: 1}, 2) == {((0,), (2,)): 1}
    assert orbit_product({a: 1}, {a: 1}, 3) == {((0,), (2,)): 1,
                                                 ((1,), (1,)): 2}


# -- the spans keep products in orbit coordinates -----------------------------

@pytest.mark.parametrize("p", (2, 3, 5))
def test_spans_never_expand_a_monomial_product(monkeypatch, p):
    def no_expansion(self, other):
        raise AssertionError("a product was expanded in monomial form")

    monkeypatch.setattr(Poly, "__mul__", no_expansion)
    target = power_sum((p, 1), p, 2)
    assert p_multidegree_span((p, 1), p).dim > 0
    assert p_multidegree_span((p, 1), p, stop_when_contains=target).dim > 0
    assert p_algebra_span(p, 2, p).dim > 0
    assert square_span(4, 2, p).dim > 0
    assert ideal_truncation_span(1, p, 2, p).dim > 0
    assert ideal_truncation_span(1, p + 1, 2, p).dim > 0
