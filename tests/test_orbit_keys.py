"""Differential tests: orbit operations on sorted row multisets against the
permutation-based reference that pushes a monomial through all p! row
maps, and the invariance test on orbit coordinates against the reference
that compares f with each adjacent row swap of it.  The references are
only affordable for p <= 5."""

import random
from itertools import permutations

import pytest

from multisym.exptuples import compositions
from multisym.invariants import (
    SymTensor, gamma, is_invariant, orbit_coefficients, orbit_key, orbit_min,
    orbit_size, orbit_sum, row_orbit, shuffle,
)
from multisym.operators import frobenius_split
from multisym.poly import Monomial, Poly, frobenius, grlex_key, iter_monomials
from multisym.selftest import random_invariant, random_one_row, random_poly
from multisym.spans import orbit_reps, orbit_reps_multidegree


# -- permutation-based reference ----------------------------------------------

def ref_row_orbit(m: Monomial, nrows: int) -> set[Monomial]:
    return {
        m.map_rows({i + 1: perm[i] for i in range(nrows)})
        for perm in permutations(range(1, nrows + 1))
    }


def ref_orbit_min(m: Monomial, nrows: int) -> Monomial:
    w = max(m.max_col, 1)
    return min(ref_row_orbit(m, nrows), key=lambda mm: mm.sort_key(nrows, w))


def ref_orbit_reps(nrows: int, width: int, deg: int) -> list[Monomial]:
    reps = {ref_orbit_min(m, nrows) for m in iter_monomials(nrows, width, deg)}
    return sorted(reps, key=lambda m: grlex_key(m, nrows, max(width, 1)))


def ref_frobenius_split(f: Poly) -> Poly:
    p = f.char
    result = Poly.zero(p, f.nrows)
    seen: set[Monomial] = set()
    for m, c in f.terms.items():
        if m in seen:
            continue
        orbit = ref_row_orbit(m, f.nrows)
        seen |= orbit
        if any(f.terms.get(mm, 0) != c for mm in orbit):
            raise ValueError("not row invariant")
        root = m.root(p)
        if root is not None:
            result = result + orbit_sum(root, p, f.nrows) * c
    return result


def ref_is_invariant(f: Poly) -> bool:
    """True iff f is fixed by every adjacent row transposition."""
    return all(
        f.map_rows({i: i + 1, i + 1: i}, f.nrows) == f
        for i in range(1, f.nrows)
    )


def random_monomial(rng: random.Random, nrows: int, width: int, max_exp: int) -> Monomial:
    return Monomial.of(
        (rng.randint(1, nrows), rng.randint(1, width), rng.randint(1, max_exp))
        for _ in range(rng.randint(0, 2 * nrows))
    )


# -- tests -------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_reps_match_reference(p):
    for width in range(4):
        for deg in range(4 if p == 5 else 6):
            ref = ref_orbit_reps(p, width, deg)
            assert orbit_reps(p, p, width, deg) == ref, (p, width, deg)
            for m in ref:
                assert orbit_size(m, p) == len(ref_row_orbit(m, p))
            for coldegs in compositions(deg, width):
                expected = [m for m in ref if m.column_degrees(width) == coldegs]
                assert orbit_reps_multidegree(p, coldegs) == expected, (p, coldegs)


def test_random_monomials_match_reference():
    rng = random.Random(2024)
    for _ in range(3000):
        p = rng.choice([2, 3, 5])
        m = random_monomial(rng, p, rng.randint(1, 3), 4)
        orbit = row_orbit(m, p)
        assert orbit == ref_row_orbit(m, p)
        assert orbit_min(m, p) == ref_orbit_min(m, p)
        assert orbit_size(m, p) == len(orbit)


def test_frobenius_split_matches_reference():
    rng = random.Random(77)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        f = Poly.zero(p, p)
        for _ in range(rng.randint(1, 4)):
            m = random_monomial(rng, p, 2, 3)
            if rng.random() < 0.5:
                m = m.power(p)
            f = f + orbit_sum(m, p) * rng.randint(1, p - 1)
        if rng.random() < 0.5:
            f = f + frobenius(f)
        assert frobenius_split(f) == ref_frobenius_split(f)
        assert orbit_coefficients(f) is not None


def test_non_invariant_input_is_rejected():
    p = 3
    m = Monomial.of([(1, 1, 3), (2, 2, 3)])
    f = orbit_sum(m, p)
    missing = Poly(p, p, dict(list(f.terms.items())[1:]))
    mixed = f + Poly.monomial(p, p, m)
    for g in (missing, mixed):
        assert orbit_coefficients(g) is None
        with pytest.raises(ValueError):
            ref_frobenius_split(g)
        with pytest.raises(ValueError):
            frobenius_split(g)


def test_monomial_beyond_nrows_is_rejected():
    m = Monomial.of([(1, 1, 1), (4, 2, 1)])
    for fn in (orbit_min, row_orbit, orbit_key, orbit_size):
        with pytest.raises(ValueError, match="does not fit in 3 rows"):
            fn(m, 3)
    with pytest.raises(ValueError):
        orbit_sum(m, 3)
    assert orbit_min(m, 4) == Monomial.of([(3, 2, 1), (4, 1, 1)])


def test_large_prime_orbit_sizes():
    # 11! row maps would not fit in memory; the multiset path never builds them
    m = Monomial.of([(1, 1, 1), (2, 1, 1), (3, 2, 2)])
    assert orbit_size(m, 11) == 11 * 10 * 9 // 2
    assert len(row_orbit(m, 11)) == orbit_size(m, 11)
    assert orbit_min(m, 11) == Monomial.of([(9, 2, 2), (10, 1, 1), (11, 1, 1)])
    # multisets of nonzero vectors in N^2 of total degree 3: 4 + 3*2 + 4
    assert len(orbit_reps(11, 11, 2, 3)) == 14


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_invariant_matches_swap_reference(p):
    rng = random.Random(100 + p)
    invariants = [orbit_sum(random_monomial(rng, p, 2, 3), p) for _ in range(40)]
    invariants += [random_invariant(rng, p, 2, 4, 4) for _ in range(40)]
    verdicts = []
    for f in invariants:
        assert is_invariant(f) and ref_is_invariant(f)
        if f.is_zero:
            continue
        # one coefficient changed, or one monomial dropped: the result stays
        # invariant only when that monomial's orbit is the monomial alone
        m = rng.choice(sorted(f.terms, key=lambda mm: mm.exps))
        changed = f + Poly.monomial(p, p, m, rng.randint(1, p - 1))
        dropped = Poly(p, p, {mm: c for mm, c in f.terms.items() if mm != m})
        for g in (changed, dropped):
            verdicts.append(is_invariant(g))
            assert verdicts[-1] == ref_is_invariant(g)
            assert verdicts[-1] == (orbit_size(m, p) == 1)
    assert False in verdicts
    for _ in range(80):
        f = random_poly(rng, p, p, 2, 3, 4)
        verdicts.append(is_invariant(f))
        assert verdicts[-1] == ref_is_invariant(f)
    assert True in verdicts


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_invariant_on_tensor_bodies(p):
    rng = random.Random(200 + p)
    for c in range(p + 1):
        body = Poly.const(p, 0, c)
        assert is_invariant(body) and ref_is_invariant(body)
        SymTensor(0, 1, body)
    for _ in range(20):
        s = random_one_row(rng, p, 2, 3, 4)
        assert is_invariant(s) and ref_is_invariant(s)
        x = SymTensor(1, 2, s)
        for d in range(3):
            body = shuffle(x, gamma(d, s, width=2)).body
            assert is_invariant(body) and ref_is_invariant(body)
        # a multi-row body written in one row only is not invariant
        lifted = s.map_rows({}, 2)
        verdict = is_invariant(lifted)
        assert verdict == ref_is_invariant(lifted)
        assert verdict == all(not m.exps for m in s.terms)
