"""Differential tests for the augmented echelon form of `SpanBasis`.

A basis stores each row as [echelon row | combination over the grown
candidates] in one buffer.  The dict-based bookkeeping it replaced is kept
here as the reference: rows in a list, reduced one pivot at a time, and
one {candidate: coefficient} dict per row, updated by hand.
"""

import random

import numpy as np
import pytest

from multisym.invariants import power_sum
from multisym.poly import Poly
from multisym.spans import SpanBasis, gamma_basis


# -- reference: rows and combination dicts kept side by side -------------------

class RefSpanBasis:
    def __init__(self, p, ncols):
        self.p = p
        self.ncols = ncols
        self.rows, self.pivots, self.labels, self.combos = [], [], [], []

    def reduce(self, vec):
        p = self.p
        res = vec % p
        coords = {}
        for r, c in enumerate(self.pivots):
            t = int(res[c])
            if t:
                res = (res - t * self.rows[r]) % p
                coords[r] = t
        return res, coords

    def insert_vector(self, vec, label=None):
        p = self.p
        res, coords = self.reduce(vec)
        nz = np.nonzero(res)[0]
        if nz.size == 0:
            return False
        pivot = int(nz[-1])
        inv = pow(int(res[pivot]), p - 2, p)
        newrow = (res * inv) % p
        k = len(self.labels)
        self.labels.append(label)
        combo = {k: inv % p}
        for r, t in coords.items():
            for cand, cf in self.combos[r].items():
                combo[cand] = (combo.get(cand, 0) - inv * t * cf) % p
        self.combos.append({cand: cf for cand, cf in combo.items() if cf})
        for r in range(len(self.rows)):
            t = int(self.rows[r][pivot])
            if t:
                self.rows[r] = (self.rows[r] - t * newrow) % p
                for cand, cf in self.combos[-1].items():
                    self.combos[r][cand] = (
                        self.combos[r].get(cand, 0) - t * cf) % p
                self.combos[r] = {
                    cand: cf for cand, cf in self.combos[r].items() if cf}
        self.rows.append(newrow)
        self.pivots.append(pivot)
        return True

    def contains_vector(self, vec):
        res, coords = self.reduce(vec)
        return None if np.any(res) else coords

    def contains_combo_vector(self, vec):
        coords = self.contains_vector(vec)
        if coords is None:
            return None
        combo = {}
        for r, t in coords.items():
            for cand, cf in self.combos[r].items():
                combo[cand] = (combo.get(cand, 0) + t * cf) % self.p
        return {cand: cf for cand, cf in combo.items() if cf}


def _as_dicts(combos):
    return [{int(j): int(c) for j, c in enumerate(row) if c} for row in combos]


def assert_same(new, ref):
    assert new.pivots == ref.pivots
    assert new.labels == ref.labels
    assert len(new.rows) == len(ref.rows) == new.dim
    for a, b in zip(new.rows, ref.rows):
        assert np.array_equal(a, b)
    assert _as_dicts(new.combos) == ref.combos


def _random_vector(rng, p, n):
    density = rng.choice((0.2, 0.5, 1.0))
    return np.array([rng.randrange(p) if rng.random() < density else 0
                     for _ in range(n)], dtype=np.int64)


def _queries(rng, p, n, inserted):
    yield np.zeros(n, dtype=np.int64)
    for _ in range(4):
        yield _random_vector(rng, p, n)
    for _ in range(4):
        combo = np.zeros(n, dtype=np.int64)
        for vec in rng.sample(inserted, min(3, len(inserted))):
            combo = combo + rng.randrange(p) * vec
        yield combo % p


# (p, rows, width, degree); at p = 31 and 61 a single product of residues
# overflows the buffer's 8-bit storage, so int64 arithmetic is checked too
CASES = [(2, 2, 2, 3), (2, 2, 3, 2), (3, 3, 2, 3), (3, 3, 2, 2),
         (5, 5, 2, 2), (5, 5, 2, 3), (7, 7, 2, 2), (7, 7, 2, 3),
         (31, 2, 3, 3), (61, 3, 2, 3)]


def _insertion_sequence(rng, p, n):
    """Random vectors mixed with zero vectors, repeats and combinations of
    earlier vectors; then every unit vector, so the basis reaches full
    rank; then more vectors inserted into the full-rank basis."""
    seen = []
    for step in range(3 * n):
        kind = rng.random()
        if n <= step < 2 * n:
            vec = np.eye(n, dtype=np.int64)[rng.randrange(n)]
        elif kind < 0.05:
            vec = np.zeros(n, dtype=np.int64)
        elif kind < 0.2 and seen:
            vec = rng.choice(seen).copy()
        elif kind < 0.35 and seen:
            a, b = rng.choice(seen), rng.choice(seen)
            vec = (rng.randrange(p) * a + rng.randrange(p) * b) % p
        else:
            vec = _random_vector(rng, p, n)
        seen.append(vec)
        if rng.random() < 0.2:
            vec = vec + p * rng.randrange(-2, 3)  # raw entries outside [0, p)
        yield vec
    for j in rng.sample(range(n), n):
        yield np.eye(n, dtype=np.int64)[j]
    for _ in range(n):
        yield _random_vector(rng, p, n)


@pytest.mark.parametrize("p,nrows,width,deg", CASES)
@pytest.mark.parametrize("seed", range(4))
def test_insertions_match_dict_reference(p, nrows, width, deg, seed):
    rng = random.Random(1000 * p + 100 * width + 10 * deg + seed)
    new = SpanBasis(p, nrows, deg, width)
    n = new.ncols
    ref = RefSpanBasis(p, n)
    inserted = []
    for step, vec in enumerate(_insertion_sequence(rng, p, n)):
        inserted.append(vec % p)
        label = ("cand", step)
        assert new.insert_vector(vec.copy(), label=label) == \
            ref.insert_vector(vec.copy(), label=label)
        assert_same(new, ref)
        if step % 5 == 0:
            for q in _queries(rng, p, n, inserted):
                assert new.contains_vector(q) == ref.contains_vector(q)
                f = new.poly_of(q)
                assert new.contains(f) == ref.contains_vector(q)
                assert new.contains_combo(f) == ref.contains_combo_vector(q)
    assert new.dim == n


def test_combination_reproduces_every_row():
    p = 5
    basis = SpanBasis(p, p, 3, 2)
    rng = random.Random(7)
    cands = []
    for _ in range(2 * basis.ncols):
        vec = _random_vector(rng, p, basis.ncols)
        if basis.insert_vector(vec):
            cands.append(vec)
    assert basis.dim == len(cands) == len(basis.labels)
    for row, combo in zip(basis.rows, basis.combos):
        assert np.array_equal(row, combo @ np.array(cands) % p)


def test_gamma_basis_is_identity_on_both_blocks():
    basis = gamma_basis(3, 2, 3)
    n = basis.ncols
    assert basis.pivots == list(range(n))
    assert np.array_equal(basis.rows, np.eye(n, dtype=np.int64))
    assert np.array_equal(basis.combos, np.eye(n, dtype=np.int64))
    assert basis.labels == [None] * n
    # full rank: nothing grows it, and every invariant is a combination
    assert not basis.insert_vector(np.ones(n, dtype=np.int64))
    f = power_sum((2, 1), 3, 2)
    assert basis.contains_combo(f) == basis.contains(f)


def test_vector_of_degree_check():
    p = 3
    basis = SpanBasis(p, p, 2, 2)
    # the right degree: coordinates, no error
    assert basis.vector_of(power_sum((1, 1), p, 2)) is not None
    assert not basis.vector_of(Poly.zero(p, p)).any()
    with pytest.raises(ValueError, match="degree mismatch"):
        basis.vector_of(power_sum((1, 2), p, 2))
    with pytest.raises(ValueError, match="degree mismatch"):
        basis.vector_of(power_sum((1, 1), p, 2) + power_sum((1,), p, 2))
    with pytest.raises(ValueError, match="degree mismatch"):
        basis.vector_of(Poly.variable(p, p, 1, 1))
    # the right degree but not invariant, or outside the basis columns
    x = Poly.variable(p, p, 1, 1)
    assert basis.vector_of(x * x) is None
    assert basis.vector_of(power_sum((1, 0, 1), p, 3)) is None




def test_vectors_in_the_storage_type_reduce_exactly():
    # the buffer holds residues in 8 bits; a vector of that type must still
    # be reduced in int64, where products of residues fit
    p = 61
    basis = SpanBasis(p, 2, 1, 3)
    basis.insert_vector(np.array([60, 60, 60]))
    basis.insert_vector(np.array([0, 60, 1]))
    assert basis.rows.dtype == np.uint8
    rows = basis.rows.astype(np.int64)
    vec = (59 * rows[0] + 58 * rows[1]) % p
    assert basis.contains_vector(vec.astype(np.uint8)) == {0: 59, 1: 58}
