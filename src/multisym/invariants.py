"""Row-permutation invariants: orbit sums, power sums, elementary
multisymmetric polynomials, and the divided-power / shuffle calculus.

The symmetric group on rows acts on the variable matrix by permuting rows;
the invariant subring is the ring of multisymmetric polynomials.  A row
orbit of monomials is the multiset of their row-exponent vectors, and its
key is that multiset as a sorted tuple of equal-width rows.  The key gives
the graded-lex orbit minimum (the rows in ascending order), the orbit
itself (the distinct arrangements of the rows) and the orbit size
(nrows! over the factorials of the row multiplicities), so no operation
here runs through all nrows! row permutations.  Working elements:

* orbit sum T_m:   sum of the distinct monomials in the row orbit of m.
* power sum M_alpha:   sum over rows r of prod_c x[r,c]^alpha_c.
* elementary E_alpha (|alpha| <= p):   sum over choices of pairwise
  disjoint row subsets B_c with |B_c| = alpha_c of prod_c prod_{r in B_c}
  x[r,c]; for alpha = i*e_j this is the i-th elementary symmetric
  polynomial of column j.

Symmetric tensors of degree d are represented concretely as
row-permutation-invariant polynomials in a d-row matrix; gamma(d, s) is
the product of d row copies of a one-row polynomial s, and the shuffle
product of tensors of degrees d and e distributes their rows over the
d+e available slots in all order-preserving ways.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from operator import add
from typing import Iterator

from .exptuples import (
    ExpTuple, compositions, degree as tdeg, exp_tuple, length as tlen,
)
from .poly import Monomial, Poly

# Symmetric tensors beyond this degree margin over p are out of scope.
TENSOR_DEGREE_MARGIN = 4


# A row multiset: a sorted tuple of equal-width row-exponent vectors.
OrbitKey = tuple[tuple[int, ...], ...]

_ORBIT_MIN_CACHE: dict[tuple, Monomial] = {}


def orbit_key(m: Monomial, nrows: int, width: int = 0) -> OrbitKey:
    """The row multiset of m: its `nrows` row-exponent vectors, padded to
    the width of m (or to `width` when that is wider), in ascending order.
    Equal keys of one width mean one row orbit."""
    if m.max_row > nrows:
        raise ValueError(f"monomial {m} does not fit in {nrows} rows")
    rows = [[0] * max(m.max_col, width) for _ in range(nrows)]
    for r, c, e in m:
        rows[r - 1][c - 1] = e
    return tuple(sorted(map(tuple, rows)))


def rows_monomial(rows) -> Monomial:
    """The monomial whose row r has the exponent vector rows[r-1]."""
    return Monomial((r, c, e) for r, row in enumerate(rows, start=1)
                    for c, e in enumerate(row, start=1) if e)


def _arrangements(rows: tuple) -> Iterator[tuple]:
    """Each distinct ordering of the sorted tuple `rows` once."""
    if len(rows) <= 1:
        yield rows
        return
    for i, row in enumerate(rows):
        if i == 0 or row != rows[i - 1]:
            for rest in _arrangements(rows[:i] + rows[i + 1:]):
                yield (row,) + rest


def row_orbit(m: Monomial, nrows: int) -> set[Monomial]:
    """Distinct images of m under all row permutations: one per distinct
    arrangement of its row multiset."""
    return {rows_monomial(rows) for rows in _arrangements(orbit_key(m, nrows))}


@lru_cache(maxsize=None)
def orbit_size(m: Monomial, nrows: int) -> int:
    """Size of the row orbit of m: nrows! over the factorials of the row
    multiplicities."""
    return _orbit_size(tuple(Counter(orbit_key(m, nrows)).values()))


def orbit_sum(m: Monomial, p: int, nrows: int | None = None) -> Poly:
    """Sum of the distinct monomials in the row orbit of m, coefficient 1."""
    rows = p if nrows is None else nrows
    return Poly(p, rows, {mm: 1 for mm in row_orbit(m, rows)})


def orbit_min(m: Monomial, nrows: int) -> Monomial:
    """Canonical orbit representative: the graded-lex minimum of the row
    orbit, which is m with its rows sorted ascending."""
    key = (m, nrows)
    rep = _ORBIT_MIN_CACHE.get(key)
    if rep is None:
        rep = _ORBIT_MIN_CACHE[key] = rows_monomial(orbit_key(m, nrows))
    return rep


def orbit_coefficients(f: Poly) -> dict[Monomial, int] | None:
    """f over the orbit-sum basis, as orbit representative -> coefficient,
    or None when f is not row invariant."""
    coeffs: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        if coeffs.setdefault(orbit_min(m, f.nrows), c) != c:
            return None
    # each orbit holds at most orbit_size terms, so equal totals mean full orbits
    if sum(orbit_size(rep, f.nrows) for rep in coeffs) != len(f.terms):
        return None
    return coeffs


def _classes(key: OrbitKey) -> tuple[tuple, tuple[int, ...]]:
    """The distinct rows of an orbit key and their multiplicities."""
    values: list = []
    mults: list[int] = []
    for row in key:
        if values and values[-1] == row:
            mults[-1] += 1
        else:
            values.append(row)
            mults.append(1)
    return tuple(values), tuple(mults)


def _orbit_size(mults: tuple[int, ...]) -> int:
    """nrows! over the factorials of the row multiplicities."""
    return factorial(sum(mults)) // prod(map(factorial, mults))


@lru_cache(maxsize=1 << 14)
def _tables(amults: tuple[int, ...], bmults: tuple[int, ...]):
    """Every way to lay the rows of b, in classes of l_j equal rows
    (bmults), onto the rows of a, in classes of k_i equal rows (amults):
    the matrices n >= 0 with row sums k and column sums l.

    A matrix is returned as the flat index i * len(bmults) + j of each row
    pair, repeated n_ij times, with the number prod_i k_i! / prod_j n_ij!
    of arrangements of b's rows against a's that it stands for.
    """
    nb = len(bmults)

    def rec(i: int, left: tuple[int, ...]):
        if i == len(amults):
            yield (), 1
            return
        for split in compositions(amults[i], nb):
            if all(n <= free for n, free in zip(split, left)):
                rest = tuple(free - n for free, n in zip(left, split))
                here = tuple(i * nb + j for j, n in enumerate(split)
                             for _ in range(n))
                for pairs, count in rec(i + 1, rest):
                    yield here + pairs, _orbit_size(split) * count

    return tuple(rec(0, bmults))


@lru_cache(maxsize=1 << 16)
def _shared(key: OrbitKey) -> OrbitKey:
    """One stored copy of each orbit key, so that the memoized products
    share their keys."""
    return key


def _orbit_pair(a: OrbitKey, b: OrbitKey) -> tuple:
    """T_a * T_b over Z, flattened as m1, c1, m2, c2, ...: each orbit m of
    the product with its coefficient |orb a| N(a, b, m) / |orb m|.

    N(a, b, m) counts the distinct arrangements y of the rows of b for
    which the rows of a + y form the multiset m; arrangements are counted
    by classes of equal rows (`_tables`), never one by one.  The quotient
    is the coefficient of the monomial m in T_a T_b, so the division is
    exact in Z.  It is never taken mod p, because p may divide orbit
    sizes.
    """
    avals, amults = _classes(a)
    bvals, bmults = _classes(b)
    at = [tuple(map(add, r, s)) for r in avals for s in bvals].__getitem__
    count: dict[OrbitKey, int] = defaultdict(int)
    for pairs, n in _tables(amults, bmults):
        count[tuple(sorted(map(at, pairs)))] += n
    size_a = _orbit_size(amults)
    return tuple(
        x for m, n in count.items()
        for x in (_shared(m), size_a * n // _orbit_size(_classes(m)[1]))
    )


_memo_orbit_pair = lru_cache(maxsize=1 << 14)(_orbit_pair)


def orbit_product(f: dict[OrbitKey, int], g: dict[OrbitKey, int],
                  p: int) -> dict[OrbitKey, int]:
    """The product of two invariants over GF(p), in orbit coordinates.

    f and g map orbit keys (sorted row multisets, all with the same row
    count and width) to coefficients; so does the result, whose zero
    coefficients are dropped.  f * g = sum_b g_b sum_a f_a T_a T_b, with
    the integer structure constants of T_a T_b from `_orbit_pair`.

    T_a T_b is memoized when T_b is a generator E_beta (no row of b sums
    to more than 1): the generator products of the spans are built factor
    by factor from these, and their prefixes share most of their orbits,
    so each such T_a T_b recurs.  A product by any other orbit (the
    T_a T_b of `square_span`) rarely recurs, and is computed and not kept.
    """
    acc: dict[OrbitKey, int] = defaultdict(int)
    for b, gb in g.items():
        generator = all(sum(row) <= 1 for row in b)
        pair = _memo_orbit_pair if generator else _orbit_pair
        for a, fa in f.items():
            coeff = fa * gb
            terms = iter(pair(a, b))
            for m, c in zip(terms, terms):
                acc[m] += coeff * c
    out: dict[OrbitKey, int] = {}
    for m, c in acc.items():
        c %= p
        if c:
            out[m] = c
    return out


def row_monomial(alpha: ExpTuple, r: int) -> Monomial:
    """The monomial prod_c x[r,c]^alpha_c living in row r."""
    return Monomial.of((r, c + 1, e) for c, e in enumerate(alpha) if e)


def power_sum(alpha, p: int, width: int) -> Poly:
    """M_alpha = sum over rows r of prod_c x[r,c]^alpha_c.

    Homogeneous of degree |alpha|.  The zero tuple gives p copies of 1,
    which vanish in characteristic p.
    """
    alpha = exp_tuple(alpha)
    if tlen(alpha) > width:
        raise ValueError(
            f"tuple {alpha} has length {tlen(alpha)} > width {width}"
        )
    terms: dict[Monomial, int] = {}
    for r in range(1, p + 1):
        m = row_monomial(alpha, r)
        terms[m] = terms.get(m, 0) + 1
    return Poly(p, p, terms)


def elementary_key(alpha, p: int, width: int) -> OrbitKey:
    """The orbit key of E_alpha (|alpha| <= p) at `width` columns: alpha_c
    unit rows e_c for each column c, and p - |alpha| zero rows."""
    alpha = exp_tuple(alpha)
    if tdeg(alpha) > p:
        raise ValueError(f"|{alpha}| = {tdeg(alpha)} exceeds p = {p}")
    if tlen(alpha) > width:
        raise ValueError(
            f"tuple {alpha} has length {tlen(alpha)} > width {width}"
        )
    rows = [(0,) * width] * (p - tdeg(alpha))
    for c, e in enumerate(alpha):
        rows += [(0,) * c + (1,) + (0,) * (width - c - 1)] * e
    return tuple(sorted(rows))


def elementary(alpha, p: int, width: int) -> Poly:
    """E_alpha for |alpha| <= p: the orbit sum of the block monomial that
    stacks alpha_c distinct rows with exponent 1 in each column c.

    Built apart from `elementary_key`, so the certificate verifier and the
    tests that take their E_alpha from here check the spans' keys against
    an independent construction."""
    alpha = exp_tuple(alpha)
    if tdeg(alpha) > p:
        raise ValueError(f"|{alpha}| = {tdeg(alpha)} exceeds p = {p}")
    if tlen(alpha) > width:
        raise ValueError(
            f"tuple {alpha} has length {tlen(alpha)} > width {width}"
        )
    if not alpha:
        return Poly.one(p, p)
    pairs = []
    row = 1
    for c, e in enumerate(alpha, start=1):
        for _ in range(e):
            pairs.append((row, c, 1))
            row += 1
    return orbit_sum(Monomial.of(pairs), p)


def elementary_column(i: int, col: int, p: int, width: int | None = None) -> Poly:
    """The i-th elementary symmetric polynomial in the variables of one column."""
    if not (0 <= i <= p):
        raise ValueError(f"elementary index {i} out of range 0..{p}")
    if col < 1:
        raise ValueError(f"columns are 1-based, got {col}")
    w = width if width is not None else col
    return elementary((0,) * (col - 1) + (i,) if i else (), p, w)


def is_invariant(f: Poly) -> bool:
    """True iff every row permutation fixes f, read off its orbit coordinates."""
    return orbit_coefficients(f) is not None


@dataclass(frozen=True, eq=False)
class SymTensor:
    """A degree-d symmetric tensor, stored as a row-invariant polynomial in
    a d-row matrix.  Degree-0 tensors are scalars (0-row polynomials)."""

    degree: int
    width: int
    body: Poly

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("tensor degree must be >= 0")
        if self.body.nrows != self.degree:
            raise ValueError(
                f"body has {self.body.nrows} rows, expected {self.degree}"
            )
        if self.body.max_col > self.width:
            raise ValueError("body uses columns beyond the declared width")
        if not is_invariant(self.body):
            raise ValueError("tensor body is not row-permutation invariant")

    @property
    def char(self) -> int:
        return self.body.char

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if self.degree != other.degree:
            raise ValueError("cannot add tensors of different degrees")
        return SymTensor(self.degree, max(self.width, other.width),
                         self.body + other.body)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return self.degree == other.degree and self.body == other.body

    def scale(self, k: int) -> "SymTensor":
        return SymTensor(self.degree, self.width, self.body.scale(k))


def _check_tensor_degree(d: int, p: int) -> None:
    if d > p + TENSOR_DEGREE_MARGIN:
        raise ValueError(
            f"tensor degree {d} exceeds the supported cap p+{TENSOR_DEGREE_MARGIN}"
        )


def gamma(d: int, s: Poly, width: int | None = None) -> SymTensor:
    """The d-th divided power of a one-row polynomial: d tensor copies of s,
    concretely the product of s written in rows 1..d."""
    if d < 0:
        raise ValueError("divided-power degree must be >= 0")
    if s.nrows > 1:
        raise ValueError("gamma expects a polynomial in a single row")
    _check_tensor_degree(d, s.char)
    w = width if width is not None else max(s.max_col, 1)
    body = Poly.one(s.char, d)
    for r in range(1, d + 1):
        body = body * s.map_rows({1: r}, d)
    return SymTensor(d, w, body)


def shuffle(x: SymTensor, y: SymTensor) -> SymTensor:
    """Shuffle product: distribute the rows of x and y over d+e slots in all
    ways that keep each factor's internal row order, then add everything up.
    Coinciding results merge modulo p, which is where binomial coefficients
    mod p enter."""
    if x.char != y.char:
        raise ValueError("prime mismatch in shuffle")
    if x.width != y.width:
        raise ValueError(
            f"width mismatch in shuffle: {x.width} vs {y.width}"
        )
    d, e = x.degree, y.degree
    _check_tensor_degree(d + e, x.char)
    p = x.char
    total = Poly.zero(p, d + e)
    for slots in combinations(range(1, d + e + 1), d):
        rest = [k for k in range(1, d + e + 1) if k not in slots]
        xmap = {i + 1: slots[i] for i in range(d)}
        ymap = {i + 1: rest[i] for i in range(e)}
        xb = x.body.map_rows(xmap, d + e)
        yb = y.body.map_rows(ymap, d + e)
        total = total + xb * yb
    return SymTensor(d + e, x.width, total)
