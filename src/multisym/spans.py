"""Graded GF(p) linear algebra over spaces of row invariants.

Every subspace computation here works degree by degree.  Invariant
polynomials are coordinatized over the orbit-sum basis: one coordinate
column per row orbit, that is per multiset of p row-exponent vectors.
Columns are enumerated directly as nondecreasing tuples of rows (the
orbit key), named by the orbit's graded-lex minimal monomial (the rows in
ascending order) and listed in graded-lex order, so pivots are canonical.
Echelon forms are reduced, so span membership is a single pass of
back-substitution.

Products of invariants stay in orbit coordinates: the generator products,
the products of two orbit sums in `square_span` and the closure times
cofactor products of `ideal_truncation_span` are computed by
`invariants.orbit_product` on key -> coefficient maps and inserted with
`insert_coords`, so no product is expanded into monomials.  A `Poly`
(a target, a predicted generator, a `gl_span` seed) enters through
`vector_of`, which reads its orbit coefficients and maps them to a vector
by the same key index.

A SpanBasis always tracks, for every echelon row, its expression over
the candidate polynomials that grew the span: each row is stored
augmented with that combination, as in elimination on [A | I]; this is
what lets membership queries return explicit product combinations.

Dimension caps turn combinatorial blowups into CapExceeded rather than
hangs; the default cap of 20000 coordinate columns is generous for desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapExceeded
from .exptuples import (
    ExpTuple, compositions, degree as tdeg, scale, tuples_up_to,
)
from .invariants import (
    OrbitKey, elementary_column, elementary_key, is_invariant,
    orbit_coefficients, orbit_key, orbit_product, power_sum, row_orbit,
    rows_monomial,
)
from .operators import polarize_raw
from .poly import Monomial, Poly, prefix_products

DEFAULT_CAP = 20000


# ---------------------------------------------------------------------------
# Coordinate systems: orbit representatives per degree or column multidegree
# ---------------------------------------------------------------------------

def _row_multisets(nrows: int, coldegs: tuple[int, ...]):
    """Every multiset of `nrows` row vectors whose sum is `coldegs`, as its
    ascending tuple of rows, in lexicographic order."""
    def rec(k: int, lo: tuple[int, ...], rest: tuple[int, ...]):
        if k == 1:
            if rest >= lo:
                yield (rest,)
            return
        # this row is the least of the k rows left, which all lead with at
        # least its first entry, so that entry is at most rest[0] // k
        heads = range(lo[0], rest[0] // k + 1)
        for row in product(heads, *(range(e + 1) for e in rest[1:])):
            if row >= lo:
                left = tuple(a - b for a, b in zip(rest, row))
                for tail in rec(k - 1, row, left):
                    yield (row,) + tail

    if nrows == 0 or not coldegs:
        if not any(coldegs):
            yield (coldegs,) * nrows
        return
    yield from rec(nrows, (0,) * len(coldegs), coldegs)


def orbit_keys(nrows: int, width: int, deg: int) -> list[OrbitKey]:
    """The row orbits of degree-`deg` monomials in `width` columns, as
    their row multisets (rows of that width), in graded-lex order."""
    return sorted(
        rows for coldegs in compositions(deg, width)
        for rows in _row_multisets(nrows, coldegs)
    )


def orbit_reps(char: int, nrows: int, width: int, deg: int) -> list[Monomial]:
    """Canonical representatives of the row orbits of degree-`deg`
    monomials, in graded-lex order: one sorted row multiset per orbit."""
    return [rows_monomial(rows) for rows in orbit_keys(nrows, width, deg)]


def orbit_reps_multidegree(nrows: int, coldegs: tuple[int, ...]) -> list[Monomial]:
    """Canonical representatives of the row orbits of monomials with column
    degrees exactly `coldegs`, in graded-lex order."""
    return [rows_monomial(rows) for rows in _row_multisets(nrows, tuple(coldegs))]


# ---------------------------------------------------------------------------
# Echelonized spans
# ---------------------------------------------------------------------------

class SpanBasis:
    """A reduced-echelon GF(p) basis of a subspace of one graded piece.

    Rows are coordinate vectors over the orbit-sum basis: column j is the
    orbit whose key (sorted row multiset, rows of the basis width) is
    keys[j], and whose graded-lex minimal monomial is reps[j].  The
    columns are all orbits of the degree unless `keys` names them.
    Each row has a pivot column holding 1 that is zero in every other row,
    so reduction against the basis is deterministic and idempotent.

    Row k lives in one buffer as the augmented row [echelon row |
    combination]: the k-th candidate that grew the span is inserted as
    [vec | e_k] and eliminated whole, so the right block always holds each
    row over the grown candidates (named in `labels`).  `rows` and
    `combos` are views of the two blocks.  The buffer stores residues in
    the smallest unsigned type that holds p - 1; all arithmetic on it is
    done in int64.
    """

    def __init__(self, char: int, nrows: int, deg: int, width: int,
                 keys: list[OrbitKey] | None = None,
                 cap: int = DEFAULT_CAP):
        self.char = char
        self.nrows = nrows
        self.degree = deg
        self.width = width
        if keys is None:
            keys = orbit_keys(nrows, width, deg)
        if len(keys) > cap:
            raise CapExceeded(
                f"{len(keys)} coordinate columns exceed the cap {cap} "
                f"(degree {deg}, width {width})"
            )
        self.keys = keys
        self.index = {key: i for i, key in enumerate(keys)}
        # dim <= ncols, so a buffer of c rows needs c combination columns
        residue = np.min_scalar_type(char - 1)
        self._aug = np.zeros((0, len(keys)), dtype=residue)
        self.pivots: list[int] = []
        self.labels: list = []

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def ncols(self) -> int:
        return len(self.keys)

    @property
    def reps(self) -> list[Monomial]:
        """The graded-lex minimal monomial of each column's orbit (built on
        each access)."""
        return [rows_monomial(key) for key in self.keys]

    @property
    def rows(self) -> np.ndarray:
        """The echelon rows, one per dimension (a view of residues in the
        storage type: cast to int64 before arithmetic)."""
        return self._aug[:self.dim, :self.ncols]

    @property
    def combos(self) -> np.ndarray:
        """Row k over the grown candidates: combos[k, j] multiplies the
        candidate labelled labels[j] (a view, typed like `rows`)."""
        n = self.ncols
        return self._aug[:self.dim, n:n + self.dim]

    # -- coordinates ---------------------------------------------------------

    def vector(self, coeffs: dict[OrbitKey, int]) -> np.ndarray | None:
        """The coordinate vector of an invariant given as orbit key ->
        coefficient, or None when some key is not a column."""
        vec = np.zeros(self.ncols, dtype=np.int64)
        index = self.index
        for key, c in coeffs.items():
            j = index.get(key)
            if j is None:
                return None
            vec[j] = c
        return vec

    def coords(self, vec: np.ndarray) -> dict[OrbitKey, int]:
        """The orbit key -> coefficient map of a coordinate vector."""
        return {self.keys[j]: int(vec[j]) for j in np.flatnonzero(vec)}

    def vector_of(self, f: Poly) -> np.ndarray | None:
        """Orbit-basis coordinates of f, or None when f is not a combination
        of the basis orbit sums (not invariant, or columns out of range).
        Raises on a homogeneous degree mismatch."""
        if f.char != self.char or f.nrows != self.nrows:
            raise ValueError("prime or row-count mismatch with this basis")
        coeffs = orbit_coefficients(f)
        if coeffs is not None:
            vec = self.vector({orbit_key(rep, self.nrows, self.width): c
                               for rep, c in coeffs.items()})
            if vec is not None:
                return vec
        # every column has the basis degree, so only an f that is not a
        # combination of them can have another degree
        if f.homogeneous_degree != self.degree:
            raise ValueError(
                f"degree mismatch: basis is graded in degree {self.degree}"
            )
        return None

    def poly_of(self, vec: np.ndarray) -> Poly:
        """The invariant with orbit-basis coordinates `vec`; orbits are
        disjoint, so each monomial takes its orbit's coordinate."""
        return Poly(self.char, self.nrows, {
            m: c for key, c in self.coords(vec).items()
            for m in row_orbit(rows_monomial(key), self.nrows)
        })

    def row_poly(self, idx: int) -> Poly:
        return self.poly_of(self.rows[idx])

    def row_polys(self) -> list[Poly]:
        return [self.row_poly(i) for i in range(self.dim)]

    # -- elimination ---------------------------------------------------------

    def reduce(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual of vec modulo the span, plus its coordinates over the
        rows.  The basis is reduced, so the coordinates are vec's pivot
        entries.  An augmented vec is reduced with its combination block."""
        p = self.char
        vec = np.asarray(vec, dtype=np.int64)
        coords = vec[self.pivots] % p
        used = np.flatnonzero(coords)
        res = (vec - coords[used] @ self._aug[used, :len(vec)]) % p
        return res, coords

    def insert_vector(self, vec: np.ndarray, label=None) -> bool:
        """Add a vector to the span; returns True when the span grew."""
        p, n, k = self.char, self.ncols, self.dim
        if k == n:
            return False  # full rank: every vector reduces to zero
        if k == len(self._aug):
            size = min(max(2 * k, 8), n)
            grown = np.zeros((size, n + size), dtype=self._aug.dtype)
            grown[:k, :n + k] = self._aug
            self._aug = grown
        aug = np.zeros(self._aug.shape[1], dtype=np.int64)
        aug[:n] = vec
        aug[n + k] = 1
        res, _ = self.reduce(aug)
        nz = np.flatnonzero(res[:n])
        if nz.size == 0:
            return False
        pivot = int(nz[-1])  # leading monomial: largest in canonical order
        new = res * pow(int(res[pivot]), p - 2, p) % p
        col = self._aug[:k, pivot]
        hit = np.flatnonzero(col)
        self._aug[hit] = (self._aug[hit] - np.outer(col[hit], new)) % p
        self._aug[k] = new
        self.pivots.append(pivot)
        self.labels.append(label)
        return True

    def insert_poly(self, f: Poly, label=None) -> bool:
        return self._insert(self.vector_of(f), label)

    def insert_coords(self, coeffs: dict[OrbitKey, int], label=None) -> bool:
        """Add an invariant given as orbit key -> coefficient."""
        return self._insert(self.vector(coeffs), label)

    def _insert(self, vec: np.ndarray | None, label) -> bool:
        if vec is None:
            raise ValueError(
                "candidate is not a combination of this basis's orbit sums"
            )
        return self.insert_vector(vec, label=label)

    # -- membership ----------------------------------------------------------

    def contains_vector(self, vec: np.ndarray) -> dict[int, int] | None:
        res, coords = self.reduce(vec)
        if np.any(res):
            return None
        return _nonzero(coords)

    def contains(self, f: Poly) -> dict[int, int] | None:
        """Coordinates of f over the basis rows, or None when f is outside
        the span.  The zero polynomial yields the empty coordinate map."""
        vec = self.vector_of(f)
        if vec is None:
            return None
        return self.contains_vector(vec)

    def contains_combo(self, f: Poly) -> dict[int, int] | None:
        """Like `contains`, but expressed over the grown candidates; keys
        index into `labels`."""
        vec = self.vector_of(f)
        if vec is None:
            return None
        res, coords = self.reduce(vec)
        if np.any(res):
            return None
        return _nonzero(coords @ self.combos % self.char)


def _nonzero(vec: np.ndarray) -> dict[int, int]:
    return {int(i): int(vec[i]) for i in np.flatnonzero(vec)}


# ---------------------------------------------------------------------------
# Standard spans
# ---------------------------------------------------------------------------

def gamma_basis(deg: int, width: int, p: int, cap: int = DEFAULT_CAP) -> SpanBasis:
    """The full invariant space in one degree: one orbit sum per orbit."""
    basis = SpanBasis(p, p, deg, width, cap=cap)
    n = basis.ncols
    basis._aug = np.zeros((n, 2 * n), dtype=basis._aug.dtype)
    j = np.arange(n)
    basis._aug[j, j] = basis._aug[j, n + j] = 1  # [I | I]
    basis.pivots = list(range(n))
    basis.labels = [None] * n
    return basis


def p_algebra_generators(width: int, p: int) -> list[ExpTuple]:
    """All elementary-multisymmetric generator tuples at this width:
    nonzero beta with |beta| <= p and support within the first `width`
    columns."""
    return sorted(tuples_up_to(p, width), key=lambda t: (tdeg(t), t))


class _Coords:
    """An invariant in orbit coordinates (orbit key -> coefficient) that
    multiplies with `orbit_product`, so `prefix_products` can take its
    products."""

    __slots__ = ("char", "coeffs")

    def __init__(self, char: int, coeffs: dict[OrbitKey, int]):
        self.char = char
        self.coeffs = coeffs

    def __mul__(self, other: "_Coords") -> "_Coords":
        return _Coords(self.char,
                       orbit_product(self.coeffs, other.coeffs, self.char))


def _generator_products(gens: list[ExpTuple], costs: list[tuple[int, ...]],
                        budget: tuple[int, ...], p: int, width: int):
    """(factors, product of E_g over the factors, in orbit coordinates at
    `width` columns) for every multiset of `gens` whose cost vectors sum to
    exactly `budget`, depth first with factors in list order.  Leaves are
    enumerated as index tuples before anything is multiplied;
    `prefix_products` then multiplies each shared prefix once, and never
    one that no leaf extends."""
    def leaves(start: int, remaining: tuple[int, ...], acc: tuple[int, ...]):
        if not any(remaining):
            yield acc
            return
        for idx in range(start, len(gens)):
            left = tuple(r - c for r, c in zip(remaining, costs[idx]))
            if min(left) >= 0:
                yield from leaves(idx, left, acc + (idx,))

    factors: dict[int, _Coords] = {}

    def factor(idx: int) -> _Coords:
        if idx not in factors:
            factors[idx] = _Coords(p, {elementary_key(gens[idx], p, width): 1})
        return factors[idx]

    one = _Coords(p, {((0,) * width,) * p: 1})
    for idx, product in prefix_products(leaves(0, budget, ()), factor, one):
        yield tuple(gens[i] for i in idx), product.coeffs


def p_algebra_span(deg: int, width: int, p: int,
                   cap: int = DEFAULT_CAP) -> SpanBasis:
    """Span of all products of elementary multisymmetric generators of
    total degree `deg` at the given width.  Labels are the factor
    multisets, so membership queries can report explicit products."""
    basis = SpanBasis(p, p, deg, width, cap=cap)
    gens = p_algebra_generators(width, p)
    costs = [(tdeg(g),) for g in gens]
    for factors, product in _generator_products(gens, costs, (deg,), p, width):
        basis.insert_coords(product, label=factors)
    return basis


def p_multidegree_span(coldegs: tuple[int, ...], p: int,
                       cap: int = DEFAULT_CAP,
                       stop_when_contains: Poly | None = None) -> SpanBasis:
    """Span of generator products whose column degrees sum to exactly
    `coldegs`.  The polarization algebra is graded by column multidegree,
    so membership of a multihomogeneous invariant only ever needs this
    slice.  With `stop_when_contains`, insertion stops as soon as the given
    polynomial reduces to zero against the partial span."""
    coldegs = tuple(coldegs) or (0,)  # the empty slice is degree 0 at width 1
    width = len(coldegs)
    basis = SpanBasis(p, p, sum(coldegs), width,
                      keys=list(_row_multisets(p, coldegs)), cap=cap)
    # High-degree generators first: their products have fewer factors, are
    # cheaper to expand, and tend to saturate the slice sooner.
    gens = sorted(
        (g for g in p_algebra_generators(width, p)
         if all(e <= c for e, c in zip(g + (0,) * width, coldegs))),
        key=lambda g: (-tdeg(g), g),
    )
    costs = [g + (0,) * (len(coldegs) - len(g)) for g in gens]
    target_vec = None
    if stop_when_contains is not None:
        target_vec = basis.vector_of(stop_when_contains)
    for factors, product in _generator_products(
            gens, costs, coldegs, p, width):
        grew = basis.insert_coords(product, label=factors)
        if grew and target_vec is not None:
            if basis.contains_vector(target_vec) is not None:
                break
        if basis.dim == basis.ncols:
            break  # the slice is already everything it can be
    return basis


def in_p_algebra(f: Poly, cap: int = DEFAULT_CAP) -> list[tuple[tuple[int, ...], dict]] | None:
    """Decide membership of an invariant f in the polarization algebra by
    splitting it into column-multidegree components and testing each slice.
    Returns, per component, the column degrees and a combination over
    generator products (label -> coefficient, labels being factor
    multisets); None if any component falls outside."""
    if f.is_zero:
        return []
    if not is_invariant(f):
        return None
    p = f.char
    components: dict[tuple[int, ...], dict[Monomial, int]] = {}
    width = max(f.max_col, 1)
    for m, c in f.terms.items():
        components.setdefault(m.column_degrees(width), {})[m] = c
    out = []
    for coldegs in sorted(components):
        comp = Poly(p, f.nrows, components[coldegs])
        basis = p_multidegree_span(coldegs, p, cap=cap, stop_when_contains=comp)
        combo = basis.contains_combo(comp)
        if combo is None:
            return None
        out.append(
            (coldegs, {basis.labels[k]: cf for k, cf in combo.items()})
        )
    return out


# ---------------------------------------------------------------------------
# Minimal generators: the quotient by products of positive-degree invariants
# ---------------------------------------------------------------------------

def square_span(deg: int, width: int, p: int, cap: int = DEFAULT_CAP) -> SpanBasis:
    """Degree-`deg` span of all products of two positive-degree invariants."""
    basis = SpanBasis(p, p, deg, width, cap=cap)
    keys: dict[int, list[OrbitKey]] = {}
    for a in range(1, deg // 2 + 1):
        for d in (a, deg - a):
            if d not in keys:
                keys[d] = orbit_keys(p, width, d)
        left, right = keys[a], keys[deg - a]
        for i, ka in enumerate(left):
            for kb in right[i:] if a == deg - a else right:
                basis.insert_coords(orbit_product({ka: 1}, {kb: 1}, p))
    return basis


def bounded_tuples(deg: int, width: int, bound: int) -> list[ExpTuple]:
    """Tuples of total degree `deg`, entries < bound, support in `width`."""
    return [t for t in tuples_up_to(deg, width)
            if tdeg(t) == deg and max(t) < bound]


def predicted_generator_polys(deg: int, width: int, p: int) -> list[tuple[str, Poly]]:
    """The expected minimal generators in one degree: power sums over
    tuples with all entries < p, plus the full column products when the
    degree equals p."""
    out = [
        (f"M{alpha}", power_sum(alpha, p, width))
        for alpha in bounded_tuples(deg, width, p)
    ]
    if deg == p:
        for j in range(1, width + 1):
            out.append((f"Ep(x{j})", elementary_column(p, j, p, width)))
    return out


@dataclass
class GradedDimReport:
    """Dimension bookkeeping for one degree of the invariant ring."""

    p: int
    width: int
    degree: int
    dim_gamma: int
    dim_p_algebra: int
    dim_square: int
    dim_quotient: int
    predicted_count: int
    independent: bool
    spanning: bool
    match: bool

    CSV_HEADER = "p,n,degree,dim_gamma,dim_P,dim_square,dim_quotient,predicted_count,match"

    def csv_row(self) -> str:
        return (
            f"{self.p},{self.width},{self.degree},{self.dim_gamma},"
            f"{self.dim_p_algebra},{self.dim_square},{self.dim_quotient},"
            f"{self.predicted_count},{str(self.match).lower()}"
        )


def square_ideal_quotient(deg: int, width: int, p: int,
                          cap: int = DEFAULT_CAP) -> GradedDimReport:
    """Compare the quotient of one degree by products of positive-degree
    invariants against the predicted minimal generator list: the quotient
    dimension must equal the predicted count, and the predicted elements
    must be independent of the products and span the rest of the degree."""
    if deg < 1:
        raise ValueError("the quotient is only graded in positive degrees")
    dim_gamma = len(orbit_keys(p, width, deg))
    sq = square_span(deg, width, p, cap=cap)
    dim_square = sq.dim
    predicted = predicted_generator_polys(deg, width, p)
    independent = True
    for _, g in predicted:
        if not sq.insert_poly(g):
            independent = False
    spanning = sq.dim == dim_gamma
    dim_quotient = dim_gamma - dim_square
    dim_p = p_algebra_span(deg, width, p, cap=cap).dim
    return GradedDimReport(
        p=p, width=width, degree=deg,
        dim_gamma=dim_gamma, dim_p_algebra=dim_p,
        dim_square=dim_square, dim_quotient=dim_quotient,
        predicted_count=len(predicted),
        independent=independent, spanning=spanning,
        match=(dim_quotient == len(predicted)) and independent and spanning,
    )


# ---------------------------------------------------------------------------
# Subrepresentation closures under the column operators
# ---------------------------------------------------------------------------

def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    return 1


def column_closure_ops(width: int, p: int, divided_cap: int | None = None):
    """The operator family used to close a span under the column action:
    divided polarizations up to the cap (default p-1), adjacent column
    swaps, and single-column scalings by a multiplicative generator."""
    cap = divided_cap if divided_cap is not None else p - 1
    ops = []
    for a in range(1, width + 1):
        for b in range(1, width + 1):
            if a == b:
                continue
            for i in range(1, cap + 1):
                ops.append(("polarize", a, b, i))
    for c in range(1, width):
        ops.append(("swap", c, c + 1))
    if p > 2:
        g = _primitive_root(p)
        for c in range(1, width + 1):
            ops.append(("scale", c, g))
    return ops


def _apply_op(f: Poly, op) -> Poly:
    kind = op[0]
    if kind == "polarize":
        _, a, b, i = op
        return polarize_raw(f, a, b, i)
    if kind == "swap":
        _, a, b = op
        return f.map_cols({a: b, b: a})
    _, c, lam = op
    return f.scale_column(c, lam)


def gl_span(f: Poly, width: int, cap: int = DEFAULT_CAP,
            divided_cap: int | None = None) -> SpanBasis:
    """Smallest subspace containing f that is closed under the divided
    polarizations, column permutations, and column scalings at this width.
    This finite operator family is the working proxy for the full column
    group action; `divided_cap` widens the polarization range (the default
    stops below p) for cross-validation purposes.  Any row count works,
    so the one-row polynomial model closes the same way."""
    if f.is_zero:
        raise ValueError("gl_span of the zero polynomial is empty")
    deg = f.homogeneous_degree
    if deg is None:
        raise ValueError("closure needs a homogeneous nonzero seed")
    ops = column_closure_ops(width, f.char, divided_cap=divided_cap)
    basis = SpanBasis(f.char, f.nrows, deg, width, cap=cap)
    basis.insert_poly(f)
    frontier = [f]
    while frontier:
        fresh = []
        for g in frontier:
            for op in ops:
                h = _apply_op(g, op)
                if h.is_zero:
                    continue
                if basis.insert_vector(basis.vector_of(h)):
                    fresh.append(h)
        frontier = fresh
    return basis


def embed_one_row(f: Poly, p: int) -> Poly:
    """Send a one-row polynomial g to sum_r g(row r), the power-sum style
    embedding of single-row polynomials into row invariants."""
    total = Poly.zero(p, p)
    for r in range(1, p + 1):
        total = total + f.map_rows({1: r}, p)
    return total


def spans_equal(a: SpanBasis, b: SpanBasis) -> bool:
    if a.dim != b.dim:
        return False
    return all(
        b.contains(a.row_poly(i)) is not None for i in range(a.dim)
    )


# ---------------------------------------------------------------------------
# Truncations of the ideal generated by p-th powers of power sums
# ---------------------------------------------------------------------------

def _partition_tuples(total_max: int, width: int) -> list[ExpTuple]:
    """Nonzero tuples with weakly decreasing entries, |alpha| <= total_max,
    support within `width` columns; column permutations reach the rest."""
    return [t for t in tuples_up_to(total_max, width)
            if all(a >= b for a, b in zip(t, t[1:]))]


def ideal_truncation_span(gen_degree: int, deg: int, width: int, p: int,
                          include_generators: bool = True,
                          cap: int = DEFAULT_CAP) -> SpanBasis:
    """Degree-`deg` slice of the ideal inside the polarization algebra
    generated by the column-closure spans of M_alpha^p over all nonzero
    |alpha| <= gen_degree.

    The slice is spanned by products (closure element) * (generator-algebra
    element of complementary positive degree); with `include_generators`
    the closure elements themselves are added when their degree is exactly
    `deg` (cofactor 1), which only matters at the generator degrees.
    """
    basis = SpanBasis(p, p, deg, width, cap=cap)
    cofactors: dict[int, list[dict[OrbitKey, int]]] = {}
    for alpha in _partition_tuples(gen_degree, width):
        gdeg = p * tdeg(alpha)
        if gdeg > deg:
            continue
        closure = gl_span(power_sum(scale(alpha, p), p, width), width, cap=cap)
        closure_rows = [closure.coords(row) for row in closure.rows]
        cof_deg = deg - gdeg
        if cof_deg == 0:
            if include_generators:
                for g in closure_rows:
                    basis.insert_coords(g)
            continue
        if cof_deg not in cofactors:
            cof = p_algebra_span(cof_deg, width, p, cap=cap)
            cofactors[cof_deg] = [cof.coords(row) for row in cof.rows]
        for g in closure_rows:
            for h in cofactors[cof_deg]:
                basis.insert_coords(orbit_product(g, h, p))
    return basis
