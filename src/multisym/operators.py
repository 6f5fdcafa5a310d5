"""The three computational engines on multisymmetric polynomials:

1. A Newton-identity rewrite that trades p units of exponent in one column
   for elementary symmetric polynomial factors of that column (the base
   tool for reducing large column exponents).
2. Divided-power polarization: the coefficient of t^i in the substitution
   x[r,a] -> x[r,a] + t*x[r,b] applied to every row at once.  At the tuple
   level this "flattens" a column exponent jp+i into (jp, i) across two
   columns.
3. The Frobenius splitting on the orbit-sum basis: the additive left
   inverse of f -> f^p that keeps orbit sums of p-th-power monomials and
   kills the rest.

Every rewrite self-checks by full expansion and raises SelfCheckError on
mismatch, so a sign or binomial slip can never propagate silently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import SelfCheckError
from .exptuples import (
    ExpTuple, add_at, degree as tdeg, entry, exp_tuple, length as tlen,
    tuples_up_to,
)
from .invariants import elementary, orbit_coefficients, power_sum, row_orbit
from .poly import Monomial, Poly, sum_of_products

# Brute-force validation of the polarization closed form is only run for
# primes small enough that elementary expansions stay tiny.
VALIDATION_PRIME_CAP = 7


# ---------------------------------------------------------------------------
# Newton identity with coefficient variables, over the integers
# ---------------------------------------------------------------------------

def _int_poly_mul(a: Counter, b: Counter) -> Counter:
    out: Counter = Counter()
    for ka, va in a.items():
        for kb, vb in b.items():
            out[tuple(x + y for x, y in zip(ka, kb))] += va * vb
    return Counter({k: v for k, v in out.items() if v})


def check_newton_tilde(p: int) -> bool:
    """Verify, by full integer expansion, the weighted Newton identity

        Mt_p = sum_{i=0}^{p-1} (-1)^(p-1-i) * E_{p-i}(x) * Mt_i

    in Z[x_1..x_p, t_1..t_p], where Mt_r = t_1*x_1^r + ... + t_p*x_p^r and
    E_r is the r-th elementary symmetric polynomial in the x variables.

    The sign exponent (p-1-i) agrees with (-1)^i exactly when p is odd; at
    p = 2 the two versions differ by a global sign over the integers but
    coincide modulo p, which is the only way downstream code consumes the
    identity.
    """
    nvars = 2 * p  # x_1..x_p then t_1..t_p

    def e_poly(r: int) -> Counter:
        out: Counter = Counter()
        for subset in combinations(range(p), r):
            key = [0] * nvars
            for j in subset:
                key[j] = 1
            out[tuple(key)] += 1
        return out

    def m_tilde(r: int) -> Counter:
        out: Counter = Counter()
        for j in range(p):
            key = [0] * nvars
            key[j] = r
            key[p + j] = 1
            out[tuple(key)] += 1
        return out

    rhs: Counter = Counter()
    for i in range(p):
        sign = -1 if (p - 1 - i) % 2 else 1
        for k, v in _int_poly_mul(e_poly(p - i), m_tilde(i)).items():
            rhs[k] += sign * v
    rhs = Counter({k: v for k, v in rhs.items() if v})
    return rhs == m_tilde(p)


# ---------------------------------------------------------------------------
# Newton rewrite for one column of a power sum
# ---------------------------------------------------------------------------

def newton_terms(alpha, r: int, p: int, signed: bool = True) -> list[
    tuple[int, ExpTuple, ExpTuple]
]:
    """The raw combination (coeff, E-generator tuple at column r, M-tuple)
    for M_alpha = sum_i coeff * E_{p-i}(x_r) * M_{alpha - (p-i)e_r}, with
    terms whose power-sum tuple is zero dropped (M_0 vanishes).  `signed`
    exposes the intentionally wrong unsigned variant for regression tests.
    """
    alpha = exp_tuple(alpha)
    out = []
    for i in range(p):
        m_tuple = add_at(alpha, r, i - p)
        if tdeg(m_tuple) == 0:
            continue
        coeff = (p - 1 if (i % 2 and signed) else 1) % p
        gen = exp_tuple((0,) * (r - 1) + (p - i,))
        out.append((coeff, gen, m_tuple))
    return out


def expand_newton_terms(terms, p: int, width: int) -> Poly:
    total = Poly.zero(p, p)
    for coeff, gen, m_tuple in terms:
        total = total + elementary(gen, p, width) * power_sum(m_tuple, p, width) * coeff
    return total


def newton_rewrite(alpha, r: int, p: int, width: int | None = None) -> list[
    tuple[int, ExpTuple, ExpTuple]
]:
    """Rewrite M_alpha, which must have alpha_r >= p, as a combination of
    elementary symmetric polynomials of column r times power sums with a
    smaller column-r exponent.

    The combination carries alternating signs reduced mod p.  Before
    returning, the identity is re-expanded at the working width and the
    call aborts with SelfCheckError if it does not reproduce M_alpha.
    """
    alpha = exp_tuple(alpha)
    if entry(alpha, r) < p:
        raise ValueError(
            f"newton_rewrite needs alpha_{r} >= {p}, got {entry(alpha, r)}"
        )
    terms = newton_terms(alpha, r, p, signed=True)
    w = width if width is not None else max(tlen(alpha), r)
    if expand_newton_terms(terms, p, w) != power_sum(alpha, p, w):
        raise SelfCheckError(
            f"newton rewrite failed to re-expand for alpha={alpha}, r={r}, p={p}"
        )
    return terms


# ---------------------------------------------------------------------------
# Divided-power polarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarizationOp:
    """Move `units` exponent units from column `source` to column `target`,
    dividing by the transport multiplicity (binomials appear mod p)."""

    source: int
    target: int
    units: int

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("polarization needs distinct columns")
        if self.source < 1 or self.target < 1:
            raise ValueError("columns are 1-based")
        if self.units < 0:
            raise ValueError("divided degree must be >= 0")


def polarize_raw(f: Poly, a: int, b: int, i: int) -> Poly:
    """Coefficient of t^i in x[r,a] -> x[r,a] + t*x[r,b] for all rows r.

    On a monomial this distributes i exponent units from column a over the
    rows, each row contributing binom(e_{r,a}, taken) mod p, and shifts the
    taken units into column b of the same row.
    """
    if a == b:
        raise ValueError("polarization needs distinct columns")
    if i == 0:
        return f
    p = f.char
    out: dict[Monomial, int] = {}
    for m, coeff in f.terms.items():
        rows = [(r, e) for (r, c, e) in m if c == a]
        if sum(e for _, e in rows) < i:
            continue

        def distribute(idx: int, remaining: int, moves: list[tuple[int, int]], factor: int):
            if factor == 0:
                return
            if remaining == 0:
                shifted = dict(((r, c), e) for r, c, e in m)
                for r, k in moves:
                    shifted[(r, a)] -= k
                    shifted[(r, b)] = shifted.get((r, b), 0) + k
                mm = Monomial.of((r, c, e) for (r, c), e in shifted.items())
                out[mm] = out.get(mm, 0) + coeff * factor
                return
            if idx == len(rows):
                return
            r, e = rows[idx]
            for k in range(min(e, remaining) + 1):
                step = comb(e, k) % p if k else 1
                distribute(idx + 1, remaining - k,
                           moves + [(r, k)] if k else moves,
                           (factor * step) % p)

        distribute(0, i, [], 1)
    return Poly(p, f.nrows, out)


def polarize(f: Poly, op: PolarizationOp, width: int | None = None) -> Poly:
    """Apply a divided polarization operator; the divided degree must stay
    below p and the target column inside the working width."""
    if op.units > f.char - 1:
        raise ValueError(
            f"divided degree {op.units} out of range 0..{f.char - 1}"
        )
    if width is not None and (op.source > width or op.target > width):
        raise ValueError(
            f"polarization columns ({op.source},{op.target}) exceed width {width}"
        )
    return polarize_raw(f, op.source, op.target, op.units)


def polarize_elementary(beta, a: int, b: int, i: int, p: int) -> tuple[int, ExpTuple | None]:
    """Closed form for polarizing a single elementary multisymmetric
    generator: (binom(beta_b + i, i) mod p, beta - i*e_a + i*e_b), or
    (0, None) when column a holds fewer than i units."""
    beta = exp_tuple(beta)
    if entry(beta, a) < i:
        return 0, None
    coeff = comb(entry(beta, b) + i, i) % p
    moved = add_at(add_at(beta, a, -i), b, i)
    return coeff, moved


@lru_cache(maxsize=None)
def validate_polarization_closed_form(p: int, width: int = 3) -> bool | None:
    """Brute-force the closed form for every generator tuple with degree at
    most p supported on `width` columns and every column pair and divided
    degree up to p.  Returns None when p is too large to afford the sweep;
    callers must then treat the closed form as unavailable.
    """
    if p > VALIDATION_PRIME_CAP:
        return None
    for beta in tuples_up_to(p, width):
        base = elementary(beta, p, width)
        for a in range(1, width + 1):
            for b in range(1, width + 1):
                if a == b:
                    continue
                for i in range(p + 1):
                    coeff, moved = polarize_elementary(beta, a, b, i, p)
                    expect = (
                        elementary(moved, p, width) * coeff
                        if moved is not None else Poly.zero(p, p)
                    )
                    if polarize_raw(base, a, b, i) != expect:
                        return False
    return True


def flatten_tuple(alpha, col: int, p: int, verify: bool = True) -> ExpTuple:
    """Split the column-`col` exponent jp+i (with 1 <= i <= p-1) into jp
    kept in place and i moved to the next column.

    If the next column is already occupied, all later columns are first
    shifted right by one to make room; the result then refers to the
    shifted numbering.  With `verify` on (the default), the move is checked
    by applying the divided polarization to the corresponding power sum.
    """
    alpha = exp_tuple(alpha)
    a_c = entry(alpha, col)
    i = a_c % p
    if i == 0:
        raise ValueError(
            f"column {col} exponent {a_c} is divisible by {p}: nothing to flatten"
        )
    source = alpha
    if entry(alpha, col + 1) != 0:
        widened = list(alpha) + [0]
        widened[col:] = [0] + widened[col:-1]
        source = exp_tuple(widened)
    target = add_at(add_at(source, col, -i), col + 1, i)
    if verify:
        w = max(tlen(target), col + 1)
        if comb(a_c, i) % p != 1:
            raise SelfCheckError(
                f"transport multiplicity binom({a_c},{i}) is not 1 mod {p}"
            )
        got = polarize_raw(power_sum(source, p, w), col, col + 1, i)
        if got != power_sum(target, p, w):
            raise SelfCheckError(
                f"flatten of {alpha} at column {col} failed its polarization check"
            )
    return target


# ---------------------------------------------------------------------------
# Frobenius splitting on the orbit-sum basis
# ---------------------------------------------------------------------------

def frobenius_split(f: Poly) -> Poly:
    """The additive left inverse of the p-th power map on row invariants.

    Decomposes f over the orbit-sum basis, keeps each basis element whose
    monomials are p-th powers (replacing it by the orbit sum of the p-th
    root), and kills the rest.  Homogeneous input of degree d maps to
    degree d/p output or zero.  Raises when f is not row invariant, since
    the orbit decomposition does not exist.
    """
    coeffs = orbit_coefficients(f)
    if coeffs is None:
        raise ValueError(
            "frobenius_split needs a row-invariant input; some row orbit "
            "has mixed coefficients"
        )
    p = f.char
    # distinct reps have distinct roots, so the root orbits are disjoint
    terms: dict[Monomial, int] = {}
    for rep, c in coeffs.items():
        root = rep.root(p)
        if root is not None:
            for m in row_orbit(root, f.nrows):
                terms[m] = c
    return Poly(p, f.nrows, terms)


# ---------------------------------------------------------------------------
# One-column Newton recursion: power sums in elementary symmetric terms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _column_power_exprs(p: int, m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # p_k in p variables: p_k = sum_{i=1}^{min(k-1,p)} (-1)^(i-1) e_i p_{k-i}
    #                          + [k <= p] (-1)^(k-1) k e_k,   reduced mod p.
    table: dict[int, dict[tuple[int, ...], int]] = {}
    for k in range(1, m + 1):
        cur: dict[tuple[int, ...], int] = {}
        for i in range(1, min(k - 1, p) + 1):
            sign = p - 1 if (i - 1) % 2 else 1
            for ms, c in table[k - i].items():
                key = tuple(sorted(ms + (i,)))
                cur[key] = (cur.get(key, 0) + sign * c) % p
        if k <= p:
            sign = p - 1 if (k - 1) % 2 else 1
            key = (k,)
            cur[key] = (cur.get(key, 0) + sign * k) % p
        table[k] = {ms: c for ms, c in cur.items() if c}
    return tuple(sorted(table[m].items()))


def power_to_elementary_one_column(
    m: int, col: int, p: int, verify: bool = True
) -> list[tuple[int, tuple[ExpTuple, ...]]]:
    """Express the one-column power sum M_{m*e_col} as a polynomial in the
    elementary symmetric polynomials of that column, via the classical
    Newton recursion reduced mod p.

    Returns (coefficient, factor tuples) pairs where each factor is i*e_col
    with 1 <= i <= p.  Verified by expansion unless `verify` is disabled.
    """
    if m < 1:
        raise ValueError(f"power index must be >= 1, got {m}")
    fragment = [
        (c, tuple(exp_tuple((0,) * (col - 1) + (i,)) for i in ms))
        for ms, c in _column_power_exprs(p, m)
    ]
    if verify:
        total = sum_of_products(
            fragment, lambda beta: elementary(beta, p, col), Poly.one(p, p)
        )
        if total != power_sum((0,) * (col - 1) + (m,), p, col):
            raise SelfCheckError(
                f"one-column Newton recursion failed for m={m}, p={p}"
            )
    return fragment
