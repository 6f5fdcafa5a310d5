"""Exact sparse polynomial arithmetic over GF(p) in a matrix of variables.

The ambient ring is the polynomial ring over GF(p) whose variables x[r,c]
are the entries of a matrix with `nrows` rows and unbounded columns.  A
monomial stores only its nonzero exponents, as a tuple of (row, col, exp)
triples sorted by (row, col); rows and columns are 1-based.  A polynomial
maps monomials to nonzero coefficients reduced into {1, ..., p-1}, so two
polynomials are equal iff their term maps are equal (canonical form).
The `Poly` constructor is the one place that reduces coefficients mod p
and drops zero terms; operations hand it raw integer sums.

The canonical monomial order is graded lexicographic on the row-major
exponent vector: lower total degree first, ties broken by reading the
exponents in position order (1,1), (1,2), ..., (2,1), ...; a larger
exponent at the first differing position makes the monomial larger.

Arithmetic is exact modular arithmetic; nothing here touches floats.  The
prime is capped at 61 so every residue fits comfortably in a machine word
and binomial tables stay tiny.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_PRIME = 61

_SMALL_PRIMES = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
}


def validate_prime(p: int) -> int:
    if p not in _SMALL_PRIMES:
        raise ValueError(f"p must be a prime <= {MAX_PRIME}, got {p}")
    return p


class Monomial(tuple):
    """A product of variables x[r,c]^e with only the nonzero exponents stored.

    The monomial is the tuple of its (row, col, exp) triples, sorted by
    (row, col), every exponent positive, so hashing and equality are the
    tuple's own.  `Monomial(triples)` trusts its input; use `Monomial.of`
    to build one from unnormalized data.  Tuple concatenation and
    repetition are disabled: monomials multiply with `mul`.
    """

    __slots__ = ()

    @staticmethod
    def of(pairs: Iterable[tuple[int, int, int]]) -> "Monomial":
        merged: dict[tuple[int, int], int] = {}
        for r, c, e in pairs:
            if r < 1 or c < 1:
                raise ValueError(f"rows and columns are 1-based, got ({r},{c})")
            if e < 0:
                raise ValueError(f"negative exponent {e} at ({r},{c})")
            if e:
                key = (r, c)
                merged[key] = merged.get(key, 0) + e
        return Monomial(
            (r, c, e) for (r, c), e in sorted(merged.items()) if e
        )

    def _not_a_sequence(self, other):
        raise TypeError(
            "monomials are not sequences: use Monomial.mul to multiply"
        )

    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence

    @property
    def exps(self) -> "Monomial":
        return self

    @property
    def degree(self) -> int:
        return sum(e for _, _, e in self)

    @property
    def max_row(self) -> int:
        return self[-1][0] if self else 0

    @property
    def max_col(self) -> int:
        return max((c for _, c, _ in self), default=0)

    def exponent(self, r: int, c: int) -> int:
        for rr, cc, e in self:
            if rr == r and cc == c:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        # Two-pointer merge of the sorted triple lists; hot path for Poly.mul.
        if not self:
            return other
        if not other:
            return self
        out = []
        append = out.append
        i = j = 0
        na, nb = len(self), len(other)
        ta = self[0]
        tb = other[0]
        while True:
            ra, ca, ea = ta
            rb, cb, eb = tb
            if ra < rb or (ra == rb and ca < cb):
                append(ta)
                i += 1
                if i == na:
                    break
                ta = self[i]
            elif ra == rb and ca == cb:
                append((ra, ca, ea + eb))
                i += 1
                j += 1
                if i == na or j == nb:
                    break
                ta = self[i]
                tb = other[j]
            else:
                append(tb)
                j += 1
                if j == nb:
                    break
                tb = other[j]
        out.extend(self[i:])
        out.extend(other[j:])
        return Monomial(out)

    def power(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("monomial power must be nonnegative")
        return Monomial((r, c, e * k) for r, c, e in self) if k else Monomial()

    def root(self, k: int) -> "Monomial | None":
        """The k-th root if every exponent is divisible by k, else None."""
        if any(e % k for _, _, e in self):
            return None
        return Monomial((r, c, e // k) for r, c, e in self)

    def map_rows(self, mapping: dict[int, int]) -> "Monomial":
        """Relabel rows; rows absent from the mapping keep their label."""
        return Monomial.of((mapping.get(r, r), c, e) for r, c, e in self)

    def map_cols(self, mapping: dict[int, int]) -> "Monomial":
        return Monomial.of((r, mapping.get(c, c), e) for r, c, e in self)

    def row_exponents(self, r: int) -> tuple[int, ...]:
        """Column exponent vector of row r, trailing zeros stripped."""
        entries: dict[int, int] = {c: e for rr, c, e in self if rr == r}
        if not entries:
            return ()
        width = max(entries)
        return tuple(entries.get(c, 0) for c in range(1, width + 1))

    def column_degrees(self, width: int = 0) -> tuple[int, ...]:
        """Total degree per column, padded to at least `width` entries."""
        w = max(width, self.max_col)
        degs = [0] * w
        for _, c, e in self:
            degs[c - 1] += e
        return tuple(degs)

    def dense(self, nrows: int, width: int) -> tuple[int, ...]:
        """Row-major exponent vector of length nrows*width."""
        vec = [0] * (nrows * width)
        for r, c, e in self:
            if r > nrows or c > width:
                raise ValueError(
                    f"monomial {self} does not fit in {nrows}x{width}"
                )
            vec[(r - 1) * width + (c - 1)] = e
        return tuple(vec)

    def sort_key(self, nrows: int = 0, width: int = 0) -> tuple:
        """Graded-lex key; keys compare correctly for any common shape."""
        n = max(nrows, self.max_row)
        w = max(width, self.max_col)
        return (self.degree, self.dense(n, w)) if n and w else (self.degree, ())

    def text(self) -> str:
        if not self:
            return "1"
        return " * ".join(
            f"x[{r},{c}]" + (f"^{e}" if e > 1 else "") for r, c, e in self
        )

    def __repr__(self) -> str:
        return self.text()


def grlex_key(m: Monomial, nrows: int, width: int) -> tuple:
    return (m.degree, m.dense(nrows, width))


class Poly:
    """A GF(p)-linear combination of monomials in an nrows x * variable matrix.

    `char` is the coefficient prime p; `nrows` is the number of matrix rows
    (the tensor degree of the ambient ring).  The term map never stores a
    zero coefficient, and coefficients live in {1, ..., p-1}; the
    constructor alone reduces them, so `terms` may hold any integers.
    Instances are treated as immutable: every operation returns a fresh
    Poly, so values can be shared freely.
    """

    __slots__ = ("char", "nrows", "terms")

    def __init__(self, char: int, nrows: int, terms: dict[Monomial, int] | None = None):
        validate_prime(char)
        if nrows < 0:
            raise ValueError(f"nrows must be >= 0, got {nrows}")
        self.char = char
        self.nrows = nrows
        clean: dict[Monomial, int] = {}
        if terms:
            for m, c in terms.items():
                c %= char
                if c:
                    if m and m[-1][0] > nrows:  # m.max_row, inlined
                        raise ValueError(
                            f"monomial {m} uses row {m.max_row} > nrows={nrows}"
                        )
                    clean[m] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(char: int, nrows: int) -> "Poly":
        return Poly(char, nrows)

    @staticmethod
    def const(char: int, nrows: int, value: int) -> "Poly":
        return Poly(char, nrows, {Monomial(): value})

    @staticmethod
    def one(char: int, nrows: int) -> "Poly":
        return Poly.const(char, nrows, 1)

    @staticmethod
    def variable(char: int, nrows: int, r: int, c: int, e: int = 1) -> "Poly":
        if not (1 <= r <= nrows):
            raise ValueError(f"row {r} out of range 1..{nrows}")
        return Poly(char, nrows, {Monomial.of([(r, c, e)]): 1})

    @staticmethod
    def monomial(char: int, nrows: int, m: Monomial, coeff: int = 1) -> "Poly":
        return Poly(char, nrows, {m: coeff})

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.char != other.char:
            raise ValueError(
                f"prime mismatch: GF({self.char}) vs GF({other.char})"
            )
        if self.nrows != other.nrows:
            raise ValueError(
                f"row-count mismatch: {self.nrows} vs {other.nrows}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.char, self.nrows, out)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma.mul(mb)
                out[m] = out.get(m, 0) + ca * cb
        return Poly(self.char, self.nrows, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, k: int) -> "Poly":
        return Poly(self.char, self.nrows,
                    {m: c * k for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        result = Poly.one(self.char, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.char == other.char
            and self.nrows == other.nrows
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-looking container; use text() as a dict key if needed

    # -- structure queries --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    @property
    def homogeneous_degree(self) -> int | None:
        """The uniform total degree, or None if mixed (zero reports None)."""
        degs = {m.degree for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    @property
    def max_col(self) -> int:
        return max((m.max_col for m in self.terms), default=0)

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending canonical order (leading monomial first)."""
        nrows = self.nrows
        width = max(self.max_col, 1)
        return sorted(
            self.terms.items(),
            key=lambda item: grlex_key(item[0], nrows, width),
            reverse=True,
        )

    def leading_monomial(self) -> Monomial | None:
        ts = self.sorted_terms()
        return ts[0][0] if ts else None

    # -- row and column actions ---------------------------------------------

    def map_rows(self, mapping: dict[int, int], nrows: int) -> "Poly":
        """Relabel rows into an `nrows`-row matrix (a term landing past it
        raises ValueError); rows absent from the mapping keep their label."""
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            mm = m.map_rows(mapping)
            out[mm] = out.get(mm, 0) + c
        return Poly(self.char, nrows, out)

    def map_cols(self, mapping: dict[int, int]) -> "Poly":
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            mm = m.map_cols(mapping)
            out[mm] = out.get(mm, 0) + c
        return Poly(self.char, self.nrows, out)

    def scale_column(self, c: int, lam: int) -> "Poly":
        """Substitute x[r,c] -> lam*x[r,c] in every row r."""
        out: dict[Monomial, int] = {}
        for m, coeff in self.terms.items():
            col_deg = sum(e for _, cc, e in m if cc == c)
            out[m] = coeff * pow(lam, col_deg, self.char)
        return Poly(self.char, self.nrows, out)

    # -- serialization -------------------------------------------------------

    def text(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if m:
                parts.append(f"{c} * {m.text()}" if c != 1 else m.text())
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": c, "exponents": [list(t) for t in m]}
            for m, c in self.sorted_terms()
        ]

    @staticmethod
    def from_json_obj(char: int, nrows: int, obj: list[dict]) -> "Poly":
        terms: dict[Monomial, int] = {}
        for rec in obj:
            m = Monomial.of(tuple(t) for t in rec["exponents"])
            terms[m] = terms.get(m, 0) + int(rec["coeff"])
        return Poly(char, nrows, terms)

    def __repr__(self) -> str:
        return f"Poly(GF({self.char}), rows={self.nrows}: {self.text()})"


def frobenius(f: Poly) -> Poly:
    """The p-th power map f -> f^p.

    Acts termwise: every exponent is multiplied by p and coefficients are
    fixed (c^p = c in GF(p)), since raising a sum to the p-th power in
    characteristic p kills all mixed terms.
    """
    p = f.char
    return Poly(p, f.nrows, {m.power(p): c for m, c in f.terms.items()})


def prefix_products(factor_tuples: Iterable[tuple], factor_poly,
                    one: Poly) -> Iterator[tuple[tuple, Poly]]:
    """Yield (factors, product of factor_poly(f) for f in factors) for each
    tuple of `factor_tuples`, in the given order; `one` is the empty product.

    The products of the last tuple's prefixes stay on a stack, and each
    tuple extends the longest prefix it shares with the one before it.  A
    prefix is therefore multiplied out only when a yielded tuple starts
    with it, and tuples listed in sorted or depth-first order expand each
    shared prefix once.
    """
    stack = [one]
    prev: tuple = ()
    for factors in factor_tuples:
        k = 0
        n = min(len(prev), len(factors))
        while k < n and prev[k] == factors[k]:
            k += 1
        del stack[k + 1:]
        for f in factors[k:]:
            stack.append(stack[-1] * factor_poly(f))
        prev = factors
        yield factors, stack[-1]


def sum_of_products(terms: Iterable[tuple[int, tuple]], factor_poly,
                    one: Poly) -> Poly:
    """sum(coeff * prod(factor_poly(f) for f in factors)) over the
    (coeff, factors) pairs of `terms`; factors must be sortable.

    Factors commute, so a term is keyed on its sorted factor tuple and equal
    keys add their coefficients.  The keys are expanded in sorted order
    through `prefix_products`, and each product is scaled as it is added
    into one term map.
    """
    coeffs: dict[tuple, int] = {}
    for coeff, factors in terms:
        key = tuple(sorted(factors))
        coeffs[key] = coeffs.get(key, 0) + coeff
    p = one.char
    live = sorted(key for key, coeff in coeffs.items() if coeff % p)
    out: dict[Monomial, int] = {}
    for factors, prod in prefix_products(live, factor_poly, one):
        coeff = coeffs[factors]
        for m, c in prod.terms.items():
            out[m] = out.get(m, 0) + coeff * c
    return Poly(p, one.nrows, out)


def iter_monomials(nrows: int, width: int, degree: int) -> Iterator[Monomial]:
    """All monomials of the given total degree in an nrows x width matrix."""
    nvars = nrows * width
    if degree == 0:
        yield Monomial()
        return
    if nvars == 0:
        return

    def rec(pos: int, remaining: int, acc: list[tuple[int, int, int]]):
        if pos == nvars - 1:
            if remaining:
                r, c = divmod(pos, width)
                acc.append((r + 1, c + 1, remaining))
                yield Monomial(acc)
                acc.pop()
            else:
                yield Monomial(acc)
            return
        for e in range(remaining, -1, -1):
            if e:
                r, c = divmod(pos, width)
                acc.append((r + 1, c + 1, e))
                yield from rec(pos + 1, remaining - e, acc)
                acc.pop()
            else:
                yield from rec(pos + 1, remaining, acc)

    yield from rec(0, degree, [])
