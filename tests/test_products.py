"""Differential tests for the shared generator-product expansion.

`p_algebra_span`, `p_multidegree_span` and `expand_certificate` take their
products from `poly.prefix_products`; the spans multiply in orbit
coordinates (`invariants.orbit_product`).  The eager recursions they
replaced are kept here as references: they multiply every prefix as a
`Poly` while descending, whether or not a product below it is ever
inserted.
"""

import random
from functools import reduce

import numpy as np
import pytest

from multisym import spans
from multisym.certify import (
    Certificate, certify_power_sum, certify_pth_power, expand_certificate,
    verify,
)
from multisym.exptuples import degree as tdeg
from multisym.invariants import (
    elementary, orbit_coefficients, orbit_key, power_sum,
)
from multisym.poly import Poly, prefix_products, sum_of_products
from multisym.spans import (
    SpanBasis, orbit_reps_multidegree, p_algebra_generators, p_algebra_span,
    p_multidegree_span,
)


# -- references: the eager recursions -----------------------------------------

def ref_p_algebra_span(deg, width, p):
    basis = SpanBasis(p, p, deg, width)
    gens = p_algebra_generators(width, p)

    def rec(start, remaining, product, factors):
        if remaining == 0:
            basis.insert_poly(product, label=factors)
            return
        for idx in range(start, len(gens)):
            g = gens[idx]
            if tdeg(g) > remaining:
                continue
            rec(idx, remaining - tdeg(g),
                product * elementary(g, p, width), factors + (g,))

    rec(0, deg, Poly.one(p, p), ())
    return basis


class _Done(Exception):
    pass


def ref_p_multidegree_span(coldegs, p, stop_when_contains=None):
    width = max(len(coldegs), 1)
    reps = orbit_reps_multidegree(p, coldegs)
    basis = SpanBasis(p, p, sum(coldegs), width,
                      keys=[orbit_key(m, p, width) for m in reps])
    gens = sorted(
        (g for g in p_algebra_generators(width, p)
         if all(e <= c for e, c in zip(g + (0,) * width, coldegs))),
        key=lambda g: (-tdeg(g), g),
    )
    target_vec = None
    if stop_when_contains is not None:
        target_vec = basis.vector_of(stop_when_contains)

    def rec(start, remaining, product, factors):
        if not any(remaining):
            grew = basis.insert_poly(product, label=factors)
            if grew and target_vec is not None:
                if basis.contains_vector(target_vec) is not None:
                    raise _Done
            if basis.dim == basis.ncols:
                raise _Done
            return
        for idx in range(start, len(gens)):
            g = gens[idx]
            padded = g + (0,) * (len(remaining) - len(g))
            if any(e > rem for e, rem in zip(padded, remaining)):
                continue
            rec(idx, tuple(rem - e for rem, e in zip(remaining, padded)),
                product * elementary(g, p, width), factors + (g,))

    try:
        rec(0, tuple(coldegs), Poly.one(p, p), ())
    except _Done:
        pass
    return basis


def assert_same_basis(new, ref):
    assert new.reps == ref.reps
    assert new.labels == ref.labels
    assert new.pivots == ref.pivots
    assert len(new.rows) == len(ref.rows)
    for a, b in zip(new.rows, ref.rows):
        assert np.array_equal(a, b)
    assert np.array_equal(new.combos, ref.combos)


# -- spans ------------------------------------------------------------------

P_ALGEBRA_CASES = [
    (2, 1, 0), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 4), (2, 3, 3),
    (3, 1, 4), (3, 2, 2), (3, 2, 3), (3, 2, 4), (3, 3, 3),
    (5, 1, 5), (5, 2, 2), (5, 2, 3),
]


@pytest.mark.parametrize("p,width,deg", P_ALGEBRA_CASES)
def test_p_algebra_span_matches_eager_recursion(p, width, deg):
    assert_same_basis(p_algebra_span(deg, width, p),
                      ref_p_algebra_span(deg, width, p))


MULTIDEGREE_CASES = [
    (2, (2, 2), None), (2, (1, 1, 1), None), (2, (3, 1), None),
    (2, (2, 2), (2, 2)), (2, (1, 1, 1), (1, 1, 1)),
    (3, (3, 3), None), (3, (2, 1), None), (3, (1, 1, 1), None),
    (3, (3, 3), (3, 3)), (3, (2, 1), (2, 1)),
    (5, (5,), None), (5, (2, 2), None), (5, (3, 1), None),
    (5, (5,), (5,)), (5, (3, 2), (3, 2)),
]


@pytest.mark.parametrize("p,coldegs,target", MULTIDEGREE_CASES)
def test_p_multidegree_span_matches_eager_recursion(p, coldegs, target):
    stop = None if target is None else power_sum(target, p, len(coldegs))
    new = p_multidegree_span(coldegs, p, stop_when_contains=stop)
    ref = ref_p_multidegree_span(coldegs, p, stop_when_contains=stop)
    assert_same_basis(new, ref)


def _prefix_product(factors, p, width):
    return reduce(lambda acc, g: acc * elementary(g, p, width), factors,
                  Poly.one(p, p))


def _key(f, width):
    """A Poly invariant by its orbit coordinates at `width` columns."""
    return frozenset((orbit_key(rep, f.nrows, width), c)
                     for rep, c in orbit_coefficients(f).items())


@pytest.mark.parametrize("p,coldegs,target", [
    (2, (2, 2), None), (2, (3, 1), (3, 1)), (3, (3, 3), (3, 3)),
    (3, (2, 1, 1), None), (5, (3, 2), (3, 2)),
])
def test_only_prefixes_of_inserted_labels_are_expanded(
        monkeypatch, p, coldegs, target):
    width = len(coldegs)
    stop = None if target is None else power_sum(target, p, width)
    expanded, inserted = [], []
    kernel, mul = spans.orbit_product, Poly.__mul__
    insert = SpanBasis.insert_vector

    def counted_kernel(f, g, char):
        expanded.append(kernel(f, g, char))
        return expanded[-1]

    def counted_mul(self, other):
        expanded.append(mul(self, other))
        return expanded[-1]

    def recorded_insert(self, vec, label=None):
        inserted.append(label)
        return insert(self, vec, label=label)

    monkeypatch.setattr(spans, "orbit_product", counted_kernel)
    monkeypatch.setattr(SpanBasis, "insert_vector", recorded_insert)
    p_multidegree_span(coldegs, p, stop_when_contains=stop)
    monkeypatch.undo()

    prefixes = {label[:k] for label in inserted
                for k in range(1, len(label) + 1)}
    # each prefix of an inserted label is multiplied out once, nothing else
    assert len(expanded) == len(prefixes)
    allowed = {_key(_prefix_product(pre, p, width), width)
               for pre in prefixes}
    assert {frozenset(f.items()) for f in expanded} == allowed

    # the eager recursion inserts the same labels, but it also expands
    # prefixes that no inserted label extends
    eager_inserted = inserted = []
    expanded = []
    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(SpanBasis, "insert_vector", recorded_insert)
    ref_p_multidegree_span(coldegs, p, stop_when_contains=stop)
    monkeypatch.undo()
    assert {label[:k] for label in eager_inserted
            for k in range(1, len(label) + 1)} == prefixes
    assert len(expanded) > len(prefixes)


def test_prefix_products_shares_longest_prefix():
    p = 3
    polys = {k: Poly.variable(p, p, 1, k) for k in (1, 2, 3)}
    calls = []

    def factor_poly(k):
        calls.append(k)
        return polys[k]

    tuples = [(1, 1), (1, 2), (1, 2, 3), (2,), (), (3, 3)]
    out = list(prefix_products(tuples, factor_poly, Poly.one(p, p)))
    assert [fs for fs, _ in out] == tuples
    for fs, prod in out:
        assert prod == reduce(lambda a, k: a * polys[k], fs, Poly.one(p, p))
    # (1,1): 1, 1; (1,2): 2; (1,2,3): 3; (2,): 2; (): none; (3,3): 3, 3
    assert calls == [1, 1, 2, 3, 2, 3, 3]


# -- certificates -------------------------------------------------------------

def naive_expansion(cert):
    p = cert.p
    total = Poly.zero(p, p)
    for coeff, factors in cert.terms:
        prod = Poly.const(p, p, coeff)
        for beta in factors:
            prod = prod * elementary(beta, p, cert.width)
        total = total + prod
    return total


CERTIFICATES = [
    (certify_pth_power, (1, 1), 2), (certify_pth_power, (2, 1), 2),
    (certify_pth_power, (1, 1, 1), 2), (certify_power_sum, (4,), 2),
    (certify_pth_power, (1, 1), 3), (certify_power_sum, (3, 3), 3),
    (certify_power_sum, (3, 2), 3), (certify_pth_power, (1,), 5),
    (certify_pth_power, (2,), 5), (certify_power_sum, (5, 1), 5),
]


@pytest.mark.parametrize("build,alpha,p", CERTIFICATES)
def test_expand_certificate_matches_naive_expansion(build, alpha, p):
    cert = build(alpha, p, verify_on_build=False)
    expansion = expand_certificate(cert)
    assert expansion == naive_expansion(cert)
    assert expansion == power_sum(cert.target, p, cert.width)
    assert verify(cert)


@pytest.mark.parametrize("build,alpha,p", CERTIFICATES)
def test_changing_one_term_breaks_verification(build, alpha, p):
    cert = build(alpha, p, verify_on_build=False)
    rng = random.Random(len(cert.terms))
    k = rng.randrange(len(cert.terms))
    broken = Certificate.from_json_obj(cert.to_json_obj())
    coeff, factors = broken.terms[k]
    if p == 2:
        del broken.terms[k]  # the only nonzero coefficient mod 2 is 1
    else:
        broken.terms[k] = (coeff % (p - 1) + 1, factors)
    assert not verify(broken)
    assert expand_certificate(broken) == naive_expansion(broken)


def test_expand_certificate_merges_reordered_and_repeated_terms():
    p = 3
    cert = certify_power_sum((3, 3), p, verify_on_build=False)
    split = Certificate.from_json_obj(cert.to_json_obj())
    coeff, factors = split.terms[0]
    # one term becomes two whose coefficients add up to it, the second
    # with its factors reversed; the expansion cannot tell
    a = 1 if coeff != 1 else 2
    split.terms[0] = (a, factors)
    split.terms.append(((coeff - a) % p, tuple(reversed(factors))))
    assert expand_certificate(split) == naive_expansion(split)
    assert expand_certificate(split) == expand_certificate(cert)
    assert verify(split)


def test_sum_of_products_drops_vanishing_keys():
    p = 5
    x = {k: Poly.variable(p, p, 1, k) for k in (1, 2)}
    calls = []

    def factor_poly(k):
        calls.append(k)
        return x[k]

    terms = [(2, (1, 2)), (3, (2, 1)), (4, (2,))]
    total = sum_of_products(terms, factor_poly, Poly.one(p, p))
    assert total == x[2].scale(4)
    assert calls == [2]  # the (1, 2) coefficients add up to 0 mod 5
