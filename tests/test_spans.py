from itertools import permutations

import pytest

from multisym.errors import CapExceeded
from multisym.invariants import elementary, power_sum
from multisym.poly import Poly, iter_monomials
from multisym.selftest import (
    suite_echelon, suite_gl_spans, suite_membership, suite_minimal_generators,
)
from multisym.spans import (
    SpanBasis, gamma_basis, gl_span, ideal_truncation_span, in_p_algebra,
    orbit_reps, p_algebra_span, spans_equal, square_ideal_quotient, square_span,
)
from multisym.witness import witness_check


def brute_orbit_count(p, width, deg):
    # independent of the canonical-representative machinery: partition the
    # raw monomial list by the full permutation action
    monos = set(iter_monomials(p, width, deg))
    count = 0
    while monos:
        m = monos.pop()
        for perm in permutations(range(1, p + 1)):
            monos.discard(m.map_rows({i + 1: perm[i] for i in range(p)}))
        count += 1
    return count


@pytest.mark.parametrize("p,width,deg,expected", [
    (2, 2, 0, 1),
    (2, 2, 1, 2),
    (2, 2, 2, 6),
    (3, 2, 2, None),
    (2, 3, 3, None),
])
def test_gamma_basis_dimension(p, width, deg, expected):
    basis = gamma_basis(deg, width, p)
    if expected is None:
        expected = brute_orbit_count(p, width, deg)
    assert basis.dim == expected == len(orbit_reps(p, p, width, deg))


def test_gamma_basis_degree2_members():
    basis = gamma_basis(2, 2, 2)
    for f in [
        power_sum((2,), 2, 2), power_sum((0, 2), 2, 2),
        power_sum((1, 1), 2, 2), elementary((1, 1), 2, 2),
        elementary((2,), 2, 2), elementary((0, 2), 2, 2),
    ]:
        assert basis.contains(f) is not None


def test_contains_edge_cases():
    basis = gamma_basis(2, 2, 2)
    assert basis.contains(Poly.zero(2, 2)) == {}
    assert basis.contains(Poly.variable(2, 2, 1, 1, 2)) is None
    with pytest.raises(ValueError):
        basis.contains(power_sum((1,), 2, 2))  # degree mismatch


def test_contains_coordinates_reexpand():
    p = 2
    basis = p_algebra_span(2, 2, p)
    f = power_sum((1, 1), p, 2)
    coords = basis.contains(f)
    assert coords
    total = Poly.zero(p, p)
    for i, c in coords.items():
        total = total + basis.row_poly(i) * c
    assert total == f


def test_p_algebra_span_examples():
    assert p_algebra_span(2, 2, 2).dim == 6
    # in degree one only the single-column generators exist
    assert p_algebra_span(1, 2, 3).dim == 2
    assert p_algebra_span(1, 3, 3).dim == 3
    assert p_algebra_span(0, 2, 2).dim == 1


def test_p_algebra_tracked_combination():
    p = 3
    basis = p_algebra_span(2, 2, p)
    combo = basis.contains_combo(power_sum((1, 1), p, 2))
    assert combo is not None
    # replaying the combination over the labeled products gives it back
    total = Poly.zero(p, p)
    for k, coeff in combo.items():
        prod = Poly.const(p, p, coeff)
        for beta in basis.labels[k]:
            prod = prod * elementary(beta, p, 2)
        total = total + prod
    assert total == power_sum((1, 1), p, 2)


def test_multidegree_membership():
    assert in_p_algebra(power_sum((2, 2), 2, 2)) is not None
    assert in_p_algebra(power_sum((3, 3), 3, 2)) is not None
    assert in_p_algebra(Poly.zero(2, 2)) == []
    assert in_p_algebra(Poly.variable(2, 2, 1, 1)) is None
    # the first shortfall of the generator algebra at p=2
    assert in_p_algebra(power_sum((1, 1, 1), 2, 3)) is None


def test_first_shortfall_degrees():
    # at width p+1 and degree p+1 the generator algebra misses the
    # all-ones power sum; below that the dimensions agree everywhere tested
    assert p_algebra_span(3, 3, 2).dim == 27
    assert gamma_basis(3, 3, 2).dim == 28
    for d in range(1, 5):
        assert p_algebra_span(d, 2, 2).dim == \
            gamma_basis(d, 2, 2).dim
    for d in range(1, 4):
        assert p_algebra_span(d, 3, 3).dim == \
            gamma_basis(d, 3, 3).dim
    assert in_p_algebra(power_sum((1, 1, 1, 1), 3, 4)) is None


def test_pth_power_in_literal_span():
    # the span-and-contains form of the p-th-power membership statement
    b2 = p_algebra_span(4, 2, 2)
    assert b2.contains(power_sum((2, 2), 2, 2)) is not None
    b3 = p_algebra_span(6, 2, 3)
    assert b3.contains(power_sum((3, 3), 3, 2)) is not None
    b1 = p_algebra_span(2, 1, 2)
    assert b1.contains(power_sum((2,), 2, 1)) is not None


def test_square_quotient_anchor_p2():
    rep = square_ideal_quotient(2, 2, 2)
    assert rep.dim_quotient == 3
    assert rep.predicted_count == 3
    assert rep.match
    # the three predicted generators: M_(1,1), E_2(x_1), E_2(x_2)
    sq = square_span(2, 2, 2)
    assert sq.dim == 3
    assert sq.contains(power_sum((1, 1), 2, 2)) is None


def test_square_quotient_degree_one():
    rep = square_ideal_quotient(1, 2, 2)
    assert rep.dim_square == 0
    assert rep.dim_quotient == 2 == rep.predicted_count


def test_square_quotient_p3():
    rep = square_ideal_quotient(2, 2, 3)
    assert rep.dim_quotient == 3 == rep.predicted_count
    assert rep.match


def test_minimal_generator_suite():
    assert suite_minimal_generators(seed=0).passed


def test_gl_span_examples():
    # column permutations move the one-column p-th powers around
    span = gl_span(power_sum((2,), 2, 3), 3)
    for j in range(1, 4):
        target = power_sum((0,) * (j - 1) + (2,), 2, 3)
        assert span.contains(target) is not None
    span2 = gl_span(power_sum((5,), 3, 2), 2)
    assert span2.contains(power_sum((3, 2), 3, 2)) is not None
    span3 = gl_span(power_sum((1,), 2, 2), 2)
    assert span3.dim == 2


def test_gl_span_suites():
    assert suite_gl_spans(seed=0).passed
    assert suite_membership(seed=0).passed
    assert suite_echelon(seed=17, samples=12).passed


def test_ideal_truncation_examples():
    # at the generator degree the slice is the closure span itself
    t2 = ideal_truncation_span(1, 2, 2, 2)
    assert t2.dim == 2
    assert t2.contains(power_sum((2,), 2, 2)) is not None
    assert t2.contains(power_sum((0, 2), 2, 2)) is not None
    # without the bare generators the slice is empty there
    assert ideal_truncation_span(1, 2, 2, 2, include_generators=False).dim == 0
    # no generator fits below degree p
    assert ideal_truncation_span(1, 1, 2, 2).dim == 0
    # the witness fact: M_(2,2) stays outside the degree-4 slice
    t4 = ideal_truncation_span(1, 4, 2, 2)
    assert t4.contains(power_sum((2, 2), 2, 2)) is None


@pytest.mark.parametrize("d,n,p", [(1, 2, 2), (1, 3, 2), (1, 2, 3), (2, 3, 2)])
def test_bare_generators_add_nothing_above_their_degree(d, n, p):
    # the witness reuses its ideal slice as the slice without generators
    # whenever N > d, since every generator has degree at most p*d < p*N
    with_gens = ideal_truncation_span(d, p * n, n, p)
    without = ideal_truncation_span(d, p * n, n, p, include_generators=False)
    assert spans_equal(with_gens, without) and with_gens.dim > 0


def test_degenerate_witness_builds_slice_without_generators():
    rep, _ = witness_check(2, 2, 2)
    assert rep.degenerate and not rep.passed
    assert not rep.not_in_ideal_slice and rep.not_in_ideal_slice_no_gens
    assert (rep.ideal_slice_dim, rep.ideal_slice_dim_no_gens) == (12, 11)


def test_dimension_cap():
    with pytest.raises(CapExceeded):
        SpanBasis(2, 2, 6, 3, cap=10)


def test_span_insert_rejects_foreign_polys():
    basis = SpanBasis(2, 2, 2, 2)
    with pytest.raises(ValueError):
        basis.insert_poly(Poly.variable(2, 2, 1, 1, 2))
