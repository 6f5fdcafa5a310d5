import random

import pytest

from multisym.exptuples import (
    add_at, degree, exp_tuple, format_tuple, length, parse_tuple, unit,
)
from multisym.poly import Monomial, Poly, frobenius, iter_monomials, validate_prime


def test_exp_tuple_normalization():
    assert exp_tuple((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert exp_tuple(()) == ()
    assert length((1, 0, 2)) == 3
    assert length(()) == 0
    assert degree((3, 2)) == 5
    assert unit(3) == (0, 0, 1)
    assert add_at((1,), 3, 2) == (1, 0, 2)
    with pytest.raises(ValueError):
        exp_tuple((1, -1))


def test_tuple_text_roundtrip():
    assert format_tuple((3, 2)) == "(3,2)"
    assert format_tuple(()) == "(0)"
    assert parse_tuple("(3,2)") == (3, 2)
    assert parse_tuple("3,2") == (3, 2)
    assert parse_tuple("(0)") == ()
    with pytest.raises(ValueError):
        parse_tuple("(a)")


def test_prime_validation():
    validate_prime(61)
    for bad in (1, 4, 62, 67):
        with pytest.raises(ValueError):
            validate_prime(bad)


def test_monomial_basics():
    m = Monomial.of([(1, 2, 1), (1, 1, 2), (2, 1, 1)])
    assert m.exps == ((1, 1, 2), (1, 2, 1), (2, 1, 1))
    assert m.degree == 4
    assert m.exponent(1, 1) == 2 and m.exponent(2, 2) == 0
    assert m.power(3).degree == 12
    assert m.power(2).root(2) == m
    assert m.root(3) is None
    assert m.mul(m) == m.power(2)
    assert m.text() == "x[1,1]^2 * x[1,2] * x[2,1]"


def test_monomial_of_validates_and_normalizes():
    for bad in ([(0, 1, 1)], [(1, 0, 1)], [(1, 1, -1)], [(2, 1, 1), (1, 1, -2)]):
        with pytest.raises(ValueError):
            Monomial.of(bad)
    # unsorted input is sorted, repeated positions add, zero exponents drop
    m = Monomial.of([(2, 1, 1), (1, 3, 0), (1, 2, 1), (2, 1, 2)])
    assert m.exps == ((1, 2, 1), (2, 1, 3))
    assert Monomial.of([(1, 1, 0)]) == Monomial()
    assert Monomial.of([]).text() == "1"


def test_monomial_is_not_a_sequence_for_arithmetic():
    m = Monomial.of([(1, 1, 2), (2, 1, 1)])
    for op in (lambda: 2 * m, lambda: m * 2, lambda: m + m,
               lambda: m + ((3, 1, 1),), lambda: ((3, 1, 1),) + m):
        with pytest.raises(TypeError):
            op()
    acc = m
    with pytest.raises(TypeError):
        acc += m
    with pytest.raises(TypeError):
        acc *= 2
    assert m.mul(m) == Monomial.of([(1, 1, 4), (2, 1, 2)])


def test_monomial_tuple_backing_randomized():
    rng = random.Random(11)
    for _ in range(500):
        pairs = [(rng.randint(1, 5), rng.randint(1, 4), rng.randint(0, 3))
                 for _ in range(rng.randint(0, 6))]
        m = Monomial.of(pairs)
        n = Monomial.of(
            (rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3))
            for _ in range(rng.randint(0, 6))
        )
        triples = tuple(m)
        assert m.exps is m
        assert m.max_row == max((r for r, _, _ in triples), default=0)
        assert m.max_col == max((c for _, c, _ in triples), default=0)
        assert m.degree == sum(e for _, _, e in triples)
        assert hash(m) == hash(triples) and m == Monomial(triples)
        # the merge agrees with adding exponents position by position
        expect: dict = {}
        for r, c, e in tuple(m) + tuple(n):
            expect[(r, c)] = expect.get((r, c), 0) + e
        prod = m.mul(n)
        assert isinstance(prod, Monomial)
        assert prod.exps == tuple((r, c, e) for (r, c), e in sorted(expect.items()))
        assert prod == n.mul(m)


def test_monomial_row_and_column_maps():
    m = Monomial.of([(1, 1, 2), (2, 2, 1)])
    swapped = m.map_rows({1: 2, 2: 1})
    assert swapped == Monomial.of([(2, 1, 2), (1, 2, 1)])
    moved = m.map_cols({1: 3})
    assert moved.exponent(1, 3) == 2
    assert m.row_exponents(1) == (2,)
    assert m.column_degrees(2) == (2, 1)


def test_additive_identity_and_cancellation():
    p = 5
    f = Poly.variable(p, p, 1, 1)
    assert f + Poly.zero(p, p) == f
    # (p-1) copies cancel the original in characteristic p
    assert (f + f.scale(p - 1)).is_zero
    assert (f + (-f)).is_zero


def test_add_example_p2():
    # M_(1,1) + E_(1,1) expands to the four matching products
    from multisym.invariants import elementary, power_sum
    total = power_sum((1, 1), 2, 2) + elementary((1, 1), 2, 2)
    expected = {
        Monomial.of([(1, 1, 1), (1, 2, 1)]): 1,
        Monomial.of([(2, 1, 1), (2, 2, 1)]): 1,
        Monomial.of([(1, 1, 1), (2, 2, 1)]): 1,
        Monomial.of([(1, 2, 1), (2, 1, 1)]): 1,
    }
    assert total.terms == expected


def test_mul_identity_and_frobenius_square():
    from multisym.invariants import power_sum
    p = 2
    f = power_sum((1,), p, 1)
    assert f * Poly.one(p, p) == f
    # (a+b)^2 = a^2 + b^2 in characteristic 2
    assert f * f == power_sum((2,), p, 1)


def test_mul_example_vs_expansion():
    from multisym.invariants import elementary, power_sum
    p = 2
    lhs = power_sum((2,), p, 2) * power_sum((0, 2), p, 2)
    rhs = power_sum((2, 2), p, 2) + elementary((1, 1), p, 2) ** 2
    assert lhs == rhs


def test_prime_and_row_mismatch_errors():
    with pytest.raises(ValueError):
        Poly.one(2, 2) + Poly.one(3, 3)
    with pytest.raises(ValueError):
        Poly.one(2, 2) * Poly.one(2, 3)


def test_frobenius_on_monomials_and_sums():
    from multisym.invariants import power_sum
    p = 3
    assert frobenius(Poly.zero(p, p)).is_zero
    alpha = (2, 1)
    assert frobenius(power_sum(alpha, p, 2)) == power_sum((6, 3), p, 2)
    rng = random.Random(11)
    from multisym.selftest import random_poly
    for _ in range(25):
        f = random_poly(rng, p, p, 2, 3, 4)
        g = random_poly(rng, p, p, 2, 3, 4)
        assert frobenius(f + g) == frobenius(f) + frobenius(g)
        assert frobenius(f * g) == frobenius(f) * frobenius(g)


def test_ring_axioms_randomized():
    from multisym.selftest import suite_ring_axioms
    result = suite_ring_axioms(seed=123, samples=40)
    assert result.passed, result.failures
    result = suite_ring_axioms(seed=123, samples=40, primes=(5, 7))
    assert result.passed, result.failures


def test_mul_against_naive_double_loop():
    from multisym.selftest import suite_mul_oracle
    result = suite_mul_oracle(seed=5, samples=40)
    assert result.passed, result.failures
    result = suite_mul_oracle(seed=5, samples=40, primes=(5, 7))
    assert result.passed, result.failures


@pytest.mark.parametrize("p", [5, 7])
def test_normal_form_edge_cases(p):
    from multisym.selftest import random_poly
    rng = random.Random(p)
    for _ in range(20):
        f = random_poly(rng, p, p, 2, 3, 5)
        assert f.scale(0).is_zero
        assert f.scale(p).is_zero and f.scale(-3 * p).is_zero
        assert f.scale(-1).terms == {m: p - c for m, c in f.terms.items()}
        assert f.scale(2 + p) == f.scale(2)
        assert (f + (-f)).is_zero
        for g in (f * f, f + f.scale(p - 1), f.scale(-2), -f):
            assert all(0 < c < p for c in g.terms.values())
    # raw coefficients handed to the constructor are reduced there
    m = Monomial.of([(1, 1, 1)])
    assert Poly(p, 1, {m: -1}).terms == {m: p - 1}
    assert Poly(p, 1, {m: 3 * p}).is_zero
    records = [{"coeff": 2, "exponents": [[1, 1, 1]]},
               {"coeff": p - 2, "exponents": [[1, 1, 1]]}]
    assert Poly.from_json_obj(p, 1, records).is_zero


def test_map_rows_into_explicit_row_count():
    p = 5
    x = Poly.variable(p, 1, 1, 2, 3)
    assert x.map_rows({1: 4}, p) == Poly.variable(p, p, 4, 2, 3)
    assert x.map_rows({}, 3) == Poly.variable(p, 3, 1, 2, 3)
    # the target may also have fewer rows than the source
    f = Poly.variable(p, p, 2, 1) + Poly.variable(p, p, 3, 1)
    assert f.map_rows({2: 1, 3: 2}, 2) == \
        Poly.variable(p, 2, 1, 1) + Poly.variable(p, 2, 2, 1)
    # terms that merge add up and cancel mod p
    g = Poly.variable(p, 2, 1, 1) + Poly.variable(p, 2, 2, 1).scale(p - 1)
    assert g.map_rows({2: 1}, 2).is_zero
    with pytest.raises(ValueError, match="nrows=3"):
        x.map_rows({1: 4}, 3)
    with pytest.raises(ValueError):
        f.map_rows({1: 2}, 2)  # row 3 is left where it is, past nrows=2


def test_canonical_order_and_text():
    p = 2
    f = Poly.variable(p, p, 1, 1) + Poly.variable(p, p, 1, 2) ** 2
    # graded-lex: the degree-2 term leads, exponent 1 is implicit
    assert f.text() == "x[1,2]^2 + x[1,1]"
    assert Poly.zero(p, p).text() == "0"
    assert Poly.const(p, p, 1).text() == "1"


def test_json_roundtrip():
    p = 3
    from multisym.invariants import power_sum
    f = power_sum((2, 1), p, 2).scale(2)
    obj = f.to_json_obj()
    assert obj[0]["coeff"] == 2
    back = Poly.from_json_obj(p, p, obj)
    assert back == f


def test_homogeneous_degree():
    p = 2
    f = Poly.variable(p, p, 1, 1)
    assert f.homogeneous_degree == 1
    assert (f + Poly.one(p, p)).homogeneous_degree is None
    assert Poly.zero(p, p).homogeneous_degree is None


def test_iter_monomials_counts():
    # 4 variables, degree 2: multiset coefficient C(5,2) = 10
    assert len(list(iter_monomials(2, 2, 2))) == 10
    assert len(list(iter_monomials(2, 2, 0))) == 1


def test_pow_matches_repeated_mul():
    from multisym.invariants import power_sum
    f = power_sum((1, 1), 3, 2)
    assert f ** 3 == f * f * f
    assert f ** 0 == Poly.one(3, 3)
