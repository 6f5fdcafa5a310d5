import json

import pytest

from collections import Counter

from multisym.cli import build_parser, main
from multisym.exptuples import parse_tuple
from multisym.expressions import ParseError, parse_expression, recognize
from multisym.invariants import elementary, elementary_column, power_sum
from multisym.poly import Monomial, Poly, frobenius


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expression grammar ------------------------------------------------------

def test_parse_basic_elements():
    p, w = 3, 2
    assert parse_expression("M(1,1)", p, w) == power_sum((1, 1), p, w)
    assert parse_expression("E(1,1)", p, w) == elementary((1, 1), p, w)
    assert parse_expression("Ep(2)", p, w) == elementary((0, 3), p, w)
    assert parse_expression("x[1,2]", p, w) == Poly.variable(p, p, 1, 2)
    assert parse_expression("2", p, w) == Poly.const(p, p, 2)


def test_parse_arithmetic():
    p, w = 3, 2
    f = parse_expression("M(1)*M(1) - 2*M(2)", p, w)
    assert f == power_sum((1,), p, w) ** 2 - power_sum((2,), p, w).scale(2)
    g = parse_expression("M(1)^3", p, w)
    assert g == power_sum((1,), p, w) ** 3
    h = parse_expression("-M(1) + (M(1) + M(1))", p, w)
    assert h == power_sum((1,), p, w)


def test_parse_operators():
    p, w = 3, 2
    assert parse_expression("frobenius(M(1))", p, w) == power_sum((3,), p, w)
    assert parse_expression("psi(M(3,3))", p, w) == power_sum((1, 1), p, w)
    assert parse_expression("polarize(M(5),1,2,2)", p, w) == \
        power_sum((3, 2), p, w)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("M(1,", 2, 2)
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("Q(1)", 2, 2)
    with pytest.raises(ParseError):
        parse_expression("M(1) M(1)", 2, 2)
    with pytest.raises(ParseError):
        parse_expression("x[1,7]", 2, 2)  # column beyond the width


def test_recognize():
    assert recognize(power_sum((3, 2), 3, 2), 2) == "M(3,2)"
    assert recognize(elementary((1, 1), 3, 2), 2) == "E(1,1)"
    assert recognize(Poly.zero(3, 3), 2) == "0"
    assert recognize(power_sum((1,), 3, 2) + Poly.one(3, 3), 2) is None
    assert recognize(Poly.const(3, 3, 2), 2) is None


# -- commands ----------------------------------------------------------------

def test_eval_expansion(capsys):
    code, out, _ = run_cli(capsys, "eval", "M(1,1)", "--p", "3", "--width", "2")
    assert code == 0
    assert out.splitlines()[0].count("+") == 2
    assert "recognized: M(1,1)" in out


def test_eval_splitting_of_square(capsys):
    code, out, _ = run_cli(capsys, "eval", "psi(M(2,2))", "--p", "2")
    assert code == 0
    assert "recognized: M(1,1)" in out


def test_eval_polarize_json(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "polarize(M(5),1,2,2)", "--p", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["recognized"] == "M(3,2)"
    assert len(obj["terms"]) == 3


@pytest.mark.parametrize("expr,printed", [
    ("1", "1"), ("2", "2"), ("M(1)^0", "1"), ("E(0)", "1"),
])
def test_eval_of_a_nonzero_constant(capsys, expr, printed):
    code, out, _ = run_cli(capsys, "eval", expr, "--p", "3")
    assert code == 0
    assert out.splitlines() == [printed]
    code, out, _ = run_cli(capsys, "eval", expr, "--p", "3",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"coeff": int(printed), "exponents": []}]
    assert "recognized" not in obj


def test_ep_column_is_one_based(capsys):
    code, _, err = run_cli(capsys, "eval", "Ep(0)", "--p", "3")
    assert code == 2
    assert "1-based" in err
    with pytest.raises(ValueError):
        elementary_column(3, 0, 3)


@pytest.mark.parametrize("expr", ["1", "E(0)"])
def test_member_of_a_constant_prints_the_empty_product(capsys, expr):
    code, out, _ = run_cli(capsys, "member", expr, "--p", "3")
    assert code == 0
    assert out.splitlines()[-2:] == ["generator combination:", "  1 * 1"]
    code, out, _ = run_cli(capsys, "member", expr, "--p", "3",
                           "--format", "json")
    assert code == 0
    products = json.loads(out)["generator_combination"][0]["products"]
    assert products == [{"coeff": 1, "factors": []}]


def test_eval_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "M(1,", "--p", "2")
    assert code == 2
    assert "position" in err


def test_member_reports(capsys):
    code, out, _ = run_cli(capsys, "member", "M(1,1)", "--p", "3")
    assert code == 0
    assert "in invariant ring: true" in out
    assert "in polarization algebra: true" in out
    code, out, _ = run_cli(capsys, "member", "x[1,1]", "--p", "3")
    assert code == 0
    assert "in invariant ring: false" in out
    code, out, _ = run_cli(
        capsys, "member", "M(1,2)", "--p", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["in_invariant_ring"] is True
    assert isinstance(obj["in_polarization_algebra"], bool)


def test_member_requires_homogeneous(capsys):
    code, _, err = run_cli(capsys, "member", "M(1) + M(2)", "--p", "3")
    assert code == 2
    assert "homogeneous" in err


def test_certify_writes_verified_file(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", "(1,1)", "--pth-power", "--p", "3",
        "--out", str(out_path),
    )
    assert code == 0
    assert "verified: true" in out
    obj = json.loads(out_path.read_text())
    assert obj["target"] == [3, 3]


def test_certify_base_case_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "(2)", "--p", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["certificate"]["terms"] == [{"coeff": 1, "factors": [[1], [1]]}]


def test_mingens_csv(capsys):
    code, out, _ = run_cli(
        capsys, "mingens", "--p", "2", "--width", "2", "--max-degree", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,n,degree,dim_gamma,dim_P,dim_square,dim_quotient,predicted_count,match"
    assert lines[2] == "2,2,2,6,6,3,3,3,true"
    assert all(line.endswith("true") for line in lines[1:])


MINGENS_HEADER = "p,n,degree,dim_gamma,dim_P,dim_square,dim_quotient,predicted_count,match"


@pytest.mark.parametrize("p,width,max_degree,rows", [
    (5, 2, 4, ["5,2,1,2,2,0,2,2,true", "5,2,2,6,6,3,3,3,true",
               "5,2,3,14,14,10,4,4,true", "5,2,4,33,33,28,5,5,true"]),
    (5, 3, 3, ["5,3,1,3,3,0,3,3,true", "5,3,2,12,12,6,6,6,true",
               "5,3,3,38,38,28,10,10,true"]),
    (7, 1, 3, ["7,1,1,1,1,0,1,1,true", "7,1,2,2,2,1,1,1,true",
               "7,1,3,3,3,2,1,1,true"]),
    (11, 1, 2, ["11,1,1,1,1,0,1,1,true", "11,1,2,2,2,1,1,1,true"]),
])
def test_mingens_csv_larger_primes(capsys, p, width, max_degree, rows):
    # the p <= 7 rows are the output of the permutation-based orbit code;
    # the p = 11 rows (orbits x^2 and x*y in degree 2) are checked by hand
    code, out, _ = run_cli(
        capsys, "mingens", "--p", str(p), "--width", str(width),
        "--max-degree", str(max_degree), "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [MINGENS_HEADER] + rows


def test_large_primes_finish(capsys):
    # each of these built all p! row permutations before orbits were keyed
    # by row multisets, which does not fit in memory at p = 11
    code, out, _ = run_cli(capsys, "eval", "E(2)", "--p", "11", "--width", "1")
    assert code == 0
    e2 = Poly(11, 11, {
        Monomial.of([(i, 1, 1), (j, 1, 1)]): 1
        for i in range(1, 12) for j in range(i + 1, 12)
    })
    assert out.splitlines() == [e2.text(), "recognized: E(2)"]

    code, out, _ = run_cli(capsys, "eval", "frobenius(M(1,1))", "--p", "13",
                           "--width", "2")
    assert code == 0
    assert out.splitlines() == [power_sum((13, 13), 13, 2).text(),
                                "recognized: M(13,13)"]

    code, out, _ = run_cli(capsys, "member", "E(1,1)*M(1)", "--p", "11",
                           "--width", "2")
    assert code == 0
    assert out.splitlines() == [
        "expr: E(1,1)*M(1)",
        "in invariant ring: true",
        "in polarization algebra: true",
        "orbit-sum coordinates:",
        "  1 * T[x[10,1] * x[11,1] * x[11,2]]",
        "  2 * T[x[9,2] * x[10,1] * x[11,1]]",
        "  1 * T[x[10,2] * x[11,1]^2]",
        "generator combination:",
        "  1 * E(1,1) * E(1)",
    ]


def expand_combination(obj) -> Poly:
    """Re-expand a member report's generator combination through `Poly`
    and `elementary`.  A factor repeated p times is expanded as the
    Frobenius image of the factor (E^p = frobenius(E) in characteristic
    p), which keeps E(1)^11 at p = 11 to 11 terms."""
    p, width = obj["p"], obj["width"]
    total = Poly.zero(p, p)
    for component in obj["generator_combination"]:
        for prod in component["products"]:
            term = Poly.const(p, p, prod["coeff"])
            for factor, k in Counter(prod["factors"]).items():
                e = elementary(parse_tuple(factor), p, width)
                for _ in range(k // p):
                    term = term * frobenius(e)
                for _ in range(k % p):
                    term = term * e
            total = total + term
    return total


@pytest.mark.parametrize("expr,p,width", [
    ("M(11)", 11, 1),  # ran without a bound while products were expanded
    ("M(5,5)", 5, 2),  # 25 s with expanded products
])
def test_member_of_pth_powers_at_larger_primes(capsys, expr, p, width):
    code, out, _ = run_cli(capsys, "member", expr, "--p", str(p),
                           "--width", str(width), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["in_polarization_algebra"] is True
    assert expand_combination(obj) == parse_expression(expr, p, width)


def test_mingens_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "mingens", "--p", "3", "--width", "2",
                           "--max-degree", "3")
    assert code == 0
    assert "minimal generators p=3" in out
    code, out, _ = run_cli(capsys, "mingens", "--p", "3", "--width", "2",
                           "--max-degree", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[1]["dim_quotient"] == rows[1]["predicted_count"] == 3


def test_witness_pass(capsys):
    code, out, _ = run_cli(capsys, "witness", "--d", "1", "--N", "2",
                           "--p", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["checks"]["splitting_replay_ok"] is True


def test_witness_rejects_small_N(capsys):
    code, _, err = run_cli(capsys, "witness", "--d", "1", "--N", "1", "--p", "2")
    assert code == 2
    assert "N > d" in err


def test_selftest_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    for target in (a, b):
        code, _, _ = run_cli(
            capsys, "selftest", "--seed", "5", "--samples", "3",
            "--out", str(target),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_selftest_mutation_mode_goes_red(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "5", "--samples", "2",
                           "--inject-mutation")
    assert code == 3
    assert "FAIL mutation_control" in out


def test_env_var_defaults(capsys, monkeypatch):
    monkeypatch.setenv("MULTISYM_P", "3")
    monkeypatch.setenv("MULTISYM_WIDTH", "2")
    code, out, _ = run_cli(capsys, "eval", "M(1,1)")
    assert code == 0
    assert out.splitlines()[0].count("+") == 2  # three rows at p=3


def test_parser_is_shared_and_env_is_read_per_call(capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.setenv("MULTISYM_P", "3")
    code3, out3, _ = run_cli(capsys, "eval", "M(1,1)", "--width", "2")
    monkeypatch.delenv("MULTISYM_P")
    code2, out2, _ = run_cli(capsys, "eval", "M(1,1)", "--width", "2")
    assert code3 == code2 == 0
    assert out3.splitlines()[0].count("+") == 2  # three rows at p=3
    assert out2.splitlines()[0].count("+") == 1  # two rows at the default p=2
    # a usage error on the shared parser leaves it working
    assert run_cli(capsys, "eval")[0] == 2
    assert run_cli(capsys, "eval", "M(1)")[0] == 0


def test_config_validation(capsys):
    code, _, err = run_cli(capsys, "eval", "M(1)", "--p", "4")
    assert code == 2
    assert "prime" in err


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run_cli(capsys, "mingens", "--p", "3", "--width", "3",
                           "--max-degree", "6", "--cap", "50")
    assert code == 4
    assert "cap" in err.lower()
