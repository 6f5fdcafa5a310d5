"""Checks of the benchmark itself: determinism of its work counters and
output digests, seeding of the request streams, and the correctness gate.

Not collected by the repository's test suite (the name does not match
``test_*.py``); run it explicitly from the repository root:

    python3 -m pytest -q perfbench/check_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import session
from run import END_TO_END_UNITS, MIN_REQUESTS, tail_percentile
from tracer import PER_LAYER_UNITS, WORK_COUNTERS
from workloads import WORKLOADS, round_requests

HERE = Path(__file__).resolve().parent

session.import_library()


def _traced_round(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "session.py"), "--workload", workload,
         "--seed", str(seed), "--round", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                 OPENBLAS_NUM_THREADS="1"),
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_same_seed_repeats_counters_and_digest():
    first = _traced_round("member", 3)
    second = _traced_round("member", 3)
    assert first["failures"] == [] and second["failures"] == []
    for key in WORK_COUNTERS:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["poly.mul_term_pairs"] > 0
    assert first["outputs_sha256"] == second["outputs_sha256"]
    assert first["trace"]["self_sum_error_max_s"] < 1e-6


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(328) == 90
    for n in range(MIN_REQUESTS, 400):
        q = tail_percentile(n)
        assert 80 <= q <= 90 and n * (100 - q) / 100 >= 10


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_picks_the_request_list(name):
    w = WORKLOADS[name]
    assert round_requests(w, 7, 0) == round_requests(w, 7, 0)
    assert round_requests(w, 7, 0) != round_requests(w, 8, 0)
    assert round_requests(w, 7, 1) != round_requests(w, 7, 0)
    assert len(round_requests(w, 7, 0)) == w.round_size
    # enough distinct requests for a tail percentile of at least 80
    assert w.rounds * w.round_size >= MIN_REQUESTS


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_UNITS


def test_every_request_has_a_reference():
    reference = gate.load_reference()
    for w in WORKLOADS.values():
        for argv in w.population():
            assert gate.request_key(argv) in reference, argv


def _capture(argv) -> str:
    import contextlib
    import io
    from multisym.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


MEMBER = ("member", "M(3,6)", "--p", "3", "--width", "3", "--format", "json")
CERTIFY = ("certify", "(1,1)", "--pth-power", "--p", "3", "--format", "json")


def test_gate_accepts_real_outputs():
    reference = gate.load_reference()
    for argv in (MEMBER, CERTIFY):
        assert gate.failure(argv, 0, _capture(argv), reference) is None


def test_gate_rejects_corrupted_output_in_the_loop(monkeypatch):
    import multisym.cli as cli
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        if argv[1] == MEMBER[1]:
            sys.stdout.write(" ")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    other = ("member", "M(6,3)", "--p", "3", "--width", "3", "--format", "json")
    records, _ = session.run_round([MEMBER, other], gate.load_reference())
    assert [r["failure"] for r in records] == [
        "output differs from the reference", None]


def test_gate_rejects_exit_codes_and_intrinsic_failures():
    reference = gate.load_reference()
    stdout = _capture(MEMBER)
    assert gate.failure(MEMBER, 3, stdout, reference) == "exit code 3"

    # a wrong combination must fail re-expansion even when its bytes were
    # (wrongly) recorded as the reference
    obj = json.loads(stdout)
    obj["generator_combination"][0]["products"][0]["coeff"] += 1
    bad = json.dumps(obj, indent=2) + "\n"
    forged = {gate.request_key(MEMBER): gate.digest(bad)}
    assert gate.failure(MEMBER, 0, bad, forged, expand=False) is None
    assert gate.failure(MEMBER, 0, bad, forged) is not None
    assert gate.expansion_failure(MEMBER, bad) is not None

    cert = json.loads(_capture(CERTIFY))
    cert["verified"] = False
    assert gate.intrinsic_failure(CERTIFY, json.dumps(cert)) == \
        "certificate not verified"
    assert gate.intrinsic_failure(
        ("mingens",), "p,n,degree\n2,2,1,true\n2,2,2,false\n") is not None
