"""Closed-loop request-stream benchmark of the multisym CLI.

    python3 perfbench/run.py --workload member --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
One client sends each request through ``multisym.cli.main(argv)`` only
after the previous one finished, in one thread.  Requests come in rounds
(see ``workloads.py``); each round runs in a fresh Python process, so the
library's caches start cold and fill as they would in a user's session.

``--trace 0`` sends the workload's ``rounds`` distinct rounds again and
again, interleaved, each time in a fresh process, until the requests have
taken ``--seconds`` of timed loop and every round was sent MIN_REPS times.
A request is the same work in every repetition (same argv after the same
requests, same cold caches), so its latency is taken as the least over its
repetitions: the time the program needs, without the moments the shared
host ran slow.  Every repetition goes through the correctness gate; only
the first re-expands member results, since later ones must reproduce the
same reference bytes.  Set-up is topped up to SETUP_SAMPLES fresh
processes.  The end-to-end metrics:

    setup_s      process start to ready (import plus first-use validation),
                 median over the run's processes
    req_p50_s    median request latency
    req_tail_s   tail latency: the highest percentile, at most the 90th,
                 with at least 10 samples beyond it (see tail_percentile)
    req_per_s    requests completed per second of timed loop, the loop
                 being the requests at their latencies above
    ok_ratio     requests that passed the correctness gate over requests
                 sent, i.e. 1 - failed_ratio (a ratio that is never 0)
    peak_rss_mb  peak resident set size of a run process

``--trace 1`` runs the workload's rounds once with spans recorded (see
``tracer.py``), then the same rounds untraced, and reports the per-layer
metrics.  Those rounds do not depend on the machine,
so the work counters and the output digest repeat exactly for a seed.

The last line of stdout is the result object; the line before it carries
the details (environment, sample counts, output digest), which are also
written to ``.bench_out/``.  Exits nonzero, without a result, when the
checkout holds no multisym sources or a process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS, derive, layer_shares
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

MIN_REQUESTS = 50  # distinct requests in a run: the tail is at least p80
MIN_REPS = 3
SETUP_SAMPLES = 5
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "req_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

SESSION_ENV = {
    # numpy starts no helper threads: the run uses one thread
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    # fixed set and dict layouts, so identical runs do identical work
    "PYTHONHASHSEED": "0",
}


class SessionError(RuntimeError):
    pass


class Runner:
    """Starts sessions one at a time and kills any that outlives the
    run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **SESSION_ENV)

    def session(self, round_index: int = 0, trace: bool = False,
                setup_only: bool = False, spans: Path | None = None,
                expand: bool = True) -> dict:
        cmd = [sys.executable, str(HERE / "session.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--round", str(round_index), "--trace", str(int(trace)),
               "--expand", str(int(expand))]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise SessionError("run deadline passed")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "ready" or code != 0:
            raise SessionError(f"session {cmd[2:]} exited with {code}")
        result = json.loads(rest.splitlines()[-1]) if not setup_only else {}
        result["setup_s"] = setup_s
        return result


def outputs_digest(sessions: list[dict]) -> str:
    h = hashlib.sha256()
    for s in sessions:
        h.update(s["outputs_sha256"].encode())
    return h.hexdigest()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(n: int) -> int:
    """The highest percentile, at most the 90th, that leaves at least 10 of
    n samples beyond it."""
    return min(90, math.floor(100 * (1 - 10 / n)))


def untraced(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    runner.session(setup_only=True)  # warm-up: bytecode and file cache
    reps: list[list[dict]] = [[] for _ in range(workload.rounds)]
    timed = 0.0
    while timed < seconds or len(reps[-1]) < MIN_REPS:
        r = sum(map(len, reps)) % workload.rounds
        s = runner.session(round_index=r, expand=not reps[r])
        reps[r].append(s)
        timed += sum(s["latencies"])
    sessions = [s for done in reps for s in done]
    setups = [s["setup_s"] for s in sessions]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.session(setup_only=True)["setup_s"])

    # per request, the least latency over the repetitions of its round
    latencies = [min(lat) for done in reps
                 for lat in zip(*(s["latencies"] for s in done))]
    sent = sum(len(s["latencies"]) for s in sessions)
    tail = tail_percentile(len(latencies))
    failures = [f for s in sessions for f in s["failures"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": percentile(latencies, tail),
        "req_per_s": len(latencies) / sum(latencies),
        "ok_ratio": (sent - len(failures)) / sent,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
    }
    detail = {
        "sessions": len(sessions),
        "repetitions": [len(done) for done in reps],
        "sent": sent,
        "samples": len(latencies),
        "tail_percentile": tail,
        "samples_beyond_tail": sum(x > metrics["req_tail_s"]
                                   for x in latencies),
        "setup_samples_s": setups,
        "rounds": [[len(s["latencies"]), sum(s["latencies"])]
                   for s in sessions],
        "timed_loop_s": timed,
        "failures": failures,
        "outputs_sha256": outputs_digest([done[0] for done in reps]),
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, detail)


def traced(runner: Runner, workload) -> tuple[dict, dict]:
    rounds = workload.rounds
    OUT.mkdir(exist_ok=True)
    runner.session(setup_only=True)  # warm-up: bytecode and file cache
    tsessions = [
        runner.session(round_index=r, trace=True,
                       spans=OUT / f"spans-{workload.name}-seed{runner.seed}"
                                   f"-round{r}.npz")
        for r in range(rounds)
    ]
    plain = [runner.session(round_index=r) for r in range(rounds)]
    overhead = (sum(s["loop_wall_s"] for s in tsessions)
                / sum(s["loop_wall_s"] for s in plain))
    metrics = derive([s["metrics"] for s in tsessions], overhead)
    digest = outputs_digest(tsessions)
    if digest != outputs_digest(plain):
        raise SessionError("traced and untraced outputs differ")
    detail = {
        "sessions": rounds,
        "sent": sum(len(s["latencies"]) for s in tsessions),
        "samples": sum(len(s["latencies"]) for s in tsessions),
        "layer_shares": layer_shares([s["metrics"] for s in tsessions]),
        "span_trees": [s["trace"] for s in tsessions],
        "failures": [f for s in tsessions for f in s["failures"]],
        "outputs_sha256": digest,
    }
    return ({k: {"value": v, "unit": PER_LAYER_UNITS[k]}
             for k, v in metrics.items()}, detail)


def environment() -> dict:
    import numpy
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multisym").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": SESSION_ENV,
        "load_shape": "closed loop, 1 client, 1 thread, fresh process per round",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "multisym" / "__init__.py").is_file():
        print(f"error: no multisym sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload.name, args.seed)
    try:
        if args.trace:
            metrics, detail = traced(runner, workload)
        else:
            metrics, detail = untraced(runner, workload, args.seconds)
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(detail["failures"])
    attempted = detail["sent"]
    detail.update(workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=environment())
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
