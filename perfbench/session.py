"""One benchmark session: a fresh Python process that imports multisym
from the checkout's ``src/``, does the workload's set-up, prints ``ready``,
sends the requests of one round through ``multisym.cli.main(argv)`` one
after another (closed loop, one client, one thread), and prints one JSON
line describing the round.

Each request's stdout and stderr are captured.  Its latency covers the
``main(argv)`` call only; the correctness gate runs after the timer stops,
and the member re-expansion check runs after the whole round, so neither
is timed.  ``--expand 0`` skips the re-expansion, for a repetition of a
round whose first run was re-expanded: its outputs must then match the
same reference digests, so they are the bytes already accepted.  With ``--trace 1`` the tracer is installed before set-up, and
uninstalled before any check runs.

Run by ``run.py``; by hand:
    python3 perfbench/session.py --workload member --seed 1 --round 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_library() -> None:
    """Import multisym and its CLI from the checkout, never from
    site-packages."""
    if not (SRC / "multisym" / "__init__.py").is_file():
        sys.exit(f"no multisym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import multisym
    import multisym.cli  # noqa: F401  (the surface the requests go through)
    if Path(multisym.__file__).resolve().parent != (SRC / "multisym").resolve():
        sys.exit(f"multisym imported from {multisym.__file__}, not {SRC}")


def setup(workload) -> None:
    """One-time work the requests would otherwise do on first use."""
    from multisym.cli import build_parser
    from multisym.operators import validate_polarization_closed_form
    # argparse compiles its patterns and imports locale on first use
    build_parser().parse_args(["mingens", "--p", "2"])
    for p in workload.setup_primes:
        if validate_polarization_closed_form(p) is not True:
            sys.exit(f"polarization closed form not validated at p={p}")


def run_round(requests, reference):
    """Send every request; returns the per-request records and the loop's
    wall time.  Records keep member outputs for the deferred check."""
    import multisym.cli as cli
    from gate import digest, failure

    records = []
    loop_start = time.perf_counter()
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(list(argv))
            latency = time.perf_counter() - t0
        stdout = out.getvalue()
        records.append({
            "argv": argv,
            "code": code,
            "latency": latency,
            "digest": digest(stdout),
            "failure": failure(argv, code, stdout, reference, expand=False),
            "stdout": stdout if argv[0] == "member" else None,
        })
    return records, time.perf_counter() - loop_start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expand", type=int, choices=(0, 1), default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the raw spans to this .npz")
    args = parser.parse_args()

    from workloads import WORKLOADS, round_requests
    workload = WORKLOADS[args.workload]
    import_library()
    tracer = None
    if args.trace:
        from tracer import SETUP, Tracer
        tracer = Tracer()
        tracer.install()
        tracer.wrap(SETUP, setup)(workload)
    else:
        setup(workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from gate import expansion_failure, load_reference
    requests = round_requests(workload, args.seed, args.round)
    records, loop_wall = run_round(requests, load_reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {}
    if tracer is not None:
        tracer.uninstall()
        result["metrics"], result["trace"] = tracer.analyse()
        if args.spans:
            tracer.save(args.spans)
    for rec in records:
        if (args.expand and rec["failure"] is None
                and rec["stdout"] is not None):
            rec["failure"] = expansion_failure(rec["argv"], rec["stdout"])

    outputs = hashlib.sha256()
    for rec in records:
        outputs.update(f"{' '.join(rec['argv'])}\t{rec['code']}\t"
                       f"{rec['digest']}\n".encode())
    result.update({
        "round": args.round,
        "latencies": [rec["latency"] for rec in records],
        "failures": [[" ".join(rec["argv"]), rec["failure"]]
                     for rec in records if rec["failure"] is not None],
        "loop_wall_s": loop_wall,
        "peak_rss_mb": peak_rss_mb,
        "outputs_sha256": outputs.hexdigest(),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
