"""Record the reference output digest of every request any workload can
send, into ``reference.json``.  The gate compares each captured stdout
against it, so run this only on code whose outputs are known good; it
refuses to write when a request exits nonzero or fails an intrinsic
check.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from gate import REFERENCE_PATH, digest, intrinsic_failure, request_key
from session import import_library
from workloads import WORKLOADS


def main() -> int:
    import_library()
    from multisym.cli import main as cli_main

    reference: dict[str, str] = {}
    problems = []
    for workload in WORKLOADS.values():
        for argv in workload.population():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(argv))
            stdout = out.getvalue()
            reason = (f"exit code {code}: {err.getvalue().strip()}" if code
                      else intrinsic_failure(argv, stdout))
            if reason:
                problems.append(f"{request_key(argv)}: {reason}")
            reference[request_key(argv)] = digest(stdout)
        print(f"{workload.name}: {len(workload.population())} requests",
              file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
