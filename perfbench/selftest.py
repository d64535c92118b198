"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs one pass of every workload with each output deliberately corrupted
before it is checked (two flag vectors swapped, two chain members
swapped, a nil verdict flipped, a root moved, a kernel vector dropped,
an exit code changed).  Every op must then be counted as failed, so
``ok_ratio`` is 0 and ``correct`` is false.  Exits 0 when that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main():
    bad = 0
    for workload in sorted(run.BUILDERS):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run.main(["--workload", workload, "--seed", "0", "--seconds", "0",
                      "--corrupt"])
        result = json.loads(buf.getvalue().splitlines()[-1])
        ok = (result["failed"] == result["attempted"] and not result["correct"]
              and result["metrics"]["ok_ratio"]["value"] == 0)
        bad += not ok
        print(f"{workload}: {result['failed']}/{result['attempted']} corrupted "
              f"outputs counted as failed: {'ok' if ok else 'FAIL'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
