"""Growth curve of ``color_flag`` and ``ideal_chain`` on Borel algebras.

    PYTHONPATH=src python3 tests/growth.py --label change --out BENCH_13.json

Times both calls on the n x n Borel algebra (``corpus.borel_generators``)
in the ``plain`` and ``z`` gradings for every n in ``--sizes``.  Each
call gets a freshly closed algebra, so its structure table is built
inside the timed call; the median of ``--repeats`` runs is kept.  The
package is whatever ``colorlie`` imports, so pointing PYTHONPATH at
another checkout's ``src`` times that checkout with the same inputs.
The results are stored under ``--label`` in the ``--out`` JSON file;
other labels already there are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

from colorlie import bracket_closure, color_flag, ideal_chain
from corpus import borel_generators

CALLS = {"color_flag": color_flag, "ideal_chain": ideal_chain}


def time_call(fn, n: int, grading: str, repeats: int) -> float:
    runs = []
    for _ in range(repeats):
        L = bracket_closure(*borel_generators(n, grading))
        t0 = time.perf_counter()
        fn(L)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    seconds = {
        f"{name}/{grading}/n={n}": round(time_call(fn, n, grading, args.repeats), 4)
        for name, fn in CALLS.items()
        for grading in ("plain", "z")
        for n in args.sizes
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("unit", "s, median of repeats")
    doc["command"] = ("PYTHONPATH=<checkout>/src python3 tests/growth.py"
                      f" --label <label> --out <file> --repeats {args.repeats}")
    doc["python"] = platform.python_version()
    doc["cpus"] = os.cpu_count()
    doc.setdefault("results", {})[args.label] = {"repeats": args.repeats, "seconds": seconds}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for key, s in seconds.items():
        print(f"{args.label:8} {key:28} {s:8.4f}")


if __name__ == "__main__":
    main()
