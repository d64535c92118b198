"""Growth curve of ``bracket_closure``, ``color_flag``, ``ideal_chain``,
the structure table, ``nil_subspace_check`` and the CLI's ``validate``,
``chain`` and ``triangularize``.

    PYTHONPATH=src python3 tests/growth.py --label change --out BENCH_33.json

Times ``bracket_closure`` of the unit maps E_ij (rows ``closure/...``),
and ``color_flag``, ``ideal_chain`` and the structure-constant table
(``ColorAlgebra._structure``, rows ``table/...``) on their closure, the
n x n Borel algebra (``corpus.borel_generators``), in the ``plain`` and
``z`` gradings, ``color_flag`` and ``ideal_chain`` on the closure of the
dense family, the plain Borel generators conjugated by a rational
unimodular matrix (``corpus.rational_conjugated_borel``, seeded by n;
rows ``color_flag/dense/...`` and ``ideal_chain/dense/...``) at the fixed
sizes n = 4, 6 and 8, a second ``color_flag`` and ``ideal_chain`` on an
algebra that the same call has already used, plain Borel at every size
and dense at 4, 6 and 8 (rows ``.../warm/plain/...`` and
``.../warm/dense/...``, timing the call with the algebra's kept
[L, L], adapted basis and sparse maps), and ``nil_subspace_check``
(deterministic policy) on a nil span of s = 3 and s = 4
unimodular-conjugated strictly upper triangular n x n matrices (``corpus.conjugated_nil_span``, seeded by n and s), and
``cli.main([command, "--json", path])`` in process, its output captured:
``validate`` and ``chain`` on the problem file that ``serialize_problem``
writes for the plain n x n Borel algebra's scaled generators
(``corpus.borel_problem_generators``, seeded by n; rows
``validate/borel/...`` and ``chain/borel/...``), which time parsing, the
closure and printing the chain's maps, and ``triangularize`` on a problem
file with a 1 x 1 degree-0 generator beside an unused (n^2 - 1)-dimensional
component (``corpus.unused_component_doc``, rows
``triangularize/unused/...``, an n^2-dimensional space), for every n in
``--sizes``.  Each other algebra call gets a freshly closed
algebra, so its structure table is built inside the timed call.  Each
row keeps the median of ``--repeats`` runs (``seconds``) and, beside
it, their least and greatest (``min`` and ``max``), the spread a change
must be read against.  Times are CPU seconds of this process
(``time.process_time``), which a shared machine's other load disturbs
less than wall-clock time.  The package is whatever ``colorlie``
imports, so pointing PYTHONPATH at another checkout's ``src`` times that
checkout with the same inputs.  The results are stored under ``--label``
in the ``--out`` JSON file; other labels already there are kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import tempfile
import time

from colorlie import (
    ColorAlgebra, ProblemFile, bracket_closure, color_flag, ideal_chain,
    nil_subspace_check, serialize_problem,
)
from colorlie.cli import main as cli_main
from corpus import (
    borel_generators, borel_problem_generators, conjugated_nil_span, rational_conjugated_borel,
    unused_component_doc,
)

CLOCK = time.process_time
CALLS = {"color_flag": color_flag, "ideal_chain": ideal_chain,
         "table": ColorAlgebra._structure}
NIL_SIZES = (3, 4)
DENSE_SIZES = (4, 6, 8)


def times(prepare, fn, repeats: int) -> list[float]:
    runs = []
    for _ in range(repeats):
        arg = prepare()
        t0 = CLOCK()
        fn(arg)
        runs.append(CLOCK() - t0)
    return runs


def cli(command: str):
    """The CLI's ``command --json`` on a path, its output captured."""
    def run(path) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if cli_main([command, "--json", path]) != 0:
                raise RuntimeError(f"{command} failed on {path}")
    return run


def write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def plain(n: int) -> ColorAlgebra:
    return bracket_closure(*borel_generators(n, "plain"))


def dense(n: int) -> ColorAlgebra:
    return bracket_closure(*rational_conjugated_borel(random.Random(n), n, "plain"))


def used(L: ColorAlgebra, fn) -> ColorAlgebra:
    """L after one call of fn, which keeps on it what L alone gives."""
    fn(L)
    return L


def cases(sizes, tmp):
    """(key, prepare, fn) for every timed call; problem files go in the
    directory tmp."""
    for grading in ("plain", "z"):
        for n in sizes:
            yield (f"closure/{grading}/n={n}",
                   lambda n=n, grading=grading: borel_generators(n, grading),
                   lambda args: bracket_closure(*args))
    for name, fn in CALLS.items():
        for grading in ("plain", "z"):
            for n in sizes:
                yield (f"{name}/{grading}/n={n}",
                       lambda n=n, grading=grading: bracket_closure(*borel_generators(n, grading)),
                       fn)
    for name in ("color_flag", "ideal_chain"):
        for n in DENSE_SIZES:
            yield f"{name}/dense/n={n}", lambda n=n: dense(n), CALLS[name]
    for name in ("color_flag", "ideal_chain"):
        fn = CALLS[name]
        for family, make, family_sizes in (("plain", plain, sizes), ("dense", dense, DENSE_SIZES)):
            for n in family_sizes:
                yield f"{name}/warm/{family}/n={n}", lambda make=make, n=n, fn=fn: used(make(n), fn), fn
    for s in NIL_SIZES:
        for n in sizes:
            span = conjugated_nil_span(random.Random(100 * n + s), n, s)
            yield (f"nil_subspace_check/s={s}/n={n}", lambda span=span: span,
                   lambda mats: nil_subspace_check(mats, policy="deterministic"))
    for n in sizes:
        space, r, gens = borel_problem_generators(random.Random(n), n, "plain")
        doc = serialize_problem(ProblemFile(space.group, r, space, tuple(gens)))
        path = write_json(os.path.join(tmp, f"borel{n}.json"), doc)
        for command in ("validate", "chain"):
            yield f"{command}/borel/n={n}", lambda path=path: path, cli(command)
    for n in sizes:
        path = write_json(os.path.join(tmp, f"unused{n * n}.json"), unused_component_doc(n * n))
        yield f"triangularize/unused/n={n}", lambda path=path: path, cli("triangularize")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 10, 12])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        runs = {key: times(prepare, fn, args.repeats) for key, prepare, fn in cases(args.sizes, tmp)}
    seconds = {key: round(statistics.median(r), 4) for key, r in runs.items()}
    low = {key: round(min(r), 4) for key, r in runs.items()}
    high = {key: round(max(r), 4) for key, r in runs.items()}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("unit", "s, median of repeats")
    doc["clock"] = f"time.{CLOCK.__name__}"
    doc["command"] = ("PYTHONPATH=<checkout>/src python3 tests/growth.py"
                      f" --label <label> --out <file> --repeats {args.repeats}")
    doc["python"] = platform.python_version()
    doc["cpus"] = os.cpu_count()
    doc.setdefault("results", {})[args.label] = {
        "repeats": args.repeats, "seconds": seconds, "min": low, "max": high,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for key, s in seconds.items():
        print(f"{args.label:8} {key:32} {s:8.4f}  [{low[key]:.4f}, {high[key]:.4f}]")


if __name__ == "__main__":
    main()
