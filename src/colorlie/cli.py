"""Command-line frontend.

Exit codes are stable: 0 success, 1 internal error, 2 parse/validation
failure, 3 theorem-hypothesis failure, 4 field-of-definition failure
(an eigenvalue exists but is irrational).  All rationals are printed in
full, in lowest terms as "p/q" or "p", at any length; nothing is ever
converted to floating point.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    HypothesisFailed,
    IrrationalEigenvalue,
    NoHomogeneousEigenvector,
    ParseError,
    ValidationError,
)
from .fileformat import load_problem
from .graded import flatten_map, flatten_vector
from .algebra import (
    bracket_closure,
    derived_series,
    lower_central_series,
)
from .structure import color_flag, ideal_chain, z3_counterexample
from .linalg import Matrix, _text

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_HYPOTHESIS = 3
EXIT_FIELD = 4


def _coords(g) -> list[int]:
    return list(g.coords())


def _fmt_matrix(m: Matrix) -> list[list[str]]:
    return [[_text(x) for x in row] for row in m.data]


def _print_matrix(m: Matrix, indent: str = "    "):
    rows = _fmt_matrix(m)
    widths = [max((len(row[j]) for row in rows), default=1) for j in range(m.cols)]
    for row in rows:
        cells = "  ".join(x.rjust(w) for x, w in zip(row, widths))
        print(f"{indent}[ {cells} ]")


def _load_algebra(path):
    problem = load_problem(path)
    algebra = bracket_closure(problem.space, problem.bicharacter, problem.generators)
    return problem, algebra


def _subspace_dims(sub) -> dict:
    return {
        "dimension": sub.dim,
        "by_degree": [
            {"degree": _coords(g), "dim": n} for g, n in sub.dims_by_degree().items()
        ],
    }


def cmd_validate(args) -> int:
    problem, algebra = _load_algebra(args.path)
    by_degree = [
        {"degree": _coords(g), "count": len(algebra.basis_indices_of_degree(g))}
        for g in algebra.degrees()
    ]
    if args.json:
        print(json.dumps({
            "valid": True,
            "space_dimension": problem.space.total_dim,
            "generators": len(problem.generators),
            "algebra_dimension": algebra.dim,
            "by_degree": by_degree,
        }, indent=2))
    else:
        print(f"valid problem file: {args.path}")
        print(f"space dimension: {problem.space.total_dim}")
        print(f"generators given: {len(problem.generators)}")
        print(f"bracket closure dimension: {algebra.dim}")
        for item in by_degree:
            print(f"  degree {item['degree']}: {item['count']} basis element(s)")
    return EXIT_OK


def cmd_series(args) -> int:
    _, algebra = _load_algebra(args.path)
    derived = derived_series(algebra)
    lower = lower_central_series(algebra)
    payload = {
        "derived": [_subspace_dims(s) for s in derived],
        "lower_central": [_subspace_dims(s) for s in lower],
        "solvable": derived[-1].dim == 0,
        "nilpotent": lower[-1].dim == 0,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("derived series dimensions:", [s.dim for s in derived])
        print("lower central series dimensions:", [s.dim for s in lower])
        for name, series in (("derived", derived), ("lower central", lower)):
            print(f"{name} series, per-degree dimensions:")
            for i, s in enumerate(series):
                parts = ", ".join(
                    f"{_coords(g)}: {n}" for g, n in s.dims_by_degree().items()
                ) or "0"
                print(f"  step {i}: {parts}")
        print(f"solvable: {payload['solvable']}")
        print(f"nilpotent: {payload['nilpotent']}")
    return EXIT_OK


def cmd_triangularize(args) -> int:
    problem, algebra = _load_algebra(args.path)
    flag = color_flag(
        algebra,
        check_hypotheses=not args.skip_hypotheses,
        nil_policy=args.policy,
        seed=args.seed,
    )
    basis_payload = [
        {
            "degree": _coords(v.degree()),
            "components": [_text(x) for x in flatten_vector(v)],
        }
        for v in flag.ordered_basis
    ]
    weight_payload = [
        {
            "step": k,
            "values": [_text(x) for x in w.values],
        }
        for k, w in enumerate(flag.weights)
    ]
    in_flag = [flag.matrix(g) for g in problem.generators]
    if args.json:
        print(json.dumps({
            "flag_basis": basis_payload,
            "weights_on_closure_basis": weight_payload,
            "generator_matrices_in_flag_basis": [
                {"generator": i, "matrix": _fmt_matrix(m)} for i, m in enumerate(in_flag)
            ],
        }, indent=2))
    else:
        print("homogeneous flag basis (flattened coordinates):")
        for k, item in enumerate(basis_payload):
            print(f"  v{k + 1}  degree {item['degree']}  [{', '.join(item['components'])}]")
        print("weights along the flag (values on the closure basis):")
        for item in weight_payload:
            print(f"  step {item['step']}: [{', '.join(item['values'])}]")
        for i, m in enumerate(in_flag):
            print(f"generator {i} in the flag basis (upper triangular):")
            _print_matrix(m)
    return EXIT_OK


def cmd_chain(args) -> int:
    _, algebra = _load_algebra(args.path)
    chain = ideal_chain(
        algebra,
        check_hypotheses=not args.skip_hypotheses,
        nil_policy=args.policy,
        seed=args.seed,
    )
    payload = []
    for i, sub in enumerate(chain.chain):
        payload.append({
            "index": i,
            "dimension": sub.dim,
            "basis": [
                {
                    "degree": _coords(f.degree),
                    "matrix": _fmt_matrix(flatten_map(f)),
                }
                for f in sub.elements()
            ],
        })
    if args.json:
        print(json.dumps({"chain": payload}, indent=2))
    else:
        print(f"chain of color ideals, dimensions 0..{algebra.dim}:")
        for item in payload:
            print(f"ideal L_{item['index']} (dim {item['dimension']}):")
            for b in item["basis"]:
                print(f"  degree {b['degree']}:")
                for row in b["matrix"]:
                    print(f"    [ {'  '.join(row)} ]")
    return EXIT_OK


def cmd_demo_z3(args) -> int:
    report = z3_counterexample()
    if args.json:
        print(json.dumps({
            "generator_degree": _coords(report.degree),
            "algebra_dimension": report.algebra_dim,
            "derived_dims": list(report.derived_dims),
            "derived_zero": report.derived_zero,
            "solvable": report.solvable,
            "nil_condition_vacuous": report.nil_condition_vacuous,
            "cube_is_identity": report.cube_is_identity,
            "characteristic_polynomial": str(report.characteristic),
            "rational_eigenvalues": [
                {"value": _text(v), "multiplicity": m}
                for v, m in report.rational_eigenvalues
            ],
            "ungraded_eigenvector": [_text(x) for x in report.ungraded_eigenvector],
            "eigenvector_homogeneous": report.eigenvector_homogeneous,
            "grading_certificate_error": report.grading_certificate_error,
            "flag_error": report.flag_error,
            "flag_error_unchecked": report.flag_error_unchecked,
            "orderings": [
                {"basis_order": list(labels), "upper_triangular": ok}
                for labels, ok in report.orderings
            ],
            "orderings_checked": report.orderings_checked,
            "triangularizable": report.triangularizable,
        }, indent=2))
    else:
        print("cyclic-grading counterexample (Z_3, trivial bicharacter)")
        print(f"generator degree: {_coords(report.degree)}")
        print(f"algebra dimension: {report.algebra_dim}")
        print(f"derived series dimensions: {list(report.derived_dims)}")
        print(f"[L, L] = 0: {report.derived_zero}")
        print(f"solvable: {report.solvable}")
        print(f"nil condition on [L, L] vacuously true: {report.nil_condition_vacuous}")
        print(f"A^3 = identity: {report.cube_is_identity}")
        print(f"characteristic polynomial: {report.characteristic}")
        roots = ", ".join(
            f"{_text(v)} (multiplicity {m})" for v, m in report.rational_eigenvalues
        )
        print(f"rational eigenvalues: {roots}")
        vec = ", ".join(_text(x) for x in report.ungraded_eigenvector)
        print(f"eigenvector over the rationals: [{vec}] "
              f"(homogeneous: {report.eigenvector_homogeneous})")
        print(f"grading nilpotency certificate: {report.grading_certificate_error}")
        print(f"color_flag with hypothesis checks: {report.flag_error}")
        print(f"color_flag without hypothesis checks: {report.flag_error_unchecked}")
        print("exhaustive homogeneous basis orderings:")
        for labels, ok in report.orderings:
            print(f"  ({', '.join(labels)}) -> upper triangular: {ok}")
        print(f"orderings checked: {report.orderings_checked}")
        print(f"triangularizable: {report.triangularizable}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorlie",
        description="Exact structure theory of finite-dimensional Lie color algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_theorem_flags=False):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if with_theorem_flags:
            p.add_argument(
                "--skip-hypotheses", action="store_true",
                help="run the algorithm without hypothesis checks",
            )
            p.add_argument("--seed", type=int, default=0,
                           help="seed for probabilistic nil checks")
            p.add_argument(
                "--policy", choices=("auto", "deterministic", "probabilistic"),
                default="auto", help="nil subspace check policy",
            )

    p = sub.add_parser("validate", help="parse and validate a problem file")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("series", help="derived and lower central series")
    p.add_argument("path")
    add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("triangularize",
                       help="compute a color flag making the algebra upper triangular")
    p.add_argument("path")
    add_common(p, with_theorem_flags=True)
    p.set_defaults(func=cmd_triangularize)

    p = sub.add_parser("chain", help="chain of color ideals of every dimension")
    p.add_argument("path")
    add_common(p, with_theorem_flags=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("demo-z3", help="run the cyclic-grading counterexample")
    add_common(p)
    p.set_defaults(func=cmd_demo_z3)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ValidationError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVALID
    except IrrationalEigenvalue as e:
        print(f"field-of-definition failure: {e}", file=sys.stderr)
        if e.char_poly is not None:
            print(f"characteristic factor: {e.char_poly}", file=sys.stderr)
        return EXIT_FIELD
    except (HypothesisFailed, NoHomogeneousEigenvector) as e:
        print(f"hypothesis failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Exception as e:  # any other failure is a bug: one line, no traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
