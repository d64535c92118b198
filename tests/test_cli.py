"""Command-line interface: parsing, round trips, command output and the
stable exit-code contract."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from colorlie import ParseError, load_problem, parse_problem, serialize_problem
from colorlie.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- parsing


def test_load_sample_problems():
    for name in ("z3_torsion", "borel2", "heisenberg", "graded_solvable", "rotation", "sl2"):
        problem = load_problem(PROBLEMS / f"{name}.json")
        assert problem.space.total_dim >= 1


def test_roundtrip_serialization():
    for name in ("z3_torsion", "borel2", "heisenberg", "graded_solvable"):
        problem = load_problem(PROBLEMS / f"{name}.json")
        again = parse_problem(serialize_problem(problem))
        assert again == problem


def test_parse_rejects_floats(tmp_path):
    doc = {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": 1}],
        "generators": [
            {"degree": [], "blocks": [{"source": [], "matrix": [[0.5]]}]}
        ],
    }
    with pytest.raises(ParseError) as info:
        parse_problem(doc)
    assert "floating-point" in str(info.value)


def test_parse_rejects_malformed_rational():
    doc = {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": 1}],
        "generators": [
            {"degree": [], "blocks": [{"source": [], "matrix": [["1.5"]]}]}
        ],
    }
    with pytest.raises(ParseError):
        parse_problem(doc)


def test_parse_error_is_anchored(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"group\": [,]\n}\n")
    with pytest.raises(ParseError) as info:
        load_problem(bad)
    assert ":2:" in str(info.value)


def test_parse_missing_key():
    with pytest.raises(ParseError) as info:
        parse_problem({"group": {"free_rank": 1, "torsion_moduli": []}})
    assert "bicharacter" in str(info.value)


def test_parse_duplicate_degree():
    doc = {
        "group": {"free_rank": 1, "torsion_moduli": []},
        "bicharacter": [["1"]],
        "space": [{"degree": [0], "dim": 1}, {"degree": [0], "dim": 2}],
        "generators": [],
    }
    with pytest.raises(ParseError) as info:
        parse_problem(doc)
    assert "duplicate degree" in str(info.value)


def test_parse_duplicate_block_source():
    doc = {
        "group": {"free_rank": 1, "torsion_moduli": []},
        "bicharacter": [["1"]],
        "space": [{"degree": [0], "dim": 1}],
        "generators": [
            {
                "degree": [0],
                "blocks": [
                    {"source": [0], "matrix": [["1"]]},
                    {"source": [0], "matrix": [["2"]]},
                ],
            }
        ],
    }
    with pytest.raises(ParseError) as info:
        parse_problem(doc)
    assert "duplicate source" in str(info.value)


def test_parse_wrong_degree_length():
    doc = {
        "group": {"free_rank": 2, "torsion_moduli": []},
        "bicharacter": [["1", "1"], ["1", "1"]],
        "space": [{"degree": [0], "dim": 1}],
        "generators": [],
    }
    with pytest.raises(ParseError) as info:
        parse_problem(doc)
    assert "coordinates" in str(info.value)


def _z2_doc(value, coord):
    """Z^2 grading under [[1, v], [1/v, 1]] with one degree (coord, 0)."""
    return {
        "group": {"free_rank": 2, "torsion_moduli": []},
        "bicharacter": [["1", str(value)], [str(1 / Fraction(value)), "1"]],
        "space": [{"degree": [0, 0], "dim": 1}, {"degree": [coord, 0], "dim": 1}],
        "generators": [],
    }


def test_parse_bounds_bicharacter_powers(tmp_path, capsys):
    # Parsing never evaluates the bicharacter.  A 2-bit value allows
    # (2B)^2 * 2 <= 2**20, i.e. free coordinates up to B = 362.
    assert parse_problem(_z2_doc(2, 362)).space.total_dim == 2
    with pytest.raises(ParseError) as info:
        parse_problem(_z2_doc(2, 363))
    assert "2**20" in str(info.value)
    # the bound reads the generator degrees too, and the denominator
    doc = _z2_doc(Fraction(1, 1024), 0)
    doc["generators"] = [{"degree": [0, -200], "blocks": []}]
    with pytest.raises(ParseError):
        parse_problem(doc)
    # values +-1 cost nothing, however large the degrees
    doc = _z2_doc(-1, 10 ** 9)
    assert parse_problem(doc).space.total_dim == 2
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_z2_doc(3, 10 ** 6)))
    with pytest.raises(ParseError):
        load_problem(path)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert "bicharacter" in err and "2**20" in err


# ------------------------------------------------------------ validate


def test_validate_z3(capsys):
    code, out, err = run(capsys, "validate", str(PROBLEMS / "z3_torsion.json"))
    assert code == 0
    assert "closure dimension: 1" in out


def test_validate_json_mode(capsys):
    code, out, err = run(
        capsys, "validate", str(PROBLEMS / "z3_torsion.json"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["algebra_dimension"] == 1
    assert payload["by_degree"] == [{"degree": [2], "count": 1}]


def test_validate_bad_bicharacter(tmp_path, capsys):
    doc = {
        "group": {"free_rank": 0, "torsion_moduli": [3]},
        "bicharacter": [["-1"]],
        "space": [{"degree": [0], "dim": 1}],
        "generators": [],
    }
    path = tmp_path / "bad_bichar.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "TorsionIncompatible" in err


def test_validate_empty_generators(tmp_path, capsys):
    doc = {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": 2}],
        "generators": [],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0
    assert "closure dimension: 0" in out


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/no/such/file.json")
    assert code == 2


def test_validate_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ParseError):
        load_problem(path)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2


# -------------------------------------------------------------- series


def test_series_z3(capsys):
    code, out, err = run(capsys, "series", str(PROBLEMS / "z3_torsion.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert [s["dimension"] for s in payload["derived"]] == [1, 0]
    assert payload["solvable"] is True


def test_series_heisenberg(capsys):
    code, out, err = run(capsys, "series", str(PROBLEMS / "heisenberg.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert [s["dimension"] for s in payload["lower_central"]] == [3, 1, 0]
    assert payload["nilpotent"] is True


def test_series_zero_algebra(tmp_path, capsys):
    doc = {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": 1}],
        "generators": [],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "series", str(path), "--json")
    payload = json.loads(out)
    assert [s["dimension"] for s in payload["derived"]] == [0]
    assert [s["dimension"] for s in payload["lower_central"]] == [0]


# ------------------------------------------------------- triangularize


def test_triangularize_borel(capsys):
    code, out, err = run(
        capsys, "triangularize", str(PROBLEMS / "borel2.json"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    for entry in payload["generator_matrices_in_flag_basis"]:
        m = entry["matrix"]
        n = len(m)
        for i in range(n):
            for j in range(i):
                assert m[i][j] == "0"


def test_triangularize_graded(capsys):
    code, out, err = run(
        capsys, "triangularize", str(PROBLEMS / "graded_solvable.json")
    )
    assert code == 0
    assert "upper triangular" in out


def test_triangularize_torsion_exit_3(capsys):
    code, out, err = run(capsys, "triangularize", str(PROBLEMS / "z3_torsion.json"))
    assert code == 3
    assert "TorsionGrading" in err


def test_triangularize_torsion_skip_hypotheses(capsys):
    code, out, err = run(
        capsys,
        "triangularize",
        str(PROBLEMS / "z3_torsion.json"),
        "--skip-hypotheses",
    )
    assert code == 3
    assert "NoHomogeneousEigenvector" in err


def test_triangularize_rotation_exit_4(capsys):
    code, out, err = run(capsys, "triangularize", str(PROBLEMS / "rotation.json"))
    assert code == 4
    assert "t^2 + 1" in err


def test_triangularize_policy_flag(capsys):
    code, out, err = run(
        capsys,
        "triangularize",
        str(PROBLEMS / "borel2.json"),
        "--policy",
        "probabilistic",
        "--seed",
        "7",
    )
    assert code == 0


# ---------------------------------------------------------------- chain


def test_chain_heisenberg(capsys):
    code, out, err = run(capsys, "chain", str(PROBLEMS / "heisenberg.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert [s["dimension"] for s in payload["chain"]] == [0, 1, 2, 3]


def test_chain_dim_one(tmp_path, capsys):
    doc = {
        "group": {"free_rank": 1, "torsion_moduli": []},
        "bicharacter": [["1"]],
        "space": [{"degree": [0], "dim": 1}, {"degree": [1], "dim": 1}],
        "generators": [
            {"degree": [1], "blocks": [{"source": [0], "matrix": [["1"]]}]}
        ],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chain", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert [s["dimension"] for s in payload["chain"]] == [0, 1]


def _borel_problem(tmp_path, n):
    def unit(i, j):
        rows = [["1" if (r, c) == (i, j) else "0" for c in range(n)] for r in range(n)]
        return {"degree": [], "blocks": [{"source": [], "matrix": rows}]}

    doc = {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": n}],
        "generators": [unit(i, i) for i in range(n)]
        + [unit(i, i + 1) for i in range(n - 1)],
    }
    path = tmp_path / f"borel{n}.json"
    path.write_text(json.dumps(doc))
    return path


def test_deterministic_policy_on_borel_four(tmp_path, capsys):
    # [L, L] has six basis matrices, beyond the size where "auto" is
    # deterministic; the exact nil check must still finish promptly
    path = _borel_problem(tmp_path, 4)
    code, out, err = run(
        capsys, "chain", str(path), "--policy", "deterministic", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["dimension"] for s in payload["chain"]] == list(range(11))
    code, out, err = run(
        capsys, "triangularize", str(path), "--policy", "deterministic", "--json"
    )
    assert code == 0


def test_triangularize_thirty_digit_eigenvalue(tmp_path, capsys):
    # the weights are roots of (t - 1)(t - big); finding them must not
    # depend on the size of big's divisors
    big = 123456789012345678901234567891
    doc = {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": 2}],
        "generators": [
            {"degree": [], "blocks": [{"source": [], "matrix": [["1", "0"], ["0", str(big)]]}]}
        ],
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "triangularize", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    weights = sorted(w["values"][0] for w in payload["weights_on_closure_basis"])
    assert weights == sorted(["1", str(big)])


def test_chain_torsion_exit_3(capsys):
    code, out, err = run(capsys, "chain", str(PROBLEMS / "z3_torsion.json"))
    assert code == 3


def test_unexpected_exception_exit_1(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("closure exploded")

    monkeypatch.setattr("colorlie.cli.bracket_closure", broken)
    code, out, err = run(capsys, "validate", str(PROBLEMS / "borel2.json"))
    assert code == 1
    assert out == ""
    assert err == "internal error: RuntimeError: closure exploded\n"


# -------------------------------------------------------------- demo-z3


def test_parser_built_once_and_reusable(capsys):
    """main parses with one parser per process; --help and a usage error
    on it leave later calls' options and defaults intact."""
    from colorlie.cli import _parser, build_parser

    path = str(PROBLEMS / "borel2.json")
    first = run(capsys, "triangularize", path, "--json")
    assert first[0] == 0
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()
    with pytest.raises(SystemExit) as info:
        main(["triangularize", path, "--policy", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()
    assert run(capsys, "triangularize", path, "--json") == first
    assert _parser() is _parser()


def test_demo_z3_text(capsys):
    code, out, err = run(capsys, "demo-z3")
    assert code == 0
    assert "generator degree: [2]" in out
    assert "A^3 = identity: True" in out
    assert "triangularizable: False" in out
    assert out.count("upper triangular: False") == 6


def test_demo_z3_json(capsys):
    code, out, err = run(capsys, "demo-z3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generator_degree"] == [2]
    assert payload["orderings_checked"] == 6
    assert payload["triangularizable"] is False
    assert payload["characteristic_polynomial"] == "t^3 - 1"
    assert payload["cube_is_identity"] is True


# --------------------------------------------------- output formatting


def test_rationals_print_in_lowest_terms(capsys):
    code, out, err = run(
        capsys, "triangularize", str(PROBLEMS / "graded_solvable.json"), "--json"
    )
    payload = json.loads(out)
    for entry in payload["weights_on_closure_basis"]:
        for value in entry["values"]:
            assert "." not in value
    # deterministic output
    code2, out2, err2 = run(
        capsys, "triangularize", str(PROBLEMS / "graded_solvable.json"), "--json"
    )
    assert out == out2


# ----------------------------------------- nil hypothesis on [L, L]

NONNIL_ERR = (
    "hypothesis failure: HypothesisFailed: derived subalgebra component at "
    "degree (0) contains non-nilpotent elements\n"
)


def test_nonnil_derived_exit_3(capsys):
    path = str(PROBLEMS / "nonnil_derived.json")
    for command in ("triangularize", "chain"):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, command, path, *extra)
            assert (code, out, err) == (3, "", NONNIL_ERR)
    code, out, err = run(capsys, "triangularize", path, "--skip-hypotheses")
    assert code == 3
    assert "NoHomogeneousEigenvector" in err


def test_nonnil_derived_preempts_irrational_eigenvalue(tmp_path, capsys):
    # a rotation on the common kernel of [L, L] = <P> has no rational
    # eigenvalue, but the whole filtration is built before any eigenvalue
    # search, so the failed nil hypothesis (exit 3) is what is reported
    doc = {
        "group": {"free_rank": 1, "torsion_moduli": []},
        "bicharacter": [["-1"]],
        "space": [{"degree": [0], "dim": 3}, {"degree": [1], "dim": 1}],
        "generators": [
            {"degree": [1], "blocks": [{"source": [0], "matrix": [["1", "0", "0"]]}]},
            {"degree": [-1], "blocks": [{"source": [1], "matrix": [["1"], ["0"], ["0"]]}]},
            {"degree": [0], "blocks": [{"source": [0], "matrix": [
                ["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]]}]},
        ],
    }
    path = tmp_path / "nonnil_rotation.json"
    path.write_text(json.dumps(doc))
    for command in ("triangularize", "chain"):
        code, out, err = run(capsys, command, str(path))
        assert (code, err) == (3, NONNIL_ERR)
    code, out, err = run(capsys, "triangularize", str(path), "--skip-hypotheses")
    assert code == 3
    assert err.endswith("[flag depth 2]\n")


def test_deterministic_policy_on_borel_six(tmp_path, capsys):
    # a filtration that reaches V certifies the nil hypothesis, so the
    # deterministic policy costs nothing on success (its layer has
    # 38,760 points for the fifteen matrices of [L, L] here)
    path = _borel_problem(tmp_path, 6)
    code, out, err = run(
        capsys, "triangularize", str(path), "--policy", "deterministic", "--json"
    )
    assert code == 0
    assert _upper(json.loads(out))


def _upper(payload):
    return all(
        m[i][j] == "0"
        for entry in payload["generator_matrices_in_flag_basis"]
        for m in [entry["matrix"]]
        for i in range(len(m))
        for j in range(i)
    )


SL2_VALIDATE = (
    "valid problem file: {path}\n"
    "space dimension: 3\n"
    "generators given: 2\n"
    "bracket closure dimension: 3\n"
    "  degree []: 3 basis element(s)\n"
)
SL2_VALIDATE_JSON = {
    "valid": True, "space_dimension": 3, "generators": 2, "algebra_dimension": 3,
    "by_degree": [{"degree": [], "count": 3}],
}
SL2_SERIES = (
    "derived series dimensions: [3]\n"
    "lower central series dimensions: [3]\n"
    "derived series, per-degree dimensions:\n"
    "  step 0: []: 3\n"
    "lower central series, per-degree dimensions:\n"
    "  step 0: []: 3\n"
    "solvable: False\n"
    "nilpotent: False\n"
)
SL2_SERIES_JSON = {
    "derived": [{"dimension": 3, "by_degree": [{"degree": [], "dim": 3}]}],
    "lower_central": [{"dimension": 3, "by_degree": [{"degree": [], "dim": 3}]}],
    "solvable": False,
    "nilpotent": False,
}
SL2_ERR = "hypothesis failure: NotSolvable: algebra is not solvable"


def test_sl2_outputs(capsys):
    # sl_2 on F^2 + F is perfect: validate and series succeed, while
    # triangularize and chain exit 3 with NotSolvable.  Checked, it is
    # raised before any flag step; unchecked, at the depth where the
    # filtration of [L, L] stalls: the trivial line for the flag, nothing
    # for the adjoint chain
    path = str(PROBLEMS / "sl2.json")
    assert run(capsys, "validate", path) == (0, SL2_VALIDATE.format(path=path), "")
    assert run(capsys, "series", path) == (0, SL2_SERIES, "")
    for command, want in (("validate", SL2_VALIDATE_JSON), ("series", SL2_SERIES_JSON)):
        code, out, err = run(capsys, command, path, "--json")
        assert (code, err) == (0, "")
        assert out == json.dumps(want, indent=2) + "\n"
    for command, depth in (("triangularize", 1), ("chain", 0)):
        for extra in ([], ["--json"]):
            assert run(capsys, command, path, *extra) == (3, "", SL2_ERR + "\n")
            assert run(capsys, command, path, "--skip-hypotheses", *extra) == (
                3, "", f"{SL2_ERR} [flag depth {depth}]\n"
            )
