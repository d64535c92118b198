"""Command-line interface: parsing, round trips, command output and the
stable exit-code contract."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from colorlie import (
    IrrationalEigenvalue,
    ParseError,
    bracket_closure,
    char_poly,
    color_flag,
    load_problem,
    parse_problem,
    serialize_problem,
)
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


def _assert_refused(capsys, path, *needles):
    """Every command exits 2 on the file, with one line on stderr that
    names the fault."""
    for command in ("validate", "series", "triangularize", "chain"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(needle in err for needle in needles)


def test_parse_refuses_deep_nesting(tmp_path, capsys):
    # the JSON decoder recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ParseError):
        load_problem(path)
    _assert_refused(capsys, path, "nested too deeply")


@pytest.fixture
def digit_limit():
    """The interpreter's limit on the digits of an integer it converts
    from text, set to its default for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integers of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_parse_refuses_numbers_past_the_digit_limit(tmp_path, capsys, digit_limit):
    # as a rational string, with its JSON path, and as a bare integer
    long = "1" * (digit_limit + 1)
    doc = json.loads((PROBLEMS / "borel2.json").read_text())
    doc["generators"][0]["blocks"][0]["matrix"][0][0] = f"1/{long}"
    with pytest.raises(ParseError) as info:
        parse_problem(doc)
    assert str(info.value).startswith("generators[0].blocks[0].matrix[0][0]: ")
    path = tmp_path / "long_string.json"
    path.write_text(json.dumps(doc))
    _assert_refused(capsys, path, "matrix[0][0]", f"more than {digit_limit} digits")
    path = tmp_path / "long_integer.json"
    path.write_text((PROBLEMS / "borel2.json").read_text().replace('"1"', long, 1))
    with pytest.raises(ParseError):
        load_problem(path)
    _assert_refused(capsys, path, f"more than {digit_limit} digits")
    # at the limit the rational still parses
    at_limit = "1" * digit_limit
    doc["generators"][0]["blocks"][0]["matrix"][0][0] = at_limit
    assert parse_problem(doc).generators[0].blocks[0][1].data[0][0] == int(at_limit)


def _entry_doc(entry):
    """borel2.json with ``entry`` at generators[1].blocks[0].matrix[0][0]."""
    doc = json.loads((PROBLEMS / "borel2.json").read_text())
    doc["generators"][1]["blocks"][0]["matrix"][0][0] = entry
    return doc


def test_parse_gives_each_accepted_spelling_its_fraction(digit_limit):
    # every spelling the pattern accepts parses to Fraction(spelling), as
    # when the string was handed to Fraction whole
    spellings = ["+3", "-0", "007", "-6/4", "+10/25", "0/7", "5\n", "-6/4\n",
                 "9" * digit_limit, "-1/" + "7" * digit_limit]
    for text in spellings:
        x = parse_problem(_entry_doc(text)).generators[1].blocks[0][1].data[0][0]
        assert type(x) is Fraction and x == Fraction(text), text
    for value in (7, -3, 0):
        x = parse_problem(_entry_doc(value)).generators[1].blocks[0][1].data
        assert x[0][0] == value


def test_parse_refuses_entries_with_their_path(tmp_path, capsys, digit_limit):
    # byte for byte the messages of the parser that formatted the path of
    # every entry, for each kind of refused entry
    where = "error: generators[1].blocks[0].matrix[0][0]: "
    cases = {
        1.5: 'floating-point values are not accepted; use "p/q" strings',
        True: "expected a rational, got a boolean",
        None: "expected a rational, got NoneType",
        "1.5": "malformed rational '1.5'; expected \"p\" or \"p/q\"",
        "1/0": "malformed rational '1/0'; expected \"p\" or \"p/q\"",
        " 1": "malformed rational ' 1'; expected \"p\" or \"p/q\"",
        "1" * (digit_limit + 1): f"a rational has more than {digit_limit} digits",
        "2/" + "3" * (digit_limit + 1): f"a rational has more than {digit_limit} digits",
    }
    for k, (entry, message) in enumerate(cases.items()):
        path = tmp_path / f"entry{k}.json"
        path.write_text(json.dumps(_entry_doc(entry)))
        for command in ("validate", "series", "triangularize", "chain"):
            assert run(capsys, command, str(path)) == (2, "", where + message + "\n")


def test_maps_and_documents_format_entries_past_the_digit_limit(digit_limit):
    # repr of a block, str of a map and the serialized document of a 1 x 1
    # map with entry 7**6000, a 5,071-digit integer, and its reciprocal
    from colorlie import make_bicharacter, make_group, make_map, make_space
    from colorlie.fileformat import ProblemFile

    sys.set_int_max_str_digits(0)
    big = 7 ** 6000
    digits = str(big)
    sys.set_int_max_str_digits(digit_limit)
    assert len(digits) > digit_limit
    group = make_group(0, [])
    space = make_space(group, {group.identity(): 1})
    for x, text in ((Fraction(big), digits), (Fraction(-1, big), f"-1/{digits}")):
        f = make_map(space, group.identity(), {group.identity(): [[x]]})
        ((_, block),) = f.blocks
        assert repr(block) == f"Matrix(1x1: {text})"
        assert str(f) == f"HomogeneousMap(deg (), {{(): Matrix(1x1: {text})}})"
        doc = serialize_problem(ProblemFile(group, make_bicharacter(group, []), space, (f,)))
        assert doc["generators"][0]["blocks"][0]["matrix"] == [[text]]


def _space_doc(dim):
    return {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": dim}],
        "generators": [],
    }


def test_parse_bounds_total_dimension(tmp_path, capsys):
    # refused before anything is built, so a huge dimension costs nothing
    from colorlie.fileformat import DIM_LIMIT

    assert DIM_LIMIT == 2 ** 10
    path = tmp_path / "huge_dim.json"
    path.write_text(json.dumps(_space_doc(10 ** 9)))
    with pytest.raises(ParseError) as info:
        load_problem(path)
    assert str(info.value) == "space: total dimension 1000000000 exceeds the limit 2**10"
    _assert_refused(capsys, path, "space", "2**10")
    # the limit bounds the sum over the components
    doc = _space_doc(DIM_LIMIT)
    doc["group"]["free_rank"] = 1
    doc["bicharacter"] = [["1"]]
    doc["space"] = [{"degree": [0], "dim": DIM_LIMIT - 1}, {"degree": [1], "dim": 2}]
    with pytest.raises(ParseError):
        parse_problem(doc)
    path = tmp_path / "at_limit.json"
    path.write_text(json.dumps(_space_doc(DIM_LIMIT)))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert "closure dimension: 0" in out


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


def test_empty_block_with_target_outside_the_support(tmp_path, capsys):
    """A file may give a degree-1 generator's block at the top degree 1 as
    an empty matrix: it is the zero block, and every command prints what
    it prints without that block."""
    def doc(top):
        blocks = [{"source": [0], "matrix": [["1", "2"]]}]
        return {
            "group": {"free_rank": 1, "torsion_moduli": []},
            "bicharacter": [["1"]],
            "space": [{"degree": [0], "dim": 2}, {"degree": [1], "dim": 1}],
            "generators": [{"degree": [1], "blocks": blocks + top}],
        }

    with_empty, without = tmp_path / "empty.json", tmp_path / "plain.json"
    with_empty.write_text(json.dumps(doc([{"source": [1], "matrix": []}])))
    without.write_text(json.dumps(doc([])))
    for command in ("validate", "series", "triangularize", "chain"):
        code, out, err = run(capsys, command, "--json", str(with_empty))
        assert (code, err) == (0, "")
        assert (code, out, err) == run(capsys, command, "--json", str(without))
    assert load_problem(with_empty) == load_problem(without)
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps(doc([{"source": [1], "matrix": [[]]}])))
    assert run(capsys, "validate", str(rows)) == (
        2, "", "error: ShapeMismatch: block at source (1) must be 0x1, got 1x0\n")


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


def _one_block_problem(tmp_path, name, matrix):
    """A file with one degree-0 generator on an ungraded space."""
    doc = {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": len(matrix)}],
        "generators": [{"degree": [], "blocks": [{"source": [], "matrix": matrix}]}],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_triangularize_prints_rationals_past_the_digit_limit(tmp_path, capsys, digit_limit):
    # 2,500-digit entries parse, but the flag vectors and the matrices in
    # the flag basis have entries too long for str() of an int
    rng = random.Random(7)
    big = [str(rng.randrange(10 ** 2499, 10 ** 2500)) for _ in range(3)]
    path = _one_block_problem(
        tmp_path, "long", [["3", big[0], big[1]], ["0", "2", big[2]], ["0", "0", "1"]]
    )
    code, out, err = run(capsys, "triangularize", str(path), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    components = [x for v in payload["flag_basis"] for x in v["components"]]
    assert max(len(x) for x in components) > digit_limit
    (m,) = payload["generator_matrices_in_flag_basis"]
    assert [m["matrix"][i][j] for i in range(3) for j in range(i)] == ["0"] * 3
    assert sorted(m["matrix"][i][i] for i in range(3)) == ["1", "2", "3"]
    code, text, err = run(capsys, "triangularize", str(path))
    assert (code, err) == (0, "")
    assert all(x in text for x in components)


def test_irrational_factor_past_the_digit_limit(tmp_path, capsys, digit_limit):
    # the characteristic factor of a block of 1,200-digit entries has
    # coefficients too long for str() of an int; it is still reported
    rng = random.Random(11)
    matrix = [
        [str(rng.choice((-1, 1)) * rng.randrange(10 ** 1199, 10 ** 1200)) for _ in range(4)]
        for _ in range(4)
    ]
    path = _one_block_problem(tmp_path, "dense", matrix)
    problem = load_problem(path)
    L = bracket_closure(problem.space, problem.bicharacter, problem.generators)
    with pytest.raises(IrrationalEigenvalue) as info:
        color_flag(L)
    ((_, block),) = L.basis[0].blocks
    assert info.value.char_poly == char_poly(block)
    assert len(str(info.value)) > digit_limit
    code, out, err = run(capsys, "triangularize", str(path))
    assert (code, out) == (4, "")
    assert err.startswith("field-of-definition failure: ") and err.count("\n") == 2
    assert "Traceback" not in err


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


# ------------------------------------------------------------- fuzzing


def _paths(node, path=()):
    """Every (path, value) under node, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _parent(doc, path):
    """The container holding the value at path."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _add_torsion(rng, doc):
    """Append a torsion generator of order 2 or 3: a bicharacter row and
    column of ones and a random torsion coordinate on every degree."""
    m = rng.choice([2, 3])
    group = doc.get("group")
    if not isinstance(group, dict) or not isinstance(doc.get("bicharacter"), list):
        return
    group["torsion_moduli"] = list(group.get("torsion_moduli", [])) + [m]
    bichar = [row + ["1"] if isinstance(row, list) else row for row in doc["bicharacter"]]
    doc["bicharacter"] = bichar + [["1"] * (len(bichar) + 1)]
    for path, value in list(_paths(doc)):
        if path[-1] in ("degree", "source") and isinstance(value, list):
            _parent(doc, path)[path[-1]] = value + [rng.randrange(m)]


def _mutate(rng, doc):
    """One random defect: a dropped key, a value of the wrong type, a
    float, a zero denominator, a changed small integer or torsion."""
    kind = rng.choice(["drop", "type", "float", "zero", "int", "torsion"])
    paths = list(_paths(doc))
    if kind == "torsion":
        _add_torsion(rng, doc)
        return
    if kind == "drop":
        path = rng.choice([p for p, _ in paths if isinstance(p[-1], str)])
        del _parent(doc, path)[path[-1]]
        return
    leaves = [p for p, v in paths if not isinstance(v, (dict, list))] or [p for p, _ in paths]
    path = rng.choice(leaves if kind != "type" else [p for p, _ in paths])
    if kind == "type":
        value = rng.choice([None, True, "x", [], {}, [[1]], {"dim": 1}, "2", 3])
    elif kind == "float":
        value = rng.choice([0.5, 1.0, -2.25])
    elif kind == "zero":
        value = rng.choice(["1/0", "0/0", "-3/0"])
    else:
        value = rng.randint(-2, 3)
    _parent(doc, path)[path[-1]] = value


def test_mutated_problem_files_exit_cleanly(tmp_path, capsys):
    # every command, with and without --json, on seeded mutants of the
    # sample problems: a documented exit code and never a traceback
    rng = random.Random(20)
    samples = sorted(PROBLEMS.glob("*.json"))
    codes = set()
    for case in range(150):
        doc = json.loads(rng.choice(samples).read_text())
        for _ in range(rng.randint(1, 2)):
            _mutate(rng, doc)
        path = tmp_path / f"case{case}.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "series", "triangularize", "chain"):
            for extra in ([], ["--json"]):
                code, out, err = run(capsys, command, str(path), *extra)
                assert code in (0, 2, 3, 4), (doc, command, extra, err)
                assert "Traceback" not in err
                codes.add(code)
    assert {0, 2, 3} <= codes


# ------------------------------------------------------ process entry points


def _process(*argv):
    """``python -m colorlie`` with the given arguments, in a new process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "colorlie", *argv], capture_output=True, text=True, env=env
    )


def test_module_entry_point_exit_codes(tmp_path):
    # README's exit codes, from a new interpreter; each failure is one
    # stderr line with no traceback, and exit 4 adds the factor's line
    failing = {"z3_torsion": 3, "rotation": 4, "nonnil_derived": 3, "sl2": 3}
    for path in sorted(PROBLEMS.glob("*.json")):
        done = _process("triangularize", str(path))
        code = done.returncode
        assert code == failing.get(path.stem, 0), (path.stem, done.stderr)
        if code:
            assert done.stdout == "" and "Traceback" not in done.stderr
            assert done.stderr.count("\n") == (2 if code == 4 else 1)
        else:
            assert done.stderr == "" and done.stdout.startswith("homogeneous flag basis")
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"group": ')
    done = _process("validate", str(malformed))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
