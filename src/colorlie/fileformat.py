"""JSON problem files: a grading group, a bicharacter, a graded space and
a list of homogeneous generators.

Rationals are encoded as strings "p/q" (or "p"); bare JSON integers are
also accepted.  Floats are rejected everywhere, so no value ever passes
through floating point.  A string is matched once, and its Fraction
built from the match's integer groups; a matrix entry's JSON path is
formatted only when the entry is refused.  Degrees are integer arrays,
free coordinates first and torsion coordinates after.

Bicharacter powers are bounded at parse time.  r(g, h) multiplies the
values v raised to products of degree coordinates; every bracketed map
has a degree whose free coordinates are at most 2B in absolute value,
with B the largest absolute free coordinate of a space or generator
degree, so no power has more than (2B)^2 * bits(v) bits, where bits(v)
is the bit length of max(|numerator|, denominator).  Values 1 and -1
cost nothing; torsion generators can carry no other values.  A file in
which some value v != +-1 gives (2B)^2 * bits(v) > 2**20 is refused
with a ParseError.

So are a space of total dimension above 2**10, before anything is
built, a file nested too deeply to decode and a number with more digits
than the interpreter converts to an integer.

Example document::

    {
      "group": {"free_rank": 0, "torsion_moduli": [3]},
      "bicharacter": [["1"]],
      "space": [{"degree": [0], "dim": 1}, {"degree": [1], "dim": 1}],
      "generators": [
        {"degree": [1], "blocks": [{"source": [0], "matrix": [["1"]]}]}
      ]
    }
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ParseError
from .grading import Bicharacter, GroupSpec, make_bicharacter, make_group
from .graded import GradedSpace, HomogeneousMap, make_map, make_space
from .linalg import _ZERO, _text

_RATIONAL = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")

# bounds on the bit size of any bicharacter power r(g, h) and on the
# total dimension of the space, see above
POWER_BITS_LIMIT = 2 ** 20
DIM_LIMIT = 2 ** 10


@dataclass(frozen=True)
class ProblemFile:
    group: GroupSpec
    bicharacter: Bicharacter
    space: GradedSpace
    generators: tuple[HomogeneousMap, ...]


def _fail(where: str, message: str):
    raise ParseError(f"{where}: {message}" if where else message)


def _rational(value, where: str, i: int, j: int) -> Fraction:
    """Entry [i][j] of the matrix at ``where``, whose path is formatted
    only when the entry is refused.  The zero entries "0" and 0, most of
    a sparse block, give the shared zero; any other string is matched
    once and the Fraction built from the match's integer groups."""
    if value == "0" or (type(value) is int and not value):
        return _ZERO
    if isinstance(value, str):
        m = _RATIONAL.match(value)
        if not m:
            message = f"malformed rational {value!r}; expected \"p\" or \"p/q\""
        else:
            p, q = m.groups()
            try:
                return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
            except ValueError:  # past the interpreter's digit limit
                message = f"a rational has more than {sys.get_int_max_str_digits()} digits"
    elif isinstance(value, bool):
        message = "expected a rational, got a boolean"
    elif isinstance(value, int):
        return Fraction(value)
    elif isinstance(value, float):
        message = "floating-point values are not accepted; use \"p/q\" strings"
    else:
        message = f"expected a rational, got {type(value).__name__}"
    _fail(f"{where}[{i}][{j}]", message)


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"expected an integer, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        _fail(where, f"expected a list, got {type(value).__name__}")
    return value


def _dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        _fail(where, f"expected an object, got {type(value).__name__}")
    return value


def _degree(group: GroupSpec, value, where: str):
    coords = [_int(c, f"{where}[{i}]") for i, c in enumerate(_list(value, where))]
    if len(coords) != group.generator_count:
        _fail(
            where,
            f"degree needs {group.generator_count} coordinates, got {len(coords)}",
        )
    return group.element(coords)


def _matrix(value, where: str) -> list[list[Fraction]]:
    rows = _list(value, where)
    return [
        [_rational(x, where, i, j) for j, x in enumerate(_list(row, f"{where}[{i}]"))]
        for i, row in enumerate(rows)
    ]


def parse_problem(data, where: str = "") -> ProblemFile:
    """Build validated domain objects from a decoded JSON document.

    Schema errors, a total space dimension above DIM_LIMIT and
    bicharacter powers larger than POWER_BITS_LIMIT bits raise ParseError
    anchored to the JSON path; semantic errors (bad bicharacter, wrong
    block shapes) propagate from the underlying constructors.
    """
    doc = _dict(data, where)
    for key in ("group", "bicharacter", "space", "generators"):
        if key not in doc:
            _fail(where, f"missing required key {key!r}")

    gspec = _dict(doc["group"], "group")
    group = make_group(
        _int(gspec.get("free_rank", 0), "group.free_rank"),
        [
            _int(m, f"group.torsion_moduli[{i}]")
            for i, m in enumerate(_list(gspec.get("torsion_moduli", []), "group.torsion_moduli"))
        ],
    )

    bichar = make_bicharacter(group, _matrix(doc["bicharacter"], "bicharacter"))

    dims = {}
    for i, entry in enumerate(_list(doc["space"], "space")):
        e = _dict(entry, f"space[{i}]")
        g = _degree(group, e.get("degree"), f"space[{i}].degree")
        if g in dims:
            _fail(f"space[{i}].degree", f"duplicate degree {g}")
        dims[g] = _int(e.get("dim"), f"space[{i}].dim")
    total = sum(dims.values())
    if total > DIM_LIMIT:
        _fail("space", f"total dimension {total} exceeds the limit 2**10")
    space = make_space(group, dims)

    generators = []
    for i, entry in enumerate(_list(doc["generators"], "generators")):
        e = _dict(entry, f"generators[{i}]")
        degree = _degree(group, e.get("degree"), f"generators[{i}].degree")
        blocks = {}
        for j, blk in enumerate(_list(e.get("blocks", []), f"generators[{i}].blocks")):
            b = _dict(blk, f"generators[{i}].blocks[{j}]")
            src = _degree(group, b.get("source"), f"generators[{i}].blocks[{j}].source")
            if src in blocks:
                _fail(f"generators[{i}].blocks[{j}].source", f"duplicate source {src}")
            blocks[src] = _matrix(b.get("matrix"), f"generators[{i}].blocks[{j}].matrix")
        generators.append(make_map(space, degree, blocks))

    _check_power_size(bichar, list(dims) + [f.degree for f in generators])
    return ProblemFile(group, bichar, space, tuple(generators))


def _check_power_size(bichar: Bicharacter, degrees):
    bits = max(
        (
            max(abs(v.numerator), v.denominator).bit_length()
            for row in bichar.values
            for v in row
            if v not in (1, -1)
        ),
        default=0,
    )
    b = max((abs(c) for g in degrees for c in g.free), default=0)
    if (2 * b) ** 2 * bits > POWER_BITS_LIMIT:
        _fail(
            "bicharacter",
            f"a {bits}-bit value with free degree coordinates up to {b} "
            f"gives powers of up to {(2 * b) ** 2 * bits} bits; "
            f"the limit is 2**20",
        )


def load_problem(path) -> ProblemFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except ValueError:  # an integer past the interpreter's digit limit
        digits = sys.get_int_max_str_digits()
        raise ParseError(f"{path}: an integer has more than {digits} digits")
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply to decode")
    return parse_problem(data)


def _degree_coords(g) -> list[int]:
    return list(g.coords())


def serialize_problem(problem: ProblemFile) -> dict:
    """Canonical JSON document; parsing it back yields equal objects."""
    return {
        "group": {
            "free_rank": problem.group.free_rank,
            "torsion_moduli": list(problem.group.torsion_moduli),
        },
        "bicharacter": [
            [_text(x) for x in row] for row in problem.bicharacter.values
        ],
        "space": [
            {"degree": _degree_coords(g), "dim": n}
            for g, n in problem.space.dims
        ],
        "generators": [
            {
                "degree": _degree_coords(f.degree),
                "blocks": [
                    {
                        "source": _degree_coords(h),
                        "matrix": [[_text(x) for x in row] for row in b.data],
                    }
                    for h, b in f.blocks
                ],
            }
            for f in problem.generators
        ],
    }
