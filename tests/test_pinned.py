"""Byte-for-byte pins of the flag and chain bases.

The flag vectors, weights and ideal-chain echelon rows are canonical
outputs that no other test fixes exactly: any valid flag passes the
structural checks.  These SHA-256 digests pin them, on Borel algebras
in four gradings, on planted solvable algebras (``random_solvable_instance``
at seeds 0-9 in every torsion-free grading) and on a Borel algebra
conjugated by a rational unit lower triangular matrix, whose canonical
basis is dense; and the CLI's ``triangularize`` and ``chain`` output,
with and without ``--json``, on the sample problems, and that of
``triangularize`` on two generated files: a 1 x 1 generator beside an
unused 63-dimensional component (``corpus.unused_component_doc``) and a
generator list with a repeated and a zero generator
(``corpus.repeated_and_zero_generators_doc``).  So a refactor that
changes a basis shows up here.  When a basis change is intended and
shown valid, recompute the digests with ``pinned_digests``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from colorlie import (
    ColorAlgebra, Matrix, bracket_closure, color_flag, ideal_chain, inverse, make_map,
)
from colorlie.cli import main
from corpus import (
    borel_generators,
    random_solvable_instance,
    repeated_and_zero_generators_doc,
    torsion_free_configs,
    unused_component_doc,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

PINNED = {
    "borel.plain.3":
        "45b70fc8e47db449518e5bd34577346e1f3e76472a1dbc64c8dd3774bbf1da9e",
    "borel.plain.4":
        "1d7480db1661a944241e3bb131b4976c107ce32a08c092f70c5ca596a5a8b1f0",
    "borel.plain.5":
        "e0db6c7dfbac41cebe871906f076a90333f21b6cfc00896aa59a351a0561e535",
    "borel.plain.6":
        "e9cb3489807c5049fc1ca5d08802dd26b26fc26a5968fe3b8dfd473b0b0f13e6",
    "borel.z.3":
        "51db07cdc6c6d467dc37bb358497dcd83ba5dd5c5085554447d26bd1e12165ac",
    "borel.z.4":
        "f55aeeb88a5e334c33e7d323ad1751c90f3eeaf65e4405f00260da615067bc1d",
    "borel.z.5":
        "22cbdf350586b66852affed074c92c304869a84ae749fa648b55cbff49665f60",
    "borel.z.6":
        "d47f037e3f3a623188227c9fbb5d94532dd588e183ae4d4a14626dfb03b29a72",
    "borel.zsuper.3":
        "51db07cdc6c6d467dc37bb358497dcd83ba5dd5c5085554447d26bd1e12165ac",
    "borel.zsuper.4":
        "f55aeeb88a5e334c33e7d323ad1751c90f3eeaf65e4405f00260da615067bc1d",
    "borel.zsuper.5":
        "22cbdf350586b66852affed074c92c304869a84ae749fa648b55cbff49665f60",
    "borel.zsuper.6":
        "d47f037e3f3a623188227c9fbb5d94532dd588e183ae4d4a14626dfb03b29a72",
    "borel.z2.3":
        "4627bba48277b7548d67355ce25ee762514aac24077201ec01d34e826ec6c90f",
    "borel.z2.4":
        "53320bb8d51ef7425fdf124faf22d90d781620ce1c1454b563f0e3066ea447c8",
    "borel.z2.5":
        "e3e8a56eebc6268bdad96357856ac540b995838635a1a606c16906c56d0798e8",
    "borel.z2.6":
        "257a873d4af43e53a4099ae3e8dad8aa74665f9ba0e7eaa814b1e30fe7f00d84",
    "cli.triangularize.borel2":
        "94b31ba660948d2c8684169a4eb179e95322d963248a009df7f75527e7fa4fe0",
    "cli.chain.borel2":
        "099310105d7e81c7adea94e6d1701a08893cd0c0847c4bc2d19740b43ac8b8ec",
    "cli.triangularize.graded_solvable":
        "cc549e9e0134c3050f24a4aa508e06b72b05fadb38863032a6e8516c6f39f16c",
    "cli.chain.graded_solvable":
        "ff92ace6be6fc081ff192ab29967203388241a23d7052268ddf7868f1396fd64",
    "cli.triangularize.heisenberg":
        "b3ea35e655acbd89ad2d442b2bbff445dd0ace3c829ed7ea91b5b8b954c68c43",
    "cli.chain.heisenberg":
        "7dcfd6b671e351b667b08707b1163b2505c5f28f01877192b21afe6ad5ea609e",
    "cli.triangularize.nonnil_derived":
        "2dc4930f0776e350f770ea7a7a1ab09a7fbfafac3e136e1d33dde5bd45d01aee",
    "cli.chain.nonnil_derived":
        "2dc4930f0776e350f770ea7a7a1ab09a7fbfafac3e136e1d33dde5bd45d01aee",
    "cli.triangularize.rotation":
        "14ddbc7a31c3c966621774d4c719ca9674eea98167ec1c68aac7ad353893d107",
    "cli.chain.rotation":
        "0df74d61d1ca50f39d22cd2d937c612cdb13a11efa0087093df5755447854bae",
    "cli.triangularize.sl2":
        "2dc4930f0776e350f770ea7a7a1ab09a7fbfafac3e136e1d33dde5bd45d01aee",
    "cli.chain.sl2":
        "2dc4930f0776e350f770ea7a7a1ab09a7fbfafac3e136e1d33dde5bd45d01aee",
    "cli.triangularize.z3_torsion":
        "2dc4930f0776e350f770ea7a7a1ab09a7fbfafac3e136e1d33dde5bd45d01aee",
    "cli.chain.z3_torsion":
        "2dc4930f0776e350f770ea7a7a1ab09a7fbfafac3e136e1d33dde5bd45d01aee",
    "random.trivial":
        "bec3d9fce5941d8fab2ba0487baf9052d0933c471c387c4786b2059addbe1cc6",
    "random.Z":
        "96b99f8c4b1de996e7eff827e88559c7a926086815f81cf56158911fc02a3cdc",
    "random.Z_super":
        "96b99f8c4b1de996e7eff827e88559c7a926086815f81cf56158911fc02a3cdc",
    "random.Z2_free":
        "c6628f070c165180cebc727eceacabd5ce0726e0a88de44965b83f6a7e164778",
    "borel.conjugated.4":
        "86cc640d796eb98b70a1636a6d4b613093581cf486ed04e204f37354699b754b",
    "cli.text.triangularize.borel2":
        "aed8c268b2641ba29741baf3554468ae1495340ddf78da921e65d9b07ff49e8b",
    "cli.text.chain.borel2":
        "13571872d97754c48b3befe1e299417e47620e3f70cf966ab7858d7db456bad6",
    "cli.text.triangularize.graded_solvable":
        "e63034f4aed413a5e44d8d1b06ef836c5435e33544c16f75b0b3107828fe9b90",
    "cli.text.chain.graded_solvable":
        "b3e651c3a8e7ebf4ab947a87c316a9463f37956e60602356465698d8f0f5322e",
    "cli.text.triangularize.heisenberg":
        "0de2dd8ca0d0931dceda8dbe19bc1ac5c244395cf350265e8c2102e699395746",
    "cli.text.chain.heisenberg":
        "7580e99ed98d26a21baae6d7794c3f69529716231bd4ef978898d7f28ccbb1cf",
    "cli.text.triangularize.nonnil_derived":
        "f9782c87a267cecd5d13f1482091bb6ce3dfe402517d7f44b69bf99adde241db",
    "cli.text.chain.nonnil_derived":
        "f9782c87a267cecd5d13f1482091bb6ce3dfe402517d7f44b69bf99adde241db",
    "cli.text.triangularize.rotation":
        "108f9ea14835966f3467e094f356c286bdb3d1cf24c70d0b2e1e6acb6d7ea239",
    "cli.text.chain.rotation":
        "bd25e3de0b21642092e4aacd8c6e41e93672382e4034d7f265ee5ab95a53b9ad",
    "cli.text.triangularize.sl2":
        "f8bfe67c4d9f1e970cd7091cafc5a4689df28218a5f6c47c0f1f309084568740",
    "cli.text.chain.sl2":
        "f8bfe67c4d9f1e970cd7091cafc5a4689df28218a5f6c47c0f1f309084568740",
    "cli.text.triangularize.z3_torsion":
        "0b7b8fc2273a8ec2a0ba955726fa74b6ee1dc341aa8d98a5f7fa4c91805ee2b0",
    "cli.text.chain.z3_torsion":
        "bddc5492002ec41544d959156fe6aedea7d64cebf1eba63e00f10e516831eb41",
    "cli.triangularize.unused64":
        "ecf90de72ac834d7f7cf9ae34bbe9793ddb7d2004f551125b07b1a953ca9a3e6",
    "cli.text.triangularize.unused64":
        "ed744020dc2fe14ebb271ae6655978cc2f7a93626b9cd736f7b254a5b566f960",
    "cli.triangularize.repeated_zero":
        "4803075d13300e6d0fab87f457489ed2e7b71cdbbb9b8503d4a48fc3d3f078b7",
    "cli.text.triangularize.repeated_zero":
        "894a8b13298846f01e1ba0a53f949ede3e2eb18709dae94e2c7e843105e9e063",
}


def _sha(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _borel_outputs(n: int, grading: str):
    return _outputs(bracket_closure(*borel_generators(n, grading)))


def _random_outputs(name: str):
    """The outputs at seeds 0-9 of the planted solvable algebras in the
    torsion-free grading ``name``."""
    ((_, group, r),) = [c for c in torsion_free_configs() if c[0] == name]
    return [
        _outputs(random_solvable_instance(random.Random(seed), group, r))
        for seed in range(10)
    ]


def _conjugated_borel_outputs(n: int):
    """The outputs of P E_ij P^-1 (i <= j), ungraded, for the unit lower
    triangular P with P[i][j] = ((3 i + j) mod 5 - 2) / (1 + (i + j) mod 3)
    below the diagonal."""
    space, r, gens = borel_generators(n, "plain")
    p = Matrix([
        [Fraction(1) if i == j else
         Fraction((3 * i + j) % 5 - 2, 1 + (i + j) % 3) if i > j else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ])
    p_inv = inverse(p)
    ((g, _),) = space.dims
    conj = [make_map(space, g, {g: p * f.block(g) * p_inv}) for f in gens]
    return _outputs(ColorAlgebra(space, r, conj, closed=True))


def _outputs(L):
    flag = color_flag(L)
    chain = ideal_chain(L)
    return {
        "vectors": [
            [[list(g.coords()), [str(x) for x in comp]] for g, comp in v.components]
            for v in flag.ordered_basis
        ],
        "weights": [[str(x) for x in w.values] for w in flag.weights],
        "chain": [
            [
                [list(g.coords()), [[str(row.get(c, 0)) for c in range(L.dim)]
                                    for _, row in rows]]
                for g, rows in itertools.groupby(sub._vectors(), key=lambda gv: gv[0])
            ]
            for sub in chain.chain
        ],
    }


def _cli_outputs(command: str, path: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path), "--json"])
    return {"stdout": out.getvalue(), "exit": code}


def _cli_text_outputs(command: str, path: Path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def pinned_digests() -> dict:
    """The digest of every pinned output under its key."""
    out = {}
    for grading in ("plain", "z", "zsuper", "z2"):
        for n in range(3, 7):
            out[f"borel.{grading}.{n}"] = _sha(_borel_outputs(n, grading))
    for name, _, _ in torsion_free_configs():
        out[f"random.{name}"] = _sha(_random_outputs(name))
    out["borel.conjugated.4"] = _sha(_conjugated_borel_outputs(4))
    for path in sorted(PROBLEMS.glob("*.json")):
        for command in ("triangularize", "chain"):
            out[f"cli.{command}.{path.stem}"] = _sha(_cli_outputs(command, path))
            out[f"cli.text.{command}.{path.stem}"] = _sha(_cli_text_outputs(command, path))
    generated = {"unused64": unused_component_doc(64),
                 "repeated_zero": repeated_and_zero_generators_doc()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in generated.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            out[f"cli.triangularize.{name}"] = _sha(_cli_outputs("triangularize", path))
            out[f"cli.text.triangularize.{name}"] = _sha(
                _cli_text_outputs("triangularize", path)
            )
    return out


def test_flag_chain_and_cli_outputs_are_pinned():
    assert pinned_digests() == PINNED
