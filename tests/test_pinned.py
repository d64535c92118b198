"""Byte-for-byte pins of the flag and chain bases.

The flag vectors, weights and ideal-chain echelon rows are canonical
outputs that no other test fixes exactly: any valid flag passes the
structural checks.  These SHA-256 digests pin them, and the CLI's
``triangularize`` and ``chain --json`` output on the sample problems, so
a refactor that changes a basis shows up here.  When a basis change is
intended and shown valid, recompute the digests with ``pinned_digests``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from colorlie import bracket_closure, color_flag, ideal_chain
from colorlie.cli import main
from corpus import borel_generators

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
}


def _sha(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _borel_outputs(n: int, grading: str):
    L = bracket_closure(*borel_generators(n, grading))
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
                [list(g.coords()), [[str(x) for x in row] for row in rows]]
                for g, rows in sorted(
                    sub._ech.canonical_rows().items(), key=lambda kv: kv[0].sort_key()
                )
            ]
            for sub in chain.chain
        ],
    }


def _cli_outputs(command: str, path: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path), "--json"])
    return {"stdout": out.getvalue(), "exit": code}


def pinned_digests() -> dict:
    """The digest of every pinned output under its key."""
    out = {}
    for grading in ("plain", "z", "zsuper", "z2"):
        for n in range(3, 7):
            out[f"borel.{grading}.{n}"] = _sha(_borel_outputs(n, grading))
    for path in sorted(PROBLEMS.glob("*.json")):
        for command in ("triangularize", "chain"):
            out[f"cli.{command}.{path.stem}"] = _sha(_cli_outputs(command, path))
    return out


def test_flag_chain_and_cli_outputs_are_pinned():
    assert pinned_digests() == PINNED
