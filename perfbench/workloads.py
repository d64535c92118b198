"""Seeded inputs and ops for the three benchmark workloads.

Each op is a closure over inputs built here; it calls the package through
module attributes looked up at call time, so the tracer's wrappers see
every call.  Every op carries an exact check against an answer planted
by construction, a canonical form for the output digest and a corrupter
used by the self-test.

The seed picks signs, orders and scale factors; the shapes and entry
sizes of the inputs are fixed, so an op's cost, and with it each timing
metric, moves little from one seed to the next.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import check

# Policy and seed for the nil hypothesis checks inside color_flag and
# ideal_chain: fixed, so the flag workload's cost does not depend on them.
NIL_POLICY = "auto"
NIL_SEED = 0


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    canon: Callable[[object], object]
    key: str
    corrupt: Callable[[object], object]
    # back-to-back executions per pass; light ops get several, so their
    # per-op median rests on more than one noisy sample
    repeat: int = 1


# -- gradings of the n x n Borel algebra -------------------------------------
# name -> (free rank, bicharacter values, degree of the basis vector e_i)
GRADINGS = {
    "plain": (0, [], lambda i: []),
    "z": (1, [[1]], lambda i: [i]),
    "zsuper": (1, [[-1]], lambda i: [i]),
    "z2": (2, [[1, 2], [Fraction(1, 2), -1]], lambda i: [i // 2, (i // 2) % 2]),
}


def _grading(cl, name):
    rank, values, deg = GRADINGS[name]
    group = cl.make_group(rank, [])
    return group, cl.make_bicharacter(group, values), (lambda i: group.element(deg(i)))


def _positions(n, deg):
    """Component degree and index inside the component of each e_i."""
    pos, count = [], {}
    for i in range(n):
        d = deg(i)
        pos.append((d, count.get(d, 0)))
        count[d] = count.get(d, 0) + 1
    return pos, count


def borel_basis(cl, grading, n, conj=None):
    """Homogeneous basis E_ij (i <= j) of the n x n Borel algebra; with
    ``conj = (P, P^-1)`` (ungraded only) each E_ij is replaced by P E_ij P^-1."""
    group, r, deg = _grading(cl, grading)
    pos, count = _positions(n, deg)
    space = cl.make_space(group, count)
    basis = []
    for i in range(n):
        for j in range(i, n):
            (di, a), (dj, b) = pos[i], pos[j]
            m = [[Fraction(0)] * count[dj] for _ in range(count[di])]
            m[a][b] = Fraction(1)
            if conj is not None:
                p, p_inv = conj
                m = check.mat_mul(p, check.mat_mul(m, p_inv))
            basis.append(cl.make_map(space, di + (-dj), {dj: m}))
    return space, r, basis


def unimodular(rng, n):
    """Integer matrix of determinant one: 2n elementary row moves on a
    fixed cyclic pattern of row pairs, each adding +-1 times a row.  Only
    the signs come from the seed, so entry sizes, and with them the cost
    of the ops that use the matrix, vary little between seeds."""
    rows = check.identity(n)
    pairs = [(i, (i + 1) % n) for i in range(n)] + [((i + 2) % n, i) for i in range(n)]
    for i, j in pairs:
        if i != j:
            c = rng.choice((-1, 1))
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return rows


def sign(rng):
    return rng.choice((-1, 1))


def signed_rational(rng, i, j):
    """A rational whose size is fixed by the position (i, j); the seed
    picks only its sign."""
    return sign(rng) * Fraction(1 + (i + 2 * j) % 3, 1 + (2 * i + j) % 3)


def rational_unimodular(rng, n):
    """Unit lower times unit upper triangular with rational entries."""
    low = [[Fraction(1) if i == j else (signed_rational(rng, i, j) if j < i else Fraction(0))
            for j in range(n)] for i in range(n)]
    up = [[Fraction(1) if i == j else (signed_rational(rng, i, j) if j > i else Fraction(0))
           for j in range(n)] for i in range(n)]
    return check.mat_mul(low, up)


def _algebra_key(r, basis):
    return check.digest([[str(x) for x in row] for row in r.values]
                        + [check.canon_map(f) for f in basis])


def _swap_ends(flag):
    vecs = list(flag.ordered_basis)
    vecs[0], vecs[-1] = vecs[-1], vecs[0]
    return dataclasses.replace(flag, ordered_basis=tuple(vecs))


def _swap_members(chain):
    members = list(chain.chain)
    members[1], members[-1] = members[-1], members[1]
    return dataclasses.replace(chain, chain=tuple(members))


def _flag_op(cl, name, space, r, basis, chain=False, repeat=1):
    algebra = cl.ColorAlgebra(space, r, basis, closed=True)
    key = _algebra_key(r, basis)
    if chain:
        return Op(
            name,
            lambda: cl.ideal_chain(algebra, nil_policy=NIL_POLICY, seed=NIL_SEED),
            lambda out: check.check_chain(algebra, out),
            check.canon_chain, key, _swap_members, repeat,
        )
    return Op(
        name,
        lambda: cl.color_flag(algebra, nil_policy=NIL_POLICY, seed=NIL_SEED),
        lambda out: check.check_flag(algebra, out),
        check.canon_flag, key, _swap_ends, repeat,
    )


def flag_ops(cl, rng, workdir):
    # Ops with n <= 4 run 4 times a pass, so the median and tail ranks,
    # which fall among them, rest on several samples.  Conjugated algebras
    # stay at n = 3: at n = 5 one instance cost 1.3 to 3.5 s by seed.
    ops = []
    for grading in ("plain", "z", "zsuper", "z2"):
        for n in (3, 4, 5, 6) if grading != "z2" else (3, 4, 5):
            ops.append(_flag_op(cl, f"flag.{grading}{n}", *borel_basis(cl, grading, n),
                                repeat=4 if n <= 4 else 1))
    for k in range(7):
        p = unimodular(rng, 3)
        space, r, basis = borel_basis(cl, "plain", 3, (p, check.inverse(p)))
        ops.append(_flag_op(cl, f"flag.conj3.{k}", space, r, basis, repeat=4))
    for grading in ("plain", "z", "zsuper", "z2"):
        ops.append(_flag_op(cl, f"chain.{grading}3", *borel_basis(cl, grading, 3),
                            chain=True, repeat=4))
    ops.append(_flag_op(cl, "chain.plain4", *borel_basis(cl, "plain", 4), chain=True))
    rng.shuffle(ops)
    return ops


# -- primitives --------------------------------------------------------------

def _frac_rows(rows):
    return [[str(x) for x in row] for row in rows]


def _nil_span(rng, n, s, nil):
    """s matrices P U_i P^-1 with U_i strictly upper triangular, every
    entry above the diagonal +-1.  Without ``nil`` the last one is
    P (+-E_n1) P^-1 instead: U_1 +- E_n1 is then invertible, because its
    superdiagonal is full, so the span is not nil."""
    p = unimodular(rng, n)
    p_inv = check.inverse(p)
    mats = []
    for k in range(s):
        u = [[Fraction(0)] * n for _ in range(n)]
        if not nil and k == s - 1:
            u[n - 1][0] = Fraction(sign(rng))
        else:
            for i in range(n):
                for j in range(i + 1, n):
                    u[i][j] = Fraction(sign(rng))
        mats.append(check.mat_mul(p, check.mat_mul(u, p_inv)))
    return mats


# Planted eigenvalues, taken in order; the constant term of the
# characteristic polynomial is their product, so it grows with n.
PLANTED = [2, -3, 5, -7, 11, 2, -13, 3, 17, -5, 19, -2, 23, 7]
# t^2 - t - 1, constant term first: a factor with no rational root
GOLDEN = (Fraction(-1), Fraction(-1), Fraction(1))


def _planted_matrix(rng, n, golden):
    k = n - 2 if golden else n
    roots = PLANTED[:k]
    diag = [Fraction(x) for x in roots]
    rng.shuffle(diag)
    t = [[Fraction(sign(rng)) if j > i else Fraction(0) for j in range(n)]
         for i in range(n)]
    for i, x in enumerate(diag):
        t[i][i] = x
    if golden:
        # companion block of t^2 - t - 1 at the bottom right; everything
        # below the block's first row stays zero, so the block splits off
        t[n - 2][n - 2], t[n - 2][n - 1] = Fraction(0), Fraction(1)
        t[n - 1][n - 2], t[n - 1][n - 1] = Fraction(1), Fraction(1)
    p = unimodular(rng, n)
    m = check.mat_mul(p, check.mat_mul(t, check.inverse(p)))
    return m, roots, (GOLDEN if golden else (Fraction(1),))


def _rank_planted(rng, m, k, r):
    """A = U [[I_r, X], [0, 0]] with U rational of determinant one."""
    x = [[signed_rational(rng, i, j) for j in range(k - r)] for i in range(r)]
    top = [[Fraction(1) if i == j else Fraction(0) for j in range(r)] + x[i] for i in range(r)]
    full = top + [[Fraction(0)] * k for _ in range(m - r)]
    a = check.mat_mul(rational_unimodular(rng, m), full)
    kernel = []
    for f in range(r, k):
        v = [Fraction(0)] * k
        v[f] = Fraction(1)
        for i in range(r):
            v[i] = -x[i][f - r]
        kernel.append(v)
    return a, top, kernel


def _flip(out):
    return not out


def _bump_roots(out):
    poly, roots = out
    return poly, [(roots[0][0] + 1, roots[0][1])] + list(roots[1:])


def _drop_last(out):
    return list(out)[:-1]


def _canon_matrix(m):
    return _frac_rows(m.data)


# primitives ops that take a large share of a pass; the rest run 5 times
HEAVY_PRIMITIVES = {"nil.s4n8.nil", "nil.s4n6.nil", "nil.s3n8.nil", "roots.n14"}


def primitives_ops(cl, rng, workdir):
    lin = cl.linalg
    ops = []
    for s in (2, 3, 4, 5):
        for n in (4, 6, 8):
            for nil in ((True, False) if n != 6 else (True,)):
                mats = [cl.Matrix(m) for m in _nil_span(rng, n, s, nil)]
                ops.append(Op(
                    f"nil.s{s}n{n}.{'nil' if nil else 'not'}",
                    lambda mats=mats: lin.nil_subspace_check(mats, policy="auto", seed=NIL_SEED),
                    lambda out, nil=nil: check.check_nil(nil, out),
                    lambda out: out,
                    check.digest([_canon_matrix(m) for m in mats]), _flip,
                ))
    # n = 11 is left out: its cost moved by 17% between seeds, and as the
    # eleventh-largest op it alone set op_tail_s
    for n in (6, 7, 8, 9, 10, 12, 13, 14):
        m, roots, extra = _planted_matrix(rng, n, golden=n % 2 == 1)
        mat = cl.Matrix(m)

        def char_roots(mat=mat):
            poly = lin.char_poly(mat)
            return poly, lin.rational_roots(poly)

        ops.append(Op(
            f"roots.n{n}", char_roots,
            lambda out, roots=roots, extra=extra: check.check_char_roots(roots, extra, out),
            lambda out: [[str(c) for c in out[0].coeffs], [[str(a), b] for a, b in out[1]]],
            check.digest(_frac_rows(m)), _bump_roots,
        ))
    for size in (8, 10, 12, 14):
        a, top, kernel = _rank_planted(rng, size, size + 2, size - 2)
        mat = cl.Matrix(a)
        key = check.digest(_frac_rows(a))
        ops.append(Op(
            f"rref.n{size}", lambda mat=mat: lin.rref(mat),
            lambda out, top=top: check.check_rref(top, out),
            lambda out: [_canon_matrix(out[0]), list(out[1]), out[2]],
            key, lambda out: (out[0], out[1], out[2] + 1),
        ))
        ops.append(Op(
            f"kernel.n{size}", lambda mat=mat: lin.kernel_basis(mat),
            lambda out, a=a, kernel=kernel: check.check_kernel(a, kernel, out),
            lambda out: [[str(x) for x in v] for v in out],
            key, _drop_last,
        ))
        b = rational_unimodular(rng, size)
        bmat = cl.Matrix(b)
        ops.append(Op(
            f"inverse.n{size}", lambda bmat=bmat: lin.inverse(bmat),
            lambda out, b=b: check.check_inverse(b, out),
            _canon_matrix, check.digest(_frac_rows(b)),
            lambda out: out + cl.Matrix.identity(out.rows),
        ))
    for op in ops:
        if op.name not in HEAVY_PRIMITIVES:
            op.repeat = 5
    rng.shuffle(ops)
    return ops


# -- cli ---------------------------------------------------------------------

def _problem_doc(rng, grading, n):
    """Problem file whose generators E_ii and E_i,i+1, each scaled by a
    random nonzero integer, close up to the full Borel algebra."""
    rank, values, deg = GRADINGS[grading]
    pos, count = _positions(n, lambda i: tuple(deg(i)))
    gens = []
    for i in range(n):
        for j in (i, i + 1):
            if j >= n:
                continue
            (di, a), (dj, b) = pos[i], pos[j]
            m = [["0"] * count[dj] for _ in range(count[di])]
            m[a][b] = str(rng.choice([-3, -2, -1, 1, 2, 3]))
            gens.append({
                "degree": [x - y for x, y in zip(di, dj)],
                "blocks": [{"source": list(dj), "matrix": m}],
            })
    rng.shuffle(gens)
    return {
        "group": {"free_rank": rank, "torsion_moduli": []},
        "bicharacter": [[str(x) for x in row] for row in values],
        "space": [{"degree": list(d), "dim": k} for d, k in count.items()],
        "generators": gens,
    }


def _sl2_doc():
    def gen(m):
        return {"degree": [], "blocks": [{"source": [], "matrix": m}]}
    return {
        "group": {"free_rank": 0, "torsion_moduli": []},
        "bicharacter": [],
        "space": [{"degree": [], "dim": 2}],
        "generators": [gen([["0", "1"], ["0", "0"]]), gen([["0", "0"], ["1", "0"]])],
    }


def _malformed_docs(rng):
    """Texts that must be refused with exit code 2, one per kind of fault."""
    base = _problem_doc(rng, "plain", 2)
    floats = json.loads(json.dumps(base))
    floats["generators"][0]["blocks"][0]["matrix"][0][0] = rng.choice([0.5, 1.5, -2.25])
    missing = json.loads(json.dumps(base))
    del missing[rng.choice(["group", "bicharacter", "space", "generators"])]
    ragged = json.loads(json.dumps(base))
    ragged["generators"][0]["blocks"][0]["matrix"] = [["1", "0", "0"]]
    text = json.dumps(base)
    return {
        "float": json.dumps(floats),
        "missing": json.dumps(missing),
        "ragged": json.dumps(ragged),
        "syntax": text[: rng.randint(5, len(text) - 5)],
    }


def _upper_matrices(doc):
    for item in doc["generator_matrices_in_flag_basis"]:
        m = [[Fraction(x) for x in row] for row in item["matrix"]]
        if any(m[i][j] != 0 for i in range(len(m)) for j in range(i)):
            return False
    return True


def run_cli(cli_mod, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_mod.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue()


def _cli_op(cl, name, argv, code, validate, key):
    return Op(
        name,
        lambda: run_cli(cl.cli, argv + ["--json"]),
        lambda out: check.check_cli(code, validate, out),
        lambda out: [out[0], out[1]],
        check.digest([key, argv[0]]),
        lambda out: (out[0] + 1, out[1][:-2]),
    )


def cli_ops(cl, rng, workdir, problems_dir):
    files = {}   # name -> (generated document or None, algebra dimension, solvable)
    for grading, sizes in (("plain", (3, 4, 5)), ("zsuper", (3, 4)), ("z2", (3, 4))):
        for n in sizes:
            files[f"{grading}{n}"] = (_problem_doc(rng, grading, n), n * (n + 1) // 2, True)
    files["sl2"] = (_sl2_doc(), 3, False)
    paths, keys = {}, {}
    for name, (doc, _, _) in files.items():
        text = json.dumps(doc)
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
        keys[name] = check.digest(text)
    # the sample problems: algebra dimension and solvability are known
    samples = {"borel2": (2, True), "heisenberg": (3, True), "graded_solvable": (2, True),
               "rotation": (1, True), "z3_torsion": (1, True)}
    for name, (dim, solvable) in samples.items():
        paths[name] = os.path.join(problems_dir, f"{name}.json")
        with open(paths[name], encoding="utf-8") as fh:
            keys[name] = check.digest(fh.read())
        files[name] = (None, dim, solvable)

    ops = []
    for name, (_, dim, solvable) in files.items():
        ops.append(_cli_op(
            cl, f"validate.{name}", ["validate", paths[name]], 0,
            lambda d, dim=dim: d["valid"] is True and d["algebra_dimension"] == dim,
            keys[name]))
        ops.append(_cli_op(
            cl, f"series.{name}", ["series", paths[name]], 0,
            lambda d, s=solvable: d["solvable"] is s and d["derived"][0]["dimension"] > 0,
            keys[name]))
    for name in ("plain3", "zsuper3", "z23", "borel2", "heisenberg", "graded_solvable"):
        dim = files[name][1]
        ops.append(_cli_op(cl, f"triangularize.{name}", ["triangularize", paths[name]], 0,
                           _upper_matrices, keys[name]))
        ops.append(_cli_op(
            cl, f"chain.{name}", ["chain", paths[name]], 0,
            lambda d, dim=dim: [m["dimension"] for m in d["chain"]] == list(range(dim + 1)),
            keys[name]))
    for name, code in (("z3_torsion", 3), ("rotation", 4), ("sl2", 3)):
        ops.append(_cli_op(cl, f"fail.{name}", ["triangularize", paths[name]], code,
                           None, keys[name]))
    for kind, text in _malformed_docs(rng).items():
        path = os.path.join(workdir, f"malformed_{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        ops.append(_cli_op(cl, f"fail.malformed_{kind}", ["validate", path], 2,
                           None, check.digest(text)))
    rng.shuffle(ops)
    return ops
