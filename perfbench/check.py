"""Independent exact checker for benchmark outputs.

Everything here is written against plain lists of ``Fraction`` and reads
the package's objects only as data (blocks, components, coordinates).  It
calls no elimination, polynomial or algebra routine of the package, so a
defect in those routines cannot hide itself from the check.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# -- dense rational matrices as lists of rows --------------------------------

def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def echelon_rank(rows):
    """Rank by plain Gaussian elimination over the rationals."""
    a = [list(r) for r in rows if any(r)]
    rank = 0
    width = len(a[0]) if a else 0
    for c in range(width):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            if f:
                f /= p
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def inverse(m):
    """Gauss-Jordan inverse, or None when m is singular."""
    n = len(m)
    a = [list(row) + e for row, e in zip(m, identity(n))]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def in_span(rows, v):
    return echelon_rank(list(rows) + [v]) == echelon_rank(rows)


# -- graded objects read as data ---------------------------------------------

def offsets(space):
    out, pos = {}, 0
    for g, n in space.dims:
        out[g] = pos
        pos += n
    return out


def dense_map(f):
    """Matrix of a homogeneous map in the degree-ordered basis of V."""
    space = f.space
    off = offsets(space)
    n = sum(k for _, k in space.dims)
    m = [[ZERO] * n for _ in range(n)]
    for h, blk in f.blocks:
        target = tuple(a + b for a, b in zip(h.free, f.degree.free))
        tors = tuple(
            (a + b) % q
            for a, b, q in zip(h.torsion, f.degree.torsion, space.group.torsion_moduli)
        )
        tgt = next(g for g in off if g.free == target and g.torsion == tors)
        r0, c0 = off[tgt], off[h]
        for i, row in enumerate(blk.data):
            for j, x in enumerate(row):
                m[r0 + i][c0 + j] = x
    return m


def dense_vector(v):
    off = offsets(v.space)
    out = [ZERO] * sum(k for _, k in v.space.dims)
    for g, comp in v.components:
        for i, x in enumerate(comp):
            out[off[g] + i] = x
    return out


def bichar(values, g, h):
    acc = ONE
    for i, gi in enumerate(g):
        for j, hj in enumerate(h):
            if gi * hj:
                acc *= values[i][j] ** (gi * hj)
    return acc


def bracket(values, a, da, b, db):
    """[a, b] = ab - r(|b|, |a|) ba on dense matrices with degrees."""
    s = bichar(values, db, da)
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return [[x - s * y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def flat(m):
    return [x for row in m for x in row]


# -- checks, one per kind of op ----------------------------------------------

def check_flag(algebra, flag):
    """T from the flag vectors is invertible and T^-1 M T is upper
    triangular with the reported weights on the diagonal, for every
    closure basis element M."""
    n = algebra.space.total_dim
    vecs = flag.ordered_basis
    if len(vecs) != n or len(flag.weights) != n:
        return False
    if any(len(v.components) != 1 for v in vecs):
        return False
    t = [list(col) for col in zip(*(dense_vector(v) for v in vecs))]
    t_inv = inverse(t)
    if t_inv is None:
        return False
    for w in flag.weights:
        if len(w.values) != algebra.dim:
            return False
    for i, b in enumerate(algebra.basis):
        m = mat_mul(t_inv, mat_mul(dense_map(b), t))
        for r in range(n):
            if any(m[r][c] != 0 for c in range(r)):
                return False
            if m[r][r] != flag.weights[r].values[i]:
                return False
    return True


def check_chain(algebra, chain):
    """Dimensions 0..dim L, nested members inside L, and [L, L_i] in L_i."""
    members = chain.chain
    if [s.dim for s in members] != list(range(algebra.dim + 1)):
        return False
    vals = algebra.r.values
    top = [(dense_map(b), b.degree.coords()) for b in algebra.basis]
    top_rows = [flat(m) for m, _ in top]
    prev = []
    for sub in members:
        elems = [(dense_map(f), f.degree.coords()) for f in sub.elements()]
        rows = [flat(m) for m, _ in elems]
        if echelon_rank(rows) != len(rows):
            return False
        if any(not in_span(rows, p) for p in prev):
            return False
        if any(not in_span(top_rows, r) for r in rows):
            return False
        for a, da in top:
            for b, db in elems:
                if not in_span(rows, flat(bracket(vals, a, da, b, db))):
                    return False
        prev = rows
    return True


def check_nil(expected, got):
    return got is expected


def poly_from_roots(roots, extra=(ONE,)):
    """Coefficients (constant first) of prod (t - root) times ``extra``."""
    coeffs = [Fraction(c) for c in extra]
    for root in roots:
        nxt = [ZERO] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= root * c
        coeffs = nxt
    return coeffs


def check_char_roots(roots, extra, got):
    poly, found = got
    if list(poly.coeffs) != poly_from_roots(roots, extra):
        return False
    return dict(found) == dict(Counter(Fraction(r) for r in roots))


def check_rref(planted, got):
    red, pivots, rank = got
    r = len(planted)
    rows = [list(row) for row in red.data]
    want = [list(row) for row in planted] + [[ZERO] * len(planted[0])] * (len(rows) - r)
    return rank == r and tuple(pivots) == tuple(range(r)) and rows == want


def check_kernel(a, planted, got):
    vecs = [list(v) for v in got]
    if vecs != [list(v) for v in planted]:
        return False
    return all(not any(mat_vec(a, v)) for v in vecs)


def check_inverse(a, got):
    inv = [list(row) for row in got.data]
    return mat_mul(a, inv) == identity(len(a))


def check_cli(expected_code, validate_json, got):
    code, out = got
    if code != expected_code:
        return False
    if code != 0:
        return True
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    return validate_json(doc)


# -- canonical digests -------------------------------------------------------

def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canon_map(f):
    return [list(f.degree.coords()), [[str(x) for x in row] for row in dense_map(f)]]


def canon_flag(flag):
    return [
        [[list(v.components[0][0].coords()), [str(x) for x in dense_vector(v)]]
         for v in flag.ordered_basis],
        [[str(x) for x in w.values] for w in flag.weights],
    ]


def canon_chain(chain):
    return [[canon_map(f) for f in sub.elements()] for sub in chain.chain]
