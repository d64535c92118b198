"""Reference versions of the algebra operations on flattened maps.

They bracket maps with ``color_bracket``, every ordered pair, and
echelonize the flattened N x N matrices per degree with their own dense
Gauss-Jordan (``ref_rref``: every entry, zeros included, on the whole
stack at once), as the package did before it worked on structure
constants.  So they share no code with the package's elimination kernel
``linalg._Echelon``, with the table, with pivot coordinates or with the
sparse bracket kernel that closures and tables use;
``assert_kernel_matches_color_bracket`` checks that bracket kernel
against ``color_bracket``.  Each returns per-degree reduced echelon
bases as maps, to be compared with ``Subspace.elements``.

``ref_traces_vanish`` is the pointwise nilpotency test by trace powers,
the oracle for ``linalg._nilpotent_at``, and ``ref_products_vanish``
multiplies out every word, the oracle for ``linalg._products_vanish``.

``ref_kernel_filtration`` is the kernel filtration by induced maps, the
oracle for ``structure._kernel_filtration``, and ``ref_certificate`` the
dense T^-1 M T check and product, the oracle for ``structure._certify``
and its columns (``dense_columns``).  ``ref_ad``
builds ad x column by column with ``color_bracket``, the oracle for the
table-read ``structure._sparse_ads``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from colorlie import (
    Matrix,
    TheoremViolation,
    center,
    color_bracket,
    derived_series,
    eval_bicharacter,
    flatten_map,
    lower_central_series,
    make_map,
    make_space,
    unflatten_map,
)
from colorlie.algebra import _sparse_bracket


def _flat(f) -> list[Fraction]:
    """f's flattened matrix as one dense row, row-major."""
    return [x for row in flatten_map(f).data for x in row]


def densify(vec: dict, width: int) -> list[Fraction]:
    """The sparse vector ``{index: value}`` as a dense list."""
    return [vec.get(i, Fraction(0)) for i in range(width)]


def ref_rref(rows, width: int) -> list[list[Fraction]]:
    """The nonzero rows of the reduced row echelon form of the stacked
    rows, by textbook Gauss-Jordan."""
    a = [list(row) for row in rows]
    rank = 0
    for c in range(width):
        p = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        lead = a[rank][c]
        a[rank] = [x / lead for x in a[rank]]
        for i in range(len(a)):
            f = a[i][c]
            if i != rank and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return a[:rank]


def ref_traces_vanish(point, ints, n: int) -> bool:
    """Whether X = sum t_i B_i, for n x n integer B_i, has tr X^k = 0 for
    k = 1..n, which in characteristic zero holds iff X is nilpotent
    (Newton's identities)."""
    m = [
        [sum(t * b[i][j] for t, b in zip(point, ints)) for j in range(n)]
        for i in range(n)
    ]
    p = m
    for k in range(1, n + 1):
        if sum(p[i][i] for i in range(n)) != 0:
            return False
        if k < n:
            p = [
                [sum(p[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return True


def ref_products_vanish(ints, n: int) -> bool:
    """Whether each of the s^n words of length n in the n x n integer
    matrices B_i multiplies out to zero."""
    for word in itertools.product(ints, repeat=n):
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for b in word:
            p = [
                [sum(p[i][l] * b[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
        if any(any(row) for row in p):
            return False
    return True


def ref_kernel(rows, width: int) -> list[tuple[Fraction, ...]]:
    """Null space basis of the stacked rows, one vector per free column."""
    red = ref_rref(rows, width)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in red]
    out = []
    for f in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for p, row in zip(pivots, red):
            v[p] = -row[f]
        out.append(tuple(v))
    return out


def ref_span(space, maps) -> list:
    """Reduced echelon basis of the span of homogeneous maps, degree by
    degree in canonical order."""
    n = space.total_dim
    by_degree = {}
    for f in maps:
        by_degree.setdefault(f.degree, []).append(_flat(f))
    return [
        unflatten_map(space, g, Matrix([row[i * n : (i + 1) * n] for i in range(n)], cols=n))
        for g in sorted(by_degree, key=lambda g: g.sort_key())
        for row in ref_rref(by_degree[g], n * n)
    ]


def ref_contains(span: list, f) -> bool:
    """Whether the homogeneous map f lies in the span of the maps of
    ``ref_span``: f reduced by the echelon rows of its degree vanishes."""
    v = _flat(f)
    for g in span:
        if g.degree == f.degree:
            row = _flat(g)
            c = v[next(p for p, x in enumerate(row) if x != 0)]
            v = [x - c * y for x, y in zip(v, row)]
    return not any(v)


def _brackets(L, s, t):
    return ref_span(L.space, [color_bracket(L.r, a, b) for a in s for b in t])


def ref_derived_series(L) -> list[list]:
    terms = [ref_span(L.space, L.basis)]
    while True:
        nxt = _brackets(L, terms[-1], terms[-1])
        if len(nxt) == len(terms[-1]):
            return terms
        terms.append(nxt)
        if not nxt:
            return terms


def ref_lower_central_series(L) -> list[list]:
    top = ref_span(L.space, L.basis)
    terms = [top]
    while True:
        nxt = _brackets(L, top, terms[-1])
        if len(nxt) == len(terms[-1]):
            return terms
        terms.append(nxt)
        if not nxt:
            return terms


def ref_center(L) -> list:
    """Kernel of x -> ([x, b])_b over L's basis, split into degrees."""
    if L.dim == 0:
        return []
    columns = []
    for a in L.basis:
        col = []
        for b in L.basis:
            col.extend(x for row in flatten_map(color_bracket(L.r, a, b)).data for x in row)
        columns.append(col)
    system = Matrix.from_columns(columns, rows=len(columns[0]))
    out = []
    for coeffs in ref_kernel(system.data, L.dim):
        for g in L.degrees():
            part = [c if f.degree == g else Fraction(0) for c, f in zip(coeffs, L.basis)]
            if any(part):
                out.append(L.from_coordinates(part))
    return ref_span(L.space, out)


def ref_ad(L, degree, coords):
    """ad x for x of the given degree and pivot coordinates, acting on
    L's profile space in pivot coordinates: the component of degree g has
    the R_k of degree g as its basis, in order of k.  Column j is
    [x, R_j] by ``color_bracket``, read at the pivots of the R_k, so the
    structure-constant table is not used."""
    x = L._element(degree, coords)
    profile = L.profile_space()
    off, seen, at = profile.offsets(), {}, []
    for d in L._degrees:
        at.append(off[d] + seen.get(d, 0))
        seen[d] = seen.get(d, 0) + 1
    m = profile.total_dim
    rows = [[Fraction(0)] * m for _ in range(m)]
    for j, d in enumerate(L._degrees):
        flat = _flat(color_bracket(L.r, x, L._element(d, L._unit(j))))
        for k, p in enumerate(L._solver.pivots):
            rows[at[k]][at[j]] = flat[p]
    return unflatten_map(profile, degree, Matrix(rows, cols=m))


def ref_codim_one_ideal(L) -> tuple[list, object]:
    """The derived series' terms, deepest first, extended by L's basis;
    all but the last element, and the last."""
    levels = list(reversed(ref_derived_series(L)[1:])) + [list(L.basis)]
    chain, span = [], []
    for f in (f for level in levels for f in level):
        if not ref_contains(span, f):
            chain.append(f)
            span = ref_span(L.space, chain)
    return ref_span(L.space, chain[:-1]), chain[-1]


def assert_kernel_matches_color_bracket(r, a, b):
    """The sparse kernel, given d_a a and d_b b, each map scaled by the lcm
    d of its denominators, as the nonzero entries of their flattened
    matrices split by matrix row ``{p: [(q, x), ...]}``, returns the
    flattened den(s) d_a d_b ``color_bracket``, s = r(|b|, |a|), in ints;
    the bracket's degree is |a| + |b|."""
    s = eval_bicharacter(r, b.degree, a.degree)
    n = a.space.total_dim
    scales, split = [], []
    for f in (a, b):
        flat = _flat(f)
        d = math.lcm(*[x.denominator for x in flat])
        rows: dict = {}
        for i, x in enumerate(flat):
            if x:
                rows.setdefault(i // n, []).append((i % n, int(x * d)))
        scales.append(d)
        split.append(rows)
    got = _sparse_bracket(n, *split, s)
    assert all(type(x) is int for x in got.values())
    want = color_bracket(r, a, b)
    assert want.degree == a.degree + b.degree
    scale = s.denominator * scales[0] * scales[1]
    assert densify(got, n * n) == [scale * x for x in _flat(want)]


def assert_table_matches_brackets(L):
    """Every [R_i, R_j] of the table is the flattened bracket of the
    echelon rows R_i and R_j, and (j, i) is (i, j) twisted by skew
    symmetry."""
    n = L.space.total_dim
    rows = [densify(row, n * n) for row in L._solver.sparse_rows]
    rs = [L._element(d, L._unit(k)) for k, d in enumerate(L._degrees)]
    for k, f in enumerate(rs):
        assert _flat(f) == rows[k]
    table = L._structure()

    def entries(i, j):
        # the entry's integers over its positive denominator, in lowest terms
        c, d = table[i].get(j, ({}, 1))
        assert all(type(x) is int and x != 0 for x in c.values())
        assert type(d) is int and d > 0 and math.gcd(d, *c.values()) == 1
        return {k: Fraction(x, d) for k, x in c.items()}

    for i, a in enumerate(rs):
        for j, b in enumerate(rs):
            flat = [Fraction(0)] * (n * n)
            for k, c in entries(i, j).items():
                flat = [x + c * y for x, y in zip(flat, rows[k])]
            assert flat == _flat(color_bracket(L.r, a, b))
            twist = -eval_bicharacter(L.r, a.degree, b.degree)
            assert entries(j, i) == {k: twist * c for k, c in entries(i, j).items()}


def assert_series_and_center_match(L):
    assert [s.elements() for s in derived_series(L)] == ref_derived_series(L)
    assert [s.elements() for s in lower_central_series(L)] == ref_lower_central_series(L)
    assert center(L).elements() == ref_center(L)


def ref_kernel_filtration(space, nil, top) -> list[tuple]:
    """The levels K_1 < K_2 < ... of the common kernel filtration of the
    maps ``nil``, as (factor space, ``top`` restricted to the factor,
    factor basis per degree as vectors of V), by induced maps on dense
    blocks: V/K_j in the free columns of K_j's reduced echelon form
    (``ref_rref``), every map induced on it from the normal forms of its
    own columns, the common kernel of the induced ``nil`` maps per degree
    (``ref_kernel``), and each induced ``top`` map solved column by
    column in the kernel's basis.  Stops at V or at the first empty
    kernel; an image outside the level raises TheoremViolation."""
    kept = {g: [] for g in space.degrees}
    levels = []
    while True:
        free, normal = {}, {}
        for g, n in space.dims:
            red = ref_rref(kept[g], n)
            pivots = [next(c for c, x in enumerate(row) if x != 0) for row in red]
            free[g] = [c for c in range(n) if c not in pivots]
            normal[g] = (pivots, red)

        def project(g, v):
            pivots, red = normal[g]
            for p, row in zip(pivots, red):
                c = v[p]
                v = [x - c * y for x, y in zip(v, row)]
            return [v[c] for c in free[g]]

        def induced(f, h):
            # rows indexed by the free columns of the target, columns by
            # those of h; None when the block is zero
            t = h + f.degree
            if not space.dim_of(t) or not any(g == h for g, _ in f.blocks):
                return None
            data = f.block(h).data
            images = [project(t, [row[c] for row in data]) for c in free[h]]
            return [list(r) for r in zip(*images)] if images else []

        bases = {}
        for h, n in space.dims:
            if free[h]:
                rows = [r for f in nil for r in (induced(f, h) or [])]
                kernel = ref_kernel(rows, len(free[h]))
                if kernel:
                    bases[h] = kernel
        if not bases:
            return levels
        level = make_space(space.group, {h: len(ks) for h, ks in bases.items()})
        restricted = []
        for f in top:
            blocks = {}
            for h, ks in bases.items():
                b = induced(f, h)
                if b is None:
                    continue
                cols = [_solve(bases.get(h + f.degree, []), [
                    sum((x * k for x, k in zip(row, kv)), Fraction(0)) for row in b
                ]) for kv in ks]
                if level.dim_of(h + f.degree):
                    blocks[h] = Matrix.from_columns(cols, rows=level.dim_of(h + f.degree))
            restricted.append(make_map(level, f.degree, blocks))
        rows = {}
        for h, ks in bases.items():
            rows[h] = []
            for kv in ks:
                at = dict(zip(free[h], kv))
                rows[h].append([at.get(c, Fraction(0)) for c in range(space.dim_of(h))])
            kept[h] += rows[h]
        levels.append((level, restricted, rows))


def _solve(basis, img) -> list[Fraction]:
    """Coordinates of img in the independent vectors ``basis``, by the
    reduced echelon form of the augmented system; TheoremViolation when
    img lies outside their span."""
    m = len(basis)
    system = [[k[i] for k in basis] + [x] for i, x in enumerate(img)]
    x = [Fraction(0)] * m
    for row in ref_rref(system, m + 1):
        p = next(c for c, v in enumerate(row) if v != 0)
        if p == m:
            raise TheoremViolation("a kernel level of an ideal is not invariant")
        x[p] = row[m]
    return x


def ref_certificate(flat_vectors, mats) -> list[list[list[Fraction]]]:
    """T^-1 M T, as dense rows, for the dense n x n matrices ``mats``,
    with T the flattened flag vectors as columns, after checking that
    every entry below the diagonal vanishes: T^-1 by Gauss-Jordan on
    [T | I] (``ref_rref``), the products entry by entry.  TheoremViolation
    with the package's messages when T is singular or a product is not
    upper triangular."""
    n = len(flat_vectors[0]) if flat_vectors else 0
    t = [[v[i] for v in flat_vectors] for i in range(n)]
    if len(flat_vectors) != n:
        raise TheoremViolation("flag vectors do not form a basis")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(t)]
    red = ref_rref(aug, 2 * n)
    if len(red) < n or any(red[i][i] == 0 for i in range(n)):
        raise TheoremViolation("flag vectors do not form a basis")
    t_inv = [row[n:] for row in red]

    def product(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0))
                 for j in range(n)] for i in range(n)]

    out = []
    for m in mats:
        c = product(t_inv, product([list(row) for row in m.data], t))
        if any(c[i][j] != 0 for i in range(n) for j in range(i)):
            raise TheoremViolation("matrix is not upper triangular in the flag basis")
        out.append(c)
    return out


def dense_columns(columns, n: int) -> list[list[Fraction]]:
    """The n x n matrix, as dense rows, whose column j is the sparse
    ``columns[j]``."""
    return [[columns[j].get(i, Fraction(0)) for j in range(n)] for i in range(n)]
