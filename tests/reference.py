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
the oracle for ``linalg._nilpotent_at``.
"""

from __future__ import annotations

from fractions import Fraction

from colorlie import (
    Matrix,
    center,
    color_bracket,
    derived_series,
    eval_bicharacter,
    flatten_map,
    lower_central_series,
    unflatten_map,
)
from colorlie.algebra import _flat, _sparse, _sparse_bracket


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
    """The sparse kernel, given a and b as the nonzero (index, value)
    pairs of their flattened matrices, returns the flattened
    ``color_bracket``, whose degree is |a| + |b|."""
    s = eval_bicharacter(r, b.degree, a.degree)
    got = _sparse_bracket(a.space.total_dim, _sparse(_flat(a)), _sparse(_flat(b)), s)
    want = color_bracket(r, a, b)
    assert want.degree == a.degree + b.degree
    assert got == _flat(want)


def assert_table_matches_brackets(L):
    """Every [R_i, R_j] of the table is the flattened bracket of the
    echelon rows R_i and R_j, and (j, i) is (i, j) twisted by skew
    symmetry."""
    n = L.space.total_dim
    rows = L._solver.rows
    rs = [L._element(d, L._unit(k)) for k, d in enumerate(L._degrees)]
    for k, f in enumerate(rs):
        assert [x for row in flatten_map(f).data for x in row] == rows[k]
    table = L._structure()
    for i, a in enumerate(rs):
        for j, b in enumerate(rs):
            entries = table[i].get(j, ())
            assert all(c != 0 for _, c in entries)
            flat = [Fraction(0)] * (n * n)
            for k, c in entries:
                flat = [x + c * y for x, y in zip(flat, rows[k])]
            want = flatten_map(color_bracket(L.r, a, b)).data
            assert flat == [x for row in want for x in row]
            twist = -eval_bicharacter(L.r, a.degree, b.degree)
            assert table[j].get(i, ()) == tuple((k, twist * c) for k, c in entries)


def assert_series_and_center_match(L):
    assert [s.elements() for s in derived_series(L)] == ref_derived_series(L)
    assert [s.elements() for s in lower_central_series(L)] == ref_lower_central_series(L)
    assert center(L).elements() == ref_center(L)
