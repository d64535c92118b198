"""Lie color algebras presented concretely as bracket-closed spans of
homogeneous maps on a graded space.

The bracket is [a, b] = a b - r(|b|, |a|) b a with r the bicharacter of
the grading group.

Structure constants are the algebra's working currency.  An algebra L
of dimension m keeps a canonical basis R_1..R_m: the reduced echelon
rows of its basis maps' flattened matrices, with pivot columns
p_1 < ... < p_m.  Flattened maps of different degrees have disjoint
supports, so every R_k is homogeneous.  An element x of L has the
*pivot coordinates* x = sum_k x[p_k] R_k, its flattened entries at the
pivots.  A closed algebra tabulates [R_i, R_j] = sum_k c_ij^k R_k once,
sparsely, as in de Graaf, *Lie Algebras: Theory and Algorithms* (2000,
ch. 1) or GAP's ``AlgebraByStructureConstants``; subspaces, the series,
the center, ideals and the adjoint action are then computed on
length-m coordinate vectors instead of on N x N maps.

R and its transform back to the basis are kept by a ``linalg._Echelon``,
the package's one elimination kernel, as are all echelon rows here.  Every
vector here is sparse, a dict ``{index: value}`` as the kernel takes and
gives it: flattened maps, pivot coordinates and table entries alike.  A
map's flattened vector is the one thing it stores, ``f.entries`` (see
``graded``), so a map goes into the kernel as it stands, and an element
is built from its sorted entries, with no blocks either way.

A graded span is one ``_Echelon``, with no split by degree: homogeneous
vectors of different degrees share no coordinate, flattened or pivot, so
its reduced rows stay homogeneous, and a row's degree is read off its
pivot, L._degrees[p] in pivot coordinates.  Rows are listed stably
sorted by degree.  A subspace is stored as reduced echelon rows in pivot
coordinates.  The leading flattened entry of x in L sits at p_k for the
first k with x[p_k] != 0, so taking pivot entries maps the reduced
echelon basis of a subspace over flattened coordinates onto its reduced
echelon basis over pivot coordinates, and back.  The maps that
``Subspace.elements`` builds from the rows are therefore exactly those
that echelonizing flattened matrices gives, whatever basis the algebra
was presented in.

Each unordered pair is bracketed at most once.  ``make_bicharacter``
checks r(g, h) r(h, g) = 1, so color skew symmetry gives
[b, a] = -r(|a|, |b|) [a, b]: once [a, b] lies in a span, [b, a] does
too, and c_ji = -r(|R_i|, |R_j|) c_ij fills the table's other half.  The
diagonal pair is kept, since under a super grading [a, a] = 2 a^2 need
not vanish.

Those brackets, the closure's and the table's, are the only ones taken
of maps, and ``_sparse_bracket`` computes them on integer rows, without
building maps: each operand is an integer multiple of a flattened
N x N matrix, split by matrix row once (``_split``), and with
s = r(|b|, |a|) the kernel gives den(s) a b - num(s) b a = den(s) [a, b]
in Python ints, fraction-free as ``_Echelon`` is; the caller tracks the
degree |a| + |b|.  The closure brackets primitive integer rows, whose
span is that of the maps they scale, and the table brackets the
solver's integer rows lead_k R_k and keeps each entry as the integer
pivot coordinates over den(s) lead_i lead_j, in lowest terms, which the
flag engine reads as they are.  Integers stay inside; every value
returned is a Fraction.  ``color_bracket`` stays the public bracket of
maps, by ``compose`` and ``add_maps`` on their Fraction entries, so the
tests can check the kernel and the table against it.

An algebra spanned by reduced rows, as closures are, keeps its basis as
those rows and their degrees (``basis_degrees``); the maps of
``basis`` are built on its first read, and the degrees, the dimension,
the series, the table, flags and chains never read them.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GroupMismatch,
    NotClosed,
    NotInAlgebra,
    ParentMismatch,
    SpaceMismatch,
    ValidationError,
)
from .grading import (
    Bicharacter,
    GroupElement,
    element_add,
    element_scale,
    eval_bicharacter,
)
from .graded import (
    GradedSpace,
    HomogeneousMap,
    _coordinate_degrees,
    _unflatten,
    add_maps,
    compose,
    flatten_map,
    make_space,
    map_power,
    scale_map,
    zero_map,
)
from .linalg import (
    _ONE, _ZERO, _Echelon, _cleared, _lowest, _primitive_row, _sum_of, is_nilpotent_matrix,
)


def color_bracket(r: Bicharacter, a: HomogeneousMap, b: HomogeneousMap) -> HomogeneousMap:
    """[a, b] = a b - r(|b|, |a|) b a; the degree is |a| + |b|."""
    if a.space != b.space:
        raise SpaceMismatch("bracket of maps on different spaces")
    if r.spec != a.space.group:
        raise GroupMismatch("bicharacter group differs from the grading group")
    s = eval_bicharacter(r, b.degree, a.degree)
    return add_maps(compose(a, b), scale_map(-s, compose(b, a)))


def _sparse_bracket(n: int, x: dict, y: dict, s: Fraction) -> dict[int, int]:
    """den(s) x y - num(s) y x for integer maps x, y given split by matrix
    row (``_split``), returned as a sparse flattened row of the n x n
    matrix, row-major, holding a zero where terms cancel.  With
    s = r(|y|, |x|) this is den(s) [x, y] of degree |x| + |y|, which the
    caller tracks.  Only stored entries are multiplied: (x y)[p, q]
    collects x[p, k] y[k, q] over the entries of y's row k."""
    out: dict[int, int] = {}
    for left, right, c in ((x, y, s.denominator), (y, x, -s.numerator)):
        for p, row in left.items():
            base = p * n
            for k, a in row:
                other = right.get(k)
                if other:
                    ca = c * a
                    for q, v in other:
                        i = base + q
                        out[i] = out[i] + ca * v if i in out else ca * v
    return out


def _split(n: int, row: dict) -> dict[int, list]:
    """The nonzero entries of a sparse flattened row of an n x n matrix,
    tracked columns past n^2 left out, by matrix row: {p: [(q, x), ...]}
    for x at p n + q, as ``_sparse_bracket`` takes them."""
    out: dict[int, list] = {}
    nn = n * n
    for i, x in row.items():
        if x and i < nn:
            out.setdefault(i // n, []).append((i % n, x))
    return out


def _integral(row: dict) -> dict[int, int]:
    """The primitive integer multiple of a nonzero sparse row of
    Fractions or ints, positive at its first index."""
    ints, _ = _cleared(row)
    return _primitive_row(ints, min(ints))


def _pivot_degrees(space: GradedSpace, pivots) -> list[GroupElement]:
    """The degree of each flattened row with the given pivot: deg(p // n)
    - deg(p % n) on a space of dimension n (see the module docstring)."""
    n = space.total_dim
    degrees = _coordinate_degrees(space)
    negated = [-g for g in degrees]
    return [element_add(degrees[p // n], negated[p % n]) for p in pivots]


class ColorAlgebra:
    """A span of linearly independent homogeneous maps; with closed=True
    the span is verified (or trusted, for internally built algebras) to be
    closed under the color bracket.

    The canonical basis R and pivot coordinates are those of the module
    docstring: R is the rows of ``_solver``, whose transform leads back
    to the basis.  ``basis_degrees`` lists the basis elements' degrees
    and ``_basis_coords`` their pivot coordinates; ``basis``, their maps,
    is built from these on first read when the algebra was spanned by
    rows.  Verifying the closure builds the structure-constant table; a
    trusted algebra builds it, verified the same way, on first use.

    An algebra also keeps what the structure calls read off it alone,
    each built by the first call that needs it: [L, L] (``_square``), the
    basis adapted to it, the flag's sparse maps and ``ideal_chain``'s ad
    maps (see ``colorlie.structure``).  No verdict is kept: every call
    still runs its hypothesis checks and its certificate.
    """

    def __init__(self, space: GradedSpace, r: Bicharacter, basis,
                 closed: bool = False):
        if r.spec != space.group:
            raise GroupMismatch("bicharacter group differs from the grading group")
        basis = tuple(basis)
        for f in basis:
            if f.space != space:
                raise SpaceMismatch("basis map acts on a different space")
        flat = [f.entries for f in basis]
        solver = _Echelon(space.total_dim ** 2, flat, track=True)
        if len(solver.pivots) < len(basis):
            raise ValidationError("basis maps are linearly dependent")
        self._setup(space, r, solver, closed, [f.degree for f in basis], [
            {k: v[p] for k, p in enumerate(solver.pivots) if p in v} for v in flat
        ])
        self.basis = basis
        if closed:
            self._structure()

    @classmethod
    def _spanned(cls, space: GradedSpace, r: Bicharacter,
                 ech: _Echelon) -> "ColorAlgebra":
        """The trusted closed algebra whose basis is the reduced rows of
        ``ech``, an untracked ``_Echelon`` of flattened maps on ``space``,
        stably sorted by degree (``_pivot_degrees``).  The rows are
        independent and already reduced, so they become the solver as
        they stand (``_Echelon.tracked``), each basis element one R_k."""
        degrees = _pivot_degrees(space, ech.pivots)
        order = sorted(range(len(degrees)), key=lambda k: degrees[k].sort_key())
        L = cls.__new__(cls)
        L._setup(space, r, ech.tracked(order), True, [degrees[k] for k in order],
                 [{k: 1} for k in order])
        return L

    def _setup(self, space, r, solver, closed, degrees, coords):
        """The fields both constructors set, from the solver and the basis
        elements' degrees and pivot coordinates."""
        self.space = space
        self.r = r
        self.closed = closed
        self.basis_degrees = degrees
        self._solver = solver
        self._profile: GradedSpace | None = None
        self._table: list[dict] | None = None
        # filled by ``_square`` and ``structure._adapted``, ``_flag_maps``
        # and ``_chain_maps`` on first use
        self._derived: Subspace | None = None
        self._adapted: tuple | None = None
        self._flag_inputs: tuple | None = None
        self._chain_inputs: tuple | None = None
        self._degrees = _pivot_degrees(space, solver.pivots)
        self._basis_coords = coords

    @functools.cached_property
    def basis(self) -> tuple[HomogeneousMap, ...]:
        """The basis maps, built on first read for a spanned algebra."""
        return tuple(map(self._element, self.basis_degrees, self._basis_coords))

    @property
    def dim(self) -> int:
        return len(self.basis_degrees)

    def degrees(self) -> list[GroupElement]:
        return sorted(set(self.basis_degrees), key=lambda g: g.sort_key())

    def basis_indices_of_degree(self, g: GroupElement) -> list[int]:
        return [i for i, d in enumerate(self.basis_degrees) if d == g]

    def basis_of_degree(self, g: GroupElement) -> list[HomogeneousMap]:
        return [self.basis[i] for i in self.basis_indices_of_degree(g)]

    def coordinates(self, f: HomogeneousMap) -> tuple[Fraction, ...] | None:
        """Coordinates of f in the basis, or None when f is outside the span."""
        coords = self._pivot_coords(f)
        return None if coords is None else self._solver.to_basis(coords)

    def contains(self, f: HomogeneousMap) -> bool:
        return self.coordinates(f) is not None

    def from_coordinates(self, coords) -> HomogeneousMap:
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValidationError("coordinate length mismatch")
        terms = [scale_map(c, f) for c, f in zip(coords, self.basis) if c != 0]
        if not terms:
            return zero_map(self.space, self.space.group.identity())
        return functools.reduce(add_maps, terms)

    def profile_space(self) -> GradedSpace:
        """The graded space with one dimension per basis element, used by
        the adjoint representation."""
        if self._profile is None:
            dims = Counter(self.basis_degrees)
            self._profile = make_space(self.space.group, dims)
        return self._profile

    # -- pivot coordinates and the structure-constant table

    def _pivot_coords(self, f: HomogeneousMap) -> dict[int, Fraction] | None:
        """Pivot coordinates of f, or None when f is outside the span."""
        if f.space != self.space:
            raise SpaceMismatch("map acts on a different space")
        return self._solver.reduce(f.entries)

    def _element(self, degree: GroupElement, coords) -> HomogeneousMap:
        """The map with the given pivot coordinates."""
        return _unflatten(self.space, degree, _sum_of(self._solver.sparse_rows, coords))

    def _unit(self, k: int) -> dict[int, Fraction]:
        """Pivot coordinates of R_k."""
        return {k: _ONE}

    def _structure(self) -> list[dict]:
        """The table: entry [i][j] holds the nonzero c_ij^k as integers
        over one positive denominator, ``({k: x}, d)`` with c_ij^k = x / d
        in lowest terms (``_lowest``), and is absent when [R_i, R_j] = 0.
        Built once, from the pairs i <= j of the solver's integer rows
        I_k = lead_k R_k, each bracket checked to lie in the span:
        ``_sparse_bracket`` gives den(s) lead_i lead_j [R_i, R_j], whose
        pivot coordinates are integers over that product."""
        if self._table is None:
            n = self.space.total_dim
            solver = self._solver
            rows = [_split(n, row) for row in solver.int_rows]
            leads = [row[p] for p, row in zip(solver.pivots, solver.int_rows)]
            degrees = self._degrees
            table: list[dict] = [{} for _ in degrees]
            for i, (a, da) in enumerate(zip(rows, degrees)):
                for j in range(i, len(rows)):
                    db = degrees[j]
                    s = eval_bicharacter(self.r, db, da)
                    c = solver.reduce(_sparse_bracket(n, a, rows[j], s))
                    if c is None:
                        raise NotClosed("basis is not closed under the bracket")
                    if c:
                        (c,), d = _lowest([c], s.denominator * leads[i] * leads[j])
                        table[i][j] = c, d
                        if j != i:
                            t = -eval_bicharacter(self.r, da, db)
                            (tc,), td = _lowest([{k: t.numerator * x for k, x in c.items()}],
                                                d * t.denominator)
                            table[j][i] = tc, td
            self._table = table
        return self._table

    def _bracket(self, xs: dict, ys: dict) -> dict[int, Fraction]:
        """[x, y] in pivot coordinates, from the table, holding a zero
        where terms cancel."""
        table = self._structure()
        out: dict[int, Fraction] = {}
        for i, a in xs.items():
            row = table[i]
            for j, b in ys.items():
                e = row.get(j)
                if e is not None:
                    c, d = e
                    ab = a * b if d == 1 else Fraction(a * b, d)
                    for k, x in c.items():
                        out[k] = out[k] + ab * x if k in out else ab * x
        return out


def bracket_closure(space: GradedSpace, r: Bicharacter, generators) -> ColorAlgebra:
    """Smallest bracket-closed span containing the homogeneous generators.

    A worklist, as in semi-naive evaluation (Bancilhon and Ramakrishnan,
    SIGMOD 1986): ``elems`` holds the independent maps found so far, the
    independent generators ``gens`` first and then every new bracket.
    Each ``elems[i]`` is bracketed once with ``gens[0..i]``, itself
    included while it is a generator, and every result that enlarges the
    span is appended.  When the scan reaches the end, each generator pair
    has been bracketed once and every other element with every generator,
    so by skew symmetry (see the module docstring) the span S has
    [g, S] in S for each generator g.  By color Jacobi the x with
    [x, S] in S form a subalgebra; it holds the generators, hence the
    algebra they generate, which holds S, so S is closed: left-normed
    brackets of generators span the generated algebra (de Graaf, *Lie
    Algebras: Theory and Algorithms*, 2000).  At most dim V^2 maps are
    independent, so the scan ends.

    The worklist holds (degree, integer map) pairs, each map a primitive
    integer multiple of a flattened row (``_integral``), split by matrix
    row once (``_split``), and brackets them with ``_sparse_bracket``;
    scaling leaves the span, and so its canonical reduced rows, as it is.
    The span is one ``_Echelon`` over flattened rows, whose reduced rows
    become the returned basis.
    """
    n = space.total_dim
    ech = _Echelon(n * n)
    elems = []
    for g in generators:
        if g.space != space:
            raise SpaceMismatch("generator acts on a different space")
        if ech.add(g.entries):
            elems.append((g.degree, _split(n, _integral(g.entries))))
    if r.spec != space.group:
        raise GroupMismatch("bicharacter group differs from the grading group")
    gens = elems[:]
    # the scan reaches the brackets it appends
    for i, (da, a) in enumerate(elems):
        for db, b in gens[: i + 1]:
            c = _sparse_bracket(n, a, b, eval_bicharacter(r, db, da))
            if c and ech.add(c):
                elems.append((element_add(da, db), _split(n, _integral(c))))
    return ColorAlgebra._spanned(space, r, ech)


class Subspace:
    """Graded subspace of a ColorAlgebra, stored as one ``_Echelon`` of
    reduced rows in the parent's pivot coordinates, each homogeneous of
    its pivot's degree; maps are built from the rows only by
    ``elements``."""

    def __init__(self, parent: ColorAlgebra, elements):
        self.parent = parent
        self._ech = _Echelon(parent.dim)
        for f in elements:
            coords = parent._pivot_coords(f)
            if coords is None:
                raise NotInAlgebra("element lies outside the parent algebra")
            self._ech.add(coords)

    @classmethod
    def _span(cls, parent: ColorAlgebra, vectors) -> "Subspace":
        """The span of sparse vectors of pivot coordinates."""
        s = cls(parent, ())
        for v in vectors:
            s._ech.add(v)
        return s

    def _vectors(self) -> list[tuple[GroupElement, dict[int, Fraction]]]:
        """The reduced rows with their degrees, stably sorted by degree."""
        degrees = self.parent._degrees
        rows = zip((degrees[p] for p in self._ech.pivots), self._ech.sparse_rows)
        return sorted(rows, key=lambda gv: gv[0].sort_key())

    @property
    def dim(self) -> int:
        return len(self._ech.pivots)

    def is_zero(self) -> bool:
        return self.dim == 0

    def degrees(self) -> list[GroupElement]:
        return list(self.dims_by_degree())

    def dims_by_degree(self) -> dict[GroupElement, int]:
        return dict(Counter(g for g, _ in self._vectors()))

    def elements(self) -> list[HomogeneousMap]:
        return [self.parent._element(g, v) for g, v in self._vectors()]

    def contains(self, f: HomogeneousMap) -> bool:
        coords = self.parent._pivot_coords(f)
        return coords is not None and self._ech.reduce(coords) is not None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.parent is other.parent
            and self._ech.sparse_rows == other._ech.sparse_rows
        )


def full_subspace(L: ColorAlgebra) -> Subspace:
    return Subspace._span(L, map(L._unit, range(L.dim)))


def bracket_subspaces(s: Subspace, t: Subspace) -> Subspace:
    if s.parent is not t.parent:
        raise ParentMismatch("subspaces of different algebras")
    L = s.parent
    out = Subspace(L, ())
    # [S, S]: the pairs i <= j suffice by skew symmetry
    same = s is t
    t_rows = t._ech.sparse_rows
    for i, x in enumerate(s._ech.sparse_rows):
        for y in t_rows[i:] if same else t_rows:
            c = L._bracket(x, y)
            if c:
                out._ech.add(c)
    return out


def _require_closed(L: ColorAlgebra):
    if not L.closed:
        raise NotClosed("operation requires a bracket-closed algebra")


def _square(L: ColorAlgebra) -> Subspace:
    """[L, L], read off the table once and kept on L (``L._derived``):
    the span of its entries [R_i, R_j] with i <= j, which span every
    [R_j, R_i] by skew symmetry.  Its readers never change it."""
    if L._derived is None:
        out = Subspace(L, ())
        for i, row in enumerate(L._structure()):
            for j, (c, _) in row.items():
                if j >= i:
                    out._ech.add(c)
        L._derived = out
    return L._derived


def _series(L: ColorAlgebra, derived: bool) -> list[Subspace]:
    """L, [L, L], then [S, S] (derived) or [L, S] (lower central) of the
    last term S, until the terms stabilize; [L, L] comes straight off the
    table (``_square``)."""
    _require_closed(L)
    series = [full_subspace(L)]
    nxt = _square(L)
    while nxt.dim != series[-1].dim:
        series.append(nxt)
        if nxt.dim == 0:
            break
        nxt = bracket_subspaces(nxt if derived else series[0], nxt)
    return series


def derived_series(L: ColorAlgebra) -> list[Subspace]:
    """L, [L,L], [[L,L],[L,L]], ... until the terms stabilize."""
    return _series(L, True)


def lower_central_series(L: ColorAlgebra) -> list[Subspace]:
    """L, [L,L], [L,[L,L]], ... until the terms stabilize."""
    return _series(L, False)


def is_solvable(L: ColorAlgebra) -> bool:
    return derived_series(L)[-1].dim == 0


def is_nilpotent_algebra(L: ColorAlgebra) -> bool:
    return lower_central_series(L)[-1].dim == 0


def center(L: ColorAlgebra) -> Subspace:
    """Z(L) = {x : [R_k, x] = 0 for all k}, by skew symmetry: the kernel
    of one ``_Echelon`` of the table's equations sum_j c_kj^l x_j = 0,
    one for each k and l.  Such an equation involves only the x_j of
    degree |R_l| - |R_k|, so the reduced rows are homogeneous, and so is
    the kernel vector at each free column."""
    _require_closed(L)
    equations: dict[tuple[int, int], dict[int, Fraction]] = {}
    for k, row in enumerate(L._structure()):
        for j, (c, d) in row.items():
            for l, x in c.items():
                equations.setdefault((k, l), {})[j] = Fraction(x, d)
    ech = _Echelon(L.dim, equations.values())
    return Subspace._span(L, ech.kernel()[0])


def ad_map(L: ColorAlgebra, x: HomogeneousMap) -> HomogeneousMap:
    """The map y -> [x, y] written in L's basis, acting on L's own graded
    coordinate space; the brackets are read off the table in pivot
    coordinates and taken back to the basis through the solver's
    transform."""
    _require_closed(L)
    xs = L._pivot_coords(x)
    if xs is None:
        raise NotInAlgebra("ad of a map outside the algebra")
    # the profile space lists the basis stably sorted by degree, basis[i]
    # at coordinate at[i]
    m = L.dim
    order = sorted(range(m), key=lambda i: L.basis_degrees[i].sort_key())
    at = {i: k for k, i in enumerate(order)}
    flat = {}
    for j in range(m):
        coords = L._solver.to_basis(L._bracket(xs, L._basis_coords[j]))
        for i, c in enumerate(coords):
            if c:
                flat[at[i] * m + at[j]] = c
    return _unflatten(L.profile_space(), x.degree, flat)


def ad_representation(L: ColorAlgebra) -> ColorAlgebra:
    """The image of L under ad, as an algebra acting on L's graded
    dimension profile; its kernel is the center of L."""
    _require_closed(L)
    profile = L.profile_space()
    ech = _Echelon(profile.total_dim ** 2)
    for b in L.basis:
        ech.add(ad_map(L, b).entries)
    return ColorAlgebra._spanned(profile, L.r, ech)


@dataclass(frozen=True)
class AdExpansion:
    """(ad X)^m applied to maps of one fixed degree, written as the sum of
    k_ij X^i Y X^j with i + j = m.  The coefficients depend on the degree
    of Y through the bicharacter, hence the per-degree table."""

    x_degree: GroupElement
    y_degree: GroupElement
    power: int
    terms: tuple[tuple[int, int, Fraction], ...]

    def evaluate(self, x: HomogeneousMap, y: HomogeneousMap) -> HomogeneousMap:
        total_degree = element_add(
            y.degree, element_scale(self.power, x.degree)
        )
        acc = zero_map(x.space, total_degree)
        for i, j, k in self.terms:
            term = compose(compose(map_power(x, i), y), map_power(x, j))
            acc = add_maps(acc, scale_map(k, term))
        return acc


def ad_power_expand(L: ColorAlgebra, x: HomogeneousMap, m: int) -> dict[GroupElement, AdExpansion]:
    """Expansion coefficients of (ad x)^m as sums of x^i y x^j, one table
    per possible degree of y among L's basis degrees.

    Follows the recursion (ad x)^(k+1) = [x, (ad x)^k(y)]: each monomial
    x^i y x^j picks up x on the left and sheds r(|x^i y x^j|, |x|) x on
    the right.
    """
    if L.coordinates(x) is None:
        raise NotInAlgebra("expansion of a map outside the algebra")
    if m < 1:
        raise ValidationError("power must be a positive integer")
    out = {}
    for y_deg in L.degrees():
        coeffs: dict[tuple[int, int], Fraction] = {(0, 0): _ONE}
        for step in range(m):
            cur_degree = element_add(y_deg, element_scale(step, x.degree))
            twist = eval_bicharacter(L.r, cur_degree, x.degree)
            nxt: dict[tuple[int, int], Fraction] = {}
            for (i, j), c in coeffs.items():
                nxt[(i + 1, j)] = nxt.get((i + 1, j), _ZERO) + c
                nxt[(i, j + 1)] = nxt.get((i, j + 1), _ZERO) - c * twist
            coeffs = {k: v for k, v in nxt.items() if v != 0}
        terms = tuple(
            (i, j, c) for (i, j), c in sorted(coeffs.items(), reverse=True)
        )
        out[y_deg] = AdExpansion(x.degree, y_deg, m, terms)
    return out


@dataclass(frozen=True)
class AdNilpotencyReport:
    """Outcome of checking that a nilpotent homogeneous map has nilpotent
    ad; when the input is not nilpotent the check is vacuous."""

    nilpotent_input: bool
    ad_exponent: int | None
    ad_power_is_zero: bool | None
    holds: bool


def nilpotent_implies_ad_nilpotent_check(L: ColorAlgebra, x: HomogeneousMap) -> AdNilpotencyReport:
    """If flatten(x) is nilpotent, verify (ad x)^(2n) = 0 with n the total
    dimension of V (powers x^i y x^j with i >= n or j >= n vanish)."""
    _require_closed(L)
    if L.coordinates(x) is None:
        raise NotInAlgebra("map outside the algebra")
    if not is_nilpotent_matrix(flatten_map(x)):
        return AdNilpotencyReport(False, None, None, True)
    n = L.space.total_dim
    adx = flatten_map(ad_map(L, x))
    ok = adx.power(2 * n).is_zero()
    return AdNilpotencyReport(True, 2 * n, ok, ok)


def is_ideal(L: ColorAlgebra, s: Subspace) -> bool:
    """True iff [L, S] is contained in S, checked on the table."""
    _require_closed(L)
    if s.parent is not L:
        raise ParentMismatch("subspace of a different algebra")
    for y in s._ech.sparse_rows:
        for k in range(L.dim):
            c = L._bracket(L._unit(k), y)
            if c and s._ech.reduce(c) is None:
                return False
    return True
