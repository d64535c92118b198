"""Graded vector spaces and homogeneous linear maps.

A homogeneous map of degree u sends the component of degree h into the
component of degree h + u.  It stores one thing, ``entries``: the
nonzero Fractions of its flattened N x N matrix in V's canonical basis,
keyed p N + q in increasing order, as every elimination, bracket and
flag reads it.  ``blocks``, keyed by source degree, is a view laid out
on first read: entry (i, j) of the block at h is entry
(off[h + u] + i) N + off[h] + j, off the components' offsets; a block
whose target is outside the support is zero.  Only ``flatten_map``
makes a dense copy.
No span or kernel here is split by degree.  A row of a homogeneous map's
flattened matrix reads coordinates of one degree only, so one
``linalg._Echelon`` of such rows, on sparse vectors ``{index: value}``,
keeps its reduced rows homogeneous, and with them the kernel vector at
each free column.  Likewise flattened maps of different degrees have
disjoint supports, so one ``_Echelon`` of flattened matrices keeps its
reduced rows homogeneous, the degree of a row with pivot p being
deg(p // N) - deg(p % N) on a space of dimension N, deg(i) the degree of
V's i-th coordinate (``_coordinate_degrees``).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    NonzeroDegree,
    ShapeMismatch,
    SizeMismatch,
    SpaceMismatch,
    DegreeMismatch,
    TheoremViolation,
    TorsionDegree,
    UnknownDegree,
    ValidationError,
    ZeroDegree,
)
from .grading import GroupElement, GroupSpec, element_add, has_infinite_order
from .linalg import (
    _ONE,
    _ZERO,
    Matrix,
    Poly,
    _Echelon,
    _over,
    char_poly,
    frac,
    kernel_basis,
    rational_roots,
)


@dataclass(frozen=True)
class GradedSpace:
    """V = direct sum of components V_g; dims lists (degree, n_g) pairs in
    the canonical order (lexicographic on free, then torsion part)."""

    group: GroupSpec
    dims: tuple[tuple[GroupElement, int], ...]

    def __post_init__(self):
        # a plain attribute, not a field: never compared, hashed or shown
        object.__setattr__(self, "_dim", dict(self.dims))

    @property
    def degrees(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.dims)

    def dim_of(self, g: GroupElement) -> int:
        return self._dim.get(g, 0)

    @property
    def total_dim(self) -> int:
        return sum(n for _, n in self.dims)

    def offsets(self) -> dict[GroupElement, int]:
        out = {}
        pos = 0
        for g, n in self.dims:
            out[g] = pos
            pos += n
        return out


def _coordinate_degrees(space: GradedSpace) -> list[GroupElement]:
    """The degree of each coordinate of ``space``, in flattened order."""
    return [g for g, n in space.dims for _ in range(n)]


def make_space(group: GroupSpec, dims) -> GradedSpace:
    items = dict(dims)
    for g, n in items.items():
        if g.spec is not group and g.spec != group:
            raise ValidationError("degree belongs to a different group")
        if n < 1:
            raise ValidationError(f"component dimension must be positive, got {n}")
    ordered = tuple(sorted(items.items(), key=lambda kv: kv[0].sort_key()))
    return GradedSpace(group, ordered)


@dataclass(frozen=True)
class GradedVector:
    """Vector of V given by its per-degree coordinate components; zero
    components are never stored."""

    space: GradedSpace
    components: tuple[tuple[GroupElement, tuple[Fraction, ...]], ...]

    def component(self, g: GroupElement) -> tuple[Fraction, ...]:
        for h, v in self.components:
            if h == g:
                return v
        return tuple([_ZERO] * self.space.dim_of(g))

    def is_zero(self) -> bool:
        return not self.components

    def is_homogeneous(self) -> bool:
        return len(self.components) == 1

    def degree(self) -> GroupElement:
        if not self.is_homogeneous():
            raise ValidationError("vector is not homogeneous")
        return self.components[0][0]

    def scale(self, c) -> "GradedVector":
        c = frac(c)
        return _vector(self.space, {g: tuple(c * x for x in v) for g, v in self.components})

    def __add__(self, other: "GradedVector") -> "GradedVector":
        if self.space != other.space:
            raise SpaceMismatch("vectors on different spaces")
        acc = {g: list(v) for g, v in self.components}
        for g, v in other.components:
            if g in acc:
                acc[g] = [a + b for a, b in zip(acc[g], v)]
            else:
                acc[g] = list(v)
        return _vector(self.space, {g: tuple(v) for g, v in acc.items()})


def _vector(space: GradedSpace, components: dict) -> GradedVector:
    items = tuple(
        sorted(
            ((g, tuple(v)) for g, v in components.items() if any(x != 0 for x in v)),
            key=lambda kv: kv[0].sort_key(),
        )
    )
    return GradedVector(space, items)


def make_vector(space: GradedSpace, components) -> GradedVector:
    comps = {}
    for g, v in dict(components).items():
        n = space.dim_of(g)
        if n == 0:
            raise UnknownDegree(f"degree {g} is not in the support")
        vv = tuple(frac(x) for x in v)
        if len(vv) != n:
            raise ShapeMismatch(f"component at {g} must have length {n}")
        comps[g] = vv
    return _vector(space, comps)


def standard_basis_vector(space: GradedSpace, g: GroupElement, i: int) -> GradedVector:
    n = space.dim_of(g)
    if not 0 <= i < n:
        raise ValidationError("basis index out of range")
    return _vector(space, {g: tuple(Fraction(1 if j == i else 0) for j in range(n))})


def flatten_vector(v: GradedVector) -> tuple[Fraction, ...]:
    return tuple(x for g, _ in v.space.dims for x in v.component(g))


def unflatten_vector(space: GradedSpace, flat) -> GradedVector:
    if len(flat) != space.total_dim:
        raise ShapeMismatch(f"vector must have length {space.total_dim}, got {len(flat)}")
    comps: dict[GroupElement, list[Fraction]] = {}
    for g, x in zip(_coordinate_degrees(space), flat):
        comps.setdefault(g, []).append(frac(x))
    return _vector(space, comps)


def _graded(space: GradedSpace, v: dict) -> GradedVector:
    """The vector of ``space`` with the sparse flattened Fraction
    coordinates v; only components holding a nonzero entry are built, in
    the canonical order of ``space.dims``."""
    starts = list(space.offsets().values())
    comps: dict = {}
    for i, x in v.items():
        if x:
            k = bisect.bisect(starts, i) - 1
            g, n = space.dims[k]
            if g not in comps:
                comps[g] = [_ZERO] * n
            comps[g][i - starts[k]] = x
    return GradedVector(space, tuple((g, tuple(comps[g])) for g, _ in space.dims if g in comps))


@dataclass(frozen=True)
class HomogeneousMap:
    """Degree-u map, stored as ``entries`` (see the module docstring), a
    dict never changed once built; the hash leaves it out."""

    space: GradedSpace
    degree: GroupElement
    entries: dict[int, Fraction] = field(hash=False)

    @functools.cached_property
    def blocks(self) -> tuple[tuple[GroupElement, Matrix], ...]:
        """(source degree h, its n_{h+u} x n_h block) for each nonzero
        block, in the canonical order of the sources."""
        space = self.space
        n, off = space.total_dim, space.offsets()
        degrees = _coordinate_degrees(space)
        grids: dict[GroupElement, list] = {}
        for i, x in self.entries.items():
            p, q = divmod(i, n)
            h, t = degrees[q], degrees[p]
            if h not in grids:
                grids[h] = [[_ZERO] * space.dim_of(h) for _ in range(space.dim_of(t))]
            grids[h][p - off[t]][q - off[h]] = x
        return tuple((h, Matrix._raw(tuple(map(tuple, grids[h])), k))
                     for h, k in space.dims if h in grids)

    def block(self, h: GroupElement) -> Matrix:
        for g, b in self.blocks:
            if g == h:
                return b
        target = element_add(h, self.degree)
        return Matrix.zero(self.space.dim_of(target), self.space.dim_of(h))

    def is_zero(self) -> bool:
        return not self.entries

    def __str__(self) -> str:
        body = ", ".join(f"{g}: {b!r}" for g, b in self.blocks)
        return f"HomogeneousMap(deg {self.degree}, {{{body}}})"


def _unflatten(space: GradedSpace, degree: GroupElement, flat: dict) -> HomogeneousMap:
    """The map of the given degree with the flattened entries ``flat``, in
    any order, on the degree's pattern; zeros, as cancelled terms leave
    them, are dropped."""
    return HomogeneousMap(space, degree, {i: flat[i] for i in sorted(flat) if flat[i]})


def _by_row(f: HomogeneousMap) -> dict[int, dict[int, Fraction]]:
    """f's entries by row of its flattened matrix: {p: {q: x}}."""
    n = f.space.total_dim
    out: dict[int, dict[int, Fraction]] = {}
    for i, x in f.entries.items():
        out.setdefault(i // n, {})[i % n] = x
    return out


def _placed(raw, entries: dict, base: int, n: int) -> tuple[int, int]:
    """Put the nonzero entries of the block ``raw``, a Matrix or a list of
    rows of ints, "p/q" strings or Fractions, into ``entries``, row p at
    base + p n, each coerced once and the shared zero skipped at once;
    the block's (rows, columns).  A non-rational entry raises TypeError
    at once, and ragged rows raise SizeMismatch after the last row, as
    ``Matrix(raw)`` would."""
    if isinstance(raw, Matrix):
        rows, width = raw.data, raw.cols
    else:
        rows, width = raw, None
    p, ragged = -1, False
    for p, row in enumerate(rows):
        i = base + p * n
        k = 0
        for x in row:
            if x is not _ZERO:
                if type(x) is not Fraction:
                    x = frac(x)
                if x:
                    entries[i + k] = x
            k += 1
        if width is None:
            width = k
        elif k != width:
            ragged = True
    if ragged:
        raise SizeMismatch("ragged rows")
    return p + 1, width or 0


def make_map(space: GradedSpace, degree: GroupElement, blocks) -> HomogeneousMap:
    """The map of the given degree with the given blocks, ``{source degree:
    block}``, each a Matrix or a list of rows of ints, "p/q" strings or
    Fractions, each entry coerced and placed in one pass (``_placed``).
    A block whose target lies outside the support is zero, and may be
    given as an empty list."""
    if degree.spec != space.group:
        raise UnknownDegree("degree belongs to a different group")
    n, off = space.total_dim, space.offsets()
    entries: dict[int, Fraction] = {}
    for h, raw in dict(blocks).items():
        if space.dim_of(h) == 0:
            raise UnknownDegree(f"source degree {h} is not in the support")
        target = element_add(h, degree)
        n_tgt, n_src = space.dim_of(target), space.dim_of(h)
        rows, cols = _placed(raw, entries, off.get(target, 0) * n + off[h], n)
        # an empty list is the zero block at a target outside the support
        if (rows, cols) != (n_tgt, n_src) and (rows, cols, n_tgt) != (0, 0, 0):
            raise ShapeMismatch(
                f"block at source {h} must be {n_tgt}x{n_src}, got {rows}x{cols}"
            )
    return _unflatten(space, degree, entries)


def zero_map(space: GradedSpace, degree: GroupElement) -> HomogeneousMap:
    return HomogeneousMap(space, degree, {})


def identity_map(space: GradedSpace) -> HomogeneousMap:
    n = space.total_dim
    return HomogeneousMap(space, space.group.identity(), {i * (n + 1): _ONE for i in range(n)})


def _same_space(f: HomogeneousMap, g: HomogeneousMap):
    if f.space != g.space:
        raise SpaceMismatch("maps act on different graded spaces")


def compose(f: HomogeneousMap, g: HomogeneousMap) -> HomogeneousMap:
    """f after g, of degree deg f + deg g: (f g)[p, q] collects
    f[p, k] g[k, q] over the entries of g's row k."""
    _same_space(f, g)
    n = f.space.total_dim
    rows = _by_row(g)
    out: dict[int, Fraction] = {}
    for i, a in f.entries.items():
        p, k = divmod(i, n)
        row = rows.get(k)
        if row:
            base = p * n
            for q, b in row.items():
                j = base + q
                out[j] = out[j] + a * b if j in out else a * b
    return _unflatten(f.space, element_add(f.degree, g.degree), out)


def add_maps(f: HomogeneousMap, g: HomogeneousMap) -> HomogeneousMap:
    _same_space(f, g)
    if f.degree != g.degree:
        raise DegreeMismatch("cannot add maps of different degrees")
    out = dict(f.entries)
    for i, x in g.entries.items():
        out[i] = out[i] + x if i in out else x
    return _unflatten(f.space, f.degree, out)


def scale_map(c, f: HomogeneousMap) -> HomogeneousMap:
    c = frac(c)
    return HomogeneousMap(f.space, f.degree, {i: c * x for i, x in f.entries.items() if c})


def apply(f: HomogeneousMap, v: GradedVector) -> GradedVector:
    if f.space != v.space:
        raise SpaceMismatch("map and vector live on different spaces")
    n, off = f.space.total_dim, f.space.offsets()
    coords = {i: x for g, comp in v.components for i, x in enumerate(comp, off[g]) if x}
    out: dict[int, Fraction] = {}
    for i, a in f.entries.items():
        p, q = divmod(i, n)
        x = coords.get(q)
        if x:
            out[p] = out[p] + a * x if p in out else a * x
    return _graded(f.space, out)


def map_power(f: HomogeneousMap, k: int) -> HomogeneousMap:
    if k < 0:
        raise ValidationError("negative map power")
    if k == 0:
        return identity_map(f.space)
    out = f
    for _ in range(k - 1):
        out = compose(out, f)
    return out


def flatten_map(f: HomogeneousMap) -> Matrix:
    """Matrix of f in the canonical degree-ordered basis of V: its entries
    laid out densely, a new copy on each call."""
    n = f.space.total_dim
    rows = [[_ZERO] * n for _ in range(n)]
    for i, x in f.entries.items():
        rows[i // n][i % n] = x
    return Matrix._raw(tuple(map(tuple, rows)), n)


def unflatten_map(space: GradedSpace, degree: GroupElement, m: Matrix) -> HomogeneousMap:
    """Inverse of flatten_map for matrices supported on the degree pattern."""
    n = space.total_dim
    if m.rows != n or m.cols != n:
        raise ShapeMismatch(f"matrix must be {n}x{n}, got {m.rows}x{m.cols}")
    entries = {i * n + j: x for i, row in enumerate(m.data) for j, x in enumerate(row) if x}
    degrees = _coordinate_degrees(space)
    targets = [element_add(g, degree) for g in degrees]
    if any(degrees[i // n] != targets[i % n] for i in entries):
        raise ValidationError("matrix has entries outside the homogeneous pattern")
    return HomogeneousMap(space, degree, entries)


def graded_kernel(maps, space: GradedSpace | None = None) -> list[GradedVector]:
    """Homogeneous basis of the intersection of the kernels of the maps.

    The rows of the maps' flattened matrices go into one ``_Echelon``
    over V's coordinates, the scan stopping once the rank reaches dim V,
    and the kernel is read straight off its reduced rows; each is
    homogeneous (see the module docstring), in order of its free column.
    With an empty map list this is the full homogeneous standard basis of
    V (pass ``space`` then).
    """
    maps = list(maps)
    if not maps and space is None:
        raise ValidationError("empty map list needs an explicit space")
    if maps:
        space = maps[0].space
        for f in maps:
            if f.space != space:
                raise SpaceMismatch("kernel maps act on different spaces")
    n = space.total_dim
    ech = _Echelon(n)
    for row in (row for f in maps for row in _by_row(f).values()):
        if ech.add(row) and len(ech.pivots) == n:
            break
    basis, d = ech.kernel()
    return [_graded(space, _over(v, d)) for v in basis]


@dataclass(frozen=True)
class NilpotencyCertificate:
    """Witness that f^exponent = 0, derived from the support geometry:
    the longest run of support degrees g, g+u, ..., g+(exponent-1)u."""

    exponent: int
    chain: tuple[GroupElement, ...]


def nilpotent_by_grading(f: HomogeneousMap) -> NilpotencyCertificate:
    """Nilpotency certificate for a map of nonzero infinite-order degree.

    Since f shifts degrees by u and the support is finite with no u-cycles,
    f^N vanishes where N is the longest u-run inside the support.  The
    certificate is verified exactly before being returned.
    """
    u = f.degree
    if u.is_zero():
        raise ZeroDegree("map has degree zero")
    if not has_infinite_order(u):
        raise TorsionDegree("map degree has finite order")
    support = set(f.space.degrees)
    best_n = 0
    best_chain: tuple[GroupElement, ...] = ()
    for g in f.space.degrees:
        chain = [g]
        cur = g
        while True:
            cur = element_add(cur, u)
            if cur not in support:
                break
            chain.append(cur)
        if len(chain) > best_n:
            best_n = len(chain)
            best_chain = tuple(chain)
    power = flatten_map(f).power(best_n)
    if not power.is_zero():
        raise TheoremViolation("grading certificate failed exact verification")
    return NilpotencyCertificate(best_n, best_chain)


@dataclass(frozen=True)
class ComponentEigenReport:
    """Rational eigenpairs of the diagonal block at one degree; when the
    block's characteristic polynomial has a factor without rational
    roots, that factor is reported instead of failing wholesale."""

    degree: GroupElement
    pairs: tuple[tuple[Fraction, GradedVector], ...]
    irrational_factor: Poly | None


def homogeneous_eigenvalues(f: HomogeneousMap) -> list[ComponentEigenReport]:
    """Per-component rational eigenvalues of a degree-zero map, each with
    one homogeneous eigenvector."""
    if not f.degree.is_zero():
        raise NonzeroDegree("eigenvalue search requires a degree-zero map")
    out = []
    for g, n in f.space.dims:
        b = f.block(g)
        p = char_poly(b)
        pairs = []
        residual = p
        for lam, mult in rational_roots(p):
            vecs = kernel_basis(b - Matrix.identity(n).scale(lam))
            pairs.append((lam, _vector(f.space, {g: vecs[0]})))
            for _ in range(mult):
                residual = residual.deflate(lam)
        irrational = residual if residual.degree >= 1 else None
        out.append(ComponentEigenReport(g, tuple(pairs), irrational))
    return out
