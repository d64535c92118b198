"""Graded vector spaces and homogeneous linear maps as block matrices.

A homogeneous map of degree u sends the component of degree h into the
component of degree h + u; it is stored as a dictionary of blocks keyed
by source degree.  Blocks whose target falls outside the support are
identically zero and never stored, which keeps all data finite.  Entry
(i, j) of the block at h is entry (off[h + u] + i) N + off[h] + j of the
flattened N x N matrix, row-major, off the components' offsets; ``_flat``
reads the nonzero ones into a dict so keyed, ``_unflatten`` builds blocks
from one, and only ``flatten_map`` makes a dense copy, kept on the map.
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
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NonzeroDegree,
    ShapeMismatch,
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
    _ZERO,
    Matrix,
    Poly,
    _Echelon,
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
    """The vector of ``space`` with the sparse flattened Fraction coordinates v."""
    starts = list(space.offsets().values())
    comps: dict = {}
    for i, x in v.items():
        if x:
            k = bisect.bisect(starts, i) - 1
            g, n = space.dims[k]
            if g not in comps:
                comps[g] = [_ZERO] * n
            comps[g][i - starts[k]] = x
    return _vector(space, comps)


@dataclass(frozen=True)
class HomogeneousMap:
    """Degree-u block map; blocks[(h)] has shape n_{h+u} x n_h and is
    stored only when nonzero with both endpoints in the support."""

    space: GradedSpace
    degree: GroupElement
    blocks: tuple[tuple[GroupElement, Matrix], ...]

    def block(self, h: GroupElement) -> Matrix:
        for g, b in self.blocks:
            if g == h:
                return b
        target = element_add(h, self.degree)
        return Matrix.zero(self.space.dim_of(target), self.space.dim_of(h))

    def is_zero(self) -> bool:
        return not self.blocks

    def __str__(self) -> str:
        body = ", ".join(f"{g}: {b!r}" for g, b in self.blocks)
        return f"HomogeneousMap(deg {self.degree}, {{{body}}})"


def _map(space: GradedSpace, degree: GroupElement, blocks: dict) -> HomogeneousMap:
    kept = {}
    for h, b in blocks.items():
        if space.dim_of(h) == 0:
            continue
        if space.dim_of(element_add(h, degree)) == 0:
            continue
        if not b.is_zero():
            kept[h] = b
    items = tuple(sorted(kept.items(), key=lambda kv: kv[0].sort_key()))
    return HomogeneousMap(space, degree, items)


def make_map(space: GradedSpace, degree: GroupElement, blocks) -> HomogeneousMap:
    if degree.spec != space.group:
        raise UnknownDegree("degree belongs to a different group")
    clean = {}
    for h, raw in dict(blocks).items():
        n_src = space.dim_of(h)
        if n_src == 0:
            raise UnknownDegree(f"source degree {h} is not in the support")
        b = raw if isinstance(raw, Matrix) else Matrix(raw)
        target = element_add(h, degree)
        n_tgt = space.dim_of(target)
        if b.cols != n_src or b.rows != n_tgt:
            raise ShapeMismatch(
                f"block at source {h} must be {n_tgt}x{n_src}, got {b.rows}x{b.cols}"
            )
        clean[h] = b
    return _map(space, degree, clean)


def zero_map(space: GradedSpace, degree: GroupElement) -> HomogeneousMap:
    return _map(space, degree, {})


def identity_map(space: GradedSpace) -> HomogeneousMap:
    ident = space.group.identity()
    return _map(
        space, ident, {g: Matrix.identity(n) for g, n in space.dims}
    )


def _same_space(f: HomogeneousMap, g: HomogeneousMap):
    if f.space != g.space:
        raise SpaceMismatch("maps act on different graded spaces")


def compose(f: HomogeneousMap, g: HomogeneousMap) -> HomogeneousMap:
    """f after g; the degree of the composite is deg f + deg g."""
    _same_space(f, g)
    degree = element_add(f.degree, g.degree)
    blocks = {}
    for h, gb in g.blocks:
        mid = element_add(h, g.degree)
        fb = f.block(mid)
        if fb.is_zero():
            continue
        blocks[h] = fb * gb
    return _map(f.space, degree, blocks)


def add_maps(f: HomogeneousMap, g: HomogeneousMap) -> HomogeneousMap:
    _same_space(f, g)
    if f.degree != g.degree:
        raise DegreeMismatch("cannot add maps of different degrees")
    sources = {h for h, _ in f.blocks} | {h for h, _ in g.blocks}
    return _map(f.space, f.degree, {h: f.block(h) + g.block(h) for h in sources})


def scale_map(c, f: HomogeneousMap) -> HomogeneousMap:
    c = frac(c)
    return _map(f.space, f.degree, {h: b.scale(c) for h, b in f.blocks})


def apply(f: HomogeneousMap, v: GradedVector) -> GradedVector:
    if f.space != v.space:
        raise SpaceMismatch("map and vector live on different spaces")
    acc: dict[GroupElement, list[Fraction]] = {}
    for g, comp in v.components:
        b = f.block(g)
        if b.is_zero():
            continue
        target = element_add(g, f.degree)
        img = b.apply(comp)
        if target in acc:
            acc[target] = [a + x for a, x in zip(acc[target], img)]
        else:
            acc[target] = list(img)
    return _vector(f.space, {g: tuple(v) for g, v in acc.items()})


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
    """Matrix of f in the canonical degree-ordered basis of V: ``_flat(f)``
    laid out densely, made on the first call and kept on f."""
    if not hasattr(f, "_flattened"):
        n = f.space.total_dim
        rows = [[_ZERO] * n for _ in range(n)]
        for i, x in _flat(f).items():
            rows[i // n][i % n] = x
        object.__setattr__(f, "_flattened", Matrix._raw(tuple(map(tuple, rows)), n))
    return f._flattened


def _flat(f: HomogeneousMap) -> dict[int, Fraction]:
    """f's flattened matrix as its nonzero entries, read off the blocks in
    target order; a row meets one block at most, so in index order."""
    n, off = f.space.total_dim, f.space.offsets()
    placed = sorted((off[element_add(h, f.degree)], off[h], b) for h, b in f.blocks)
    return {i * n + j: x for r0, c0, b in placed for i, row in enumerate(b.data, r0)
            for j, x in enumerate(row, c0) if x}


def _unflatten(space: GradedSpace, degree: GroupElement, flat: dict) -> HomogeneousMap:
    """The map of the given degree with the flattened entries ``flat``,
    nonzero ones on its blocks and zeros, as cancelled terms leave them,
    anywhere; only the blocks that a nonzero entry touches are built."""
    n, off = space.total_dim, space.offsets()
    degrees = _coordinate_degrees(space)
    grids: dict[GroupElement, list] = {}
    for i, x in flat.items():
        if x:
            p, q = divmod(i, n)
            h = degrees[q]
            if h not in grids:
                grids[h] = [[_ZERO] * space.dim_of(h) for _ in range(space.dim_of(degrees[p]))]
            grids[h][p - off[degrees[p]]][q - off[h]] = x
    return _map(space, degree, {
        h: Matrix._raw(tuple(map(tuple, rows)), space.dim_of(h)) for h, rows in grids.items()
    })


def unflatten_map(space: GradedSpace, degree: GroupElement, m: Matrix) -> HomogeneousMap:
    """Inverse of flatten_map for matrices supported on the degree pattern."""
    n = space.total_dim
    if m.rows != n or m.cols != n:
        raise ShapeMismatch(f"matrix must be {n}x{n}, got {m.rows}x{m.cols}")
    flat = {i * n + j: x for i, row in enumerate(m.data) for j, x in enumerate(row) if x}
    degrees = _coordinate_degrees(space)
    targets = [element_add(g, degree) for g in degrees]
    if any(degrees[i // n] != targets[i % n] for i in flat):
        raise ValidationError("matrix has entries outside the homogeneous pattern")
    return _unflatten(space, degree, flat)


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
    for row in (row for f in maps for row in flatten_map(f).data):
        if ech.add(dict(enumerate(row))) and len(ech.pivots) == n:
            break
    return [_graded(space, v) for v in ech.kernel()]


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
