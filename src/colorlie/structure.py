"""Constructive structure theory for linear Lie color algebras.

The two main engines are the common-annihilated-vector search for nil
algebras (Engel-type) and the flag of a solvable algebra over a
torsion-free grading (Lie-type).  The flag is built in two phases from a
homogeneous basis b_1..b_m of L whose first k = dim [L, L] entries span
[L, L] (read off the structure-constant table) and whose rest are the
basis elements of L independent modulo [L, L] (``_derived_coords``).

  1. Engel: K_0 = 0 and K_{j+1} = {v : [L, L] v in K_j}, each level the
     common graded kernel of [L, L] on V/K_j.  [L, L] is an ideal, so
     every K_j is L-invariant, and [L, L] acts as zero on every factor
     K_{j+1}/K_j.
  2. Lie: [L, L] acts as zero on each factor, so b_{k+1}..b_m
     color-commute there, in any order.  A common homogeneous
     eigenvector is found by narrowing W = the factor one b_i at a time:
     for nonzero degree to its graded kernel (a homogeneous eigenvector
     of a degree-shifting map has eigenvalue zero), for degree zero to
     the eigenspace, on every component, of a rational eigenvalue of some
     diagonal block.  The factor is flagged line by line through its
     graded quotients by the lines found so far, and the vectors are
     lifted back to V.

The whole filtration is computed before any eigenvalue is searched for.
When it reaches V, [L, L] acts nilpotently, so its components are nil,
and L is solvable: every element of [L, L] strictly raises the
filtration, so a product of two, and with it their color bracket, raises
it by at least two, and the m-th derived term by at least 2^(m-1).  The
argument uses neither torsion-freeness nor the bicharacter, and neither
the derived series nor a point-based nil check runs.
When it stops below V, no homogeneous flag exists: in any
such flag [L, L] is strictly upper triangular (a map of nonzero degree
has zero diagonal, and for degree zero r(0, 0) = 1 cancels the diagonal
of ab - ba).  Only then is the derived series computed (``_stall``), for
a NotSolvable verdict, and are the components of [L, L] checked for nil
(``linalg._non_nilpotent_point``, the loop behind ``nil_subspace_check``),
to tell a failed hypothesis from a violated theorem.  That check proves a
span nil once the product chain I_{j+1} = sum_i B_i I_j of its maps
reaches 0, run after the first p = ceil(s n / ceil(log2 n)) points when
the policy has more than 2p of them; when the chain stalls the full point
set runs.  A non-nil component is only ever reported at a point, which
the HypothesisFailed carries as its ``witness`` (degree, point).

Kernels and restrictions reduce through ``linalg._Echelon``, and both
phases hold V/S as S's reduced echelon in V's coordinates
(``_Quotient``), which quotienting again only adds rows to.  Neither
phase induces a map; both work on the maps' sparse blocks.  Phase 1
reads the normal form modulo K_j at each free column c by a functional
phi_c, and the rows phi_c N of the nil maps N give the next level.
Phase 2 restricts each top map to the current W alone: W's basis is
lifted, mapped by the map's sparse columns and projected back.  The
eigenvalue of a degree-zero map is searched for one diagonal block at a
time, and only until one is found; once W is a line the later maps are
only checked to leave it invariant, and a 1-dimensional factor is its
own line.

The flag itself is verified exactly in the end, with no n x n product:
for every map M and flag vector t_j, T^-1 (M t_j) is formed from sparse
columns of T^-1 and must vanish below j, and its entry at j is M's
weight.  A conclusion failing after its hypotheses were checked raises
TheoremViolation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EmptySpace,
    HypothesisFailed,
    IrrationalEigenvalue,
    NoHomogeneousEigenvector,
    NotInAlgebra,
    NotSolvable,
    TheoremViolation,
    TorsionDegree,
    TorsionGrading,
    ValidationError,
    ZeroAlgebra,
)
from .grading import GroupElement, element_add, make_bicharacter, make_group
from .graded import (
    GradedSpace,
    GradedVector,
    HomogeneousMap,
    _GradedEchelon,
    _map,
    _vector,
    apply,
    flatten_map,
    flatten_vector,
    make_map,
    make_space,
    nilpotent_by_grading,
    unflatten_vector,
)
from .algebra import (
    ColorAlgebra,
    Subspace,
    ad_representation,
    bracket_closure,
    bracket_subspaces,
    center,
    derived_series,
    full_subspace,
    lower_central_series,
    _require_closed,
    _square,
)
from .linalg import (
    _ONE,
    _ZERO,
    Matrix,
    Poly,
    _Echelon,
    _non_nilpotent_point,
    _sparse,
    char_poly,
    frac,
    kernel_basis,
    nil_subspace_check,
    rational_roots,
)


@dataclass(frozen=True)
class Weight:
    """Linear functional on an algebra, given by its values on the basis.

    A weight arising from a homogeneous eigenvector necessarily vanishes
    on every basis element of nonzero degree (the action would otherwise
    change the eigenvector's degree), which is enforced here.
    """

    algebra: ColorAlgebra
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(frac(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.algebra.dim:
            raise ValidationError("one value per basis element is required")
        for v, b in zip(vals, self.algebra.basis):
            if v != 0 and not b.degree.is_zero():
                raise ValidationError(
                    "weights vanish on nonzero-degree basis elements"
                )

    def evaluate(self, f: HomogeneousMap) -> Fraction:
        coords = self.algebra.coordinates(f)
        if coords is None:
            raise NotInAlgebra("weight evaluated outside its algebra")
        return sum((c * v for c, v in zip(coords, self.values)), _ZERO)


@dataclass(frozen=True)
class ColorFlag:
    """Ordered homogeneous basis of V in which every element of the
    algebra is upper triangular, with the weights read off the diagonal."""

    ordered_basis: tuple[GradedVector, ...]
    weights: tuple[Weight, ...]


@dataclass(frozen=True)
class IdealChain:
    """Chain of color ideals 0 = L_0 < L_1 < ... < L_n = L, dim L_i = i."""

    chain: tuple[Subspace, ...]


@dataclass(frozen=True)
class EngelReport:
    all_ad_nilpotent: bool
    nilpotent: bool
    central_witness: HomogeneousMap | None


def _component_matrices(maps) -> list[Matrix]:
    return [flatten_map(f) for f in maps]


def _check_nil_components(elements, what: str, policy: str, seed: int):
    """HypothesisFailed at the first degree, in canonical order, where the
    span of the homogeneous maps is not nil.  Its ``witness`` is
    (degree, t): sum t_i f_i over that degree's maps, in the given order,
    is not nilpotent."""
    for g in sorted({f.degree for f in elements}, key=lambda g: g.sort_key()):
        mats = _component_matrices([f for f in elements if f.degree == g])
        point = _non_nilpotent_point(mats, policy, seed)
        if point is not None:
            err = HypothesisFailed(
                f"{what} component at degree {g} contains non-nilpotent elements"
            )
            err.witness = (g, point)
            raise err


def common_annihilated_vector(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> GradedVector:
    """Nonzero homogeneous v with x(v) = 0 for every x in L.

    For an algebra whose graded components are all nil, the intersection
    of the kernels is guaranteed nonzero; it is computed directly as the
    first level of L's kernel filtration rather than by replaying the
    inductive existence proof.  With the hypotheses checked, the whole
    filtration is built: reaching V certifies that L acts nilpotently,
    so its components are nil, and ``nil_subspace_check`` runs only when
    the filtration stops below V.
    """
    _require_closed(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    levels = _kernel_filtration(L.space, [_sparse_of(f) for f in L.basis], [])
    if check_hypotheses:
        levels = list(levels)
        if _filtration_dim(levels) < L.space.total_dim:
            _check_nil_components(L.basis, "algebra", nil_policy, seed)
            raise TheoremViolation("nil algebra does not act nilpotently")
    first = next(iter(levels), None)
    if first is None:
        raise NoHomogeneousEigenvector(
            "no nonzero homogeneous vector is annihilated by the algebra"
        )
    g, vs = next(iter(first[2].items()))
    return _vector(L.space, {g: vs[0]})


def engel_check(
    L: ColorAlgebra, nil_policy: str = "auto", seed: int = 0
) -> EngelReport:
    """Check ad-nilpotency of all homogeneous elements and nilpotency of
    the algebra; when both hold and L is nonzero, produce a central
    witness and assert the implication between them.

    When the lower central series vanishes, every ad x is nilpotent
    without a point check, since (ad x)^k maps L into L^{k+1}."""
    _require_closed(L)
    nilpotent = lower_central_series(L)[-1].dim == 0
    if nilpotent:
        all_ad = True
    else:
        ad_l = ad_representation(L)
        all_ad = all(
            nil_subspace_check(
                _component_matrices(ad_l.basis_of_degree(g)),
                policy=nil_policy,
                seed=seed,
            )
            for g in ad_l.degrees()
        )
    z = center(L)
    witness = z.elements()[0] if z.dim > 0 else None
    if all_ad and L.dim > 0:
        if not nilpotent:
            raise TheoremViolation(
                "every homogeneous element is ad-nilpotent but the lower "
                "central series does not vanish"
            )
        if witness is None:
            raise TheoremViolation("ad-nilpotent algebra has trivial center")
    return EngelReport(all_ad, nilpotent, witness)


def _derived_coords(L: ColorAlgebra, derived: Subspace) -> list[tuple]:
    """Homogeneous basis b_1..b_m of L adapted to [L, L] (``derived``), as
    (degree, pivot coordinates) pairs: the reduced rows of [L, L] first,
    then the basis elements of L independent modulo [L, L], in order.

    The first k = dim [L, L] entries drive phase 1 and the rest phase 2
    (see the module docstring); any basis of [L, L] serves, since the
    kernel levels are canonical subspaces.  Every subspace containing
    [L, L] is an ideal, so each prefix of length at least k is one.
    """
    ech = _GradedEchelon()
    basis = [(f.degree, c) for f, c in zip(L.basis, L._basis_coords)]
    return [(g, v) for g, v in derived._ech.vectors() + basis if ech.add_vector(g, v)]


def _sparse_map(degree: GroupElement, columns: dict) -> tuple:
    """A homogeneous map as (degree, blocks), from its columns given as
    ``columns[h][j] = {i: x}``: the entry at row i of the target component
    and column j of the component of degree h.  Each block is (h, target,
    cols), cols[j] the nonzero (index, entry) pairs of its column j, in
    component coordinates."""
    blocks = []
    for h, cs in columns.items():
        cols = {}
        for j, col in cs.items():
            pairs = [(i, x) for i, x in col.items() if x]
            if pairs:
                cols[j] = pairs
        if cols:
            blocks.append((h, element_add(h, degree), cols))
    return degree, blocks


def _sparse_of(f: HomogeneousMap) -> tuple:
    """The sparse blocks of a map given by its dense blocks."""
    columns: dict = {}
    for h, b in f.blocks:
        cs = columns[h] = {}
        for i, row in enumerate(b.data):
            for j, x in enumerate(row):
                if x:
                    cs.setdefault(j, {})[i] = x
    return _sparse_map(f.degree, columns)


def _sparse_elements(L: ColorAlgebra, coords) -> list[tuple]:
    """The sparse blocks of the elements of L with the given (degree,
    pivot coordinates): each combines the solver's sparse rows, the
    flattened matrices of R_k, at its nonzero coordinates."""
    n = L.space.total_dim
    where = [(g, i) for g, m in L.space.dims for i in range(m)]
    out = []
    for degree, v in coords:
        flat: dict[int, Fraction] = {}
        for c, row in zip(v, L._solver.sparse_rows):
            if c:
                unit = c == 1
                for i, y in row:
                    if not unit:
                        y = c * y
                    flat[i] = flat[i] + y if i in flat else y
        columns: dict = {}
        for i, x in flat.items():
            (h, j), (_, k) = where[i % n], where[i // n]
            columns.setdefault(h, {}).setdefault(j, {})[k] = x
        out.append(_sparse_map(degree, columns))
    return out


def _sparse_ads(L: ColorAlgebra, coords) -> list[tuple]:
    """The sparse blocks of ad x on the profile space, in pivot
    coordinates, for each (degree, pivot coordinates) x, read off the
    structure-constant table as ``ColorAlgebra._ad`` does."""
    table = L._structure()
    deg, pos = L._degrees, L._pos
    out = []
    for degree, x in coords:
        columns: dict = {}
        for a, row in zip(x, table):
            if a:
                for j, e in row.items():
                    col = columns.setdefault(deg[j], {}).setdefault(pos[j], {})
                    for k, c in e:
                        col[pos[k]] = col.get(pos[k], _ZERO) + a * c
        out.append(_sparse_map(degree, columns))
    return out


def codim_one_ideal(
    L: ColorAlgebra, check_hypotheses: bool = True
) -> tuple[Subspace, HomogeneousMap]:
    """Color ideal K with dim K = dim L - 1 and a homogeneous z with
    L = K + F z.

    With b_1..b_m the basis adapted to [L, L] (``_derived_coords``), K is
    spanned by b_1..b_{m-1} and z = b_m is a basis element of L outside
    [L, L]; any subspace containing [L, L] is an ideal, which also covers
    abelian L.
    """
    _require_closed(L)
    if L.dim == 0:
        raise ZeroAlgebra("the zero algebra has no codimension-one ideal")
    if check_hypotheses and derived_series(L)[-1].dim != 0:
        raise NotSolvable("algebra is not solvable")
    derived = _square(L)
    if derived.dim == L.dim:
        raise NotSolvable("derived subalgebra equals the whole algebra")
    chain = _derived_coords(L, derived)
    return Subspace._span(L, chain[:-1]), L._element(*chain[-1])


class _NotInvariant(Exception):
    pass


class _EmbeddedSubspace:
    """Graded subspace W of a quotient F/S (``_Quotient``; S may be 0),
    presented by per-degree bases in the quotient's coordinates, with
    exact restriction of sparse maps on F that leave S and W invariant.
    Each component's basis is independent, so coordinates are unique and
    one solver per component, eliminated once, serves every column."""

    def __init__(self, q: _Quotient, bases: dict):
        self.q = q
        self.bases = {g: list(vs) for g, vs in bases.items() if vs}
        dims = {g: len(vs) for g, vs in self.bases.items()}
        self.space = make_space(q.ambient.group, dims)
        self.solvers = {
            g: _Echelon(len(q.free[g]), vs, track=True)
            for g, vs in self.bases.items()
        }

    def restrict(self, f) -> HomogeneousMap:
        """The sparse map f (``_sparse_map``) on F, induced on F/S and
        restricted to W: each basis vector of W is lifted to F, mapped by
        f's sparse columns and projected back, and its image must lie in
        W (else _NotInvariant); its coordinates in W's basis are the
        column.  No map is induced on the whole quotient."""
        degree, blocks = f
        q = self.q
        out = {}
        for h, t, cols in blocks:
            if h not in self.bases:
                continue
            solver = self.solvers.get(t)
            columns = []
            for w in self.bases[h]:
                y = [_ZERO] * q.ambient.dim_of(t)
                for c, a in zip(q.free[h], w):
                    if a:
                        for i, x in cols.get(c, ()):
                            y[i] += a * x
                img = q.project(t, y)
                if solver is None:
                    if any(img):
                        raise _NotInvariant
                    continue
                coords = solver.reduce(img)
                if coords is None:
                    raise _NotInvariant
                columns.append(solver.to_basis(coords))
            if columns:
                out[h] = Matrix._raw(tuple(zip(*columns)), len(columns))
        return _map(self.space, degree, out)

    def eigenspace(self, f_res: HomogeneousMap, lam: Fraction) -> _EmbeddedSubspace:
        """Vectors w with f w = lam w, given f's restriction f_res to this
        subspace; a map of nonzero degree is only asked for its kernel.
        Every component is narrowed, so a joint weight space stays one."""
        bases = {}
        for g in self.space.degrees:
            m = f_res.block(g)
            rows = m.data
            if f_res.degree.is_zero():
                rows = [
                    [x - lam if i == j else x for j, x in enumerate(row)]
                    for i, row in enumerate(rows)
                ]
            vs = self.bases[g]
            width = len(self.q.free[g])
            bases[g] = [_combine(vs, k, width) for k in _Echelon(m.cols, rows).kernel()]
        return _EmbeddedSubspace(self.q, bases)

    @staticmethod
    def whole(q: _Quotient) -> _EmbeddedSubspace:
        """W = F/S, in the standard basis."""
        return _EmbeddedSubspace(q, {
            g: [tuple(_ONE if i == j else _ZERO for i in range(n)) for j in range(n)]
            for g, n in q.space.dims
        })


class _Quotient:
    """Graded quotient V/S, held as S's reduced echelon in V's
    coordinates, one ``_Echelon`` per degree.

    The free (non-pivot) columns are the quotient's coordinates: a vector
    projects to its normal form modulo S read at them, by one functional
    per free column, and lifts by inclusion.  Quotienting V/S again by T/S adds T/S's lifted rows: T's
    reduced echelon leads at the union of the pivots of S and T/S, and
    the normal form modulo T is the composite of the two projections, so
    the result is V/T in the same coordinates.
    """

    def __init__(self, ambient: GradedSpace):
        self.ambient = ambient
        self.parts = {g: _Echelon(n) for g, n in ambient.dims}
        self.add({})

    def add(self, rows: dict):
        """Quotient further by the span of ``rows``, per-degree vectors in
        V's coordinates."""
        for g, vs in rows.items():
            for v in vs:
                self.parts[g].add(v)
        self.free = {g: part.free() for g, part in self.parts.items()}
        dims = {g: len(cs) for g, cs in self.free.items() if cs}
        self.space = make_space(self.ambient.group, dims)
        self._phis: dict = {}

    def project(self, g, vec) -> tuple[Fraction, ...]:
        """vec's normal form modulo S, read at the free columns."""
        return tuple(
            sum((a * vec[r] for r, a in phi if vec[r]), _ZERO)
            for phi in self.functionals(g)
        )

    def functionals(self, g) -> list[list]:
        """phi_c = e_c - sum_p R_p[c] e_p for each free column c of degree
        g, as sparse (index, entry) pairs: the normal form of v read at c
        is phi_c . v."""
        if g not in self._phis:
            part = self.parts[g]
            phis = {c: [(c, _ONE)] for c in self.free[g]}
            for p, row in zip(part.pivots, part.sparse_rows):
                for c, x in row[1:]:  # past the pivot's 1
                    phis[c].append((p, -x))
            self._phis[g] = list(phis.values())
        return self._phis[g]

    def lift(self, g, comp) -> list[Fraction]:
        at = dict(zip(self.free[g], comp))
        return [at.get(c, _ZERO) for c in range(self.ambient.dim_of(g))]


def _combine(vectors, coeffs, width: int) -> list[Fraction]:
    """sum_j coeffs[j] vectors[j], for vectors of the given width."""
    out = [_ZERO] * width
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += c * x
    return out


def _lift(space: GradedSpace, basis: dict, d, comp) -> GradedVector:
    """sum_j comp[j] basis[d][j], a vector of V."""
    return _vector(space, {d: _combine(basis[d], comp, space.dim_of(d))})


def _level_rows(q: _Quotient, free: list[int], blocks):
    """The rows phi_c . N read at ``free``, for each (target, rows) block
    N and each functional phi_c of its target: row c of the map N
    induces on V/K_j."""
    at = {c: i for i, c in enumerate(free)}
    for t, rows in blocks:
        for phi in q.functionals(t):
            out = None  # until phi meets a row of N at a free column
            for r, a in phi:
                for j, x in rows.get(r, ()):
                    i = at.get(j)
                    if i is not None:
                        if out is None:
                            out = [_ZERO] * len(free)
                        out[i] += a * x
            if out is not None:
                yield out


def _restrict(f, q: _Quotient, basis: dict, kernels: dict):
    """The sparse map f restricted to a level of the filtration of V/K_j
    (``q``), whose ``basis`` holds sparse vectors of V per degree, as a
    sparse map on the level.  The image of each basis vector is taken to
    V/K_j and must be orthogonal to that degree's rows in ``kernels``;
    its coordinates in the level's basis are then its entries at their
    free columns."""
    degree, blocks = f
    columns: dict = {}
    for h, t, cols in blocks:
        if h not in basis or t not in kernels:
            continue
        ech = kernels[t]
        free = ech.free()
        out = columns[h] = {}
        for k, w in enumerate(basis[h]):
            y = [_ZERO] * q.ambient.dim_of(t)
            for j, a in w:
                for i, x in cols.get(j, ()):
                    y[i] += a * x
            img = q.project(t, y)
            if any(img) and any(
                sum(x * img[i] for i, x in row) for row in ech.sparse_rows
            ):
                raise TheoremViolation("a kernel level of an ideal is not invariant")
            out[k] = {i: img[c] for i, c in enumerate(free)}
    return _sparse_map(degree, columns)


def _kernel_filtration(space: GradedSpace, nil, top):
    """Phase 1 (Engel): the levels K_1 < K_2 < ... of V, each K_{j+1}/K_j
    the common graded kernel of ``nil`` on V/K_j, lazily.

    The maps are sparse blocks (``_sparse_map``) and are never induced.
    V/K_j is one ``_Quotient``: with R_p the reduced rows of K_j, the
    functional phi_c = e_c - sum_p R_p[c] e_p reads the normal form at
    its free column c, so row c of the map a block N induces on V/K_j
    is phi_c N at the free columns.  Those rows go, per source degree,
    into one ``_Echelon``, which stops at full rank, and the kernel is
    read off it.  Each level is yielded as its factor space, the ``top``
    maps restricted to it as sparse maps (``_restrict``, which applies
    them to its basis and takes one normal form per image) and its basis,
    per degree, as vectors of V.
    ``nil`` must span an ideal of the algebra the maps come from, so
    every level is invariant; the levels stop at V or at the first empty
    kernel.
    """
    by_source: dict = {}
    for _, blocks in nil:
        for h, t, cols in blocks:
            rows: dict = {}
            for j, pairs in cols.items():
                for i, x in pairs:
                    rows.setdefault(i, []).append((j, x))
            by_source.setdefault(h, []).append((t, rows))
    q = _Quotient(space)
    while q.space.total_dim > 0:
        kernels = {}
        for h, free in q.free.items():
            if free:
                ech = kernels[h] = _Echelon(len(free))
                for row in _level_rows(q, free, by_source.get(h, ())):
                    if ech.add(row) and len(ech.pivots) == len(free):
                        break
        rows, sparse = {}, {}
        for h, ech in kernels.items():
            ks = ech.kernel()
            if ks:
                free = q.free[h]
                rows[h] = [q.lift(h, k) for k in ks]
                sparse[h] = [[(free[i], x) for i, x in enumerate(k) if x] for k in ks]
        if not rows:
            return
        level = make_space(space.group, {h: len(vs) for h, vs in rows.items()})
        yield level, [_restrict(f, q, sparse, kernels) for f in top], rows
        q.add(rows)


def _filtration_dim(levels) -> int:
    return sum(space.total_dim for space, _, _ in levels)


def _rational_eigenvalue(f_res: HomogeneousMap) -> Fraction:
    """The smallest rational eigenvalue of the first diagonal block, in
    the canonical degree order, that has one.  The blocks are searched
    one at a time and no eigenvector is built; IrrationalEigenvalue
    reports the characteristic polynomial of the first root-free block."""
    first_irrational: Poly | None = None
    for g, _ in f_res.space.dims:
        p = char_poly(f_res.block(g))
        roots = rational_roots(p)
        if roots:
            return roots[0][0]
        if first_irrational is None:
            first_irrational = p
    raise IrrationalEigenvalue(
        "no rational eigenvalue on any component of the weight space "
        f"(characteristic factor {first_irrational})",
        first_irrational,
    )


def _chain_eigenvector(q: _Quotient, chain, strict: bool) -> GradedVector:
    """Homogeneous vector of the quotient F/S (``q``) in the joint weight
    space of the span of the chain, sparse maps on F that leave S
    invariant, found by narrowing W = F/S one chain element at a time.  A
    line is its own joint weight space: there a map of nonzero degree is
    zero and one of degree zero a scalar, so once W is a line the later
    chain elements are only checked to leave it invariant."""
    if q.space.total_dim == 1:
        return _vector(q.space, {q.space.degrees[0]: (_ONE,)})
    w = _EmbeddedSubspace.whole(q)
    for b in chain:
        degree, blocks = b
        if not blocks:
            continue
        try:
            b_res = w.restrict(b)
        except _NotInvariant:
            if strict:
                raise TheoremViolation("algebra does not stabilize the weight space")
            raise NoHomogeneousEigenvector(
                "the algebra does not stabilize the candidate weight space"
            )
        if w.space.total_dim == 1:
            continue
        lam = _rational_eigenvalue(b_res) if degree.is_zero() else _ZERO
        w = w.eigenspace(b_res, lam)
        if w.space.total_dim == 0:
            if strict:
                raise TheoremViolation(
                    "degree-shifting chain element has no homogeneous kernel "
                    "vector in the weight space"
                )
            raise NoHomogeneousEigenvector(
                "chain element has no homogeneous eigenvector in the "
                "weight space (its degree has finite order)"
            )
    g, vs = next(iter(w.bases.items()))
    return _vector(q.space, {g: vs[0]})


def _check_triangularization_hypotheses(L: ColorAlgebra):
    """A nonzero space and a torsion-free grading; solvability and nil
    [L, L] are certified by the kernel filtration (``_engel_phase``)."""
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    if not L.space.group.is_torsion_free():
        raise TorsionGrading(
            "grading group has torsion; triangularization can fail "
            "(run the cyclic-group demo for a 3-dimensional example)"
        )


def _stall(L, nil_maps, depth, strict, nil_policy, seed):
    """Raise for a kernel filtration of maps spanning [L, L] as it acts,
    built by ``nil_maps`` as ``HomogeneousMap``s, that stopped at
    dimension ``depth`` below the space.  No homogeneous flag exists then
    (see the module docstring).  NotSolvable comes from L's derived
    series, with no flag depth when ``strict`` (a failed hypothesis);
    with a solvable L and ``strict``, the nil check tells a non-nil
    component of [L, L] (HypothesisFailed) from a bug."""
    if derived_series(L)[-1].dim != 0:
        err = NotSolvable("algebra is not solvable")
        if strict:
            raise err
    elif strict:
        _check_nil_components(nil_maps(), "derived subalgebra", nil_policy, seed)
        err = TheoremViolation(
            "derived subalgebra with nil components does not act nilpotently"
        )
    else:
        err = NoHomogeneousEigenvector(
            "the derived subalgebra does not act nilpotently, so no "
            "homogeneous flag exists"
        )
    err.flag_depth = depth
    raise err


def _engel_phase(L, space, nil, top, strict, nil_policy, seed, nil_maps) -> list:
    """The whole kernel filtration of ``nil`` (spanning [L, L] as it acts
    on ``space``), or the stall error (``_stall``); ``nil_maps`` builds
    ``nil`` as maps for the stall's nil check."""
    levels = list(_kernel_filtration(space, nil, top))
    depth = _filtration_dim(levels)
    if depth < space.total_dim:
        _stall(L, nil_maps, depth, strict, nil_policy, seed)
    return levels


def common_homogeneous_eigenvector(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> tuple[GradedVector, Weight]:
    """Common homogeneous eigenvector of a solvable algebra over a
    torsion-free grading, with the weight functional on L's basis.

    The vector is found in the first level of the kernel filtration of
    [L, L]; with the hypotheses checked the whole filtration is built
    first, as the certificate that [L, L] is nil.  The weight is read off
    by applying every basis element of L to the vector, which also
    certifies that it is a common eigenvector.
    """
    _require_closed(L)
    if check_hypotheses:
        _check_triangularization_hypotheses(L)
    elif L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    elif derived_series(L)[-1].dim != 0:
        raise NotSolvable("algebra is not solvable")
    derived = _square(L)
    chain = _sparse_elements(L, _derived_coords(L, derived))
    k = derived.dim
    if check_hypotheses:
        levels = _engel_phase(
            L, L.space, chain[:k], chain[k:], True, nil_policy, seed, derived.elements
        )
    else:
        levels = _kernel_filtration(L.space, chain[:k], chain[k:])
    first = next(iter(levels), None)
    if first is None:
        _stall(L, None, 0, False, nil_policy, seed)
    space, top, basis = first
    v = _chain_eigenvector(_Quotient(space), top, strict=check_hypotheses)
    d = v.degree()
    v0 = _lift(L.space, basis, d, v.component(d))

    flat = flatten_vector(v0)
    p = next(i for i, x in enumerate(flat) if x != 0)
    values = []
    for b in L.basis:
        image = apply(b, v0)
        val = flatten_vector(image)[p] / flat[p]
        if image != v0.scale(val):
            raise TheoremViolation("computed vector is not a common eigenvector")
        values.append(val)
    return v0, Weight(L, tuple(values))


def color_flag(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> ColorFlag:
    """Homogeneous basis of V in which every element of L is upper
    triangular, built in two phases (see the module docstring): the
    kernel filtration of [L, L] first, then each factor flagged line by
    line, splitting off a common homogeneous eigenvector of the basis
    elements of L outside [L, L] and passing to the graded quotient.

    A filtration that reaches V certifies that [L, L] is nil and L
    solvable, so the derived series, ``nil_policy`` and ``seed`` are used
    only when it stops below V.  The result is verified exactly: the
    change of basis is applied to every basis element of L, strict lower
    entries must vanish and the weights are read off the diagonal.
    """
    _require_closed(L)
    if check_hypotheses:
        _check_triangularization_hypotheses(L)
    elif L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    derived = _square(L)
    chain = _sparse_elements(L, _derived_coords(L, derived))
    k = derived.dim
    levels = _engel_phase(
        L, L.space, chain[:k], chain[k:], check_hypotheses, nil_policy, seed,
        derived.elements,
    )
    basis = _sparse_elements(
        L, [(f.degree, c) for f, c in zip(L.basis, L._basis_coords)]
    )
    vectors, diagonals = _lie_phase(L.space, levels, basis, check_hypotheses)
    weights = tuple(
        Weight(L, tuple(d[i] for d in diagonals))
        for i in range(L.space.total_dim)
    )
    return ColorFlag(tuple(vectors), weights)


def _lie_phase(space: GradedSpace, levels, certify, strict: bool):
    """Phase 2 on the levels of a finished kernel filtration of ``space``:
    each factor flagged line by line and lifted back (a 1-dimensional
    factor is its own line), then the exact certificate (``_certify``) on
    the sparse maps ``certify``.  Returns the flag vectors and, for each
    map M, the diagonal of T^-1 M T, with T the flag vectors as columns.
    A failure records in ``flag_depth`` the number of flag vectors found
    (a filtration stall, raised before, records dim K_j)."""
    vectors: list[GradedVector] = []
    try:
        for fspace, top, basis in levels:
            if fspace.total_dim == 1:
                (d, (line,)), = basis.items()
                vectors.append(_vector(space, {d: line}))
                continue
            q = _Quotient(fspace)
            while q.space.total_dim > 0:
                v = _chain_eigenvector(q, top, strict)
                d = v.degree()
                line = q.lift(d, v.components[0][1])
                vectors.append(_lift(space, basis, d, line))
                q.add({d: [line]})
    except (TheoremViolation, NoHomogeneousEigenvector, IrrationalEigenvalue) as e:
        e.flag_depth = len(vectors)
        raise
    return vectors, _certify(space, vectors, certify)


def _certify(space: GradedSpace, vectors, certify) -> list[list[Fraction]]:
    """The diagonal of T^-1 M T for each sparse map M (``_sparse_map``)
    in ``certify``, after checking that its entries below the diagonal
    vanish; T has the flag ``vectors`` as columns and must be invertible.

    The vectors are homogeneous, so T is block diagonal by degree, and no
    n x n product is formed.  The vectors of degree g, inserted into a
    tracked ``_Echelon``, reduce to the identity, so its transform is
    (T_g^T)^-1: row r of it is column r of T_g^-1, sparse.  Column j of
    T^-1 M T is T^-1 y for y = M t_j, the combination of those columns
    at y's nonzero entries, formed from M's sparse columns; its entries
    at flag indices i > j must vanish, and the one at j is M's weight."""
    index: dict = {}  # degree -> flag indices of its vectors, in order
    for i, v in enumerate(vectors):
        index.setdefault(v.degree(), []).append(i)
    echs = {
        g: _Echelon(space.dim_of(g), [vectors[i].component(g) for i in idx], track=True)
        for g, idx in index.items()
    }
    if len(vectors) != space.total_dim or any(
        len(echs[g].pivots) < len(idx) for g, idx in index.items()
    ):
        raise TheoremViolation("flag vectors do not form a basis")
    cols_inv = {
        g: [[(index[g][k], x) for k, x in t.items()] for t in ech.transform]
        for g, ech in echs.items()
    }
    entries = [_sparse(v.components[0][1]) for v in vectors]
    diagonals = []
    for _, blocks in certify:
        diag = [_ZERO] * len(vectors)
        for h, t, cols in blocks:
            for j in index.get(h, ()):
                y: dict = {}
                for c, a in entries[j]:
                    for r, x in cols.get(c, ()):
                        y[r] = y[r] + a * x if r in y else a * x
                z: dict = {}
                for r, x in y.items():
                    if x:
                        for i, u in cols_inv[t][r]:
                            z[i] = z[i] + x * u if i in z else x * u
                if any(x for i, x in z.items() if i > j):
                    raise TheoremViolation(
                        "matrix is not upper triangular in the flag basis"
                    )
                if h == t and j in z:
                    diag[j] = z[j]
        diagonals.append(diag)
    return diagonals


def ideal_chain(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> IdealChain:
    """Chain of color ideals with dim L_i = i, from the flag of the
    adjoint action.

    ad acts on L's own graded coordinate space, in pivot coordinates (see
    ``colorlie.algebra``), so its flag vectors are literally elements of
    L; a subspace invariant under every ad x is exactly a color ideal.
    The maps are read off the structure-constant table: ad of L's basis
    adapted to [L, L] (``_derived_coords``), whose first dim [L, L]
    entries span ad [L, L] = [ad L, ad L], since ad is a homomorphism.
    Those drive phase 1 and the rest phase 2 (see the module docstring);
    ad L is never built as an algebra.  The flag is certified with ad R_k
    for every canonical basis element R_k, so every prefix is
    ad-invariant, hence an ideal.

    The hypotheses are checked on L only: ad([L, L]_g) = [ad L, ad L]_g
    and ad of a nilpotent element is nilpotent, so ad L inherits them.
    After the torsion check, that L is solvable and [L, L] nil is
    certified by phase 1 of L's own flag, the kernel filtration of
    [L, L] on V, with no eigenvalue search; the adjoint filtration cannot
    stand in for it, since ad kills the center and with it any central
    non-nilpotent element.  The derived series, ``nil_policy`` and
    ``seed`` are used only when a filtration stalls.
    """
    _require_closed(L)
    if check_hypotheses and not L.space.group.is_torsion_free():
        raise TorsionGrading("grading group has torsion")
    derived = _square(L)
    coords = _derived_coords(L, derived)
    k = derived.dim
    if check_hypotheses:
        _engel_phase(
            L, L.space, _sparse_elements(L, coords[:k]), [], True, nil_policy,
            seed, derived.elements,
        )
    if L.dim == 0:
        return IdealChain((Subspace(L, []),))

    ads = _sparse_ads(L, coords)
    profile = L.profile_space()
    levels = _engel_phase(
        L, profile, ads[:k], ads[k:], check_hypotheses, nil_policy, seed,
        lambda: [L._ad(g, v) for g, v in coords[:k]],
    )
    units = _sparse_ads(L, [(g, L._unit(i)) for i, g in enumerate(L._degrees)])
    vectors, _ = _lie_phase(profile, levels, units, check_hypotheses)

    coords = [L._from_profile(v) for v in vectors]
    chain = [Subspace(L, [])]
    for i in range(1, len(coords) + 1):
        sub = Subspace._span(L, coords[:i])
        if sub.dim != i:
            raise TheoremViolation("chain member has the wrong dimension")
        chain.append(sub)
    return IdealChain(tuple(chain))


@dataclass(frozen=True)
class Z3Report:
    """Everything the cyclic-grading counterexample demonstrates: a
    1-dimensional abelian (hence solvable) algebra over a Z_3 grading
    whose generator cannot be made upper triangular in any homogeneous
    basis."""

    degree: GroupElement
    algebra_dim: int
    derived_dims: tuple[int, ...]
    derived_zero: bool
    solvable: bool
    nil_condition_vacuous: bool
    cube_is_identity: bool
    characteristic: Poly
    rational_eigenvalues: tuple[tuple[Fraction, int], ...]
    ungraded_eigenvector: tuple[Fraction, ...]
    eigenvector_homogeneous: bool
    grading_certificate_error: str
    flag_error: str
    flag_error_unchecked: str
    orderings: tuple[tuple[tuple[str, ...], bool], ...]
    orderings_checked: int
    triangularizable: bool


def z3_counterexample() -> Z3Report:
    """Build the order-3 cyclic permutation generator over a Z_3 grading
    with trivial bicharacter and verify, exhaustively over all homogeneous
    basis orderings, that it is never upper triangular.

    Each component is one-dimensional, so up to scaling (which cannot
    change the zero pattern) the homogeneous bases are exactly the six
    orderings of the component basis vectors.
    """
    group = make_group(0, [3])
    r = make_bicharacter(group, [[1]])
    g0, g1, g2 = (group.element([k]) for k in (0, 1, 2))
    space = make_space(group, {g0: 1, g1: 1, g2: 1})
    a = make_map(space, g2, {g0: [[1]], g1: [[1]], g2: [[1]]})

    L = bracket_closure(space, r, [a])
    if L.dim != 1:
        raise TheoremViolation("span of the generator is not 1-dimensional")
    series = derived_series(L)
    derived_dims = tuple(s.dim for s in series)
    solvable = series[-1].dim == 0
    derived = bracket_subspaces(full_subspace(L), full_subspace(L))
    derived_zero = derived.dim == 0
    nil_vacuous = all(
        nil_subspace_check(
            _component_matrices([f for f in derived.elements() if f.degree == g])
        )
        for g in derived.degrees()
    )

    flat = flatten_map(a)
    cube_identity = flat.power(3) == Matrix.identity(3)
    cp = char_poly(flat)
    roots = tuple(rational_roots(cp))
    eig = kernel_basis(flat - Matrix.identity(3))[0]
    eig_hom = unflatten_vector(space, eig).is_homogeneous()

    try:
        nilpotent_by_grading(a)
        grading_err = ""
    except TorsionDegree:
        grading_err = "TorsionDegree"

    try:
        color_flag(L)
        flag_err = ""
    except TorsionGrading:
        flag_err = "TorsionGrading"

    try:
        color_flag(L, check_hypotheses=False)
        flag_err_unchecked = ""
    except NoHomogeneousEigenvector:
        flag_err_unchecked = "NoHomogeneousEigenvector"

    labels = tuple(str(g) for g in space.degrees)
    orderings = []
    triangularizable = False
    for perm in itertools.permutations(range(3)):
        upper = all(
            flat.data[perm[i]][perm[j]] == 0
            for i in range(3)
            for j in range(i)
        )
        orderings.append((tuple(labels[p] for p in perm), upper))
        triangularizable = triangularizable or upper

    ok = (
        a.degree == g2
        and derived_zero
        and solvable
        and nil_vacuous
        and cube_identity
        and grading_err == "TorsionDegree"
        and flag_err == "TorsionGrading"
        and flag_err_unchecked == "NoHomogeneousEigenvector"
        and not triangularizable
        and not eig_hom
    )
    if not ok:
        raise TheoremViolation("counterexample verification failed")

    return Z3Report(
        degree=a.degree,
        algebra_dim=L.dim,
        derived_dims=derived_dims,
        derived_zero=derived_zero,
        solvable=solvable,
        nil_condition_vacuous=nil_vacuous,
        cube_is_identity=cube_identity,
        characteristic=cp,
        rational_eigenvalues=roots,
        ungraded_eigenvector=eig,
        eigenvector_homogeneous=eig_hom,
        grading_certificate_error=grading_err,
        flag_error=flag_err,
        flag_error_unchecked=flag_err_unchecked,
        orderings=tuple(orderings),
        orderings_checked=len(orderings),
        triangularizable=triangularizable,
    )
