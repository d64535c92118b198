"""Constructive structure theory for linear Lie color algebras.

The two main engines are the common-annihilated-vector search for nil
algebras (Engel-type) and the flag of a solvable algebra over a
torsion-free grading (Lie-type).  The flag is built in two phases from a
homogeneous basis b_1..b_m of L whose first k = dim [L, L] entries span
[L, L] (read off the structure-constant table) and whose rest are the
basis elements of L independent modulo [L, L] (``_derived_coords``),
whose sparse maps are those of L's basis.

All of these depend on L alone, so each is built once per algebra, by
the first call that needs it, and kept on the ``ColorAlgebra``: [L, L]
(``algebra._square``, shared with the series and ``codim_one_ideal``),
the adapted basis (``_adapted``), the flag's sparse maps
(``_flag_maps``) and ``ideal_chain``'s ad maps (``_chain_maps``).  Their
readers never change them.  Nothing kept is a verdict: every call still
runs its closure, space and torsion checks before it reads them, then
the Engel phase, a stall's diagnosis with its own ``nil_policy`` and
``seed``, phase 2 and the certificate.

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
     diagonal block, until W is a line.  The factor is flagged line by
     line through its graded quotients by the lines found so far, and
     the vectors are lifted back to V.

Phase 2 yields the flag's vectors lazily (``_flag_vectors``): the common
homogeneous eigenvector is the first, its weight read off the sparse
maps of L's basis.  The flag and the eigenvector build the whole
filtration first, checked or not.  When it reaches V, [L, L] acts
nilpotently, so its components are nil, and L is solvable: every element
of [L, L] strictly raises the filtration, so a product of two, and with
it their color bracket, raises it by at least two, and the m-th derived
term by at least 2^(m-1), with neither torsion-freeness nor the
bicharacter used.  When it stops below V, no homogeneous flag exists: in
any such flag [L, L] is strictly upper triangular (a map of nonzero
degree has zero diagonal, and for degree zero r(0, 0) = 1 cancels the
diagonal of ab - ba).  Only then is the derived series computed
(``_stall``), for a NotSolvable verdict, and, with the hypotheses
checked, the components of [L, L] checked for nil on the sparse maps the
filtration holds (``linalg._non_nilpotent_point``, the loop behind
``nil_subspace_check``), to tell a failed hypothesis, with a non-nil
point as its ``witness`` (degree, point), from a violated theorem.  That
check proves a span nil once the product chain I_{j+1} = sum_i B_i I_j
of its maps reaches 0, run after the first p = ceil(s n / ceil(log2 n))
points when the policy has more than 2p of them; a stalled chain runs
them all.

Kernels reduce through ``linalg._Echelon``, on each space's own
coordinates: V's flattened ones for ``color_flag``, and for
``ideal_chain`` the profile space's, L's pivot coordinates ordered
stably by degree (``_profile_order``).  Homogeneous vectors of different
degrees share no coordinate, so one echelon over a space's coordinates
keeps its rows homogeneous, and a vector's degree is that of any of its
coordinates; no span is split by degree.

The engine computes in integers, as the elimination kernel does.  A map
is (degree, cols, den), cols[j] den times its column j as a sparse dict
of ints, for one positive den in lowest terms (``_map_of``), built from
the solver's integer rows and the table's integer entries; every vector
of the engine is likewise a sparse integer vector over one positive
denominator, shared by a basis or a list of projections.  A positive
scale changes neither a kernel nor the order of eigenvalues, so phase 1
eliminates the scaled rows and phase 2's eigenvalue search runs on the
scaled restricted maps as they are; what depends on the scale, an
irrational factor or a hypothesis witness, is computed for the maps at
their own scale, on the failure path only.  Fractions are made once, for
the returned values: the flag vectors, the weights, the certified columns
and the chain members.

Both phases hold F/S (F is V or a level's factor) as S's reduced echelon
in F's coordinates (``_Quotient``), which quotienting again only adds
rows to.  Neither phase induces a map, and both restrict the maps the
same way (``_restrict``): a subspace W of F/S is held as sparse vectors of F and
the free columns at which they read 1 and 0, so an image, projected, has
its coordinates in W's basis at those columns, with no solve.  Phase 1
projects the nil maps' columns at the free columns of K_j, and those
columns, by rows, give the next level, to which the top maps are
restricted unless it is a line (its own flag, where phase 2 reads no
map).  Phase 2 narrows W to kernels of the restricted top maps, less an
eigenvalue for degree zero, searched for one diagonal block at a time
and only until one is found (an upper triangular block's smallest
diagonal entry, read off its sparse rows); narrowing stops once W is a
line.  No restriction checks that W is invariant: the theorem
guarantees it (see ``_chain_eigenvector``), and the certificate checks
the flag.

The flag itself is verified exactly in the end, with no n x n product:
every flag vector must be homogeneous, and for every map M and flag
vector t_j that meets one of M's nonzero columns, T^-1 (M t_j) is formed
from sparse columns of T^-1 and must vanish below j, and its entry at j
is M's weight.  The columns are kept: the weights and every matrix the
flag gives (``ColorFlag.matrix``) are read off them, with no dense
inverse.  A conclusion failing after
its hypotheses were checked raises TheoremViolation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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
from .grading import GroupElement, make_bicharacter, make_group
from .graded import (
    GradedSpace,
    GradedVector,
    HomogeneousMap,
    _coordinate_degrees,
    _graded,
    flatten_map,
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
    center,
    derived_series,
    lower_central_series,
    _require_closed,
    _square,
)
from .linalg import (
    _ZERO,
    Matrix,
    Poly,
    _Echelon,
    _cleared,
    _lowest,
    _non_nilpotent_point,
    _over,
    _sum_of,
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
        vals = tuple(v if type(v) is Fraction else frac(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.algebra.dim:
            raise ValidationError("one value per basis element is required")
        for v, g in zip(vals, self.algebra.basis_degrees):
            if v != 0 and not g.is_zero():
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
    algebra is upper triangular, with the weights read off the diagonal.
    ``columns``, not compared or shown: T^-1 b_k T by columns for L's basis (``_certify``)."""

    ordered_basis: tuple[GradedVector, ...]
    weights: tuple[Weight, ...]
    columns: tuple = field(default=(), compare=False, repr=False)

    def matrix(self, f: HomogeneousMap) -> Matrix:
        """The matrix of f in L in the flag basis, sum_k c_k T^-1 b_k T for
        c = L.coordinates(f): x -> T^-1 x T is linear, so it combines the
        certified columns.  NotInAlgebra for a map outside L."""
        c = self.weights[0].algebra.coordinates(f)
        if c is None:
            raise NotInAlgebra("map is outside the flag's algebra")
        n, c = len(self.ordered_basis), dict(enumerate(c))
        rows = [[_ZERO] * n for _ in range(n)]
        for j in range(n):
            for i, x in _sum_of([m[j] for m in self.columns], c).items():
                rows[i][j] = x
        return Matrix._raw(tuple(map(tuple, rows)), n)


@dataclass(frozen=True)
class IdealChain:
    """Chain of color ideals 0 = L_0 < L_1 < ... < L_n = L, dim L_i = i."""

    chain: tuple[Subspace, ...]


@dataclass(frozen=True)
class EngelReport:
    all_ad_nilpotent: bool
    nilpotent: bool
    central_witness: HomogeneousMap | None


def _check_nil_components(maps, what: str, policy: str, seed: int):
    """HypothesisFailed at the first degree, in canonical order, where the
    span of the sparse maps (``_map_of``) is not nil.  Its ``witness`` is
    (degree, t): sum t_i f_i over that degree's maps, in the given order,
    is not nilpotent."""
    for g in sorted({d for d, _, _ in maps}, key=lambda g: g.sort_key()):
        # at the maps' own scale: a point for scaled maps may not be one for them
        mats = [_dense(_rows(cols), range(len(cols)), den) for d, cols, den in maps if d == g]
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
    n = L.space.total_dim
    if n == 0:
        raise EmptySpace("the representation space is zero")
    maps = _basis_maps(L)
    levels = _kernel_filtration(_coordinate_degrees(L.space), maps, [])
    if check_hypotheses:
        levels = list(levels)
        if _filtration_dim(levels) < n:
            _check_nil_components(maps, "algebra", nil_policy, seed)
            raise TheoremViolation("nil algebra does not act nilpotently")
    first = next(iter(levels), None)
    if first is None:
        raise NoHomogeneousEigenvector(
            "no nonzero homogeneous vector is annihilated by the algebra"
        )
    _, _, basis, den = first
    return _graded(L.space, _over(basis[0], den))


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
                [flatten_map(f) for f in ad_l.basis_of_degree(g)],
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


def _derived_coords(L: ColorAlgebra, derived: Subspace) -> tuple[list, list]:
    """Homogeneous basis b_1..b_m of L adapted to [L, L] (``derived``), as
    (degree, pivot coordinates) pairs: the reduced rows of [L, L] first,
    then the basis elements of L independent modulo [L, L], in order;
    and the indices in L's basis of the latter.

    The first k = dim [L, L] entries drive phase 1 and the rest phase 2
    (see the module docstring); any basis of [L, L] serves, since the
    kernel levels are canonical subspaces.  Every subspace containing
    [L, L] is an ideal, so each prefix of length at least k is one.
    """
    ech = derived._ech.copy()
    taken = [i for i, c in enumerate(L._basis_coords) if ech.add(c)]
    rest = [(L.basis_degrees[i], L._basis_coords[i]) for i in taken]
    return derived._vectors() + rest, taken


def _adapted(L: ColorAlgebra) -> tuple[list, list]:
    """``_derived_coords`` for L's [L, L], built once and kept on L
    (``L._adapted``)."""
    if L._adapted is None:
        L._adapted = _derived_coords(L, _square(L))
    return L._adapted


def _map_of(degree: GroupElement, flat: dict, n: int, den: int) -> tuple:
    """The sparse map (degree, cols, den) on an n-dimensional space whose
    flattened matrix, row-major, has the integer entries ``flat`` over
    the positive denominator den, in lowest terms (``_lowest``): cols[j]
    is den times its column j as ``{i: x}``, with no zero entry.  Keys
    past n^2, a tracked echelon's, are left out."""
    cols: list[dict] = [{} for _ in range(n)]
    nn = n * n
    for k, x in flat.items():
        if x and k < nn:
            cols[k % n][k // n] = x
    return (degree, *_lowest(cols, den))


def _sparse_elements(L: ColorAlgebra, coords) -> list[tuple]:
    """The sparse maps of the elements of L with the given (degree, pivot
    coordinates): each combines the solver's integer rows lead_k R_k,
    sum_k v_k R_k = sum_k a_k (l / lead_k) (lead_k R_k) / (e l) for
    v = a / e over ints and l the lcm of the leads met."""
    solver, n = L._solver, L.space.total_dim
    rows = solver.int_rows
    leads = [row[p] for p, row in zip(solver.pivots, rows)]
    out = []
    for degree, v in coords:
        a, e = _cleared(v)
        lcm = math.lcm(*[leads[k] for k in a])
        flat = _sum_of(rows, {k: x * (lcm // leads[k]) for k, x in a.items()})
        out.append(_map_of(degree, flat, n, e * lcm))
    return out


def _basis_maps(L: ColorAlgebra) -> list[tuple]:
    """The sparse maps of L's basis elements, in order."""
    return _sparse_elements(L, list(zip(L.basis_degrees, L._basis_coords)))


def _profile_order(L: ColorAlgebra) -> list[int]:
    """The k of each coordinate of the profile space: R_k sorted stably by
    degree, so the component of degree g has the R_k of degree g as its
    basis, in order of k."""
    return sorted(range(L.dim), key=lambda k: L._degrees[k].sort_key())


def _sparse_ads(L: ColorAlgebra, coords) -> list[tuple]:
    """The sparse maps of ad x on the profile space (``_profile_order``),
    for each (degree, pivot coordinates) x, read off the
    structure-constant table: column j of ad x is
    [x, R_j] = sum_i x_i sum_k c_ij^k R_k, in integers over e l for
    x = a / e and l the lcm of the table denominators met."""
    table = L._structure()
    m = L.dim
    at = {k: i for i, k in enumerate(_profile_order(L))}
    out = []
    for degree, x in coords:
        a, e = _cleared(x)
        rows = [(y, table[i]) for i, y in a.items()]
        lcm = math.lcm(*[d for _, row in rows for _, d in row.values()])
        flat: dict = {}
        for y, row in rows:
            for j, (c, d) in row.items():
                yd = y * (lcm // d)
                for k, z in c.items():
                    p = at[k] * m + at[j]
                    flat[p] = flat[p] + yd * z if p in flat else yd * z
        out.append(_map_of(degree, flat, m, e * lcm))
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
    if _square(L).dim == L.dim:
        raise NotSolvable("derived subalgebra equals the whole algebra")
    chain, _ = _adapted(L)
    return Subspace._span(L, (v for _, v in chain[:-1])), L._element(*chain[-1])


class _Quotient:
    """Graded quotient F/S, held as S's reduced echelon in F's
    coordinates, whose degrees are ``degrees``: one ``_Echelon``, with no
    split by degree, since homogeneous vectors of different degrees share
    no coordinate and its reduced rows stay homogeneous.

    The free (non-pivot) columns are the quotient's coordinates, in
    order (``at`` maps each to its position), so its components keep F's
    degree order.  A sparse vector of F
    projects to its normal form modulo S read at them, keyed by position
    among them: the combination, at its entries, of the projections of
    F's unit vectors (``project``).  Quotienting F/S again by T/S adds
    T/S's rows, as vectors of F: T's reduced echelon leads at the union
    of the pivots of S and T/S, and the normal form modulo T is the
    composite of the two projections, so the result is F/T in the same
    coordinates.

    Everything is integral: ``units`` are den times the projections of
    F's unit vectors for one positive den, so ``project`` gives den times
    a projection, and a subspace W of F/S is held as (basis, cols, den):
    its basis, sparse integer vectors of F that are den times W's, and
    ``cols``: cols[i] is the position of the free column at which W's
    i-th vector projects to 1 and W's other vectors to 0, so the
    coordinates in W's basis of a vector of W are read off its
    projection at ``cols`` (``_restrict``), and the degree of W's i-th
    coordinate is that of its free column.  W = F/S itself is a unit
    vector per free column (``_whole``), and ``_narrow`` keeps the form.
    """

    def __init__(self, degrees: list):
        self.degrees = degrees
        self.ech = _Echelon(len(degrees))
        self.add(())

    def add(self, rows):
        """Quotient further by the span of ``rows``, sparse vectors of F."""
        for v in rows:
            self.ech.add(v)
        self.free = self.ech.free()
        self.at = {c: i for i, c in enumerate(self.free)}
        self._units: list | None = None

    @property
    def units(self) -> tuple[list[dict], int]:
        """(units, den): units[c] is den times the projection of the unit
        vector e_c of F, the unit at c's position for a free column c,
        and -R_p[c] at each free c for the pivot p of a reduced row R_p.
        Read at the position of a free column f these are the entries of
        the kernel vector at f, so they are its kernel, transposed."""
        if self._units is None:
            kernel, den = self.ech.kernel()
            units: list[dict] = [{} for _ in self.degrees]
            for i, v in enumerate(kernel):
                for c, x in v.items():
                    units[c][i] = x
            self._units = units, den
        return self._units

    def project(self, vec: dict) -> dict:
        """den (``units``) times the normal form modulo S of the integer
        vector vec, read at the free columns."""
        return _sum_of(self.units[0], vec)

    def coordinate_degrees(self, cols) -> list:
        """The degrees of the free columns at the positions ``cols``."""
        return [self.degrees[self.free[c]] for c in cols]


def _whole(q: _Quotient) -> tuple[list, list, int]:
    """(basis, cols, den) of W = F/S (see ``_Quotient``)."""
    return [{c: 1} for c in q.free], list(range(len(q.free))), 1


def _narrow(basis: list, cols: list, den: int, ech: _Echelon) -> tuple[list, list, int]:
    """(basis, cols, den) of the vectors of W whose coordinates in W's
    basis lie in the kernel of ``ech``: the kernel vector at each free
    column f of it is 1 at f and 0 at the others, so its combination of
    W's basis projects to 1 at cols[f].  The echelon's kernel comes over
    one denominator d, so the new basis is over den d."""
    kernel, d = ech.kernel()
    vectors, den = _lowest([_sum_of(basis, k) for k in kernel], den * d)
    return vectors, [cols[f] for f in ech.free()], den


def _rows(cols) -> dict:
    """A sparse map's matrix, given by its columns (``_map_of``), by its
    rows, ``{i: {j: x}}``."""
    rows: dict = {}
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    return rows


def _dense(rows: dict, idx, den: int) -> Matrix:
    """The square matrix of the rows ``{i: {j: x}}``, divided by den, at
    the indices idx."""
    return Matrix._raw(tuple(
        tuple(Fraction(rows[i][j], den) if j in rows.get(i, ()) else _ZERO for j in idx)
        for i in idx
    ), len(idx))


def _restrict(f, q: _Quotient, basis: list, cols: list, den: int):
    """The sparse map f on F restricted to a subspace W of F/S (``q``),
    given by its ``basis``, ``cols`` and ``den`` (see ``_Quotient``), as a
    sparse map on W, which it must leave invariant: the image of each
    basis vector, projected to F/S, has its coordinates in W's basis at
    ``cols``.  Over the integers that is f's den times q's times W's.
    A map that moves W out of itself is not noticed here; the flag's
    certificate (``_certify``) checks every level and line."""
    degree, fcols, fden = f
    at = {c: i for i, c in enumerate(cols)}
    out = []
    for w in basis:
        img = q.project(_sum_of(fcols, w))
        out.append({at[c]: x for c, x in img.items() if c in at and x})
    return (degree, *_lowest(out, fden * q.units[1] * den))


def _kernel_filtration(degrees: list, nil, top):
    """Phase 1 (Engel): the levels K_1 < K_2 < ... of the space F with the
    coordinate degrees ``degrees``, each K_{j+1}/K_j the common graded
    kernel of ``nil`` on F/K_j, lazily.

    The maps are sparse (``_map_of``) and are never induced.  F/K_j is
    one ``_Quotient``: the map a nil map N induces there has, at each
    free column c, N's column c projected, and those columns, by rows,
    go into one ``_Echelon`` over the free columns.  Its rows are
    homogeneous, so each new pivot lies in its row's source degree, and
    the rows of a source degree whose free columns all hold pivots are
    not formed.  F/K_j is narrowed to the echelon's kernel (``_narrow``).
    Each level is yielded as the degrees of its coordinates, the ``top``
    maps restricted to it as sparse maps (``_restrict``; none on a line,
    on which phase 2 reads no map) and its basis, sparse vectors of F.
    ``nil`` must span an ideal of the algebra the maps come from, so
    every level is invariant (which the flag's certificate checks); the
    levels stop at F or at the first empty kernel.
    """
    nonzero = [[(c, col) for c, col in enumerate(cols) if col] for _, cols, _ in nil]
    # each coordinate's degree as a small int, so counts are list entries
    # and the inner loop hashes no grading element
    kinds = {g: k for k, g in enumerate(dict.fromkeys(degrees))}
    kind = [kinds[g] for g in degrees]
    q = _Quotient(degrees)
    while q.free:
        free, at, (units, _) = q.free, q.at, q.units
        ech = _Echelon(len(free))
        left = [0] * len(kinds)  # free columns without a pivot, by degree
        for c in free:
            left[kind[c]] += 1
        for cols in nonzero:
            if not any(left):
                break
            # the rows of the induced map: column j is column c projected
            rows: dict = {}
            for c, col in cols:
                j = at.get(c)
                if j is not None and left[kind[c]]:
                    for r, x in col.items():
                        for i, a in units[r].items():
                            row = rows.setdefault(i, {})
                            row[j] = row[j] + a * x if j in row else a * x
            for row in rows.values():
                g = kind[free[next(iter(row))]]
                if left[g] and ech.add(row):
                    left[g] -= 1
        basis, cols, den = _narrow(*_whole(q), ech)
        if not basis:
            return
        tops = [_restrict(f, q, basis, cols, den) for f in top] if len(basis) > 1 else []
        yield q.coordinate_degrees(cols), tops, basis, den
        q.add(basis)


def _filtration_dim(levels) -> int:
    return sum(len(basis) for _, _, basis, _ in levels)


def _rational_eigenvalue(rows: dict, blocks, den: int):
    """The smallest rational eigenvalue of the first of the diagonal
    ``blocks`` of the sparse matrix ``rows`` (``{i: {j: x}}``, no zero
    entry), each a run of consecutive indices, in the canonical degree
    order, that has one.  The blocks are searched one at a time and no
    eigenvector is built, nor a triangular block's characteristic
    polynomial: its roots are its diagonal, read off the sparse rows, so
    it costs its nonzero entries, not its square.

    The rows may be den times the matrix, as the engine's integer rows
    are: a positive scale keeps the order of the eigenvalues, so the
    search runs on the rows as given and returns den times the
    eigenvalue.  IrrationalEigenvalue reports the characteristic
    polynomial of the first root-free block at the matrix's own scale."""
    first_irrational = None
    for idx in blocks:
        if not any(idx[0] <= j < i for i in idx for j in rows.get(i, ())):
            return min(rows.get(i, {}).get(i, 0) for i in idx)
        roots = rational_roots(char_poly(_dense(rows, idx, 1)))
        if roots:
            return roots[0][0]
        if first_irrational is None:
            first_irrational = idx
    p = char_poly(_dense(rows, first_irrational, den))
    raise IrrationalEigenvalue(
        "no rational eigenvalue on any component of the weight space "
        f"(characteristic factor {p})",
        p,
    )


def _chain_eigenvector(q: _Quotient, chain, strict: bool) -> dict:
    """A homogeneous vector, sparse in F's coordinates, of the quotient
    F/S (``q``) in the joint weight space of the span of the chain,
    sparse maps on F that leave S invariant, found by narrowing W = F/S
    one chain element at a time until W is a line.

    Each element b is restricted to W (``_restrict``) and W narrowed to
    the kernel of b - lam, one echelon for all of W: lam = 0 for nonzero
    degree (a homogeneous eigenvector of a degree-shifting map has
    eigenvalue zero), else a rational eigenvalue of a diagonal block, the
    blocks being W's coordinates grouped by degree, in degree order.
    [L, L] acts as zero on F/S, so there b b' = r(deg b, deg b') b' b
    for chain elements b, b', and W stays invariant: b w = lam w gives
    b (b' w) = r lam b' w, and r lam = lam, as lam = 0 or deg b = 0 and
    r(0, g) = 1.  A line is its own joint weight space, so the later
    elements are not restricted."""
    basis, cols, den = _whole(q)
    for b in chain:
        if len(basis) == 1:
            break
        _, bcols, bden = _restrict(b, q, basis, cols, den)
        rows = _rows(bcols)
        if b[0].is_zero():
            degrees = q.coordinate_degrees(cols)
            lam = _rational_eigenvalue(rows, (
                [i for i, _ in run]
                for _, run in itertools.groupby(enumerate(degrees), key=lambda x: x[1])
            ), bden)
            if lam:
                for i in range(len(basis)):
                    row = rows.setdefault(i, {})
                    row[i] = row.get(i, 0) - lam
        basis, cols, den = _narrow(basis, cols, den, _Echelon(len(basis), rows.values()))
        if not basis:
            if strict:
                raise TheoremViolation(
                    "degree-shifting chain element has no homogeneous kernel "
                    "vector in the weight space"
                )
            raise NoHomogeneousEigenvector(
                "chain element has no homogeneous eigenvector in the "
                "weight space (its degree has finite order)"
            )
    return basis[0], den


def _flag_setup(L: ColorAlgebra, check_hypotheses: bool):
    """The checks every flag and eigenvector call runs, for a nonzero V
    and, checked, a torsion-free grading (the filtration certifies the
    rest), then L's sparse maps (``_flag_maps``)."""
    _require_closed(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    if check_hypotheses and not L.space.group.is_torsion_free():
        raise TorsionGrading(
            "grading group has torsion; triangularization can fail "
            "(run the cyclic-group demo for a 3-dimensional example)"
        )
    return _flag_maps(L)


def _flag_maps(L: ColorAlgebra):
    """V's coordinate degrees and the sparse maps of the rows of [L, L]
    (phase 1), of L's basis elements outside it (phase 2, ``_adapted``)
    and of L's basis, built once and kept on L (``L._flag_inputs``)."""
    if L._flag_inputs is None:
        coords, taken = _adapted(L)
        basis = _basis_maps(L)
        # a row of [L, L] that is a basis element of L has its map already;
        # looked up by its coordinates' indices, which hash cheaply
        known = {tuple(c): (c, f) for c, f in zip(L._basis_coords, basis)}
        nil = []
        for g, v in coords[:_square(L).dim]:
            c, f = known.get(tuple(v), (None, None))
            nil.append(f if c == v else _sparse_elements(L, [(g, v)])[0])
        L._flag_inputs = _coordinate_degrees(L.space), nil, [basis[i] for i in taken], basis
    return L._flag_inputs


def _chain_maps(L: ColorAlgebra):
    """The profile space's coordinate degrees and order
    (``_profile_order``) and ad of L's basis adapted to [L, L] on it
    (``_sparse_ads``), built once and kept on L (``L._chain_inputs``)."""
    if L._chain_inputs is None:
        order = _profile_order(L)
        ads = _sparse_ads(L, _adapted(L)[0])
        L._chain_inputs = [L._degrees[i] for i in order], order, ads
    return L._chain_inputs


def _stall(L, nil, depth, strict, nil_policy, seed):
    """Raise for a kernel filtration of ``nil``, the sparse maps of
    [L, L], stopped at dimension ``depth`` below the space (see the module
    docstring): NotSolvable from L's derived series, with no flag depth
    when ``strict``; for a solvable L, HypothesisFailed from the nil check
    of ``nil`` or else TheoremViolation when ``strict``, and otherwise
    NoHomogeneousEigenvector."""
    if derived_series(L)[-1].dim != 0:
        err = NotSolvable("algebra is not solvable")
        if strict:
            raise err
    elif strict:
        _check_nil_components(nil, "derived subalgebra", nil_policy, seed)
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


def _engel_phase(L, degrees, nil, top, strict, nil_policy, seed) -> list:
    """The whole kernel filtration of ``nil`` (spanning [L, L] as it acts
    on the space with the coordinate degrees ``degrees``), or the stall
    error (``_stall``)."""
    levels = list(_kernel_filtration(degrees, nil, top))
    depth = _filtration_dim(levels)
    if depth < len(degrees):
        _stall(L, nil, depth, strict, nil_policy, seed)
    return levels


def common_homogeneous_eigenvector(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> tuple[GradedVector, Weight]:
    """Common homogeneous eigenvector of a solvable algebra over a
    torsion-free grading, with the weight functional on L's basis.

    The vector is the first of ``color_flag``'s (see the module
    docstring); unchecked, the filtration of a solvable L may stall above
    it.  Each sparse map of L's basis must map it to a multiple of itself,
    the weight's value there.
    """
    degrees, nil, top, basis = _flag_setup(L, check_hypotheses)
    if check_hypotheses:
        levels = _engel_phase(L, degrees, nil, top, True, nil_policy, seed)
    else:
        levels = list(_kernel_filtration(degrees, nil, top))
        if _filtration_dim(levels) < len(degrees) and derived_series(L)[-1].dim != 0:
            raise NotSolvable("algebra is not solvable")
    v = next(_flag_vectors(levels, check_hypotheses), None)
    if v is None:
        _stall(L, nil, 0, False, nil_policy, seed)

    v, den = v
    p = min(i for i, x in v.items() if x)
    values = []
    for _, cols, d in basis:
        # d M v = a / b v at v's own scale, with a and b at p
        image = _sum_of(cols, v)
        a, b = image.get(p, 0), v[p]
        if any(image.get(i, 0) * b != a * v.get(i, 0) for i in image.keys() | v.keys()):
            raise TheoremViolation("computed vector is not a common eigenvector")
        values.append(Fraction(a, d * b))
    return _graded(L.space, _over(v, den)), Weight(L, tuple(values))


def color_flag(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> ColorFlag:
    """Homogeneous basis of V in which every element of L is upper
    triangular, built in two phases (see the module docstring), with the
    certificate's columns of L's basis and the weights on its diagonal.
    ``nil_policy`` and ``seed`` are used only if the filtration stalls.
    """
    degrees, nil, top, basis = _flag_setup(L, check_hypotheses)
    levels = _engel_phase(L, degrees, nil, top, check_hypotheses, nil_policy, seed)
    vectors, columns = _lie_phase(degrees, levels, basis, check_hypotheses)
    empty: dict = {}
    columns = [[_over(z, d) if z else empty for z, d in m] for m in columns]
    weights = tuple(
        Weight(L, tuple(m[i].get(i, _ZERO) for m in columns)) for i in range(len(degrees))
    )
    return ColorFlag(tuple(_graded(L.space, _over(*v)) for v in vectors), weights,
                     tuple(columns))


def _flag_vectors(levels, strict: bool):
    """Phase 2, lazily: each level's factor flagged line by line (a line
    is its own flag), the vectors lifted back as sparse integer vectors,
    each with its positive denominator."""
    for level, top, basis, den in levels:
        if len(basis) == 1:
            yield basis[0], den
            continue
        q = _Quotient(level)
        while q.free:
            line, d = _chain_eigenvector(q, top, strict)
            yield _sum_of(basis, line), den * d
            q.add([line])


def _lie_phase(degrees: list, levels, certify, strict: bool):
    """Phase 2 (``_flag_vectors``) on a finished kernel filtration of the
    space with the coordinate degrees ``degrees``, then the certificate
    (``_certify``) on the sparse maps ``certify``: the flag vectors, each
    a sparse integer vector with its denominator, and, for each map, its
    certified columns in the flag, in integers as ``_certify`` gives them.  A failure records in
    ``flag_depth`` the number of vectors found (a stall records dim K_j)."""
    vectors: list[tuple] = []
    try:
        for v in _flag_vectors(levels, strict):
            vectors.append(v)
    except (TheoremViolation, NoHomogeneousEigenvector, IrrationalEigenvalue) as e:
        e.flag_depth = len(vectors)
        raise
    return vectors, _certify(degrees, vectors, certify)


def _certify(degrees: list, vectors, certify) -> list[list[tuple]]:
    """The columns of T^-1 M T, the flag's output, for each sparse map M
    (``_map_of``) in ``certify``: column j as (z, den), z a sparse integer
    vector ``{i: x}`` with no zero entry over the positive den, checked to
    have every i <= j.  T has as columns the flag ``vectors``, each a
    sparse integer vector of the space with the coordinate degrees
    ``degrees`` with its positive denominator, and must be invertible
    with each column homogeneous.

    No n x n product is formed, and the arithmetic is in integers.  The
    vectors' numerators u_i, inserted into one tracked ``_Echelon``,
    reduce to the identity, so its transform is (U^T)^-1: row r of it,
    brought to the lcm l of its rows' leads, is l times column r of U^-1,
    sparse and keyed by flag index.  Column j of T^-1 M T is T^-1 y for
    y = M t_j, the combination of those rows at y's nonzero entries,
    formed from M's sparse columns, times e_i at flag index i for t_i =
    u_i / e_i; its entries at i > j must vanish, and the one at j is M's
    weight.  A flag vector is visited only for the maps with a nonzero
    column at one of its coordinates, through an index of the vectors by
    coordinate; the other images are empty, and share one empty column."""
    n = len(degrees)
    ech = _Echelon(n, (u for u, _ in vectors), track=True)
    if len(vectors) != n or len(ech.pivots) < n:
        raise TheoremViolation("flag vectors do not form a basis")
    touching: list[list[int]] = [[] for _ in range(n)]
    for j, (u, _) in enumerate(vectors):
        if len({degrees[i] for i, x in u.items() if x}) != 1:
            raise TheoremViolation("flag vector is not homogeneous")
        for i, x in u.items():
            if x:
                touching[i].append(j)
    # full rank: row k of the echelon has pivot k
    lcm = math.lcm(*[row[k] for k, row in enumerate(ech.int_rows)])
    inverse_rows = [{i - n: x * (lcm // row[k]) for i, x in row.items() if i >= n}
                    for k, row in enumerate(ech.int_rows)]
    scales = [e for _, e in vectors]
    empty = ({}, 1)
    columns = []
    for _, cols, den in certify:
        out = [empty] * n
        met = {j for c, col in enumerate(cols) if col for j in touching[c]}
        for j in met:
            u, e = vectors[j]
            y = _sum_of(cols, u)
            if y:
                z = _sum_of(inverse_rows, y)
                z = {i: x * scales[i] for i, x in z.items() if x}
                if max(z, default=j) > j:
                    raise TheoremViolation("matrix is not upper triangular in the flag basis")
                out[j] = z, den * e * lcm
        columns.append(out)
    return columns


def ideal_chain(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> IdealChain:
    """Chain of color ideals with dim L_i = i, from the flag of the
    adjoint action.

    ad acts on L's own graded coordinate space, in pivot coordinates (see
    ``colorlie.algebra``) ordered stably by degree (``_profile_order``),
    so its flag vectors are literally elements of L; a subspace invariant
    under every ad x is exactly a color ideal.
    The maps are read off the structure-constant table: ad of L's basis
    adapted to [L, L] (``_derived_coords``), whose first dim [L, L]
    entries span ad [L, L] = [ad L, ad L], since ad is a homomorphism.
    Those drive phase 1 and the rest phase 2 (see the module docstring);
    ad L is never built as an algebra.  The flag is certified with those
    same maps, ad of a basis of L, so every prefix is ad-invariant, hence
    an ideal.

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
    if check_hypotheses:
        degrees, nil, _, _ = _flag_maps(L)
        _engel_phase(L, degrees, nil, [], True, nil_policy, seed)
    if L.dim == 0:
        return IdealChain((Subspace(L, []),))

    degrees, order, ads = _chain_maps(L)
    k = _square(L).dim
    levels = _engel_phase(
        L, degrees, ads[:k], ads[k:], check_hypotheses, nil_policy, seed
    )
    vectors, _ = _lie_phase(degrees, levels, ads, check_hypotheses)

    # the prefixes, each a copy of one growing echelon; the certificate
    # checked that the flag vectors form a basis, so each adds a row, and
    # a span ignores their denominators.  Its rows are converted to
    # Fractions before each copy, so the members share them
    grown = _Echelon(L.dim)
    chain = [Subspace(L, [])]
    for v, _ in vectors:
        grown.add({order[i]: x for i, x in v.items()})
        grown.convert()
        sub = Subspace(L, [])
        sub._ech = grown.copy()
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
    derived = _square(L)
    derived_zero = derived.dim == 0
    nil_vacuous = all(
        nil_subspace_check(
            [flatten_map(f) for f in derived.elements() if f.degree == g]
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
