"""Constructive structure theory for linear Lie color algebras.

The two main engines are the common-annihilated-vector search for nil
algebras (Engel-type) and the flag of a solvable algebra over a
torsion-free grading (Lie-type).  The flag is built in two phases, after
the derived series is refined once into a homogeneous basis b_1..b_m,
deepest term first, so that every C_i = <b_1..b_i> is a color ideal of
codimension one in C_{i+1}; its first dim [L, L] entries span [L, L].

  1. Engel: K_0 = 0 and K_{j+1} = {v : [L, L] v in K_j}, each level the
     common graded kernel of [L, L] on V/K_j, quotiented in one step.
     [L, L] is an ideal, so every K_j is L-invariant, and [L, L] acts as
     zero on every factor K_{j+1}/K_j.
  2. Lie: on each factor the rest of the chain acts as a color-commuting
     family.  A common homogeneous eigenvector is found by narrowing
     W = the factor one chain element at a time: for nonzero degree to
     its graded kernel (a homogeneous eigenvector of a degree-shifting
     map has eigenvalue zero), for degree zero to the eigenspace, on
     every component, of a rational eigenvalue of some diagonal block.
     The factor is flagged line by line through its graded quotients and
     the vectors are lifted back to V.

The whole filtration is computed before any eigenvalue is searched for.
When it reaches V it is an exact certificate that [L, L] acts
nilpotently, so every component of [L, L] is nil, and no point-based nil
check runs.  When it stops below V, no homogeneous flag exists: in any
such flag [L, L] is strictly upper triangular (a map of nonzero degree
has zero diagonal, and for degree zero r(0, 0) = 1 cancels the diagonal
of ab - ba).  Only then is ``nil_subspace_check`` run, to tell a failed
hypothesis from a violated theorem.

The flag itself is verified exactly in the end; a conclusion failing
after its hypotheses were checked raises TheoremViolation.
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
    _map,
    _vector,
    apply,
    flatten_map,
    flatten_vector,
    graded_kernel,
    homogeneous_eigenvalues,
    make_map,
    make_space,
    nilpotent_by_grading,
    unflatten_vector,
)
from .algebra import (
    ColorAlgebra,
    Subspace,
    _GradedEchelon,
    _SpanSolver,
    ad_map,
    ad_representation,
    bracket_closure,
    bracket_subspaces,
    center,
    derived_series,
    full_subspace,
    lower_central_series,
    _require_closed,
)
from .linalg import (
    Matrix,
    Poly,
    char_poly,
    inverse,
    kernel_basis,
    nil_subspace_check,
    rational_roots,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        vals = tuple(Fraction(v) for v in self.values)
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


def _check_nil_components(L: ColorAlgebra, sub, what: str, policy: str, seed: int):
    elements = sub.elements() if isinstance(sub, Subspace) else sub.basis
    for g in sub.degrees():
        mats = _component_matrices([f for f in elements if f.degree == g])
        if not nil_subspace_check(mats, policy=policy, seed=seed):
            raise HypothesisFailed(
                f"{what} component at degree {g} contains non-nilpotent elements"
            )


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
    levels = _kernel_filtration(L.space, L.basis, [])
    if check_hypotheses:
        levels = list(levels)
        if _filtration_dim(levels) < L.space.total_dim:
            _check_nil_components(L, L, "algebra", nil_policy, seed)
            raise TheoremViolation("nil algebra does not act nilpotently")
    first = next(iter(levels), None)
    if first is None:
        raise NoHomogeneousEigenvector(
            "no nonzero homogeneous vector is annihilated by the algebra"
        )
    space, _, lift = first
    g = space.degrees[0]
    return _lift(L.space, lift, g, (_ONE,) + (_ZERO,) * (space.dim_of(g) - 1))


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


def _derived_chain(L: ColorAlgebra, series: list[Subspace]) -> list[HomogeneousMap]:
    """Homogeneous basis b_1..b_m of L adapted to its derived series,
    deepest term first, then each term's extension to the next.

    Each span C_i = <b_1..b_i> lies between consecutive terms D_{j+1} and
    D_j, so [C_{i+1}, C_i] lies in [D_j, D_j] = D_{j+1}, inside C_i: every
    C_i is a codimension-one color ideal of C_{i+1}.  When L is not
    solvable the chain starts with a basis of the last, perfect term.
    """
    ech = _GradedEchelon(L.space)
    levels = [s.elements() for s in reversed(series[1:])] + [L.basis]
    return [f for level in levels for f in level if ech.add_map(f)]


def codim_one_ideal(
    L: ColorAlgebra, check_hypotheses: bool = True
) -> tuple[Subspace, HomogeneousMap]:
    """Color ideal K with dim K = dim L - 1 and a homogeneous z with
    L = K + F z.

    With b_1..b_m the basis adapted to the derived series, K is spanned by
    b_1..b_{m-1} and z = b_m is a basis element of L outside [L, L]; any
    subspace containing [L, L] is an ideal, which also covers abelian L.
    """
    _require_closed(L)
    if L.dim == 0:
        raise ZeroAlgebra("the zero algebra has no codimension-one ideal")
    series = derived_series(L)
    if check_hypotheses and series[-1].dim != 0:
        raise NotSolvable("algebra is not solvable")
    if len(series) == 1:
        raise NotSolvable("derived subalgebra equals the whole algebra")
    chain = _derived_chain(L, series)
    return Subspace(L, chain[:-1], _validate=False), chain[-1]


class _NotInvariant(Exception):
    pass


class _EmbeddedSubspace:
    """Graded subspace of V presented by per-degree coordinate bases,
    with exact restriction of invariant maps to subspace coordinates.
    Each component's basis is independent, so coordinates are unique and
    one solver per component, eliminated once, serves every column."""

    def __init__(self, ambient: GradedSpace, bases: dict):
        self.ambient = ambient
        self.bases = {g: list(vs) for g, vs in bases.items() if vs}
        dims = {g: len(vs) for g, vs in self.bases.items()}
        if dims:
            self.space = make_space(ambient.group, dims)
        else:
            self.space = GradedSpace(ambient.group, ())
        self.embed = {
            g: Matrix.from_columns(vs, rows=ambient.dim_of(g))
            for g, vs in self.bases.items()
        }
        self.solvers = {g: _SpanSolver(vs) for g, vs in self.bases.items()}

    @property
    def total_dim(self) -> int:
        return sum(len(vs) for vs in self.bases.values())

    def restrict(self, f: HomogeneousMap) -> HomogeneousMap:
        blocks = {}
        for g in self.space.degrees:
            src = self.embed[g]
            target = element_add(g, f.degree)
            w_t = self.space.dim_of(target)
            amb_block = f.block(g)
            cols = []
            for j in range(src.cols):
                img = amb_block.apply(tuple(src.data[i][j] for i in range(src.rows)))
                if w_t == 0:
                    if any(x != 0 for x in img):
                        raise _NotInvariant
                    continue
                coords = self.solvers[target].solve(img)
                if coords is None:
                    raise _NotInvariant
                cols.append(coords)
            if w_t > 0 and cols:
                blocks[g] = Matrix.from_columns(cols, rows=w_t)
        return _map(self.space, f.degree, blocks)

    def eigenspace(self, f_res: HomogeneousMap, lam: Fraction) -> "_EmbeddedSubspace":
        """Vectors w with f w = lam w, given f's restriction f_res to this
        subspace; a map of nonzero degree is only asked for its kernel.
        Every component is narrowed, so a joint weight space stays one."""
        bases = {}
        for g in self.space.degrees:
            m = f_res.block(g)
            if f_res.degree.is_zero():
                m = m - Matrix.identity(m.cols).scale(lam)
            bases[g] = [self.embed[g].apply(k) for k in kernel_basis(m)]
        return _EmbeddedSubspace(self.ambient, bases)

    def quotient(self) -> tuple[GradedSpace, dict, dict]:
        """The graded quotient of the ambient space by this subspace,
        with per-degree projection and section."""
        return _quotient(self.ambient, {
            g: _span_quotient(s, self.ambient.dim_of(g))
            for g, s in self.solvers.items()
        })


def _span_quotient(solver: _SpanSolver, n: int) -> tuple[Matrix, Matrix]:
    """Projection and section for quotienting F^n by the span reduced in
    ``solver``.  The kept coordinates are the non-pivot columns; a vector
    x of the span is sum x[p_k] r_k over the reduced rows r_k with pivots
    p_k, so coordinate c of the projection is x[c] - sum x[p_k] r_k[c]."""
    pivots = set(solver.pivots)
    kept = [c for c in range(n) if c not in pivots]
    proj_rows = []
    for c in kept:
        row = [_ZERO] * n
        row[c] = _ONE
        for p, r in zip(solver.pivots, solver.rows):
            row[p] = -r[c]
        proj_rows.append(row)
    proj = Matrix(proj_rows, cols=n)
    sect = Matrix.from_columns(
        [tuple(_ONE if i == c else _ZERO for i in range(n)) for c in kept],
        rows=n,
    )
    return proj, sect


def _quotient_by_line(comp) -> tuple[Matrix, Matrix]:
    """Projection and section for quotienting one component by a line."""
    return _span_quotient(_SpanSolver([list(comp)]), len(comp))


def _quotient(space: GradedSpace, cuts: dict) -> tuple[GradedSpace, dict, dict]:
    """Quotient space with the (projection, section) pair of every degree:
    ``cuts`` gives them where the subspace meets a component, the others
    pass through unchanged."""
    proj, sect, dims = {}, {}, {}
    for g, n in space.dims:
        p, s = cuts[g] if g in cuts else (Matrix.identity(n), Matrix.identity(n))
        proj[g], sect[g] = p, s
        if p.rows > 0:
            dims[g] = p.rows
    new = make_space(space.group, dims) if dims else GradedSpace(space.group, ())
    return new, proj, sect


def _lift(space: GradedSpace, lift: dict, d, comp) -> GradedVector:
    return _vector(space, {d: tuple(lift[d].apply(comp))})


def _kernel_filtration(space: GradedSpace, nil, top):
    """Phase 1 (Engel): the levels K_1 < K_2 < ... of V, each K_{j+1}/K_j
    the common graded kernel of ``nil`` on V/K_j, lazily.

    Each level is yielded as its factor space, the ``top`` maps restricted
    to it and the lift from factor coordinates to V, and V/K_{j+1} is
    formed in one step.  ``nil`` must span an ideal of the algebra the
    maps come from, so every level is invariant; the levels stop at V or
    at the first empty kernel.
    """
    lift = {g: Matrix.identity(n) for g, n in space.dims}
    cur = space
    while cur.total_dim > 0:
        bases: dict = {}
        for v in graded_kernel(nil, space=cur):
            g, comp = v.components[0]
            bases.setdefault(g, []).append(comp)
        if not bases:
            return
        w = _EmbeddedSubspace(cur, bases)
        try:
            top_res = [w.restrict(f) for f in top]
        except _NotInvariant:
            raise TheoremViolation("a kernel level of an ideal is not invariant")
        yield w.space, top_res, {g: lift[g] * w.embed[g] for g in w.space.degrees}
        cur, proj, sect = w.quotient()
        nil = [_induced_map(cur, proj, sect, f) for f in nil]
        top = [_induced_map(cur, proj, sect, f) for f in top]
        lift = {g: lift[g] * sect[g] for g in cur.degrees}


def _filtration_dim(levels) -> int:
    return sum(space.total_dim for space, _, _ in levels)


def _rational_eigenvalue(f_res: HomogeneousMap) -> Fraction:
    first_irrational: Poly | None = None
    for report in homogeneous_eigenvalues(f_res):
        if report.pairs:
            return report.pairs[0][0]
        if first_irrational is None:
            first_irrational = report.irrational_factor
    raise IrrationalEigenvalue(
        "no rational eigenvalue on any component of the weight space "
        f"(characteristic factor {first_irrational})",
        first_irrational,
    )


def _chain_eigenvector(space: GradedSpace, chain, strict: bool) -> GradedVector:
    """Homogeneous vector in the joint weight space of the span of the
    chain, found by narrowing W = V one chain element at a time.  A line
    is its own joint weight space: there a map of nonzero degree is zero
    and one of degree zero a scalar."""
    if space.total_dim == 1:
        return _vector(space, {space.degrees[0]: (_ONE,)})
    w = _EmbeddedSubspace(space, {g: Matrix.identity(n).data for g, n in space.dims})
    for b in chain:
        if b.is_zero():
            continue
        try:
            b_res = w.restrict(b)
        except _NotInvariant:
            if strict:
                raise TheoremViolation("algebra does not stabilize the weight space")
            raise NoHomogeneousEigenvector(
                "the algebra does not stabilize the candidate weight space"
            )
        lam = _rational_eigenvalue(b_res) if b.degree.is_zero() else _ZERO
        w = w.eigenspace(b_res, lam)
        if w.total_dim == 0:
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
    return _vector(space, {g: vs[0]})


def _derived(series: list[Subspace]) -> Subspace:
    """[L, L] from the derived series (L itself when L is perfect or 0)."""
    return series[1] if len(series) > 1 else series[0]


def _check_solvable(L: ColorAlgebra) -> list[Subspace]:
    """Derived series of L, after checking that it ends in zero.  That
    the components of [L, L] are nil is certified by the kernel
    filtration (``_engel_phase``)."""
    series = derived_series(L)
    if series[-1].dim != 0:
        raise NotSolvable("algebra is not solvable")
    return series


def _check_triangularization_hypotheses(L: ColorAlgebra) -> list[Subspace]:
    _require_closed(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    if not L.space.group.is_torsion_free():
        raise TorsionGrading(
            "grading group has torsion; triangularization can fail "
            "(run the cyclic-group demo for a 3-dimensional example)"
        )
    return _check_solvable(L)


def _stall(L, series, depth, strict, nil_policy, seed):
    """Raise for a kernel filtration of [L, L] that stopped at dimension
    ``depth`` below V.  No homogeneous flag exists then (see the module
    docstring); with the hypotheses checked, the nil check tells a
    non-nil component of [L, L] (HypothesisFailed) from a bug."""
    if series[-1].dim != 0:
        err = NotSolvable("algebra is not solvable")
    elif strict:
        _check_nil_components(
            L, _derived(series), "derived subalgebra", nil_policy, seed
        )
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


def _engel_phase(L, series, nil, top, strict, nil_policy, seed) -> list:
    """The whole kernel filtration of ``nil`` (a basis of [L, L]) on V,
    or the stall error."""
    levels = list(_kernel_filtration(L.space, nil, top))
    depth = _filtration_dim(levels)
    if depth < L.space.total_dim:
        _stall(L, series, depth, strict, nil_policy, seed)
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
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    if check_hypotheses:
        series = _check_triangularization_hypotheses(L)
    else:
        series = derived_series(L)
    if series[-1].dim != 0:
        raise NotSolvable("algebra is not solvable")
    chain = _derived_chain(L, series)
    k = _derived(series).dim
    if check_hypotheses:
        levels = _engel_phase(L, series, chain[:k], chain[k:], True, nil_policy, seed)
    else:
        levels = _kernel_filtration(L.space, chain[:k], chain[k:])
    first = next(iter(levels), None)
    if first is None:
        _stall(L, series, 0, False, nil_policy, seed)
    space, top, lift = first
    v = _chain_eigenvector(space, top, strict=check_hypotheses)
    d = v.degree()
    v0 = _lift(L.space, lift, d, v.component(d))

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


def _induced_map(
    new_space: GradedSpace, proj: dict, sect: dict, f: HomogeneousMap
) -> HomogeneousMap:
    blocks = {}
    for h in new_space.degrees:
        target = element_add(h, f.degree)
        if new_space.dim_of(target) == 0:
            continue
        blocks[h] = proj[target] * f.block(h) * sect[h]
    return _map(new_space, f.degree, blocks)


def color_flag(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> ColorFlag:
    """Homogeneous basis of V in which every element of L is upper
    triangular, built in two phases (see the module docstring): the
    kernel filtration of [L, L] first, then each factor flagged line by
    line, splitting off a common homogeneous eigenvector of the rest of
    the chain and passing to the graded quotient.

    A filtration that reaches V certifies that [L, L] is nil, so
    ``nil_policy`` and ``seed`` are used only when it stops below V.  The
    result is verified exactly: the change of basis is applied to every
    basis element of L, strict lower entries must vanish and the weights
    are read off the diagonal.
    """
    _require_closed(L)
    if check_hypotheses:
        series = _check_triangularization_hypotheses(L)
    else:
        series = derived_series(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    return _flag(L, series, check_hypotheses, nil_policy, seed)


def _flag(
    L: ColorAlgebra, series: list[Subspace], strict: bool, nil_policy: str, seed: int
) -> ColorFlag:
    """The flag of a nonzero space from L's derived series; ``strict``
    failures raise TheoremViolation, others NoHomogeneousEigenvector.  A
    failure records in ``flag_depth`` the dimension reached: dim K_j on a
    stall of the filtration, else the number of flag vectors found."""
    chain = _derived_chain(L, series)
    k = _derived(series).dim
    levels = _engel_phase(L, series, chain[:k], chain[k:], strict, nil_policy, seed)
    flag_vectors: list[GradedVector] = []
    try:
        for space, top, lift in levels:
            while space.total_dim > 0:
                v = _chain_eigenvector(space, top, strict=strict)
                d = v.degree()
                comp = v.components[0][1]
                flag_vectors.append(_lift(L.space, lift, d, comp))
                space, proj, sect = _quotient(space, {d: _quotient_by_line(comp)})
                top = [_induced_map(space, proj, sect, f) for f in top]
                lift = {g: lift[g] * sect[g] for g in space.degrees}
    except (TheoremViolation, NoHomogeneousEigenvector, IrrationalEigenvalue) as e:
        e.flag_depth = len(flag_vectors)
        raise

    n = L.space.total_dim
    t = Matrix.from_columns([flatten_vector(v) for v in flag_vectors], rows=n)
    try:
        t_inv = inverse(t)
    except ValueError:
        raise TheoremViolation("flag vectors do not form a basis")
    mats = [t_inv * flatten_map(b) * t for b in L.basis]
    for m in mats:
        if any(m.data[rr][cc] != 0 for rr in range(n) for cc in range(rr)):
            raise TheoremViolation(
                "matrix is not upper triangular in the flag basis"
            )
    weights = tuple(
        Weight(L, tuple(m.data[k][k] for m in mats)) for k in range(n)
    )
    return ColorFlag(tuple(flag_vectors), weights)


def _ad_series(
    L: ColorAlgebra, ad_l: ColorAlgebra, series: list[Subspace]
) -> list[Subspace]:
    """Derived series of ad L from L's: ad is a homomorphism, so ad of
    each term of L's series is the matching term of ad L's.  Terms whose
    difference lies in the center of L map to equal images; the series
    stops at the first repeat, as ``derived_series`` does."""
    out = [full_subspace(ad_l)]
    for term in series[1:]:
        image = Subspace(ad_l, [ad_map(L, x) for x in term.elements()], _validate=False)
        if image.dim == out[-1].dim:
            break
        out.append(image)
    return out


def ideal_chain(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> IdealChain:
    """Chain of color ideals with dim L_i = i, from the flag of the
    adjoint representation.

    The adjoint algebra acts on L's own graded coordinate space, so its
    flag vectors are literally elements of L; a subspace invariant under
    every ad x is exactly a color ideal.  The flag's verified triangular
    form makes every prefix ad-invariant, hence an ideal.

    The hypotheses are checked on L only: ad is a homomorphism with
    ad([L, L]_g) = [ad L, ad L]_g and ad of a nilpotent element is
    nilpotent, so ad L inherits them.  That [L, L] is nil is certified by
    phase 1 of L's own flag, the kernel filtration of [L, L] on V, with no
    eigenvalue search; ad L's filtration cannot stand in for it, since ad
    kills the center and with it any central non-nilpotent element.
    ``nil_policy`` and ``seed`` are used only when a filtration stalls.
    """
    _require_closed(L)
    if check_hypotheses:
        if not L.space.group.is_torsion_free():
            raise TorsionGrading("grading group has torsion")
        series = _check_solvable(L)
        _engel_phase(
            L, series, _derived(series).elements(), [], True, nil_policy, seed
        )
    else:
        series = derived_series(L)
    if L.dim == 0:
        return IdealChain((Subspace(L, [], _validate=False),))

    ad_l = ad_representation(L)
    flag = _flag(
        ad_l, _ad_series(L, ad_l, series), check_hypotheses, nil_policy, seed
    )

    elements = []
    for v in flag.ordered_basis:
        d = v.degree()
        comp = v.component(d)
        coords = [_ZERO] * L.dim
        for idx, c in zip(L.basis_indices_of_degree(d), comp):
            coords[idx] = c
        elements.append(L.from_coordinates(coords))

    chain = [Subspace(L, [], _validate=False)]
    for i in range(1, len(elements) + 1):
        sub = Subspace(L, elements[:i], _validate=False)
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
