"""Constructive structure theory for linear Lie color algebras.

The two main engines are the common-annihilated-vector search for nil
algebras (Engel-type) and the common-homogeneous-eigenvector search for
solvable algebras over torsion-free gradings (Lie-type).  The eigenvector
search runs the classical four-step argument as one loop up a chain:

  1. refine the derived series once into a homogeneous basis b_1..b_m,
     deepest term first, so that every C_i = <b_1..b_i> is a color ideal
     of codimension one in C_{i+1};
  2. start from W = V, the joint weight space of C_0 = 0;
  3. restrict b_{i+1} to W, the joint weight space of C_i, which is
     stable because C_i is an ideal of C_{i+1} (checked exactly by the
     restriction);
  4. narrow W to an eigenspace of b_{i+1}: for nonzero degree this is the
     graded kernel (any homogeneous eigenvector of a degree-shifting map
     has eigenvalue zero), for degree zero the eigenspace, on every
     component, of a rational eigenvalue of some diagonal block.

After the last step W is the joint weight space of L, so any homogeneous
vector in it is a common eigenvector.  Everything is verified exactly; a
conclusion failing after its hypotheses were checked raises
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
    of the kernels is guaranteed nonzero; it is computed directly as a
    graded kernel rather than by replaying the inductive existence proof.
    """
    _require_closed(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    if check_hypotheses:
        _check_nil_components(L, L, "algebra", nil_policy, seed)
    kern = graded_kernel(L.basis, space=L.space)
    if not kern:
        if check_hypotheses:
            raise TheoremViolation(
                "nil algebra with no common annihilated vector"
            )
        raise NoHomogeneousEigenvector(
            "no nonzero homogeneous vector is annihilated by the algebra"
        )
    return kern[0]


def engel_check(
    L: ColorAlgebra, nil_policy: str = "auto", seed: int = 0
) -> EngelReport:
    """Check ad-nilpotency of all homogeneous elements and nilpotency of
    the algebra; when both hold and L is nonzero, produce a central
    witness and assert the implication between them."""
    _require_closed(L)
    ad_l = ad_representation(L)
    all_ad = all(
        nil_subspace_check(
            _component_matrices(ad_l.basis_of_degree(g)), policy=nil_policy, seed=seed
        )
        for g in ad_l.degrees()
    )
    nilpotent = lower_central_series(L)[-1].dim == 0
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
    chain, found by narrowing W = V one chain element at a time."""
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


def _check_solvable(L: ColorAlgebra, nil_policy: str, seed: int) -> list[Subspace]:
    """Derived series of L, after checking that it ends in zero and that
    the components of [L, L] are nil."""
    series = derived_series(L)
    if series[-1].dim != 0:
        raise NotSolvable("algebra is not solvable")
    derived = series[1] if len(series) > 1 else series[0]
    _check_nil_components(L, derived, "derived subalgebra", nil_policy, seed)
    return series


def _check_triangularization_hypotheses(
    L: ColorAlgebra, nil_policy: str, seed: int
) -> list[Subspace]:
    _require_closed(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    if not L.space.group.is_torsion_free():
        raise TorsionGrading(
            "grading group has torsion; triangularization can fail "
            "(run the cyclic-group demo for a 3-dimensional example)"
        )
    return _check_solvable(L, nil_policy, seed)


def common_homogeneous_eigenvector(
    L: ColorAlgebra,
    check_hypotheses: bool = True,
    nil_policy: str = "auto",
    seed: int = 0,
) -> tuple[GradedVector, Weight]:
    """Common homogeneous eigenvector of a solvable algebra over a
    torsion-free grading, with the weight functional on L's basis.

    The weight is read off by applying every basis element of L to the
    vector, which also certifies that it is a common eigenvector.
    """
    _require_closed(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    if check_hypotheses:
        series = _check_triangularization_hypotheses(L, nil_policy, seed)
    else:
        series = derived_series(L)
    if series[-1].dim != 0:
        raise NotSolvable("algebra is not solvable")
    v0 = _chain_eigenvector(
        L.space, _derived_chain(L, series), strict=check_hypotheses
    )

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


def _quotient_by_line(comp) -> tuple[Matrix, Matrix]:
    """Projection and section for quotienting one component by a line."""
    n = len(comp)
    p = next(i for i, x in enumerate(comp) if x != 0)
    others = [j for j in range(n) if j != p]
    proj_rows = []
    for j in others:
        row = [_ZERO] * n
        row[j] = _ONE
        row[p] = -comp[j] / comp[p]
        proj_rows.append(row)
    proj = Matrix(proj_rows, cols=n)
    sect = Matrix.from_columns(
        [tuple(_ONE if i == j else _ZERO for i in range(n)) for j in others],
        rows=n,
    )
    return proj, sect


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
    triangular, obtained by repeatedly splitting off a common homogeneous
    eigenvector and passing to the graded quotient.

    The chain adapted to the derived series is computed once and pushed
    through each quotient.  The result is verified exactly: the change of
    basis is applied to every basis element of L, strict lower entries
    must vanish and the weights are read off the diagonal.
    """
    _require_closed(L)
    if check_hypotheses:
        series = _check_triangularization_hypotheses(L, nil_policy, seed)
    else:
        series = derived_series(L)
    if L.space.total_dim == 0:
        raise EmptySpace("the representation space is zero")
    return _flag(L, series, check_hypotheses)


def _flag(L: ColorAlgebra, series: list[Subspace], strict: bool) -> ColorFlag:
    """The flag of a nonzero space from L's derived series; ``strict``
    failures raise TheoremViolation, others NoHomogeneousEigenvector."""
    flag_vectors: list[GradedVector] = []
    chain = _derived_chain(L, series)
    cur_space = L.space
    lift = {g: Matrix.identity(n) for g, n in L.space.dims}
    depth = 0

    try:
        if series[-1].dim != 0:
            raise NotSolvable("algebra is not solvable")
        while cur_space.total_dim > 0:
            v = _chain_eigenvector(cur_space, chain, strict=strict)
            d = v.degree()
            comp = v.components[0][1]
            flag_vectors.append(
                _vector(L.space, {d: tuple(lift[d].apply(comp))})
            )

            proj, sect, new_dims = {}, {}, {}
            for g, n in cur_space.dims:
                if g == d:
                    p, s = _quotient_by_line(comp)
                else:
                    p, s = Matrix.identity(n), Matrix.identity(n)
                proj[g], sect[g] = p, s
                if p.rows > 0:
                    new_dims[g] = p.rows
            new_space = (
                make_space(L.space.group, new_dims)
                if new_dims
                else GradedSpace(L.space.group, ())
            )

            chain = [_induced_map(new_space, proj, sect, f) for f in chain]
            lift = {
                g: lift[g] * sect[g]
                for g, _ in new_space.dims
            }
            cur_space = new_space
            depth += 1
    except (TheoremViolation, NoHomogeneousEigenvector,
            IrrationalEigenvalue, HypothesisFailed) as e:
        e.flag_depth = depth
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
    nilpotent, so ad L inherits them.
    """
    _require_closed(L)
    if check_hypotheses:
        if not L.space.group.is_torsion_free():
            raise TorsionGrading("grading group has torsion")
        series = _check_solvable(L, nil_policy, seed)
    else:
        series = derived_series(L)
    if L.dim == 0:
        return IdealChain((Subspace(L, [], _validate=False),))

    ad_l = ad_representation(L)
    flag = _flag(ad_l, _ad_series(L, ad_l, series), strict=check_hypotheses)

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
