"""Lie color algebras presented concretely as bracket-closed spans of
homogeneous maps on a graded space.

The bracket is [a, b] = a b - r(|b|, |a|) b a with r the bicharacter of
the grading group.  Subspace arithmetic echelonizes flattened matrix
coordinates separately per degree, so every stored basis is homogeneous.

Spans are built by bracketing each unordered pair of basis elements at
most once.  ``make_bicharacter`` checks r(g, h) r(h, g) = 1, so color
skew symmetry gives [b, a] = -r(|a|, |b|) [a, b]: once [a, b] lies in a
span, [b, a] does too.  The diagonal pair is kept, since under a super
grading [a, a] = 2 a^2 need not vanish.
"""

from __future__ import annotations

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
    _map,
    add_maps,
    compose,
    flatten_map,
    make_space,
    map_power,
    scale_map,
    unflatten_map,
    zero_map,
)
from .linalg import Matrix, is_nilpotent_matrix, kernel_basis

_ZERO = Fraction(0)
_ONE = Fraction(1)


def color_bracket(r: Bicharacter, a: HomogeneousMap, b: HomogeneousMap) -> HomogeneousMap:
    """[a, b] = a b - r(|b|, |a|) b a; the degree is |a| + |b|."""
    if a.space != b.space:
        raise SpaceMismatch("bracket of maps on different spaces")
    if r.spec != a.space.group:
        raise GroupMismatch("bicharacter group differs from the grading group")
    s = eval_bicharacter(r, b.degree, a.degree)
    ab = compose(a, b)
    blocks = dict(ab.blocks)
    for h, m in compose(b, a).blocks:
        p = blocks.get(h)
        if p is None:
            blocks[h] = m.scale(-s)
        else:
            blocks[h] = Matrix._raw(
                tuple(
                    tuple(x - s * y for x, y in zip(rp, rm))
                    for rp, rm in zip(p.data, m.data)
                ),
                m.cols,
            )
    return _map(a.space, ab.degree, blocks)


class _GradedEchelon:
    """Reduced echelon bases of spans of homogeneous maps, kept separately
    per degree over flattened matrix coordinates."""

    def __init__(self, space: GradedSpace):
        self.space = space
        self.rows: dict[GroupElement, list[tuple[int, list[Fraction]]]] = {}

    def _reduce(self, degree: GroupElement, vec: list[Fraction]) -> list[Fraction]:
        for pivot, row in self.rows.get(degree, ()):
            c = vec[pivot]
            if c != 0:
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def add_map(self, f: HomogeneousMap) -> bool:
        flat = [x for row in flatten_map(f).data for x in row]
        return self.add_vector(f.degree, flat)

    def add_vector(self, degree: GroupElement, vec: list[Fraction]) -> bool:
        vec = self._reduce(degree, list(vec))
        pivot = next((i for i, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            return False
        inv = 1 / vec[pivot]
        vec = [x * inv for x in vec]
        rows = self.rows.setdefault(degree, [])
        for k, (p, row) in enumerate(rows):
            c = row[pivot]
            if c != 0:
                rows[k] = (p, [a - c * b for a, b in zip(row, vec)])
        rows.append((pivot, vec))
        rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, f: HomogeneousMap) -> bool:
        flat = [x for row in flatten_map(f).data for x in row]
        return all(x == 0 for x in self._reduce(f.degree, flat))

    def dim(self) -> int:
        return sum(len(v) for v in self.rows.values())

    def degrees(self) -> list[GroupElement]:
        return sorted(self.rows, key=lambda g: g.sort_key())

    def maps(self) -> list[HomogeneousMap]:
        n = self.space.total_dim
        out = []
        for g in self.degrees():
            for _, vec in self.rows[g]:
                m = Matrix([vec[i * n : (i + 1) * n] for i in range(n)], cols=n)
                out.append(unflatten_map(self.space, g, m))
        return out

    def canonical_rows(self) -> dict:
        return {
            g: tuple(tuple(row) for _, row in rows)
            for g, rows in self.rows.items()
            if rows
        }


class _SpanSolver:
    """Precomputed reduction data for solving coordinates in a fixed span
    of linearly independent vectors.

    Gauss-Jordan is run once on the stacked vectors while tracking the
    transform T with R = T V; a query reduces the target against the
    echelon rows R and maps the reduction coefficients back through T.
    """

    def __init__(self, vectors: list[list[Fraction]]):
        self.size = len(vectors)
        rows = [list(v) for v in vectors]
        transform = [
            [_ONE if i == j else _ZERO for j in range(self.size)]
            for i in range(self.size)
        ]
        width = len(rows[0]) if rows else 0
        pivots = []
        r = 0
        for c in range(width):
            if r == self.size:
                break
            pr = next((i for i in range(r, self.size) if rows[i][c] != 0), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            transform[r], transform[pr] = transform[pr], transform[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            transform[r] = [x * inv for x in transform[r]]
            for i in range(self.size):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                    transform[i] = [
                        x - f * y for x, y in zip(transform[i], transform[r])
                    ]
            pivots.append(c)
            r += 1
        self.independent = len(pivots) == self.size
        self.pivots = pivots
        self.rows = rows
        self.transform = transform

    def solve(self, target) -> tuple[Fraction, ...] | None:
        t = list(target)
        if not any(t):
            return (_ZERO,) * self.size
        coeffs = []
        for k, c in enumerate(self.pivots):
            a = t[c]
            coeffs.append(a)
            if a:
                for i, y in enumerate(self.rows[k]):
                    if y:
                        t[i] -= a * y
        if any(t):
            return None
        out = [_ZERO] * self.size
        for k, a in enumerate(coeffs):
            if a:
                for i, y in enumerate(self.transform[k]):
                    if y:
                        out[i] += a * y
        return tuple(out)


class ColorAlgebra:
    """A span of linearly independent homogeneous maps; with closed=True
    the span is verified (or trusted, for internally built algebras) to be
    closed under the color bracket."""

    def __init__(self, space: GradedSpace, r: Bicharacter, basis,
                 closed: bool = False, _validate: bool = True):
        if r.spec != space.group:
            raise GroupMismatch("bicharacter group differs from the grading group")
        basis = tuple(basis)
        for f in basis:
            if f.space != space:
                raise SpaceMismatch("basis map acts on a different space")
        self.space = space
        self.r = r
        self.basis = basis
        self.closed = closed
        self._flat = [
            [x for row in flatten_map(f).data for x in row] for f in basis
        ]
        self._solver = _SpanSolver(self._flat)
        self._profile: GradedSpace | None = None
        if _validate:
            if not self._solver.independent:
                raise ValidationError("basis maps are linearly dependent")
            if closed:
                for i, a in enumerate(basis):
                    for b in basis[i:]:
                        if self.coordinates(color_bracket(r, a, b)) is None:
                            raise NotClosed(
                                "basis is not closed under the bracket"
                            )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self) -> list[GroupElement]:
        seen = []
        for f in self.basis:
            if f.degree not in seen:
                seen.append(f.degree)
        return sorted(seen, key=lambda g: g.sort_key())

    def basis_indices_of_degree(self, g: GroupElement) -> list[int]:
        return [i for i, f in enumerate(self.basis) if f.degree == g]

    def basis_of_degree(self, g: GroupElement) -> list[HomogeneousMap]:
        return [self.basis[i] for i in self.basis_indices_of_degree(g)]

    def coordinates(self, f: HomogeneousMap) -> tuple[Fraction, ...] | None:
        """Coordinates of f in the basis, or None when f is outside the span."""
        if f.space != self.space:
            raise SpaceMismatch("map acts on a different space")
        target = [x for row in flatten_map(f).data for x in row]
        if not self.basis:
            return () if all(x == 0 for x in target) else None
        return self._solver.solve(target)

    def contains(self, f: HomogeneousMap) -> bool:
        return self.coordinates(f) is not None

    def from_coordinates(self, coords) -> HomogeneousMap:
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValidationError("coordinate length mismatch")
        acc = None
        for c, f in zip(coords, self.basis):
            if c == 0:
                continue
            term = scale_map(c, f)
            acc = term if acc is None else add_maps(acc, term)
        if acc is None:
            return zero_map(self.space, self.space.group.identity())
        return acc

    def profile_space(self) -> GradedSpace:
        """The graded space with one dimension per basis element, used by
        the adjoint representation."""
        if self._profile is None:
            dims = {}
            for f in self.basis:
                dims[f.degree] = dims.get(f.degree, 0) + 1
            self._profile = make_space(self.space.group, dims)
        return self._profile


def bracket_closure(space: GradedSpace, r: Bicharacter, generators) -> ColorAlgebra:
    """Smallest bracket-closed span containing the homogeneous generators.

    A worklist, as in semi-naive evaluation (Bancilhon and Ramakrishnan,
    SIGMOD 1986): ``elems`` holds the independent maps found so far, the
    generators first and then every new bracket.  Each ``elems[i]`` is
    bracketed once with ``elems[0..i]``, itself included, and every
    result that enlarges the span is appended.  When the scan reaches
    the end, every unordered pair of a spanning set has been bracketed
    and, by skew symmetry (see the module docstring), every ordered pair
    lies in the span, so the span is closed by bilinearity.  At most
    dim V^2 maps are independent, so the scan ends.
    """
    ech = _GradedEchelon(space)
    elems = []
    for g in generators:
        if g.space != space:
            raise SpaceMismatch("generator acts on a different space")
        if ech.add_map(g):
            elems.append(g)
    i = 0
    while i < len(elems):
        a = elems[i]
        for b in elems[: i + 1]:
            c = color_bracket(r, a, b)
            if not c.is_zero() and ech.add_map(c):
                elems.append(c)
        i += 1
    return ColorAlgebra(space, r, tuple(ech.maps()), closed=True, _validate=False)


class Subspace:
    """Graded subspace of a ColorAlgebra, stored as per-degree echelon
    bases of homogeneous maps."""

    def __init__(self, parent: ColorAlgebra, elements, _validate: bool = True):
        self.parent = parent
        ech = _GradedEchelon(parent.space)
        for f in elements:
            if _validate and not parent.contains(f):
                raise NotInAlgebra("element lies outside the parent algebra")
            ech.add_map(f)
        self._ech = ech

    @property
    def dim(self) -> int:
        return self._ech.dim()

    def is_zero(self) -> bool:
        return self.dim == 0

    def degrees(self) -> list[GroupElement]:
        return self._ech.degrees()

    def dims_by_degree(self) -> dict[GroupElement, int]:
        return {g: len(self._ech.rows[g]) for g in self._ech.degrees()}

    def elements(self) -> list[HomogeneousMap]:
        return self._ech.maps()

    def contains(self, f: HomogeneousMap) -> bool:
        return self._ech.contains(f)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.parent is other.parent
            and self._ech.canonical_rows() == other._ech.canonical_rows()
        )


def full_subspace(L: ColorAlgebra) -> Subspace:
    return Subspace(L, L.basis, _validate=False)


def bracket_subspaces(s: Subspace, t: Subspace) -> Subspace:
    if s.parent is not t.parent:
        raise ParentMismatch("subspaces of different algebras")
    L = s.parent
    out = []
    t_elements = t.elements()
    # [S, S]: the pairs i <= j suffice by skew symmetry
    same = s is t
    for i, a in enumerate(t_elements if same else s.elements()):
        for b in t_elements[i:] if same else t_elements:
            c = color_bracket(L.r, a, b)
            if not c.is_zero():
                out.append(c)
    return Subspace(L, out, _validate=False)


def _require_closed(L: ColorAlgebra):
    if not L.closed:
        raise NotClosed("operation requires a bracket-closed algebra")


def derived_series(L: ColorAlgebra) -> list[Subspace]:
    """L, [L,L], [[L,L],[L,L]], ... until the terms stabilize."""
    _require_closed(L)
    series = [full_subspace(L)]
    while True:
        nxt = bracket_subspaces(series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def lower_central_series(L: ColorAlgebra) -> list[Subspace]:
    """L, [L,L], [L,[L,L]], ... until the terms stabilize."""
    _require_closed(L)
    top = full_subspace(L)
    series = [top]
    while True:
        nxt = bracket_subspaces(top, series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def is_solvable(L: ColorAlgebra) -> bool:
    return derived_series(L)[-1].dim == 0


def is_nilpotent_algebra(L: ColorAlgebra) -> bool:
    return lower_central_series(L)[-1].dim == 0


def center(L: ColorAlgebra) -> Subspace:
    """Z(L) = {x : [x, y] = 0 for all y}, solved exactly; the result is
    graded because homogeneous components of central elements are central."""
    _require_closed(L)
    if L.dim == 0:
        return Subspace(L, [], _validate=False)
    columns = []
    for a in L.basis:
        col: list[Fraction] = []
        for b in L.basis:
            br = color_bracket(L.r, a, b)
            col.extend(x for row in flatten_map(br).data for x in row)
        columns.append(col)
    system = Matrix.from_columns(columns, rows=len(columns[0]))
    out = []
    for coeffs in kernel_basis(system):
        # split the solution into homogeneous components, each central
        for g in L.degrees():
            part = [
                c if L.basis[i].degree == g else _ZERO
                for i, c in enumerate(coeffs)
            ]
            if any(x != 0 for x in part):
                out.append(L.from_coordinates(part))
    return Subspace(L, out, _validate=False)


def ad_map(L: ColorAlgebra, x: HomogeneousMap) -> HomogeneousMap:
    """The map y -> [x, y] written in L's basis, acting on L's own graded
    coordinate space."""
    if L.coordinates(x) is None:
        raise NotInAlgebra("ad of a map outside the algebra")
    profile = L.profile_space()
    blocks = {}
    for h in L.degrees():
        src = L.basis_indices_of_degree(h)
        target = element_add(h, x.degree)
        tgt = L.basis_indices_of_degree(target)
        if not tgt:
            continue
        cols = []
        for j in src:
            br = color_bracket(L.r, x, L.basis[j])
            coords = L.coordinates(br)
            if coords is None:
                raise NotClosed("bracket left the algebra; span is not closed")
            cols.append([coords[i] for i in tgt])
        blocks[h] = Matrix.from_columns(cols, rows=len(tgt))
    return _map(profile, x.degree, blocks)


def ad_representation(L: ColorAlgebra) -> ColorAlgebra:
    """The image of L under ad, as an algebra acting on L's graded
    dimension profile; its kernel is the center of L."""
    _require_closed(L)
    profile = L.profile_space()
    ech = _GradedEchelon(profile)
    for b in L.basis:
        ech.add_map(ad_map(L, b))
    return ColorAlgebra(profile, L.r, tuple(ech.maps()), closed=True, _validate=False)


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
    if L.coordinates(x) is None:
        raise NotInAlgebra("map outside the algebra")
    if not is_nilpotent_matrix(flatten_map(x)):
        return AdNilpotencyReport(False, None, None, True)
    n = L.space.total_dim
    adx = flatten_map(ad_map(L, x))
    ok = adx.power(2 * n).is_zero()
    return AdNilpotencyReport(True, 2 * n, ok, ok)


def is_ideal(L: ColorAlgebra, s: Subspace) -> bool:
    """True iff [L, S] is contained in S."""
    if s.parent is not L:
        raise ParentMismatch("subspace of a different algebra")
    for a in L.basis:
        for b in s.elements():
            if not s.contains(color_bracket(L.r, a, b)):
                return False
    return True
