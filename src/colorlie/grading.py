"""Finitely generated abelian grading groups and skew-symmetric bicharacters.

A group is presented in invariant-factor form Z^r x Z_m1 x ... x Z_mk.
Bicharacter values are rational, so torsion generators can only carry
values whose m-th power is 1 (that is, 1 for odd m and +-1 for even m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadDiagonal,
    GroupMismatch,
    ModulusTooSmall,
    NotSkewSymmetric,
    TorsionIncompatible,
    ValidationError,
)
from .linalg import frac

_ONE = Fraction(1)


@dataclass(frozen=True)
class GroupSpec:
    """The grading group Z^free_rank x prod Z_m for m in torsion_moduli."""

    free_rank: int
    torsion_moduli: tuple[int, ...]

    @property
    def generator_count(self) -> int:
        return self.free_rank + len(self.torsion_moduli)

    def is_torsion_free(self) -> bool:
        return not self.torsion_moduli

    def identity(self) -> "GroupElement":
        return GroupElement(
            self, (0,) * self.free_rank, (0,) * len(self.torsion_moduli)
        )

    def element(self, coords) -> "GroupElement":
        """Build an element from a flat coordinate list (free first)."""
        coords = [int(c) for c in coords]
        if len(coords) != self.generator_count:
            raise ValidationError(
                f"expected {self.generator_count} coordinates, got {len(coords)}"
            )
        free = tuple(coords[: self.free_rank])
        torsion = tuple(
            c % m for c, m in zip(coords[self.free_rank :], self.torsion_moduli)
        )
        return GroupElement(self, free, torsion)


def make_group(free_rank: int, torsion_moduli) -> GroupSpec:
    if free_rank < 0:
        raise ValidationError("free rank must be nonnegative")
    moduli = tuple(int(m) for m in torsion_moduli)
    for m in moduli:
        if m < 2:
            raise ModulusTooSmall(f"torsion modulus {m} is smaller than 2")
    return GroupSpec(free_rank, moduli)


@dataclass(frozen=True)
class GroupElement:
    """Element of a GroupSpec; torsion coordinates are kept reduced.  The
    hash is kept from its first use and equality tries identity first."""

    spec: GroupSpec
    free: tuple[int, ...]
    torsion: tuple[int, ...]
    _hash = None

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.spec, self.free, self.torsion)))
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not GroupElement:
            return NotImplemented
        return self.free == other.free and self.torsion == other.torsion and (
            self.spec is other.spec or self.spec == other.spec)

    def coords(self) -> tuple[int, ...]:
        return self.free + self.torsion

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.free) and all(c == 0 for c in self.torsion)

    def sort_key(self):
        return (self.free, self.torsion)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return element_add(self, other)

    def __neg__(self) -> "GroupElement":
        return element_scale(-1, self)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords()) + ")"


def element_add(a: GroupElement, b: GroupElement) -> GroupElement:
    spec = a.spec
    # elements of one space share its spec object: skip the field compare
    if b.spec is not spec and b.spec != spec:
        raise GroupMismatch("elements belong to different groups")
    free = tuple(x + y for x, y in zip(a.free, b.free))
    if not spec.torsion_moduli:
        return GroupElement(spec, free, ())
    torsion = tuple(
        (x + y) % m for x, y, m in zip(a.torsion, b.torsion, spec.torsion_moduli)
    )
    return GroupElement(spec, free, torsion)


def element_scale(k: int, a: GroupElement) -> GroupElement:
    free = tuple(k * x for x in a.free)
    torsion = tuple((k * x) % m for x, m in zip(a.torsion, a.spec.torsion_moduli))
    return GroupElement(a.spec, free, torsion)


def has_infinite_order(g: GroupElement) -> bool:
    """True iff g has infinite order, i.e. its free part is nonzero."""
    return any(c != 0 for c in g.free)


@dataclass(frozen=True)
class Bicharacter:
    """Skew-symmetric bicharacter on a GroupSpec, given by its values on
    pairs of generators (free generators first, then torsion)."""

    spec: GroupSpec
    values: tuple[tuple[Fraction, ...], ...]


def make_bicharacter(spec: GroupSpec, values) -> Bicharacter:
    n = spec.generator_count
    vals = tuple(tuple(frac(x) for x in row) for row in values)
    if len(vals) != n or any(len(row) != n for row in vals):
        raise ValidationError(f"bicharacter value matrix must be {n}x{n}")
    for i in range(n):
        for j in range(n):
            if vals[i][j] == 0:
                raise ValidationError("bicharacter values must be nonzero")
    for i in range(n):
        for j in range(n):
            if i != j and vals[i][j] * vals[j][i] != 1:
                raise NotSkewSymmetric(
                    f"values[{i}][{j}] * values[{j}][{i}] != 1"
                )
    for i in range(n):
        # diagonal skew symmetry says values[i][i]^2 = 1
        if vals[i][i] not in (_ONE, -_ONE):
            raise BadDiagonal(f"values[{i}][{i}] must be 1 or -1")
    for k, m in enumerate(spec.torsion_moduli):
        i = spec.free_rank + k
        for j in range(n):
            if vals[i][j] ** m != 1 or vals[j][i] ** m != 1:
                raise TorsionIncompatible(
                    f"generator {i} has order {m} but value^{m} != 1"
                )
    return Bicharacter(spec, vals)


def eval_bicharacter(r: Bicharacter, g: GroupElement, h: GroupElement) -> Fraction:
    """r(g, h) as the product of generator values raised to coordinate
    products; exact and well defined modulo the torsion moduli."""
    spec = r.spec
    if (g.spec is not spec and g.spec != spec) or (h.spec is not spec and h.spec != spec):
        raise GroupMismatch("element does not belong to the bicharacter's group")
    gc = g.coords()
    hc = h.coords()
    acc = _ONE
    for i, gi in enumerate(gc):
        if gi == 0:
            continue
        for j, hj in enumerate(hc):
            e = gi * hj
            if e:
                acc *= r.values[i][j] ** e
    return acc
