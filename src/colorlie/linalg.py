"""Exact linear algebra over arbitrary-precision rationals.

Matrices are immutable and dense, with ``fractions.Fraction`` entries,
and every result (echelon forms, kernels, solutions, inverses,
characteristic polynomials, rational roots, nilpotency certificates) is
exact and given in Fractions.  Inside, the heavy steps clear
denominators once and work on Python integers: ``_Echelon``, the
package's only row reduction, takes and gives sparse vectors
``{index: value}``, takes integer vectors as they are and keeps
fraction-free integer rows, and the public functions here convert their
dense rows at that boundary, once;
``char_poly``, ``rational_roots`` and the nilpotency tests run on the
denominator-cleared integer matrix or polynomial.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import mul

from .errors import NotSquare, SizeMismatch, ZeroPolynomial

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce an int, string or Fraction to Fraction.  Floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _text(x) -> str:
    """An int or Fraction as "p" or "p/q" at any size: str() of a Decimal,
    unlike that of an int, has no ``sys.get_int_max_str_digits()`` limit."""
    p = str(Decimal(x.numerator))
    return p if x.denominator == 1 else p + "/" + str(Decimal(x.denominator))


class Matrix:
    """Immutable dense matrix with Fraction entries (row-major)."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows, *, cols: int | None = None):
        # each entry coerced once; a Fraction, as parsing gives, is kept
        data = tuple(tuple([x if type(x) is Fraction else frac(x) for x in row]) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise SizeMismatch("ragged rows")
            if cols is not None and cols != width:
                raise SizeMismatch(f"expected {cols} columns, got {width}")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _raw(cls, data: tuple, cols: int) -> "Matrix":
        # fast path for internal callers whose entries are Fractions already
        m = cls.__new__(cls)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", cols)
        return m

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._raw(tuple(((_ZERO,) * cols) for _ in range(rows)), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns, rows: int) -> "Matrix":
        cols = list(columns)
        return Matrix(
            [[cols[j][i] for j in range(len(cols))] for i in range(rows)],
            cols=len(cols),
        )

    @staticmethod
    def stack(mats, cols: int) -> "Matrix":
        rows = []
        for m in mats:
            if m.cols != cols:
                raise SizeMismatch("cannot stack matrices of unequal width")
            rows.extend(m.data)
        return Matrix(rows, cols=cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(_text, row)) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise SizeMismatch("matrix addition shape mismatch")
        return Matrix._raw(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.data, other.data)
            ),
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix._raw(
            tuple(tuple(c * x for x in row) for row in self.data), self.cols
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise SizeMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            # row-accumulation product skipping zero entries, which
            # dominate in block and elementary-matrix workloads
            bdata = other.data
            ncols = other.cols
            out = []
            for arow in self.data:
                acc = [_ZERO] * ncols
                for a, brow in zip(arow, bdata):
                    if a:
                        for j, b in enumerate(brow):
                            if b:
                                acc[j] += a * b
                out.append(tuple(acc))
            return Matrix._raw(tuple(out), ncols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec) -> tuple[Fraction, ...]:
        """Matrix times column vector (given as a flat tuple/list)."""
        if len(vec) != self.cols:
            raise SizeMismatch("vector length does not match column count")
        # zero entries are skipped, as in __mul__
        out = []
        for row in self.data:
            acc = _ZERO
            for a, b in zip(row, vec):
                if a and b:
                    acc += a * b
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        # a 0 x k matrix transposes to k empty rows
        rows = tuple(zip(*self.data)) if self.data else ((),) * self.cols
        return Matrix(rows, cols=self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), _ZERO)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.data)

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]


def _sub(r: dict, a: int, row: dict):
    """r -= a row, for sparse integer rows."""
    for i, y in row.items():
        x = r.get(i, 0) - a * y
        if x:
            r[i] = x
        else:
            del r[i]


def _primitive_row(row: dict, pivot: int) -> dict:
    """row divided by its content, signed to be positive at pivot."""
    g = math.gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else {i: x // g for i, x in row.items()}


_INT = {int}


def _cleared(vec: dict) -> tuple[dict[int, int], int]:
    """(r, d) with r = d vec as a sparse integer vector, for the least
    common denominator d of the entries of vec, ints or Fractions; a zero
    entry is left out.  An integer vector is only copied without its
    zeros."""
    if _INT.issuperset(map(type, vec.values())):
        return {i: x for i, x in vec.items() if x}, 1
    d = math.lcm(*[x.denominator for x in vec.values()])
    return {i: x.numerator * (d // x.denominator) for i, x in vec.items() if x}, d


def _over(vec: dict, d: int) -> dict[int, Fraction]:
    """The sparse integer vector vec divided by d > 0, as Fractions."""
    if d == 1:
        return {i: Fraction(x) for i, x in vec.items()}
    return {i: Fraction(x, d) for i, x in vec.items()}


def _lowest(vectors: list[dict], den: int) -> tuple[list[dict], int]:
    """The sparse integer vectors over the positive denominator den in
    lowest terms: all divided, den too, by the gcd of den and their
    entries.  An empty vector is kept as it is, so empty vectors that
    share one dict still share it."""
    if den != 1:
        g = math.gcd(den, *[x for v in vectors for x in v.values()])
        if g != 1:
            return [{i: x // g for i, x in v.items()} if v else v for v in vectors], den // g
    return vectors, den


def _sum_of(vectors, coeffs: dict) -> dict:
    """sum_j coeffs[j] vectors[j], for sparse vectors."""
    out: dict = {}
    for j, c in coeffs.items():
        if c:
            unit = c == 1
            for i, x in vectors[j].items():
                if not unit:
                    x = c * x
                out[i] = out[i] + x if i in out else x
    return out


class _Echelon:
    """Incremental reduced row echelon form of the span of rows of a
    fixed width: the package's one exact elimination kernel.

    Vectors go in sparse, as dicts ``{index: value}`` in any order, of
    ints, Fractions or both; a zero value, as left where a bracket's
    terms cancel, is skipped.  Inside, everything is an integer row, as
    in Bareiss (Math. Comp. 22, 1968): ``int_rows`` holds each row as a
    sparse integer row, primitive and positive at its pivot, and they are
    kept mutually reduced, zero at each other's pivots, so row /
    row[pivot] is the canonical RREF row.

    ``add`` takes an integer vector as it is, copied once without its
    zeros, and clears the denominators of any other vector once.  A
    vector that meets no pivot is not reduced at all; otherwise the rows
    it meets at their pivots, found through the pivot -> row map ``_at``,
    are subtracted, scaled by the lcm of their pivot entries.  The
    content is divided out and the new pivot eliminated from the rows
    that can hold it, those of smaller pivots, all in integers; a row
    whose pivot comes last is appended.  The reduced echelon form of a
    span is unique, so inserting rows one at a time, in any order, gives
    the canonical RREF.

    Its readers give exact values in one of two forms.
    ``sparse_rows``, ``transform`` and ``to_basis`` give Fractions, each
    row of ``sparse_rows`` a dict in index order, converted on the first
    read after it changed (a vector of Fractions that met no pivot and
    leads with 1 is its own RREF row, kept as given).  ``kernel`` gives
    integer vectors over one positive denominator, the form the flag
    engine computes in.  No row dict is changed in place once stored, so
    ``copy`` shares them.  The rank is ``len(pivots)``.

    With ``track`` each row also carries its combination of the inserted
    rows at the same scale, as entries keyed ``width + i`` for the i-th
    inserted row: the rows are those of [R | T] with R = T V for the
    inserted rows V (dependent ones included, though they add no row),
    so the content divided out is that of both.  ``transform`` reads T
    as Fractions; ``to_basis`` maps pivot coordinates back through T.
    """

    def __init__(self, width: int, rows=(), track: bool = False):
        self.width = width
        self.count = 0
        self.track = track
        self.pivots: list[int] = []
        self.int_rows: list[dict[int, int]] = []
        self._at: dict[int, int] = {}
        # sparse_rows, None where a row changed since the last read
        self._rows: list[dict | None] = []
        for row in rows:
            self.add(row)

    def copy(self) -> "_Echelon":
        """An echelon of the same rows that grows independently."""
        out = _Echelon(self.width, track=self.track)
        out.count = self.count
        out.pivots = list(self.pivots)
        out.int_rows = list(self.int_rows)
        out._at = dict(self._at)
        out._rows = list(self._rows)
        return out

    def _reduced(self, vec: dict) -> tuple[int, dict[int, int], dict]:
        """(s, r, coeffs): coeffs is vec's pivot coordinates, its nonzero
        entries at the pivots keyed by row index k, and r / s is vec minus
        sum_k coeffs[k] R_k, as a sparse integer row, with the combination,
        negated, at the tracked columns."""
        r, d = _cleared(vec)
        at = self._at
        coeffs = {at[i]: vec[i] for i in r if i in at}
        if not coeffs:
            return d, r, coeffs
        rows, pivots = self.int_rows, self.pivots
        m = math.lcm(*[rows[k][pivots[k]] for k in coeffs])
        if m != 1:
            r = {i: m * x for i, x in r.items()}
        for k in coeffs:
            row = rows[k]
            _sub(r, r[pivots[k]] // row[pivots[k]], row)
        return m * d, r, coeffs

    def reduce(self, vec: dict) -> dict | None:
        """Pivot coordinates of vec, keyed by row index, or None when it
        lies outside the span."""
        _, r, coeffs = self._reduced(vec)
        return None if min(r, default=self.width) < self.width else coeffs

    def add(self, vec: dict) -> bool:
        """Insert vec; False, and no new row, when it is dependent."""
        index = self.count
        self.count += 1
        s, new, coeffs = self._reduced(vec)
        pivot = min(new, default=self.width)
        if pivot >= self.width:
            return False
        # vec met no pivot and is Fractions leading with 1: its own RREF row
        fresh = None
        if not coeffs and type(vec[pivot]) is Fraction and vec[pivot] == 1:
            fresh = {i: vec[i] for i in sorted(new)}
            if not all(type(x) is Fraction for x in fresh.values()):
                fresh = None
        if self.track:
            new[self.width + index] = s
        new = _primitive_row(new, pivot)
        lead = new[pivot]
        rows, pivots = self.int_rows, self.pivots
        # only a row of smaller pivot can hold an entry at this one
        k = bisect.bisect(pivots, pivot)
        for j in range(k):
            row = rows[j]
            a = row.get(pivot)
            if a:
                row = {i: lead * x for i, x in row.items()}
                _sub(row, a, new)
                rows[j] = _primitive_row(row, pivots[j])
                self._rows[j] = None
        self._at[pivot] = k
        pivots.insert(k, pivot)
        rows.insert(k, new)
        self._rows.insert(k, fresh)
        for j in range(k + 1, len(pivots)):
            self._at[pivots[j]] = j
        return True

    def convert(self) -> None:
        """Convert each row changed since the last read to Fractions now,
        so that copies made after it share the converted rows."""
        w = self.width
        for k, row in enumerate(self._rows):
            if row is None:
                lead = self.int_rows[k][self.pivots[k]]
                items = sorted(self.int_rows[k].items())
                self._rows[k] = {i: Fraction(x, lead) if lead != 1 else Fraction(x)
                                 for i, x in items if i < w}

    @property
    def sparse_rows(self) -> list[dict[int, Fraction]]:
        self.convert()
        return self._rows

    def tracked(self, order) -> "_Echelon":
        """An untracked echelon's rows, tracked as if R_order[0],
        R_order[1], ... had been inserted in turn: row k carries itself, at
        the scale of its pivot entry, as ``_Echelon(width, rows,
        track=True)`` would hold it."""
        out = self.copy()
        out.track, out.count = True, len(order)
        for i, k in enumerate(order):
            row = out.int_rows[k]
            out.int_rows[k] = {**row, self.width + i: row[out.pivots[k]]}
        return out

    @property
    def transform(self) -> list[dict[int, Fraction]] | None:
        w = self.width
        return [
            {i - w: Fraction(x, row[p]) for i, x in row.items() if i >= w}
            for p, row in zip(self.pivots, self.int_rows)
        ] if self.track else None

    def to_basis(self, coeffs: dict) -> tuple[Fraction, ...]:
        """Coordinates in the inserted rows of sum_k coeffs[k] R_k."""
        out = [_ZERO] * self.count
        w = self.width
        for k, a in coeffs.items():
            row = self.int_rows[k]
            a = Fraction(a.numerator, a.denominator * row[self.pivots[k]])
            for i, x in row.items():
                if i >= w:
                    out[i - w] += a * x
        return tuple(out)

    def free(self) -> list[int]:
        """The non-pivot columns, in order."""
        return [f for f in range(self.width) if f not in self._at]

    def kernel(self) -> tuple[list[dict[int, int]], int]:
        """(basis, d): the vectors orthogonal to every row, one per free
        column f, 1 at f and minus the rows' entries at f at their pivots,
        each d times that as a sparse integer vector, for d the lcm of the
        rows' pivot entries."""
        pivots, rows = self.pivots, self.int_rows
        d = math.lcm(*[row[p] for p, row in zip(pivots, rows)])
        basis = {f: {f: d} for f in self.free()}
        for p, row in zip(pivots, rows):
            s = d // row[p]
            for c, x in row.items():
                if c in basis:
                    basis[c][p] = -s * x
        return list(basis.values()), d


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form; returns (rref, pivot columns, rank)."""
    e = _Echelon(m.cols, map(dict, map(enumerate, m.data)))
    rank = len(e.pivots)
    cols = range(m.cols)
    data = tuple(tuple([row.get(c, _ZERO) for c in cols]) for row in e.sparse_rows)
    data += ((_ZERO,) * m.cols,) * (m.rows - rank)
    return Matrix._raw(data, m.cols), tuple(e.pivots), rank


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space of m, one vector per free column."""
    basis, d = _Echelon(m.cols, map(dict, map(enumerate, m.data))).kernel()
    cols = range(m.cols)
    return [tuple([v.get(c, _ZERO) for c in cols]) for v in (_over(u, d) for u in basis)]


def solve_unique(a: Matrix, b) -> tuple[Fraction, ...] | None:
    """One exact solution of a x = b (free variables set to 0), or None
    if the system is inconsistent."""
    if len(b) != a.rows:
        raise SizeMismatch("right-hand side length mismatch")
    rows = (dict(enumerate((*row, frac(x)))) for row, x in zip(a.data, b))
    e = _Echelon(a.cols + 1, rows)
    if a.cols in e.pivots:
        return None
    x = [_ZERO] * a.cols
    for c, row in zip(e.pivots, e.sparse_rows):
        x[c] = row.get(a.cols, _ZERO)
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """m^-1: the rows of m reduce to the identity, so T = m^-1."""
    if m.rows != m.cols:
        raise NotSquare("inverse of a non-square matrix")
    e = _Echelon(m.cols, map(dict, map(enumerate, m.data)), track=True)
    if len(e.pivots) < m.rows:
        raise ValueError("matrix is singular")
    cols = range(m.cols)
    data = tuple(tuple([t.get(c, _ZERO) for c in cols]) for t in e.transform)
    return Matrix._raw(data, m.cols)


@dataclass(frozen=True)
class Poly:
    """Polynomial with rational coefficients, constant term first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(frac(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else _ZERO)
                + (other.coeffs[i] if i < len(other.coeffs) else _ZERO)
                for i in range(n)
            )
        )

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Poly":
        c = frac(c)
        return Poly(tuple(c * x for x in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(())
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def evaluate(self, x) -> Fraction:
        x = frac(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deflate(self, root) -> "Poly":
        """Divide by (t - root); requires root to be an exact root."""
        root = frac(root)
        if self.evaluate(root) != 0:
            raise ValueError("not a root")
        out = []
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        # the last accumulated value is the (zero) remainder
        quotient = list(reversed(out[:-1]))
        return Poly(tuple(quotient))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = _text(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{_text(abs(c))}*"
                term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - m), computed exactly by
    Berkowitz's division-free algorithm (IPL 18, 1984) on integers.

    With d the least common denominator of m's entries, M = d m is an
    integer matrix.  Bordering its leading r x r block A by the column
    C and row R of entry a = M[r][r] gives, leading coefficient first,
    det(tI - M_{r+1}) = T * det(tI - A) truncated to r + 2 terms, with
    T = (1, -a, -R C, -R A C, ..., -R A^(r-1) C).  If det(tI - M) has
    coefficient c_k at t^(n-k), det(tI - m) = d^-n det(d t I - M) has
    c_k d^(n-k) / d^n = c_k / d^k there.
    """
    if m.rows != m.cols:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = m.rows
    d, (a,) = _integer_matrix([m])
    p = [1]
    for r in range(n):
        # map(mul, row, v) stops at len(v) = r: only A's columns are read
        v = [a[i][r] for i in range(r)]
        t = [1, -a[r][r]]
        for k in range(r):
            if k:
                v = [sum(map(mul, a[i], v)) for i in range(r)]
            t.append(-sum(map(mul, a[r], v)))
        p = [sum(t[i - j] * p[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return Poly(tuple(Fraction(p[n - k], d ** (n - k)) for k in range(n + 1)))


def _strip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    """Content removed and leading coefficient made positive."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _zx_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero polynomials in Z[t] (constant term
    first), by the primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for i, bi in enumerate(b):
                r[shift + i] -= c * bi
            _strip(r)
        a, b = b, (_primitive(r) if r else r)
    return a


def _zx_exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[t], or None unless b divides a in Z[t]."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r[k + len(b) - 1], b[-1])
        if rem:
            return None
        for i, bi in enumerate(b):
            r[k + i] -= q[k] * bi
    return None if any(r) else q


def _fp_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) in F_p[t]; b may be zero, a may not."""
    a = _strip([c % p for c in a])
    b = _strip([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            _strip(a)
        a, b = b, a
    return len(a) - 1


def _primes():
    p = 2
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _lifting_prime(h: list[int], dh: list[int]) -> int:
    """Smallest prime not dividing lc(h) modulo which h is square-free."""
    return next(q for q in _primes() if h[-1] % q and _fp_gcd_degree(h, dh, q) == 0)


def _horner(a: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def _root_candidates(f: list[int]) -> list[Fraction]:
    """At most deg f rationals among which lie all rational roots of the
    integer polynomial f (constant term first, degree >= 1)."""
    g = _zx_gcd(f, _derivative(f))
    h = _zx_exact_quotient(_primitive(f), g)
    dh = _derivative(h)
    lc = h[-1]
    p = _lifting_prime(h, dh)
    bound = lc + max(abs(c) for c in h[:-1])
    modulus = p
    roots = [x for x in range(p) if _horner(h, x, p) == 0]
    while modulus <= 2 * bound:
        modulus *= modulus
        roots = [
            (x - _horner(h, x, modulus) * pow(_horner(dh, x, modulus), -1, modulus))
            % modulus
            for x in roots
        ]
    out = []
    for x in roots:
        y = lc * x % modulus
        if y > modulus // 2:
            y -= modulus
        out.append(Fraction(y, lc))
    return sorted(out)


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, sorted, from at most
    deg p candidates found by p-adic lifting (Loos, SIAM J. Comput. 12,
    1983), with integer arithmetic only.

    After factors of t are split off, p is scaled to a primitive integer
    polynomial f and reduced to its square-free part h = f / gcd(f, f'),
    which has the same roots.  A rational root r = a/b of h in lowest terms
    has b | lc, so y = lc * r is an integer, and by the Cauchy bound
    |r| <= 1 + max|h_i| / |lc| it satisfies |y| <= B = |lc| + max|h_i|.
    The prime chosen does not divide lc, so r reduces to a root of h mod
    p, and h is square-free mod p, so that root is simple and lifts by
    Newton's iteration to the unique root x of h mod p^k with x = r mod
    p^k.  Once p^k > 2B the symmetric residue of lc * x mod p^k equals y,
    so every rational root appears among the candidates y / lc, one per
    root of h mod p.  Only primes dividing lc * disc(h) are skipped, so
    the search is polynomial in the size of the coefficients.

    A candidate r = a/b counts only when b t - a, which is primitive,
    divides the scaled integer polynomial exactly in Z[t] (by Gauss's
    lemma a root makes the quotient integral), and its multiplicity is
    the number of times it does.
    """
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has every root")
    roots: dict[Fraction, int] = {}
    # strip powers of t: each contributes a root at 0
    work = p
    while work.coeffs and work.coeffs[0] == 0:
        roots[_ZERO] = roots.get(_ZERO, 0) + 1
        work = Poly(tuple(work.coeffs[1:]))
    if work.degree >= 1:
        den = math.lcm(*(c.denominator for c in work.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in work.coeffs]
        for cand in _root_candidates(ints):
            factor = [-cand.numerator, cand.denominator]
            while len(ints) > 1 and (q := _zx_exact_quotient(ints, factor)):
                roots[cand] = roots.get(cand, 0) + 1
                ints = q
    return sorted(roots.items())


def is_nilpotent_matrix(m: Matrix) -> bool:
    """True iff m^n = 0 (n = size), by repeated integer squaring."""
    if m.rows != m.cols:
        raise NotSquare("nilpotency of a non-square matrix")
    return _nilpotent_at((1,), _integer_matrix([m])[1], m.rows)


def _integer_matrix(mats) -> tuple[int, list[list[list[int]]]]:
    """(d, [d m for m in mats]) for the least common denominator d of the
    entries of all the matrices ``mats``."""
    d = math.lcm(*(x.denominator for m in mats for row in m.data for x in row))
    return d, [[[x.numerator * (d // x.denominator) for x in row] for row in m.data]
               for m in mats]


def _nilpotent_at(point, ints, n: int) -> bool:
    """Whether X = sum t_i B_i is nilpotent, for n x n integer B_i: X is
    squared until it vanishes (True) or the exponent reaches n (False),
    since X^n = 0 iff X^e = 0 for any e >= n."""
    x = [[0] * n for _ in range(n)]
    for t, b in zip(point, ints):
        if t:
            x = [[u + t * v for u, v in zip(xr, br)] for xr, br in zip(x, b)]
    e = 1
    while any(map(any, x)):
        if e >= n:
            return False
        cols = list(zip(*x))
        x = [[sum(map(mul, row, col)) for col in cols] for row in x]
        e *= 2
    return True


def _simplex_layer(n: int, s: int):
    """The points of N^s with coordinate sum n, lazily and in
    lexicographic order (stars and bars)."""
    for bars in itertools.combinations(range(n + s - 1), s - 1):
        edges = (-1, *bars, n + s - 1)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(s))


def _products_vanish(ints, n: int) -> bool:
    """Whether every product of n of the n x n integer matrices B_i is
    zero, by the descending chain I_0 = Q^n, I_{j+1} = sum_i B_i I_j.

    I_j is spanned by the images of all words of length j, so I_j = 0
    means every such word, and so every product of n span elements, is
    zero.  The chain descends, since B_i I_j lies in B_i I_{j-1}, so it
    either reaches 0 within n levels (True) or meets a level that does
    not shrink, after which it is constant (False: the chain proves
    nothing).  Each level is one ``_Echelon`` of the vectors B_i v, v in
    I_j's sparse integer rows, summed from B_i's columns, and ends as
    soon as its rank reaches dim I_j."""
    cols = [list(zip(*b)) for b in ints]
    basis = [{j: 1} for j in range(n)]
    while basis:
        e = _Echelon(n)
        for bc in cols:
            for v in basis:
                w = [0] * n
                for j, x in v.items():
                    w = [a + x * c for a, c in zip(w, bc[j])]
                e.add(dict(enumerate(w)))
                if len(e.pivots) == len(basis):
                    return False
        basis = e.int_rows
    return True


def _non_nilpotent_point(mats, policy: str, seed: int) -> tuple | None:
    """A point t at which X = sum t_i B_i is not nilpotent, or None when
    the span of ``mats`` is nil (see ``nil_subspace_check``).

    A point costs about c n^3 integer multiplications, c = ceil(log2 n)
    squarings, and the product chain (``_products_vanish``) about s n^4,
    as much as k = ceil(s n / c) points.  So the chain runs only after k
    points, which most non-nil spans do not outlast, and only when more
    than k points would remain."""
    if policy not in ("auto", "deterministic", "probabilistic"):
        raise ValueError(f"unknown policy {policy!r}")
    mats = list(mats)
    if not mats:
        return None
    n = mats[0].rows
    for m in mats:
        if m.rows != m.cols or m.rows != n:
            raise SizeMismatch("span members must be square of equal size")
    if n == 0:
        return None
    s = len(mats)
    if policy == "auto":
        policy = "deterministic" if s <= 4 else "probabilistic"
    # one common denominator d: sum t_i (d B_i) = d X(t), so a point at
    # which the integer sum is not nilpotent is one for the maps as given
    ints = _integer_matrix(mats)[1]
    if policy == "deterministic":
        points = _simplex_layer(n, s)
        count = math.comb(n + s - 1, s - 1)
    else:
        rng = random.Random(seed)
        points = [
            tuple(rng.randint(-1_000_000, 1_000_000) for _ in range(s))
            for _ in range(3)
        ]
        count = 3
    k = -(-s * n // max(1, (n - 1).bit_length()))
    chain_at = k if count > 2 * k else None
    for i, point in enumerate(points):
        if i == chain_at and _products_vanish(ints, n):
            return None
        if not _nilpotent_at(point, ints, n):
            return point
    return None


def nil_subspace_check(
    mats, policy: str = "auto", seed: int = 0
) -> bool:
    """Decide whether every element of the span of ``mats`` is nilpotent.

    At a point t, X = sum t_i B_i is nilpotent iff X^n = 0, iff
    X^(2^c) = 0 for any 2^c >= n; ``_nilpotent_at`` decides that with at
    most ceil(log2 n) integer squarings (in characteristic zero it is
    also iff trace(X^k) = 0 for k = 1..n, Newton's identities).  The
    span is nil iff the entries of X(t)^n vanish identically, and they
    are homogeneous of degree n in the span coordinates, so with
    ``policy="deterministic"`` vanishing on the C(n+s-1, s-1) points
    {a in N^s : sum a = n} settles the question: they are the order-n
    principal lattice of that simplex, unisolvent for degree <= n (Chung
    and Yao 1977), so each entry vanishes on the hyperplane sum t = n
    and, by homogeneity, wherever sum t != 0.
    ``policy="probabilistic"`` evaluates at three independent random
    integer points per polynomial; by Schwartz-Zippel the failure
    probability is at most (n / 2_000_000)^3 per polynomial.
    ``policy="auto"`` picks deterministic for spans of size <= 4.

    A span whose products of n elements all vanish is nil, and the
    product chain I_{j+1} = sum_i B_i I_j, from I_0 = V, proves that
    when it reaches 0.  When the point set has more than 2k points,
    k = ceil(s n / ceil(log2 n)), the chain runs once after the first k
    points; if it reaches 0 the answer is True with no further point,
    and if it stalls the rest of the points run as before.  A False
    answer always comes from a point, so both policies keep their
    guarantees (``_non_nilpotent_point`` returns that point).

    The structure algorithms need this check only when a kernel
    filtration stops below V: a filtration that reaches V is an exact
    certificate that the span acts nilpotently, so on their success
    paths the policy and seed are never used.
    """
    return _non_nilpotent_point(mats, policy, seed) is None
