"""Exact dense linear algebra over arbitrary-precision rationals.

Everything here works with ``fractions.Fraction`` entries and is exact:
echelon forms, kernels, characteristic polynomials, rational roots
and nilpotency certificates.  Matrices are immutable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSquare, SizeMismatch, ZeroPolynomial

Rat = Fraction

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


class Matrix:
    """Immutable dense matrix with Fraction entries (row-major)."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows, *, cols: int | None = None):
        data = tuple(tuple(frac(x) for x in row) for row in rows)
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
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
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
        return Matrix(tuple(zip(*self.data)) if self.data else (), cols=self.rows)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), _ZERO)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """Reduced row echelon form; returns (rref, pivot columns, rank)."""
    a = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return Matrix(a, cols=ncols), tuple(pivots), len(pivots)


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space of m, one vector per free column."""
    red, pivots, rank = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, c in enumerate(pivots):
            v[c] = -red.data[r][f]
        basis.append(tuple(v))
    return basis


def solve_unique(a: Matrix, b) -> tuple[Fraction, ...] | None:
    """One exact solution of a x = b (free variables set to 0), or None
    if the system is inconsistent."""
    if len(b) != a.rows:
        raise SizeMismatch("right-hand side length mismatch")
    aug = Matrix([list(row) + [frac(x)] for row, x in zip(a.data, b)]
                 or [[frac(x)] for x in b], cols=a.cols + 1)
    if a.rows == 0:
        return tuple([_ZERO] * a.cols)
    red, pivots, rank = rref(aug)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red.data[r][a.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise NotSquare("inverse of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    aug = Matrix(
        [list(r) + list(i) for r, i in zip(m.data, ident.data)], cols=2 * n
    )
    red, pivots, rank = rref(aug)
    if rank < n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in red.data], cols=n)


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
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def poly_one() -> Poly:
    return Poly((_ONE,))


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - m), computed exactly via
    reduction to upper Hessenberg form and the leading-minor recurrence."""
    if m.rows != m.cols:
        raise NotSquare("characteristic polynomial of a non-square matrix")
    n = m.rows
    h = [list(row) for row in m.data]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if h[r][c] != 0), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for r in range(n):
                h[r][piv], h[r][c + 1] = h[r][c + 1], h[r][piv]
        p = h[c + 1][c]
        for r in range(c + 2, n):
            if h[r][c] == 0:
                continue
            f = h[r][c] / p
            for j in range(c, n):
                h[r][j] -= f * h[c + 1][j]
            for i in range(n):
                h[i][c + 1] += f * h[i][r]
    polys = [poly_one()]
    for k in range(1, n + 1):
        pk = Poly((-h[k - 1][k - 1], _ONE)) * polys[k - 1]
        sub = _ONE
        for i in range(k - 1, 0, -1):
            sub *= h[i][i - 1]
            if h[i - 1][k - 1] != 0 and sub != 0:
                pk = pk - polys[i - 1].scale(h[i - 1][k - 1] * sub)
        polys.append(pk)
    return polys[n]


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


def _zx_exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[t] when b divides a with an integral quotient."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r[k + len(b) - 1], b[-1])
        if rem:
            raise ArithmeticError("inexact polynomial division")
        for i, bi in enumerate(b):
            r[k + i] -= q[k] * bi
    return q


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

    A candidate counts only after the exact check p(r) == 0, and its
    multiplicity is the number of times (t - r) deflates p exactly.
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
            while work.degree >= 1 and work.evaluate(cand) == 0:
                roots[cand] = roots.get(cand, 0) + 1
                work = work.deflate(cand)
    return sorted(roots.items())


def is_nilpotent_matrix(m: Matrix) -> bool:
    """True iff m^n = 0 (n = size), computed by repeated squaring."""
    if m.rows != m.cols:
        raise NotSquare("nilpotency of a non-square matrix")
    n = m.rows
    if n == 0:
        return True
    b = m
    e = 1
    while e < n:
        b = b * b
        e *= 2
    return b.is_zero()


def _integer_matrices(mats: list[Matrix]) -> list[list[list[int]]]:
    # positive rescaling preserves nilpotency of every span element
    out = []
    for m in mats:
        den = 1
        for row in m.data:
            for x in row:
                den = den * x.denominator // math.gcd(den, x.denominator)
        out.append([[int(x * den) for x in row] for row in m.data])
    return out


def _traces_vanish(point, ints, n: int) -> bool:
    m = [
        [sum(t * b[i][j] for t, b in zip(point, ints)) for j in range(n)]
        for i in range(n)
    ]
    p = m
    for k in range(1, n + 1):
        if sum(p[i][i] for i in range(n)) != 0:
            return False
        if k < n:
            p = [
                [sum(p[i][l] * m[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return True


def _simplex_layer(n: int, s: int):
    """The points of N^s with coordinate sum n, lazily and in
    lexicographic order (stars and bars)."""
    for bars in itertools.combinations(range(n + s - 1), s - 1):
        edges = (-1, *bars, n + s - 1)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(s))


def nil_subspace_check(
    mats, policy: str = "auto", seed: int = 0
) -> bool:
    """Decide whether every element of the span of ``mats`` is nilpotent.

    In characteristic zero the span is nil iff trace((sum t_i B_i)^k)
    vanishes identically for k = 1..n (Newton's identities).  Each trace
    is homogeneous of degree k <= n in the span coordinates, so with
    ``policy="deterministic"`` vanishing on the C(n+s-1, s-1) points
    {a in N^s : sum a = n} settles the question: they are the order-n
    principal lattice of that simplex, unisolvent for degree <= n (Chung
    and Yao 1977), so each trace vanishes on the hyperplane sum t = n
    and, by homogeneity, wherever sum t != 0.
    ``policy="probabilistic"`` evaluates at three independent random
    integer points per polynomial; by Schwartz-Zippel the failure
    probability is at most (n / 2_000_000)^3 per polynomial.
    ``policy="auto"`` picks deterministic for spans of size <= 4.

    The structure algorithms need this check only when a kernel
    filtration stops below V: a filtration that reaches V is an exact
    certificate that the span acts nilpotently, so on their success
    paths the policy and seed are never used.
    """
    mats = list(mats)
    if not mats:
        return True
    n = mats[0].rows
    for m in mats:
        if m.rows != m.cols or m.rows != n:
            raise SizeMismatch("span members must be square of equal size")
    if n == 0:
        return True
    s = len(mats)
    if policy == "auto":
        policy = "deterministic" if s <= 4 else "probabilistic"
    if policy not in ("deterministic", "probabilistic"):
        raise ValueError(f"unknown policy {policy!r}")
    ints = _integer_matrices(mats)
    if policy == "deterministic":
        points = _simplex_layer(n, s)
    else:
        rng = random.Random(seed)
        points = [
            tuple(rng.randint(-1_000_000, 1_000_000) for _ in range(s))
            for _ in range(3)
        ]
    for point in points:
        if not _traces_vanish(point, ints, n):
            return False
    return True
