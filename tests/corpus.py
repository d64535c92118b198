"""Seeded random instance generators shared by the test modules.

Nil and solvable algebra instances are seeded upper triangular with
respect to a shuffled homogeneous flag order and then hidden behind a
random degree-preserving (block-diagonal, unimodular) change of basis,
so the grading survives while the triangular structure does not.
"""

from __future__ import annotations

import random
from fractions import Fraction

from colorlie import (
    ColorAlgebra,
    GradedSpace,
    HomogeneousMap,
    Matrix,
    add_maps,
    bracket_closure,
    inverse,
    make_bicharacter,
    make_group,
    make_map,
    make_space,
    scale_map,
)


def all_configs():
    """(name, group, bicharacter) for a spread of gradings and twists."""
    out = []
    g0 = make_group(0, [])
    out.append(("trivial", g0, make_bicharacter(g0, [])))
    z = make_group(1, [])
    out.append(("Z", z, make_bicharacter(z, [[1]])))
    out.append(("Z_super", z, make_bicharacter(z, [[-1]])))
    z2 = make_group(0, [2])
    out.append(("Z2_super", z2, make_bicharacter(z2, [[-1]])))
    z3 = make_group(0, [3])
    out.append(("Z3_trivial", z3, make_bicharacter(z3, [[1]])))
    zxz2 = make_group(1, [2])
    out.append(("ZxZ2", zxz2, make_bicharacter(zxz2, [[1, 1], [1, -1]])))
    zz = make_group(2, [])
    out.append(
        ("Z2_free", zz, make_bicharacter(zz, [[1, 2], [Fraction(1, 2), -1]]))
    )
    return out


def torsion_free_configs():
    return [(n, g, r) for n, g, r in all_configs() if g.is_torsion_free()]


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 2, 3]))


def random_degree(rng: random.Random, group, span: int = 2):
    coords = [rng.randint(-span, span) for _ in range(group.free_rank)]
    coords += [rng.randint(0, m - 1) for m in group.torsion_moduli]
    return group.element(coords)


def random_space(rng: random.Random, group, max_components: int = 3,
                 max_dim: int = 2, max_total: int = 6) -> GradedSpace:
    n_comp = rng.randint(1, max_components)
    degrees = []
    for _ in range(20):
        d = random_degree(rng, group)
        if d not in degrees:
            degrees.append(d)
        if len(degrees) == n_comp:
            break
    dims = {}
    total = 0
    for d in degrees:
        n = rng.randint(1, max_dim)
        n = min(n, max(1, max_total - total))
        dims[d] = n
        total += n
    return make_space(group, dims)


def random_homogeneous_map(rng: random.Random, space: GradedSpace,
                           degree=None, density: float = 0.8) -> HomogeneousMap:
    """Random homogeneous map with at least one nonzero block when the
    degree admits one."""
    degrees = space.degrees
    if degree is None:
        # degrees that connect two support components, plus zero
        candidates = [space.group.identity()]
        for a in degrees:
            for b in degrees:
                d = a + (-b)
                if d not in candidates:
                    candidates.append(d)
        degree = rng.choice(candidates)
    for _ in range(10):
        blocks = {}
        for h in degrees:
            target = h + degree
            n_t = space.dim_of(target)
            if n_t == 0:
                continue
            n_s = space.dim_of(h)
            rows = [
                [
                    random_rational(rng) if rng.random() < density else Fraction(0)
                    for _ in range(n_s)
                ]
                for _ in range(n_t)
            ]
            blocks[h] = rows
        f = make_map(space, degree, blocks)
        if not f.is_zero() or not blocks:
            return f
    return make_map(space, degree, blocks)


def random_unimodular(rng: random.Random, n: int) -> Matrix:
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
    return Matrix(rows, cols=n)


def conjugated_nil_span(rng: random.Random, n: int, s: int) -> list[Matrix]:
    """s matrices P U_i P^-1, each U_i strictly upper triangular with
    every entry above the diagonal +-1, for one random unimodular P: a
    nil span that is not triangular in the standard basis."""
    p = random_unimodular(rng, n)
    p_inv = inverse(p)
    return [
        p * Matrix([[rng.choice((-1, 1)) if j > i else 0 for j in range(n)]
                    for i in range(n)]) * p_inv
        for _ in range(s)
    ]


def degree_preserving_conjugator(rng: random.Random, space: GradedSpace):
    blocks = {g: random_unimodular(rng, n) for g, n in space.dims}
    inv = {g: inverse(m) for g, m in blocks.items()}
    return blocks, inv


def conjugate_map(f: HomogeneousMap, p: dict, p_inv: dict) -> HomogeneousMap:
    blocks = {}
    for h, b in f.blocks:
        target = h + f.degree
        blocks[h] = p[target] * b * p_inv[h]
    return make_map(f.space, f.degree, blocks)


def _flag_order(rng: random.Random, space: GradedSpace):
    order = [(g, i) for g, n in space.dims for i in range(n)]
    rng.shuffle(order)
    return order


def _flag_seeded_map(rng, space, order, degree, allow_diagonal, density=0.6):
    """Map supported on cells (a, b) with a earlier than b in the flag
    order (or a == b for degree zero when allowed)."""
    blocks: dict = {}
    nonzero = False
    for bi, (g_src, col) in enumerate(order):
        target = g_src + degree
        if space.dim_of(target) == 0:
            continue
        for ai, (g_tgt, row) in enumerate(order):
            if g_tgt != target:
                continue
            if ai > bi or (ai == bi and not allow_diagonal):
                continue
            if rng.random() >= density:
                continue
            val = random_rational(rng)
            if val == 0:
                continue
            blk = blocks.setdefault(
                g_src,
                [[Fraction(0)] * space.dim_of(g_src)
                 for _ in range(space.dim_of(target))],
            )
            blk[row][col] = val
            nonzero = True
    return make_map(space, degree, blocks), nonzero


def _candidate_degrees(rng, space, order, include_zero):
    cands = []
    for bi in range(len(order)):
        for ai in range(bi):
            d = order[ai][0] + (-order[bi][0])
            if d not in cands:
                cands.append(d)
    if include_zero:
        ident = space.group.identity()
        if ident not in cands:
            cands.append(ident)
    return cands


def random_nil_instance(rng: random.Random, group, r, max_total=5,
                        n_generators=2) -> ColorAlgebra:
    """Bracket-closed span of homogeneous maps, all nilpotent: strictly
    upper triangular in a hidden homogeneous flag order, then conjugated."""
    for _ in range(50):
        space = random_space(rng, group, max_total=max_total)
        order = _flag_order(rng, space)
        cands = _candidate_degrees(rng, space, order, include_zero=False)
        if not cands:
            continue
        gens = []
        for _ in range(n_generators):
            f, ok = _flag_seeded_map(
                rng, space, order, rng.choice(cands), allow_diagonal=False
            )
            if ok:
                gens.append(f)
        if not gens:
            continue
        p, p_inv = degree_preserving_conjugator(rng, space)
        conj = [conjugate_map(f, p, p_inv) for f in gens]
        algebra = bracket_closure(space, r, conj)
        if algebra.dim >= 1:
            return algebra
    raise RuntimeError("failed to generate a nil instance")


def random_solvable_instance(rng: random.Random, group, r, max_total=5,
                             n_generators=2) -> ColorAlgebra:
    """Bracket-closed span that is upper triangular (rational diagonals on
    degree-zero generators) in a hidden homogeneous flag order, then
    conjugated; its derived algebra is strictly upper triangular."""
    ident = group.identity()
    for _ in range(50):
        space = random_space(rng, group, max_total=max_total)
        order = _flag_order(rng, space)
        cands = _candidate_degrees(rng, space, order, include_zero=True)
        gens = []
        # one degree-zero generator with a random rational diagonal
        f, _ = _flag_seeded_map(rng, space, order, ident, allow_diagonal=True)
        diag_blocks = {g: [list(row) for row in f.block(g).data]
                       for g, n in space.dims}
        for g, n in space.dims:
            for i in range(n):
                diag_blocks[g][i][i] = random_rational(rng)
        f = make_map(space, ident, diag_blocks)
        if not f.is_zero():
            gens.append(f)
        for _ in range(n_generators - 1):
            g_map, ok = _flag_seeded_map(
                rng, space, order, rng.choice(cands), allow_diagonal=False
            )
            if ok:
                gens.append(g_map)
        if not gens:
            continue
        p, p_inv = degree_preserving_conjugator(rng, space)
        conj = [conjugate_map(g_map, p, p_inv) for g_map in gens]
        algebra = bracket_closure(space, r, conj)
        if algebra.dim >= 1:
            return algebra
    raise RuntimeError("failed to generate a solvable instance")


BOREL_GRADINGS = {
    # name -> (free rank, bicharacter values, degree of the basis vector e_i)
    "plain": (0, [], lambda i: []),
    "z": (1, [[1]], lambda i: [i]),
    "zsuper": (1, [[-1]], lambda i: [i]),
    "z2": (2, [[1, 2], [Fraction(1, 2), -1]], lambda i: [i // 2, i % 2]),
}


def borel_generators(n: int, grading: str):
    """Space, bicharacter and the unit maps E_ij (i <= j) of the n x n
    Borel algebra, e_i homogeneous of the grading's degree deg(i)."""
    rank, values, deg = BOREL_GRADINGS[grading]
    group = make_group(rank, [])
    pos, count = [], {}
    for i in range(n):
        d = group.element(deg(i))
        pos.append((d, count.get(d, 0)))
        count[d] = count.get(d, 0) + 1
    v = make_space(group, count)
    gens = []
    for i in range(n):
        for j in range(i, n):
            (di, a), (dj, b) = pos[i], pos[j]
            m = [[1 if (r, c) == (a, b) else 0 for c in range(count[dj])]
                 for r in range(count[di])]
            gens.append(make_map(v, di + (-dj), {dj: m}))
    return v, make_bicharacter(group, values), gens


def borel_problem_generators(rng: random.Random, n: int, grading: str):
    """Space, bicharacter and generators shaped like the benchmark's CLI
    problem files: E_ii and E_i,i+1, each scaled by a random nonzero
    integer, in random order.  They close up to the n x n Borel algebra."""
    space, r, gens = borel_generators(n, grading)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    out = [
        scale_map(rng.choice([-3, -2, -1, 1, 2, 3]), f)
        for (i, j), f in zip(pairs, gens)
        if j - i <= 1
    ]
    rng.shuffle(out)
    return space, r, out


def rational_unimodular(rng: random.Random, n: int) -> Matrix:
    """Unit lower times unit upper triangular, with random rationals below
    and above the diagonal: determinant one, denominators in it and in
    its inverse."""
    def unit(below):
        return Matrix([[Fraction(1) if i == j else
                        random_rational(rng) if (j < i) == below else Fraction(0)
                        for j in range(n)] for i in range(n)])
    return unit(True) * unit(False)


def rational_conjugated_borel(rng: random.Random, n: int, grading: str):
    """``borel_generators`` conjugated degree by degree by P_g = c_g U_g,
    U_g rational unimodular and c_g a nonzero rational: generators with
    denominators, spanning a Borel algebra in a basis that is not reduced
    echelon."""
    space, r, gens = borel_generators(n, grading)
    p = {g: rational_unimodular(rng, k).scale(Fraction(rng.randint(1, 3), rng.randint(2, 5)))
         for g, k in space.dims}
    p_inv = {g: inverse(m) for g, m in p.items()}
    return space, r, [conjugate_map(f, p, p_inv) for f in gens]


def scrambled_basis(rng: random.Random, L: ColorAlgebra) -> list:
    """Another homogeneous basis of L's span: the basis elements of each
    degree recombined by a random unimodular matrix."""
    out = []
    for g in L.degrees():
        part = L.basis_of_degree(g)
        u = random_unimodular(rng, len(part))
        for row in u.data:
            acc = None
            for c, f in zip(row, part):
                if c:
                    term = scale_map(c, f)
                    acc = term if acc is None else add_maps(acc, term)
            out.append(acc)
    return out


def noncanonical_borel_algebras(rng: random.Random, sizes=(3, 4)) -> list:
    """Borel algebras given to ``ColorAlgebra(..., closed=True)`` in bases
    that are not reduced echelon: P E_ij P^-1 for the ungraded ones, and
    in every torsion-free grading a degree-preserving conjugate whose
    basis is then scrambled within each degree."""
    out = []
    for grading in BOREL_GRADINGS:
        for n in sizes:
            space, r, gens = borel_generators(n, grading)
            p, p_inv = degree_preserving_conjugator(rng, space)
            conj = [conjugate_map(f, p, p_inv) for f in gens]
            L = ColorAlgebra(space, r, conj, closed=True)
            if grading != "plain":
                L = ColorAlgebra(space, r, scrambled_basis(rng, L), closed=True)
            out.append(L)
    return out


def unused_component_doc(dim: int) -> dict:
    """A problem file's document on a dim-dimensional Z-graded space: one
    1 x 1 degree-0 generator, [[2]], on the 1-dimensional component of
    degree 0, beside an unused component of degree 1 and dimension
    dim - 1.  The flag is the standard basis, but ``triangularize``
    prints a dim x dim matrix."""
    return {
        "group": {"free_rank": 1, "torsion_moduli": []},
        "bicharacter": [["1"]],
        "space": [{"degree": [0], "dim": 1}, {"degree": [1], "dim": dim - 1}],
        "generators": [{"degree": [0], "blocks": [{"source": [0], "matrix": [["2"]]}]}],
    }


def repeated_and_zero_generators_doc() -> dict:
    """A problem file's document on the Z-graded space of dimensions 2
    (degree 0) and 1 (degree 1), with the super sign: a degree-0
    generator A with denominators, a degree-1 generator B given twice and
    a zero generator.  e_3, e_1, e_2 triangularize A and B, so the
    closure is solvable with [L, L] nil."""
    a = {"degree": [0], "blocks": [
        {"source": [0], "matrix": [["1", "1/2"], ["0", "-2/3"]]},
        {"source": [1], "matrix": [["3"]]},
    ]}
    b = {"degree": [1], "blocks": [{"source": [0], "matrix": [["1", "-1/3"]]}]}
    zero = {"degree": [0], "blocks": [{"source": [0], "matrix": [["0", "0"], ["0", "0"]]}]}
    return {
        "group": {"free_rank": 1, "torsion_moduli": []},
        "bicharacter": [["-1"]],
        "space": [{"degree": [0], "dim": 2}, {"degree": [1], "dim": 1}],
        "generators": [a, b, b, zero],
    }
