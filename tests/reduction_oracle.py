"""The Fraction route from coin to Z, kept as the test oracle of the integer one.

Before the reduction was carried in Python ints, ``linalg.gram_schmidt`` ran
in ``fractions.Fraction`` (w <- w - (<w,b>/<b,b>) b), ``ReflectionCoin``
stored its projection, validated it and tested ``fixes`` with dense Fraction
products, ``reflection_about`` assembled that projection entry by entry,
``induced_coin_basis`` re-ran Gram-Schmidt on the coin basis at every vertex,
``build_H`` assembled Fraction nonzeros and ``int_view`` divided each of them
by its Fraction delta_sq.  Later, ``int_view`` kept Z as rows of (column
indices, values), reduced each entry by its own gcd (``row_int_view``), and
``z_apply`` gathered and summed each row (``row_z_apply``); the package now
keeps Z as one flat list of (i, j, z) and applies it one nonzero at a time
(``flatten`` turns rows into that list).  Those routines live on here,
unchanged, for the differential tests in ``test_reduction_oracle.py``
(``induced_coin_basis`` refuses deg(a) != deg(b) as the package does), and so
does the Fraction Householder route of ``families.random_orthogonal_columns``,
which now runs in Python ints.  ``assemble_projection`` is also where the tests, the walk
oracle and the blow-up oracle read a coin's P and C = 2P - I: the package no
longer forms either.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from sstwalk import linalg
from sstwalk.coins import CoinError
from sstwalk.linalg import Mat, Vec
from sstwalk.reduction import ReductionError


def mat_mul(a: Mat, b: Mat) -> Mat:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = linalg.zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += x * bk[j]
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((x * y for x, y in zip(u, v) if x and y), Fraction(0))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [x - y for x, y in zip(u, v)]


def vec_scale(u: Vec, c: Fraction) -> Vec:
    return [c * x for x in u]


def is_zero_vec(u: Vec) -> bool:
    return all(x == 0 for x in u)


def primitive_int_vector(v: Vec) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [x // g for x in ints]
    # fix the sign so the first nonzero entry is positive (canonical)
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return [Fraction(x) for x in ints]


def gram_schmidt(vectors: list[Vec], against: list[Vec] | None = None,
                 on_dependent: str = "error") -> list[Vec]:
    """Exact unnormalized Gram-Schmidt in Fractions."""
    fixed = [list(v) for v in (against or [])]
    out: list[Vec] = []
    for v in vectors:
        w = list(v)
        for b in fixed + out:
            c = dot(w, b)
            if c:
                nb = dot(b, b)
                w = vec_sub(w, vec_scale(b, c / nb))
        if is_zero_vec(w):
            if on_dependent == "drop":
                continue
            raise ValueError("linearly dependent vector in Gram-Schmidt input")
        out.append(primitive_int_vector(w))
    return out


def random_orthogonal_columns(rng: random.Random, dim: int, count: int) -> list[list[int]]:
    """``count`` pairwise-orthogonal primitive integer vectors: two rational
    Householder reflections about small integer vectors applied to the
    standard basis in Fractions, with the package's random draws."""
    if not 1 <= count <= dim:
        raise ValueError("count must be between 1 and dim")
    cols = [[Fraction(1 if i == j else 0) for i in range(dim)] for j in range(dim)]
    for _ in range(2):
        v = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if not any(v):
            v[rng.randrange(dim)] = Fraction(1)
        nv = dot(v, v)
        cols = [vec_sub(col, vec_scale(v, 2 * dot(v, col) / nv)) for col in cols]
    picks = rng.sample(range(dim), count)
    return [linalg.primitive_int_vector(cols[j]) for j in picks]


def validate_coin(degree: int, projection, basis) -> None:
    """The validation of a coin that stored its projection, in Fractions:
    raise CoinError unless P^2 = P = P^T and the basis is fixed by P, orthogonal and of size tr(P)."""
    p = [list(row) for row in projection]
    if transpose(p) != p:
        raise CoinError("coin projection is not symmetric")
    if mat_mul(p, p) != p:
        raise CoinError("coin projection is not idempotent")
    trace = sum(p[i][i] for i in range(degree))
    if trace != len(basis):
        raise CoinError("coin basis does not span col(P): rank tr(P) = "
                        f"{trace}, basis has {len(basis)} columns")
    for i, u in enumerate(basis):
        if mat_vec(p, list(u)) != list(u):
            raise CoinError("coin basis vector not fixed by the projection")
        for v in basis[i + 1:]:
            if dot(list(u), list(v)) != 0:
                raise CoinError("coin basis is not orthogonal")


def assemble_projection(degree: int, basis) -> Mat:
    """P = sum of b b^T/<b,b> over an orthogonal basis, entry by entry in
    Fractions, as ``reflection_about`` assembled it when the coin stored P
    (a zero vector adds nothing)."""
    p = linalg.zeros(degree, degree)
    for b in basis:
        nb = dot(b, b)
        for i in range(degree):
            if b[i]:
                for j in range(degree):
                    p[i][j] += Fraction(b[i] * b[j], nb)
    return p


def fixes(coin, w: Vec) -> bool:
    """Exact test that P w = w by a dense Fraction mat-vec."""
    return mat_vec(assemble_projection(coin.degree, coin.basis), w) == list(w)


def _prepare_subspace(assignment, u: int, basis: list[Vec]) -> list[Vec]:
    coin = assignment.coin(u)
    vecs = [[Fraction(x) for x in v] for v in basis]
    for v in vecs:
        if len(v) != coin.degree:
            raise ReductionError(
                f"subspace vector at vertex {u} has wrong length {len(v)}")
        if not fixes(coin, v):
            raise ReductionError(f"subspace at vertex {u} is not fixed by its coin")
    try:
        return gram_schmidt(vecs)
    except ValueError as e:
        raise ReductionError(f"dependent subspace basis at vertex {u}: {e}") from e


def induced_coin_basis(assignment, a: int, w_basis, b: int | None = None, v_basis=None):
    """(columns, s_clones, t_clones): Fraction Gram-Schmidt of the coin basis
    against the prescribed vectors at every vertex."""
    g = assignment.graph
    if b is not None:
        if b == a:
            raise ReductionError("marked vertices must be distinct")
        if g.degree(a) != g.degree(b):
            raise ReductionError(
                f"positional identification needs deg(a) = deg(b): vertex {a} has "
                f"degree {g.degree(a)}, vertex {b} has degree {g.degree(b)}")
    w_ortho = _prepare_subspace(assignment, a, w_basis)
    if b is None:
        v_ortho = None
    else:
        vb = v_basis if v_basis is not None else w_basis
        v_ortho = _prepare_subspace(assignment, b, vb)
        if len(v_ortho) != len(w_ortho):
            raise ReductionError("dim W != dim V")

    columns = []
    s_clones: list[int] = []
    t_clones: list[int] = []
    for u in range(g.n):
        coin = assignment.coin(u)
        prescribed: list[Vec] = []
        if u == a:
            prescribed = w_ortho
            s_clones.extend(range(len(columns), len(columns) + len(prescribed)))
        elif b is not None and u == b:
            prescribed = v_ortho
            t_clones.extend(range(len(columns), len(columns) + len(prescribed)))
        columns.extend((u, tuple(v)) for v in prescribed)
        completion = gram_schmidt(
            [list(col) for col in coin.basis], against=prescribed, on_dependent="drop")
        columns.extend((u, tuple(v)) for v in completion)
    if b is None:
        t_clones = list(s_clones)
    return tuple(columns), tuple(s_clones), tuple(t_clones)


def build_H(assignment, columns) -> tuple[list[tuple[int, int, Fraction]], list[Fraction]]:
    """(nonzeros, delta_sq) of a coin basis, in Fractions."""
    g = assignment.graph
    cols = columns
    per_vertex: dict[int, list[int]] = {}
    for j, (u, _) in enumerate(cols):
        per_vertex.setdefault(u, []).append(j)
    for u, ids in per_vertex.items():
        for i, j in [(i, j) for x, i in enumerate(ids) for j in ids[x + 1:]]:
            if dot(list(cols[i][1]), list(cols[j][1])) != 0:
                raise ReductionError(
                    f"coin basis at vertex {u} is not exactly orthogonal")
    nonzeros = []
    for u, ids in per_vertex.items():
        for pos_w, w in enumerate(g.neighbors[u]):
            if w < u or w not in per_vertex:
                continue
            pos_u = g.arc_index[(w, u)] - g.arc_start[w]
            for j in ids:
                vj = cols[j][1][pos_w]
                for k in per_vertex[w]:
                    x = vj * cols[k][1][pos_u]
                    if x:
                        nonzeros += ((j, k, x), (k, j, x))
    nonzeros.sort()
    delta_sq = [dot(list(v), list(v)) for _, v in cols]
    return nonzeros, delta_sq


def int_view(nonzeros, delta_sq):
    """(rows, scale) of Z = scale * H_rat by Fraction division."""
    inv = [1 / d for d in delta_sq]
    entries = [[] for _ in range(len(delta_sq))]
    for i, j, x in nonzeros:
        entries[i].append((j, x * inv[j]))
    scale = lcm(1, *(h.denominator for row in entries for _, h in row))
    rows = [(tuple(j for j, _ in row),
             tuple(h.numerator * (scale // h.denominator) for _, h in row))
            for row in entries]
    return rows, scale


def row_int_view(nonzeros, delta_sq):
    """(rows, scale) of Z = scale * H_rat: row i is the pair (column indices,
    integer values) of the nonzeros of Z[i], each entry H_rat[i][j] =
    sym[i][j] / delta_sq[j] kept as a reduced integer pair (numerator,
    denominator), with one gcd per entry."""
    inv = [(Fraction(d).denominator, Fraction(d).numerator) for d in delta_sq]
    entries = [[] for _ in range(len(delta_sq))]
    for i, j, x in nonzeros:
        dd, dn = inv[j]
        num, den = x.numerator * dd, x.denominator * dn
        g = gcd(num, den)
        entries[i].append((j, num // g, den // g))
    scale = lcm(1, *(den for row in entries for _, _, den in row))
    rows = [(tuple(j for j, _, _ in row),
             tuple(num * (scale // den) for _, num, den in row))
            for row in entries]
    return rows, scale


def row_z_apply(rows, vec: list[int]) -> list[int]:
    """Z vec for the rows of ``row_int_view``: one gather and sum per row."""
    return [sum(map(mul, vals, map(vec.__getitem__, cols))) for cols, vals in rows]


def flatten(rows) -> list[tuple[int, int, int]]:
    """The (i, j, z) entries of the rows of ``row_int_view`` or ``int_view``,
    in row order: the package's flat integer view."""
    return [(i, j, z) for i, (cols, vals) in enumerate(rows) for j, z in zip(cols, vals)]
