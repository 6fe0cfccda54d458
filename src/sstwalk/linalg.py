"""Exact linear algebra over the rationals and the integers.

Matrices are plain lists of lists of ``fractions.Fraction`` (rows), vectors are
lists of Fractions or ints.  Everything here is dense and written for clarity,
not asymptotics.  Most inputs are coin bases of a few rows, but
``kernel_basis`` also serves the adjacency matrix of a whole cone base (240
rows for the pretty-good cone over C_240), where its O(n^2) integer dot
products of length n take most of that case's time.
Gram-Schmidt is fraction-free: it scales its inputs to integer vectors, stays
in Python ints and returns primitive integer vectors, the columns the coin
basis and the Hermitian reduction carry.  It drops a vector already in the
span, so it is also the one route to kernels and ranks: a kernel is the
orthogonal complement of the row space, and a rank is the number of vectors
Gram-Schmidt keeps.  The integer Berkowitz characteristic polynomial and
Bareiss determinant back ``exact.charpoly`` and the determinant reference for
psi that the tests use.  ``to_double`` and
``scaled_doubles`` own the one conversion of exact values to doubles: a
power-of-two scale first, so values past the double range convert too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import mul

Vec = list[Fraction]
Mat = list[list[Fraction]]


def _ratio(x) -> tuple[int, int]:
    """x = p / q in Python ints with q > 0, exact: int, Fraction, float and
    numpy floats give their own integer ratio, numpy integers their numerator
    and denominator, and any other real is read as float(x)."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        if isinstance(x, Rational):
            return int(x.numerator), int(x.denominator)
        return float(x).as_integer_ratio()


def binary_exponent(x) -> int:
    """An e with |x| / 2^e in (1/2, 2), for x != 0."""
    p, q = _ratio(x)
    return p.bit_length() - q.bit_length()


def to_double(x, k: int = 0) -> float:
    """x 2^-k as a double, by one correctly rounded integer division.  A
    power-of-two scale is exact in binary floating point, so this is
    float(x) 2^-k whenever both are normal doubles, and a suitable k brings
    an exact x far past the double range (10^400) into it."""
    p, q = _ratio(x)
    return p / (q << k) if k >= 0 else (p << -k) / q


def scaled_doubles(v) -> tuple[list[float], int]:
    """(v 2^-e as doubles, e), with e the largest ``binary_exponent`` of
    v's entries (0 for a zero vector), so the largest entry is in (1/2, 2)."""
    e = max((binary_exponent(x) for x in v if x), default=0)
    return [to_double(x, e) for x in v], e


def zeros(r: int, c: int) -> Mat:
    return [[Fraction(0)] * c for _ in range(r)]


def dot(u, v):
    return sum(map(mul, u, v))


def int_vector(v) -> list[int]:
    """A rational vector (entries read by ``_ratio``) times their lcm denominator."""
    ratios = list(map(_ratio, v))
    den = lcm(1, *(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios]


def primitive_int_vector(v) -> list[int]:
    """Scale a nonzero rational vector to a primitive integer vector whose
    first nonzero entry is positive (canonical).

    Scaling a basis column is harmless everywhere in this package: columns only
    ever need to be pairwise orthogonal, not normalized.
    """
    ints = int_vector(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def gram_schmidt(vectors, against=None) -> list[list[int]]:
    """Exact unnormalized Gram-Schmidt, fraction-free over Z.

    Returns pairwise-orthogonal primitive integer vectors spanning the same
    space as the rational ``vectors`` (orthogonal also to every vector in
    ``against``).  Each input is scaled to an integer vector w and each
    step against a b is w <- <b,b> w - <w,b> b, a positive multiple of the
    rational step w - (<w,b>/<b,b>) b, so the primitive form of the result is
    the rational one's.  A vector already in the span is dropped, so the
    output is shorter than ``vectors`` exactly when they are dependent.
    """
    done = [int_vector(b) for b in against or ()]
    norms = [dot(b, b) for b in done]
    out: list[list[int]] = []
    for v in vectors:
        w = int_vector(v)
        for b, nb in zip(done, norms):
            c = dot(w, b)
            if c:
                w = [nb * x - c * y for x, y in zip(w, b)]
        if not any(w):
            continue
        w = primitive_int_vector(w)
        out.append(w)
        done.append(w)
        norms.append(dot(w, w))
    return out


def kernel_basis(a: Mat) -> list[list[int]]:
    """Exact basis of the right kernel of ``a``, as pairwise-orthogonal
    primitive integer vectors: the orthogonal complement of the row space,
    Gram-Schmidt of the unit vectors against an orthogonal basis of the rows."""
    if not a:
        return []
    n = len(a[0])
    rows = gram_schmidt(a)
    units = ([int(i == j) for j in range(n)] for i in range(n))
    return gram_schmidt(units, against=rows)


def bareiss_det(a: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pivot_val = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot_val * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot_val
    return sign * m[n - 1][n - 1]


def berkowitz_charpoly(a: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(xI - A) of an integer matrix.

    Division-free Samuelson-Berkowitz; returns integer coefficients
    [c0, c1, ..., cn] with cn = 1.
    """
    n = len(a)
    if n == 0:
        return [1]
    # vector of charpoly coefficients, highest degree first
    poly = [1, -a[0][0]]
    for i in range(1, n):
        # Toeplitz column for principal submatrix of size i+1
        row = [a[i][j] for j in range(i)]
        col = [a[j][i] for j in range(i)]
        sub = [[a[r][c] for c in range(i)] for r in range(i)]
        # entries: 1, -a[i][i], -(row . col), -(row . sub . col), ...
        t = [1, -a[i][i]]
        cur = col
        for _ in range(i):
            t.append(-sum(rv * cv for rv, cv in zip(row, cur)))
            cur = [sum(sub[r][c] * cur[c] for c in range(i)) for r in range(i)]
        t = t[: i + 2]
        new = [0] * (i + 2)
        for p, cp in enumerate(poly):
            if cp:
                for q, tq in enumerate(t):
                    if p + q < i + 2 and tq:
                        new[p + q] += cp * tq
        poly = new
    return list(reversed(poly))

