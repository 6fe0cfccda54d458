"""Two references for the resolvent trace psi_{S,T}, kept as test oracles.

``psi_oracle`` is the original determinant algorithm behind
``sstwalk.exact.psi``: the denominator is charpoly(H_rat) (Berkowitz),
diagonal numerator terms are principal-minor characteristic polynomials, and
each off-diagonal minor of xI - H_rat is recovered from integer Bareiss
determinants at n-1 points by Newton interpolation.  It is O(n^4) per minor
and only fit for the small instances the differential tests use.

``full_kernel_summary`` is the moment route before its certified early stop:
``krylov_moments`` takes all 2 size moments of each sequence, one entry per
mat-vec, and Berlekamp-Massey (``berlekamp_massey``, the package's online
``_Massey`` fed a whole sequence at once) runs on the full sequences.

``h_rat`` is the dense H_rat that ``psi_oracle`` starts from; the
package itself keeps only the sparse carrier.

The package's ``RatFun`` takes its num and den in lowest terms and computes
no gcd, and ``RatPoly`` has no exact quotient or power.  ``reduced`` puts a
fraction in lowest terms with ``poly_gcd``, ``combination`` forms a linear
combination of psi values (the identities the summary's g+- are checked
against), and ``quotient`` and ``power`` are the Q[x] operators the tests
build their polynomials with.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from sstwalk import linalg
from sstwalk.exact import ONE, RatFun, RatPoly, _fraction, _Massey, charpoly, poly_gcd
from sstwalk.reduction import z_apply


def quotient(p: RatPoly, q: RatPoly) -> RatPoly:
    """p / q for a q that divides p exactly."""
    quo, rem = p.divmod(q)
    assert rem.is_zero(), "inexact polynomial division"
    return quo


def power(p: RatPoly, n: int) -> RatPoly:
    out = ONE
    for _ in range(n):
        out = out * p
    return out


def reduced(num: RatPoly, den: RatPoly) -> RatFun:
    """num/den in lowest terms: both divided by their poly_gcd."""
    g = poly_gcd(num, den)
    return RatFun(quotient(num, g), quotient(den, g))


def combination(*terms: tuple[int, RatFun]) -> RatFun:
    """sum_i c_i f_i in lowest terms, for terms (c_i, f_i)."""
    num, den = RatPoly(), ONE
    for c, f in terms:
        num, den = num * f.den + f.num * den * c, den * f.den
    return reduced(num, den)


def berlekamp_massey(seq: list[int]) -> list[int]:
    """Shortest linear recurrence of an integer sequence: the connection
    polynomial of ``_Massey`` after all of ``seq``."""
    bm = _Massey(seq)
    bm.update()
    return bm.connection


def series_fraction(seq: list[int], scale: int) -> tuple[RatPoly, RatPoly]:
    """``_fraction`` with the connection polynomial from Berlekamp-Massey on
    seq, which must hold 2 deg(den) terms or more."""
    return _fraction(berlekamp_massey(seq), seq, scale)


def h_rat(red) -> linalg.Mat:
    """Dense H_rat = sym * diag(delta_sq)^{-1} in Fractions."""
    return [[x / d for x, d in zip(row, red.delta_sq)] for row in red.sym]


def _submatrix(m: linalg.Mat, drop_rows: set[int], drop_cols: set[int]) -> linalg.Mat:
    return [[m[i][j] for j in range(len(m)) if j not in drop_cols]
            for i in range(len(m)) if i not in drop_rows]


def _minor_poly(m: linalg.Mat, row: int, col: int) -> RatPoly:
    """det((xI - M) with row ``row`` and column ``col`` deleted), row != col.

    The x-cells surviving the deletion are the n-2 diagonal positions away from
    row/col, so the degree is at most n-2; we evaluate the integer-scaled
    determinant at n-1 points and interpolate.
    """
    n = len(m)
    size = n - 1
    scale = lcm(*(x.denominator for row in m for x in row))
    pts: list[tuple[Fraction, Fraction]] = []
    x = 0
    while len(pts) < max(size, 1):
        for xv in ((x, -x) if x else (0,)):
            if len(pts) == max(size, 1):
                break
            a = [[scale * xv * (1 if i == j else 0) - int(m[i][j] * scale)
                  for j in range(n) if j != col] for i in range(n) if i != row]
            det = linalg.bareiss_det(a)
            pts.append((Fraction(xv), Fraction(det, scale ** size)))
        x += 1
    return newton_interpolate(pts)


def newton_interpolate(points: list[tuple[Fraction, Fraction]]) -> RatPoly:
    """Exact polynomial through the given (x, y) points (distinct x)."""
    xs = [p[0] for p in points]
    coeffs = [p[1] for p in points]
    for j in range(1, len(points)):
        for i in range(len(points) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = RatPoly()
    basis = ONE
    for j, c in enumerate(coeffs):
        poly = poly + basis * c
        basis = basis * RatPoly([-xs[j], 1])
    return poly


def psi_oracle(red, s: list[int], t: list[int]) -> RatFun:
    """psi_{S,T} = tr((xI - H_rat)^{-1}_{S,T}) from determinants; raises the
    same ValueErrors as ``sstwalk.exact.psi``."""
    if len(s) != len(t):
        raise ValueError("psi needs |S| = |T|")
    if not s:
        raise ValueError("psi needs nonempty clone sets")
    for a, b in zip(s, t):
        if red.delta_sq[a] != red.delta_sq[b]:
            raise ValueError(
                f"clones {a},{b} carry different delta_sq; psi would be irrational")
    h = h_rat(red)
    den = charpoly(h)
    num = RatPoly()
    for a, b in zip(s, t):
        if a == b:
            num = num + charpoly(_submatrix(h, {a}, {a}))
        else:
            sign = -1 if (a + b) % 2 else 1
            num = num + sign * _minor_poly(h, b, a)
    return reduced(num, den)


def krylov_moments(red, s: list[int], t: list[int]) -> list[int]:
    """The moment kernel: 2 size - 1 sparse mat-vecs per start column t_j."""
    rows = red.int_view[0]
    count = 2 * red.size
    out = [0] * count
    for a, b in zip(s, t):
        vec = [0] * red.size
        vec[b] = 1
        for k in range(count):
            out[k] += vec[a]
            if k + 1 < count:
                vec = z_apply(rows, vec)
    return out


def full_kernel_summary(red, s: list[int], t: list[int]) -> dict:
    """psi_S, psi_T, psi_{S,T}, cospectrality, g+ and g- (the denominators
    of psi_S + psi_T +- 2 psi_{S,T}) from the full sequences of
    ``krylov_moments``; psi_{S,T}, cospectrality and g+- are ValueError when
    paired clones carry different delta_sq."""
    scale = red.int_view[1]
    m_s, m_t = krylov_moments(red, s, s), krylov_moments(red, t, t)
    out = {"psi_s": RatFun(*series_fraction(m_s, scale)),
           "psi_t": RatFun(*series_fraction(m_t, scale)),
           "cospectral": m_s == m_t}
    if any(red.delta_sq[a] != red.delta_sq[b] for a, b in zip(s, t)):
        out["psi_st"] = out["g_plus"] = out["g_minus"] = out["cospectral"] = ValueError
        return out
    m_st = krylov_moments(red, s, t)
    out["psi_st"] = RatFun(*series_fraction(m_st, scale))
    for name, sign in (("g_plus", 2), ("g_minus", -2)):
        seq = [x + y + sign * z for x, y, z in zip(m_s, m_t, m_st)]
        out[name] = series_fraction(seq, scale)[1]
    return out
