"""Reduced row echelon form over Q, kept as a test oracle of
``linalg.kernel_basis``.

Before the package took kernels as the orthogonal complement of the row space
by fraction-free Gram-Schmidt, it reduced the matrix to row echelon form in
Fractions and read one kernel vector off each free column.  That route lives
on here, unchanged, for the differential test in ``test_kernel_oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction

from sstwalk.linalg import Mat, primitive_int_vector


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot-column list (exact)."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: Mat) -> list[list[int]]:
    """Exact basis of the right kernel of ``a``, as primitive integer vectors."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(primitive_int_vector(v))
    return basis
