"""``linalg.kernel_basis`` (the orthogonal complement of the row space, by
fraction-free Gram-Schmidt) against the reduced-row-echelon kernel it
replaced (``kernel_oracle.kernel_basis``), on seeded random rational
matrices."""

import random
from fractions import Fraction
from math import gcd

from kernel_oracle import kernel_basis as rref_kernel
from sstwalk import linalg

SHAPES = ("row", "column", "square", "rank-deficient", "zero-rows")


def _entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _random_matrix(rng: random.Random, shape: str) -> list[list[Fraction]]:
    """A rows x cols rational matrix of the named shape: 1 x n, n x 1,
    n x n, a product of rank at most k < min(rows, cols), or a matrix with
    some rows zeroed."""
    n = rng.randint(1, 7)
    if shape == "row":
        return [[_entry(rng) for _ in range(n)]]
    if shape == "column":
        return [[_entry(rng)] for _ in range(n)]
    if shape == "square":
        return [[_entry(rng) for _ in range(n)] for _ in range(n)]
    rows, cols = rng.randint(2, 7), rng.randint(2, 7)
    if shape == "rank-deficient":
        k = rng.randint(1, min(rows, cols) - 1)
        left = [[_entry(rng) for _ in range(k)] for _ in range(rows)]
        right = [[_entry(rng) for _ in range(cols)] for _ in range(k)]
        return [[linalg.dot(row, col) for col in zip(*right)] for row in left]
    m = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for i in rng.sample(range(rows), rng.randint(1, rows)):
        m[i] = [Fraction(0)] * cols
    return m


def _in_span(v, basis) -> bool:
    """v minus its projections on the pairwise-orthogonal ``basis`` is 0."""
    rest = [Fraction(x) for x in v]
    for b in basis:
        c = Fraction(linalg.dot(rest, b), linalg.dot(b, b))
        rest = [x - c * y for x, y in zip(rest, b)]
    return not any(rest)


def test_kernel_basis_matches_rref_oracle():
    rng = random.Random(16)
    seen = dict.fromkeys(SHAPES, 0)
    nontrivial = 0
    for i in range(300):
        shape = SHAPES[i % len(SHAPES)]
        a = _random_matrix(rng, shape)
        got = linalg.kernel_basis(a)
        want = rref_kernel(a)
        assert len(got) == len(want), a
        for v in got:
            assert len(v) == len(a[0])
            assert all(linalg.dot(row, v) == 0 for row in a), (a, v)
            assert gcd(*v) == 1 and next(x for x in v if x) > 0, v
        for x, u in enumerate(got):
            assert all(linalg.dot(u, v) == 0 for v in got[x + 1:]), got
        assert all(_in_span(v, got) for v in want), (a, got, want)
        seen[shape] += 1
        nontrivial += 0 < len(got) < len(a[0])
    assert min(seen.values()) == 60
    assert nontrivial > 100


def test_kernel_basis_of_nonsingular_and_zero_matrices():
    assert linalg.kernel_basis([]) == []
    assert linalg.kernel_basis([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == []
    assert linalg.kernel_basis([[Fraction(0)] * 3] * 2) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
