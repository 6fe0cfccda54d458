"""Coin bases, the Hermitian reduction H = N*RN, and the exact transfer check.

H is never materialized with irrational entries.  The columns of the exact
orthogonal coin basis M are primitive integer vectors, so a reduction stores
the integer nonzeros of the symmetric matrix S = M^T R M (``build_H`` emits
them in sorted order, along the graph's arc reversal, with no sort) and the
diagonal D = M^T M (the ints delta_sq = <b, b>, ``norm_sq``); the true Hermitian
matrix is H = D^{-1/2} S D^{-1/2} and its rational similar carrier is
H_rat = S D^{-1} (so H = Delta^{-1} H_rat Delta with Delta = D^{1/2}).  Exact
transfer checks and resolvent traces operate on H_rat directly whenever the
paired clones share delta_sq, through its integer view Z = scale * H_rat (a
flat list of nonzeros, applied by ``z_apply``, the one sparse integer mat-vec:
no dense products).  From the coin to Z the arithmetic is in Python ints; only
the views ``sym`` and ``delta_sq`` are Fractions.  The float views ``h_sparse``
and ``h_numeric`` import numpy on first use, so the exact path never loads it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby
from math import gcd, lcm
from operator import itemgetter
from typing import TYPE_CHECKING

from . import linalg
from .coins import CoinAssignment
from .linalg import Mat, Vec

if TYPE_CHECKING:
    import numpy as np


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class CoinBasis:
    """Ordered exact orthogonal coin basis: one (vertex, primitive integer
    weight vector) per clone."""

    columns: tuple[tuple[int, tuple[int, ...]], ...]
    s_clones: tuple[int, ...]
    t_clones: tuple[int, ...]


def induced_coin_basis(assignment: CoinAssignment, a: int, w_basis: list[Vec],
                       b: int | None = None) -> CoinBasis:
    """Exact orthogonal coin basis whose first block at a spans x_a(W) (and at
    b spans x_b(W), under the positional identification).

    Vertices with rk(C_u + I) = 0 contribute no clones.  A vertex with
    nothing prescribed takes its coin's integer basis as it is; at a and b
    the coin's basis is completed by Gram-Schmidt against the prescribed
    vectors.
    """
    g = assignment.graph
    if b is not None:
        if b == a:
            raise ReductionError("marked vertices must be distinct")
        if g.degree(a) != g.degree(b):
            raise ReductionError(
                f"positional identification needs deg(a) = deg(b): vertex {a} has "
                f"degree {g.degree(a)}, vertex {b} has degree {g.degree(b)}")
    marked = {u: _marked_block(assignment, u, w_basis) for u in (a, b) if u is not None}
    columns: list[tuple[int, tuple[int, ...]]] = []
    clones: dict[int, tuple[int, ...]] = {}
    for u in range(g.n):
        if u in marked:
            k, block = marked[u]
            clones[u] = tuple(range(len(columns), len(columns) + k))
            columns += [(u, tuple(v)) for v in block]
        else:
            columns += [(u, col) for col in assignment.coin(u).basis]
    return CoinBasis(tuple(columns), clones[a], clones[a if b is None else b])


def _marked_block(assignment: CoinAssignment, u: int, basis: list[Vec]
                  ) -> tuple[int, list[list[int]]]:
    """(k, block) at a marked vertex u: a dropping Gram-Schmidt of W keeps k
    vectors, and the block is them followed by the coin's basis
    completed against them.  The coin fixes W exactly when the block has
    rank(P) vectors, and W's basis is independent when k is its length."""
    coin = assignment.coin(u)
    for v in basis:
        if len(v) != coin.degree:
            raise ReductionError(f"subspace vector at vertex {u} has wrong length {len(v)}")
    prescribed = linalg.gram_schmidt(basis)
    block = prescribed + linalg.gram_schmidt(coin.basis, against=prescribed)
    if len(block) != coin.rank:
        raise ReductionError(f"subspace at vertex {u} is not fixed by its coin")
    if len(prescribed) != len(basis):
        raise ReductionError(f"dependent subspace basis at vertex {u}: "
                             "linearly dependent vector in Gram-Schmidt input")
    return len(prescribed), block


@dataclass
class HermitianReduction:
    """The pair (H_rat, delta_sq) plus clone bookkeeping.

    The carrier is ``nonzeros``: the (i, j, sym[i][j]) with sym[i][j] != 0,
    sorted by (i, j), of the symmetric int matrix sym, and ``norm_sq``: the
    ints delta_sq[j] = <b_j, b_j>.  Invariants (exact): H_rat = sym *
    diag(delta_sq)^{-1}, so delta_sq[j] * H_rat[i][j] == delta_sq[i] *
    H_rat[j][i], and delta_sq > 0.  Construction (build_H included) checks in
    O(nnz) that delta_sq are positive ints, the nonzeros ints, and that the
    transposed nonzeros, bucketed by column (so sorted within each), give the
    nonzeros back; else it raises ``exact.InvariantError``: the Krylov
    moments of ``sstwalk.exact`` rely on it.

    A reduction is not mutated after build_H: its lazy views (sym, delta_sq,
    the integer and float views) and the resolvent summaries ``sstwalk.exact``
    memoises in ``memo`` (one per (S, T), the only values it holds) are
    computed once from nonzeros and norm_sq and never invalidated.
    """

    assignment: CoinAssignment
    basis: CoinBasis
    nonzeros: list[tuple[int, int, int]]
    norm_sq: list[int]
    s: list[int]
    t: list[int]
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        from .exact import InvariantError

        if not all(type(d) is int and d > 0 for d in self.norm_sq):
            raise InvariantError("delta_sq is not positive ints")
        columns = [[] for _ in self.norm_sq]
        try:
            for i, j, x in self.nonzeros:
                if type(x) is not int:
                    raise InvariantError("nonzeros are not ints")
                columns[j].append((j, i, x))
        except IndexError:
            columns = None  # a column index out of range
        if columns is None or list(chain.from_iterable(columns)) != self.nonzeros:
            raise InvariantError("nonzeros are not the sorted entries of a symmetric sym")

    @property
    def size(self) -> int:
        return len(self.norm_sq)

    @cached_property
    def sym(self) -> Mat:
        """Dense sym in Fractions (for the benchmark's tracer and tests)."""
        sym = linalg.zeros(self.size, self.size)
        for i, j, x in self.nonzeros:
            sym[i][j] = Fraction(x)
        return sym

    @cached_property
    def delta_sq(self) -> list[Fraction]:
        """``norm_sq`` as Fractions (the benchmark's tracer divides by them)."""
        return list(map(Fraction, self.norm_sq))

    @cached_property
    def int_view(self) -> tuple[list[tuple[int, int, int]], int]:
        """Integer view (entries, scale) of H_rat: Z = scale * H_rat, scale the
        least common denominator of H_rat[i][j] = sym[i][j] / delta_sq[j], and
        entries the (i, j, Z[i][j]) in the order of ``nonzeros``.  With g_j =
        gcd(delta_sq[j], content of column j = that of row j), scale is the
        lcm of the delta_sq[j] / g_j: one gcd per row, none per entry."""
        g = list(self.norm_sq)
        for i, row in groupby(self.nonzeros, itemgetter(0)):
            g[i] = gcd(g[i], *(x for _, _, x in row))
        den = [d // c for d, c in zip(self.norm_sq, g)]
        scale = lcm(*den)
        mult = [scale // d for d in den]
        return [(i, j, x // g[j] * mult[j]) for i, j, x in self.nonzeros], scale

    @cached_property
    def h_sparse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse float view (rows, cols, vals) of H = D^{-1/2} sym D^{-1/2},
        read from the nonzeros in O(nnz): vals = sym[i][j] / (d_i d_j) with
        d = sqrt(delta_sq), at (i, j) = (rows, cols).  Clone i is scaled by
        2^-e_i before the conversion to doubles, with e_i half the binary
        exponent of delta_sq[i]; the scales cancel exactly, and exact entries
        past the double range convert without overflow."""
        import numpy as np

        e = [linalg.binary_exponent(x) // 2 for x in self.norm_sq]
        d = np.sqrt([linalg.to_double(x, 2 * k) for x, k in zip(self.norm_sq, e)])
        vals = np.array([linalg.to_double(x, e[i] + e[j]) for i, j, x in self.nonzeros],
                        dtype=float)
        rows = np.array([i for i, _, _ in self.nonzeros], dtype=int)
        cols = np.array([j for _, j, _ in self.nonzeros], dtype=int)
        return rows, cols, vals / (d[rows] * d[cols])

    def h_numeric(self) -> np.ndarray:
        """Dense H in doubles, scattered from ``h_sparse``: the matrix that
        ``families.fidelity_series`` diagonalises when the Krylov basis of
        the marked clones would start at its full size x size capacity."""
        import numpy as np

        rows, cols, vals = self.h_sparse
        h = np.zeros((self.size, self.size))
        h[rows, cols] = vals
        return h


def check_pairs(red: HermitianReduction, s: list[int], t: list[int]) -> None:
    """Raise ReductionError unless S and T pair up into clones of equal
    delta_sq: only then does the diagonal similarity H = Delta^{-1} H_rat Delta
    cancel entrywise, so that the moments and powers of Z are those of
    scale * H."""
    if len(s) != len(t):
        raise ReductionError("psi needs |S| = |T|")
    if not s:
        raise ReductionError("psi needs nonempty clone sets")
    for a, b in zip(s, t):
        if red.norm_sq[a] != red.norm_sq[b]:
            raise ReductionError(
                f"clones {a},{b} carry different delta_sq; psi would be irrational")


def z_apply(entries, vec: list[int]) -> list[int]:
    """Z vec, one multiply-add per entry of ``HermitianReduction.int_view``."""
    out = [0] * len(vec)
    for i, j, z in entries:
        out[i] += z * vec[j]
    return out


def build_H(assignment: CoinAssignment, basis: CoinBasis) -> HermitianReduction:
    """Assemble the integer nonzeros of sym = M^T R M and delta_sq =
    diag(M^T M) (``norm_sq``) from a coin basis with columns grouped by
    ascending vertex, as from ``induced_coin_basis`` (other orders are refused).

    The (j,k) entry couples clone j at u and clone k at u' ~ u with weight
    v_j[pos_u(u')] * v_k[pos_{u'}(u)], pos_{u'}(u) read from ``Graph.reversal``;
    non-adjacent (and equal) vertices give 0.  Emitted row by row (clone j, its
    arcs in sigma order, the head's clones), the nonzeros come out sorted.
    """
    g = assignment.graph
    cols = basis.columns
    verts = [u for u, _ in cols]
    if verts != sorted(verts):
        raise ReductionError("coin basis columns are not grouped by ascending vertex")
    first = [bisect_left(verts, u) for u in range(g.n + 1)]  # u's clones start at first[u]
    rev, start = g.reversal, g.arc_start
    nonzeros = []
    for j, (u, vj) in enumerate(cols):
        for i in range(first[u], j):
            if linalg.dot(cols[i][1], vj) != 0:
                raise ReductionError(f"coin basis at vertex {u} is not exactly orthogonal")
        for pos_w, w in enumerate(g.neighbors[u]):
            if x := vj[pos_w]:
                pos_u = rev[start[u] + pos_w] - start[w]
                for k in range(first[w], first[w + 1]):
                    if y := x * cols[k][1][pos_u]:
                        nonzeros.append((j, k, y))
    return HermitianReduction(assignment=assignment, basis=basis, nonzeros=nonzeros,
                              norm_sq=[linalg.dot(v, v) for _, v in cols],
                              s=list(basis.s_clones), t=list(basis.t_clones))


def reduction_for(assignment: CoinAssignment, a: int, w_basis: list[Vec],
                  b: int | None = None) -> HermitianReduction:
    """Convenience: induced coin basis + build_H in one call."""
    return build_H(assignment, induced_coin_basis(assignment, a, w_basis, b))


def _chebyshev_columns(red: HermitianReduction, t: int, cols: list[int]) -> list[list[int]]:
    """scale^t f_t(H_rat) e_c for each c in ``cols``, as integer vectors.

    With Z = scale H_rat and w_k = scale^k T_k(H_rat) e_c the Chebyshev
    recurrence reads w_{k+1} = 2 Z w_k - scale^2 w_{k-1}: sparse integer
    mat-vecs only, t per column.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    entries, scale = red.int_view
    sq = scale * scale
    out = []
    for c in cols:
        prev, cur = [], [int(r == c) for r in range(red.size)]
        for k in range(t):
            zc = z_apply(entries, cur)
            prev, cur = cur, [2 * x - sq * y for x, y in zip(zc, prev)] if k else zc
        out.append(cur)
    return out


def chebyshev_apply(red: HermitianReduction, t: int) -> Mat:
    """Exact f_t(H_rat) via the Chebyshev recurrence T_{k+1} = 2 H T_k - T_{k-1}.

    Since f_t is a polynomial, f_t(H) = Delta^{-1} f_t(H_rat) Delta, so column
    checks against paired clones with equal delta_sq are exact on H_rat.
    """
    den = red.int_view[1] ** t
    columns = _chebyshev_columns(red, t, list(range(red.size)))
    return [[Fraction(x, den) for x in row] for row in zip(*columns)]


def exact_transfer_check(red: HermitianReduction, t: int, gamma: int) -> bool:
    """Exact test of f_t(H) B_S = gamma B_T (gamma in {+1, -1}), on the |S|
    start columns only."""
    if gamma not in (1, -1):
        raise ValueError("gamma must be +1 or -1")
    check_pairs(red, red.s, red.t)
    want = gamma * red.int_view[1] ** t  # nonzero: column bj must be want e_bj
    return all(col[bj] == want and col.count(0) == red.size - 1
               for col, bj in zip(_chebyshev_columns(red, t, red.s), red.t))

