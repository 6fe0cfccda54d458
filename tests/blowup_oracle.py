"""The (C_a, C_b)-blow-up route, kept as a test oracle of the exact pipeline.

Before the package computed every verdict on the one exact carrier
``build_H`` -> ``resolvent``, it also shipped a second, Grover-only reduction:
the blow-up of the graph at a marked pair a !~ b (the projection blocks of the
marked coins against A(X minus {a,b})), a numeric strong-cospectrality split
from a dense ``eigh`` of it, and the twin-vertex shortcut that reads the
transfer-time class from the degree of supp(W).  Those routines live on here,
unchanged, for the differential tests in ``test_blowup_oracle.py``,
``test_cospec.py`` and ``test_reduction.py``; the coins' P blocks come from
the Fraction assembly ``reduction_oracle.assemble_projection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from reduction_oracle import assemble_projection, fixes
from walk_oracle import orthonormal_columns
from sstwalk import linalg
from sstwalk.coins import CoinAssignment, ReflectionCoin
from sstwalk.graphs import Graph
from sstwalk.linalg import Mat
from sstwalk.reduction import ReductionError


class AdjacentMarkedPair(ReductionError):
    """Raised by the blow-up when a ~ b: perfect subspace state transfer from
    a to b is then guaranteed at t = 1 and no reduction is needed."""


@dataclass
class BlowUp:
    """Basis-free reduction for a Grover walk with marked vertices a != b.

    Indices: cl(a) = 0..deg(a)-1, cl(b) = deg(a)..deg(a)+deg(b)-1, then the
    vertices of X minus {a,b} in ascending order.  sym holds the inner block
    matrix (projection blocks and A(X minus {a,b})); delta_sq holds 1 on the
    clones and deg(v) elsewhere, so G = diag(delta_sq)^{-1/2} sym (same)^{-1/2}.
    """

    assignment: CoinAssignment
    a: int
    b: int
    sym: Mat
    delta_sq: list[Fraction]
    rest_vertices: list[int]

    @property
    def deg_a(self) -> int:
        return self.assignment.graph.degree(self.a)

    @property
    def deg_b(self) -> int:
        return self.assignment.graph.degree(self.b)

    @property
    def cl_a(self) -> range:
        return range(self.deg_a)

    @property
    def cl_b(self) -> range:
        return range(self.deg_a, self.deg_a + self.deg_b)

    @property
    def rest(self) -> range:
        return range(self.deg_a + self.deg_b, len(self.delta_sq))

    def g_numeric(self) -> np.ndarray:
        d = np.sqrt(np.array([float(x) for x in self.delta_sq]))
        return np.array(self.sym, dtype=float) / np.outer(d, d)


def build_blowup(assignment: CoinAssignment, a: int, b: int) -> BlowUp:
    """The (C_a, C_b)-blow-up of the graph; requires a !~ b and Grover coins
    at every non-marked vertex."""
    g = assignment.graph
    if a == b:
        raise ReductionError("marked vertices must be distinct")
    if g.adjacent(a, b):
        raise AdjacentMarkedPair(
            "a ~ b: perfect subspace state transfer from a to b is guaranteed at t=1")
    for u in range(g.n):
        if u in (a, b):
            continue
        coin = assignment.coin(u)
        if assemble_projection(coin.degree, coin.basis) != [[Fraction(1, coin.degree)] * coin.degree
                               for _ in range(coin.degree)]:
            raise ReductionError(
                f"blow-up requires the Grover coin at non-marked vertex {u}")
    rest = [v for v in range(g.n) if v not in (a, b)]
    ka, kb = g.degree(a), g.degree(b)
    size = ka + kb + len(rest)
    sym = linalg.zeros(size, size)
    rest_pos = {v: ka + kb + i for i, v in enumerate(rest)}
    for (mark, offset) in ((a, 0), (b, ka)):
        coin = assignment.coin(mark)
        p = assemble_projection(coin.degree, coin.basis)
        for i in range(g.degree(mark)):
            for jpos, v in enumerate(g.neighbors[mark]):
                val = p[i][jpos]
                if val:
                    sym[offset + i][rest_pos[v]] = val
                    sym[rest_pos[v]][offset + i] = val
    for u, v in g.edges:
        if u in (a, b) or v in (a, b):
            continue
        sym[rest_pos[u]][rest_pos[v]] = Fraction(1)
        sym[rest_pos[v]][rest_pos[u]] = Fraction(1)
    delta_sq = [Fraction(1)] * (ka + kb) + [Fraction(g.degree(v)) for v in rest]
    return BlowUp(assignment=assignment, a=a, b=b, sym=sym,
                  delta_sq=delta_sq, rest_vertices=rest)


class IndeterminateClustering(RuntimeError):
    """Two eigenvalue clusters sit within the guard band but behave
    differently; the numeric verdict is refused rather than guessed."""


@dataclass(frozen=True)
class NumericSplit:
    """Partition of the eigenvalue support into the +gamma and -gamma classes,
    with numeric eigenvalues (one representative per cluster)."""

    plus_eigenvalues: tuple[float, ...]
    minus_eigenvalues: tuple[float, ...]
    gamma: complex


def _cluster(eigenvalues: np.ndarray, tol: float) -> list[list[int]]:
    """Group sorted eigenvalue indices into clusters with gaps <= tol."""
    order = np.argsort(eigenvalues)
    clusters: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if eigenvalues[idx] - eigenvalues[clusters[-1][-1]] <= tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def strong_cospectral_numeric(blowup: BlowUp, w_basis, tol: float = 1e-7
                              ) -> NumericSplit | None:
    """Numeric gamma-strong-cospectrality of x_a(W) and x_b(W) on the blow-up.

    Eigenvalues are clustered within ``tol``; for each cluster the eigenvector
    blocks at cl(a) and cl(b) are projected onto W and tested for
    proportionality with a per-cluster sign and one global unimodular gamma.
    Ambiguous clusterings (two clusters within 10 tol that behave differently)
    raise IndeterminateClustering instead of guessing.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if blowup.deg_a != blowup.deg_b:
        raise ValueError("positional W-identification needs deg(a) = deg(b)")
    g = blowup.g_numeric()
    lam, vecs = np.linalg.eigh(g)
    wcols = orthonormal_columns(w_basis, blowup.deg_a)
    if not wcols:
        raise ValueError("empty subspace")
    pw = sum(np.outer(w, w) for w in wcols)
    clusters = _cluster(lam, tol)
    gamma: complex | None = None
    plus: list[float] = []
    minus: list[float] = []
    sigmas: dict[int, int | None] = {}
    for ci, cluster in enumerate(clusters):
        za = pw @ vecs[np.ix_(list(blowup.cl_a), cluster)]
        zb = pw @ vecs[np.ix_(list(blowup.cl_b), cluster)]
        na, nb = np.linalg.norm(za), np.linalg.norm(zb)
        scale = max(np.linalg.norm(vecs[:, cluster]), 1.0)
        if na <= tol * scale and nb <= tol * scale:
            sigmas[ci] = None  # not in the support
            continue
        if min(na, nb) <= tol * scale < max(na, nb):
            return None  # support mismatch between a and b
        # gamma estimated from the largest-magnitude projected component
        flat_idx = int(np.argmax(np.abs(za)))
        if abs(zb.flat[flat_idx]) <= tol * scale:
            return None
        ratio = za.flat[flat_idx] / zb.flat[flat_idx]
        if abs(abs(ratio) - 1.0) > 100 * tol:
            return None
        if gamma is None:
            gamma = ratio / abs(ratio)
            sigma = 1
        else:
            s_ratio = ratio / gamma
            if abs(s_ratio - 1.0) < abs(s_ratio + 1.0):
                sigma = 1
            else:
                sigma = -1
        if np.linalg.norm(za - sigma * gamma * zb) > 100 * tol * scale:
            return None
        sigmas[ci] = sigma
        rep = float(np.mean(lam[cluster]))
        (plus if sigma == 1 else minus).append(rep)
    # gap-ratio guard: nearby clusters must agree on their class
    for ci in range(len(clusters) - 1):
        gap = lam[clusters[ci + 1][0]] - lam[clusters[ci][-1]]
        if gap <= 10 * tol and sigmas.get(ci) != sigmas.get(ci + 1):
            raise IndeterminateClustering(
                f"clusters at {lam[clusters[ci][-1]]:.3e} and "
                f"{lam[clusters[ci + 1][0]]:.3e} are {gap:.3e} apart but disagree")
    if gamma is None:
        return None
    # canonicalize the real case to gamma = +1 (plus = {E_a = +E_b}); the
    # exact route reports the same convention
    if abs(gamma + 1.0) < 1e-6:
        plus, minus, gamma = minus, plus, complex(1.0)
    return NumericSplit(tuple(sorted(plus)), tuple(sorted(minus)), gamma)


@dataclass(frozen=True)
class TwinTransferClass:
    """Verdict of the twin shortcut on a strongly cospectral pair: whether the
    exact kernel condition held and, when the support has the closed form
    {0, +-sqrt(2/delta)}, the congruence class of admissible transfer times."""

    exact_kernel_condition: bool
    mod4_class: int | None = None
    min_time: int | None = None


def twin_transfer_check(graph: Graph, a: int, b: int, coin: ReflectionCoin,
                        w_basis, tol: float = 1e-9) -> TwinTransferClass | None:
    """Twin-vertex shortcut: checks the orthogonality condition behind
    pointwise W-transfer between twins with C_a = C_b.

    Tries the exact sufficient condition W in ker([A1; A2^T]) first; if that
    fails, falls back to the numeric condition that W is orthogonal to
    col([A1 A2] Delta^{-1/2} E_0[rest, rest]).  When the exact condition holds
    and all of supp(W) has one degree delta in {2, 4, 8}, the transfer-time
    congruence class is resolved from arccos(sqrt(2/delta)).
    Returns None when the pair is not strongly cospectral on W.
    """
    if graph.neighbors[a] != graph.neighbors[b]:
        raise ValueError("twin_transfer_check needs N(a) = N(b)")
    assignment = CoinAssignment.grover_with_marked(graph, a, b, coin)
    blowup = build_blowup(assignment, a, b)
    w_exact = [[Fraction(x) for x in v] for v in w_basis]
    for w in w_exact:
        if not fixes(coin, w):
            raise ValueError("W is not fixed by the marked coin")

    exact_ok = _kernel_condition(graph, a, b, blowup, w_exact)
    if exact_ok:
        strongly = True
    else:
        strongly = _numeric_e0_condition(blowup, w_basis, tol)
    if not strongly:
        return None

    mod4 = min_t = None
    if exact_ok:
        degs = {graph.degree(graph.neighbors[a][i])
                for w in w_exact for i, x in enumerate(w) if x}
        if len(degs) == 1:
            delta = degs.pop()
            mod4, min_t = {2: (2, 2), 4: (0, 4), 8: (2, 6)}.get(delta, (None, None))
    return TwinTransferClass(exact_kernel_condition=exact_ok,
                             mod4_class=mod4, min_time=min_t)


def _kernel_condition(graph: Graph, a: int, b: int, blowup: BlowUp,
                      w_exact: list[list[Fraction]]) -> bool:
    """Exact test W in ker([A1; A2^T]): embed w on the N(a) coordinates of
    X minus {a,b} and apply its adjacency matrix."""
    rest = blowup.rest_vertices
    pos = {v: i for i, v in enumerate(rest)}
    for w in w_exact:
        embedded = [Fraction(0)] * len(rest)
        for i, v in enumerate(graph.neighbors[a]):
            embedded[pos[v]] = w[i]
        for u in rest:
            acc = Fraction(0)
            for v in graph.neighbors[u]:
                if v not in (a, b):
                    acc += embedded[pos[v]]
            if acc != 0:
                return False
    return True


def _numeric_e0_condition(blowup: BlowUp, w_basis, tol: float) -> bool:
    """Numeric test P_W [A1 A2] Delta^{-1/2} E_0[rest, rest] = 0, with E_0
    taken from the kernel of the blow-up (rank decision at ``tol``)."""
    graph = blowup.assignment.graph
    a = blowup.a
    g = blowup.g_numeric()
    lam, vecs = np.linalg.eigh(g)
    kernel = vecs[:, np.abs(lam) <= tol]
    if kernel.shape[1] == 0:
        return True
    rest = blowup.rest_vertices
    e0_rest = kernel[list(blowup.rest), :] @ kernel[list(blowup.rest), :].T
    adj_rows = np.zeros((graph.degree(a), len(rest)))
    pos = {v: i for i, v in enumerate(rest)}
    for i, v in enumerate(graph.neighbors[a]):
        for u in graph.neighbors[v]:
            if u not in (a, blowup.b):
                adj_rows[i, pos[u]] = 1.0
    dinv = np.array([1.0 / np.sqrt(graph.degree(v)) for v in rest])
    target = adj_rows * dinv[None, :] @ e0_rest
    wcols = orthonormal_columns(w_basis, graph.degree(a))
    pw = sum(np.outer(w, w) for w in wcols)
    return bool(np.linalg.norm(pw @ target) <= 1e3 * tol)
