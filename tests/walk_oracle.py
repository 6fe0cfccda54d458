"""Dense and per-degree references for the walk, kept as test oracles.

``c_float`` is a coin's C = 2P - I with P assembled entry by entry in
Fractions (``reduction_oracle.assemble_projection``), each entry then rounded
to a double; every reference here builds its coin blocks from it, not from
the package's integer ``walk._c_float``.

``walk_unitary`` is the dense U = RC over the arc space, assembled from
per-vertex coin blocks without ``walk.StepPlan``; ``n_numeric`` is the dense
arc-space matrix N of a reduction's coin basis, with orthonormal columns.
Both once were package API; the spectral-bridge and stepper tests compare
against them.

``StepPlan`` is the per-degree ``einsum`` stepper.  Before the package stepped
the walk in a fixed plan order, one GEMM per degree class, it stacked the coin
blocks of each degree class in the graph's arc order and applied them with one
``einsum`` per class, scattering into the arc positions and then gathering the
arc reversal.  That stepper lives on here, unchanged, for the differential
tests in ``test_walk_oracle.py``, on graphs too large for the dense
``walk_unitary``.

``transfer_fidelity`` is the per-vector fidelity loop: before the package
stepped W's orthonormal basis as one block, it built the coin states at a and
b and stepped the walk once per basis vector.  It lives on here, unchanged,
for the differential test of ``walk.transfer_fidelity``.

``orthonormal_columns`` is the numeric orthonormal basis of W that loop and
``blowup_oracle`` read: exact Gram-Schmidt, then each vector converted to
doubles and normalized.  The package now converts and normalizes W's
Gram-Schmidt output only inside its coin-state builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from reduction_oracle import assemble_projection
from sstwalk.coins import CoinAssignment, ReflectionCoin
from sstwalk.reduction import HermitianReduction
from sstwalk import linalg
from sstwalk.walk import coin_state, out_arc_slice, walk_apply


def c_float(coin: ReflectionCoin) -> np.ndarray:
    """float(2P - I) entry by entry, with P the Fraction assembly of the
    coin's basis."""
    p = assemble_projection(coin.degree, coin.basis)
    return np.array([[float(2 * x - (i == j)) for j, x in enumerate(row)]
                     for i, row in enumerate(p)])


def walk_unitary(assignment: CoinAssignment) -> np.ndarray:
    """Dense U = RC over the arc space, assembled from per-vertex coin blocks
    without ``StepPlan`` (the stepper tests' reference)."""
    g = assignment.graph
    c = np.zeros((g.num_arcs, g.num_arcs))
    for u in range(g.n):
        sl = out_arc_slice(g, u)
        c[sl, sl] = c_float(assignment.coin(u))
    return c[np.array(g.reversal), :]


def n_numeric(red: HermitianReduction) -> np.ndarray:
    """Arc-space matrix N with orthonormal columns (doubles only)."""
    g = red.assignment.graph
    n = np.zeros((g.num_arcs, red.size))
    for j, (u, vec) in enumerate(red.basis.columns):
        sl = out_arc_slice(g, u)
        col = np.array([float(x) for x in vec])
        n[sl, j] = col / np.linalg.norm(col)
    return n


@dataclass(frozen=True)
class StepPlan:
    """One step of U = RC with equal-degree coin blocks stacked.

    ``classes`` holds, per degree d, the (n_d x d) outgoing-arc indices of the
    degree-d vertices and their (n_d x d x d) float coin blocks; ``rev`` is
    the arc-reversal permutation.
    """

    classes: tuple[tuple[np.ndarray, np.ndarray], ...]
    rev: np.ndarray

    @classmethod
    def build(cls, assignment: CoinAssignment) -> "StepPlan":
        g = assignment.graph
        floats: dict[int, np.ndarray] = {}  # id(coin) -> C as floats
        by_degree: dict[int, list[int]] = {}
        for u in range(g.n):
            coin = assignment.coin(u)
            if id(coin) not in floats:
                floats[id(coin)] = c_float(coin)
            by_degree.setdefault(g.degree(u), []).append(u)
        start = np.array(g.arc_start[:-1], dtype=int)
        classes = []
        for d, us in sorted(by_degree.items()):
            arcs = start[us][:, None] + np.arange(d)
            blocks = np.stack([floats[id(assignment.coin(u))] for u in us])
            classes.append((arcs, blocks))
        return cls(tuple(classes), np.array(g.reversal))

    def apply(self, x: np.ndarray, t: int) -> np.ndarray:
        """U^t x by t steps, each one ``einsum`` per degree class plus one
        gather."""
        for _ in range(t):
            y = np.empty_like(x)
            for arcs, blocks in self.classes:
                y[arcs] = np.einsum("vij,vj->vi", blocks, x[arcs])
            x = y[self.rev]
        return x


def orthonormal_columns(vectors, degree: int) -> list[np.ndarray]:
    """Numeric orthonormal basis for the span of the rational (or float)
    vectors of length ``degree``: exact Gram-Schmidt, then one conversion to
    doubles and one normalization per vector.  A vector of another length is
    refused, as Gram-Schmidt's ``zip`` would truncate it silently."""
    if any(len(v) != degree for v in vectors):
        raise ValueError(f"weight vector must have length {degree}")
    out = []
    for v in linalg.gram_schmidt([[Fraction(x) for x in v] for v in vectors]):
        col = np.array(linalg.scaled_doubles(v)[0])
        out.append(col / np.linalg.norm(col))
    return out


def transfer_fidelity(assignment: CoinAssignment, a: int, b: int, w_basis, t: int
                      ) -> tuple[float, complex]:
    """min_j Re(conj(gamma) <x_b(w_j), U^t x_a(w_j)>) over an orthonormal
    basis w_j of W, clamped to [0, 1], with gamma the phase of the first
    overlap: one ``walk_apply`` call per basis vector."""
    ws = orthonormal_columns(w_basis, assignment.graph.degree(a))
    if not ws:
        raise ValueError("empty subspace")
    if assignment.graph.degree(a) != assignment.graph.degree(b):
        raise ValueError("positional identification needs deg(a) = deg(b)")
    gamma = complex(1.0)
    worst = 1.0
    for j, w in enumerate(ws):
        x = coin_state(assignment, a, w)
        y = coin_state(assignment, b, w)
        overlap = np.vdot(y, walk_apply(assignment, x, t))
        if j == 0:
            gamma = overlap / abs(overlap) if abs(overlap) > 1e-12 else complex(1.0)
        worst = min(worst, float((np.conj(gamma) * overlap).real))
    return max(0.0, min(1.0, worst)), gamma
