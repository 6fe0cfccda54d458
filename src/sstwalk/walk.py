"""Double-precision simulation of the arc-reversal walk U = RC.

States live on arcs in the graph's canonical order; the outgoing arcs of a
vertex form a contiguous slice, found in O(1) from ``Graph.arc_start``.  The
step applies the block-diagonal coin followed by the arc-reversal permutation.
A ``StepPlan``, built once per coin assignment, keeps the state in a fixed
plan order: degree class by degree class, the vertices with the class's most
common coin first (one shared complex (d x d) block), then the others (a stack
of float blocks, each distinct coin converted once).  A step is one complex
GEMM plus at most one batched real ``matmul`` per degree class, then one
gather that is the arc reversal composed with plan order; the state enters
plan order once per ``walk_apply`` and leaves it once.  The plan is the only
way U is applied; no dense U is built.  No renormalization is performed: norm
drift is itself a diagnostic.  Subspaces W enter as rational vectors, floats
converted exactly, and are orthonormalized by exact Gram-Schmidt before the
one conversion to doubles.  numpy is imported by each entry point on first
use, so the exact layers that import this module never load it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import linalg
from .coins import CoinAssignment, ReflectionCoin
from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np


def out_arc_slice(graph: Graph, u: int) -> slice:
    """Outgoing arcs of u form a contiguous slice in lexicographic arc order."""
    return slice(graph.arc_start[u], graph.arc_start[u + 1])


def reversal_permutation(graph: Graph) -> np.ndarray:
    import numpy as np

    return np.array([graph.arc_index[(v, u)] for u, v in graph.arcs], dtype=int)


def _c_float(coin: ReflectionCoin) -> list[list[float]]:
    return [[float(x) for x in row] for row in coin.c_matrix()]


@dataclass(frozen=True)
class StepPlan:
    """One step of U = RC as a few kernel calls on the state in plan order.

    Plan order lists the arcs degree class by degree class.  Within the class
    of degree d, the n0 vertices that carry the class's most common coin come
    first, and the other vertices follow.  ``order[i]`` is the arc at plan
    position i.  ``classes`` holds, per degree d, (n0, C^T as a complex
    (d x d) array, the (m x d x d) float coin blocks of the m other
    vertices).  ``nxt`` is the arc reversal composed with plan order: after
    the coin, the state at plan position i is read from position nxt[i].
    """

    order: np.ndarray
    nxt: np.ndarray
    classes: tuple[tuple[int, np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, assignment: CoinAssignment) -> "StepPlan":
        import numpy as np

        g = assignment.graph
        floats: dict[int, np.ndarray] = {}  # id(coin) -> C as floats
        by_degree: dict[int, list[int]] = {}
        for u in range(g.n):
            coin = assignment.coin(u)
            if id(coin) not in floats:
                floats[id(coin)] = np.array(_c_float(coin))
            by_degree.setdefault(g.degree(u), []).append(u)
        start = np.array(g.arc_start[:-1], dtype=int)
        order, classes = [], []
        for d, us in sorted(by_degree.items()):
            ids = [id(assignment.coin(u)) for u in us]
            common = Counter(ids).most_common(1)[0][0]
            rest = [u for u, i in zip(us, ids) if i != common]
            head = [u for u, i in zip(us, ids) if i == common]
            order.append((start[head + rest][:, None] + np.arange(d)).ravel())
            blocks = np.array([floats[id(assignment.coin(u))] for u in rest]).reshape(-1, d, d)
            classes.append((len(head), floats[common].T.astype(complex), blocks))
        order = np.concatenate(order)
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        return cls(order, pos[reversal_permutation(g)][order], tuple(classes))

    def apply(self, x: np.ndarray, t: int) -> np.ndarray:
        """U^t x by t steps.  A step is, per degree class, one complex GEMM
        over the common-coin vertices and one batched real ``matmul`` over
        the float view of the others, then one gather."""
        import numpy as np

        z = x[self.order]
        y = np.empty_like(z)
        for _ in range(t):
            s = 0
            for n0, ct, blocks in self.classes:
                d = len(ct)
                m = s + n0 * d
                e = m + len(blocks) * d
                np.matmul(z[s:m].reshape(n0, d), ct, out=y[s:m].reshape(n0, d))
                if len(blocks):
                    np.matmul(blocks, z[m:e].view(float).reshape(-1, d, 2),
                              out=y[m:e].view(float).reshape(-1, d, 2))
                s = e
            np.take(y, self.nxt, out=z)
        out = np.empty_like(z)
        out[self.order] = z
        return out


def coin_state(assignment: CoinAssignment, a: int, w) -> np.ndarray:
    """The unit arc-space coin state x_a(w); requires C_a w = w up to 1e-12."""
    import numpy as np

    g = assignment.graph
    wv = np.asarray([complex(x) for x in w])
    if wv.shape != (g.degree(a),):
        raise ValueError(f"weight vector must have length deg({a}) = {g.degree(a)}")
    p = np.array([[float(x) for x in row] for row in assignment.coin(a).p_matrix()])
    if np.linalg.norm(p @ wv - wv) > 1e-12 * max(np.linalg.norm(wv), 1e-30):
        raise ValueError("weight vector is not fixed by the coin at a")
    state = np.zeros(g.num_arcs, dtype=complex)
    state[out_arc_slice(g, a)] = wv
    nrm = np.linalg.norm(state)
    if nrm == 0:
        raise ValueError("zero coin state")
    return state / nrm


def walk_apply(assignment: CoinAssignment, state: np.ndarray, t: int) -> np.ndarray:
    """U^t applied to a copy of ``state`` by t applications of C then R.

    The assignment's step plan is built on the first call with t > 0 and
    then reused; t = 0 returns a fresh copy without building it."""
    import numpy as np

    g = assignment.graph
    x = np.asarray(state, dtype=complex)
    if x.shape != (g.num_arcs,):
        raise ValueError(f"state must have length {g.num_arcs}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return assignment.step_plan.apply(x, t) if t else x.copy()


def orthonormal_columns(vectors) -> list[np.ndarray]:
    """Numeric orthonormal basis for the span of the given vectors.

    The inputs are rational; floats are converted to Fractions exactly.  They
    are orthogonalized exactly first (no cancellation error, no rank cut), so
    the output stays inside exact subspaces to machine precision.
    """
    import numpy as np

    out = []
    for v in linalg.gram_schmidt([linalg.frac_vec(v) for v in vectors], on_dependent="drop"):
        col = np.array([float(x) for x in v])
        out.append(col / np.linalg.norm(col))
    return out


def transfer_fidelity(assignment: CoinAssignment, a: int, b: int, w_basis, t: int
                      ) -> tuple[float, complex]:
    """Pointwise W-transfer fidelity at step t, plus the estimated phase.

    ``w_basis`` spans W as rational vectors over sigma_a (floats are converted
    to Fractions exactly); the same coordinates are reused over sigma_b
    (positional identification, the identity on the shared neighbor set for
    twins).  Returns min_j Re(conj(gamma) <x_b(w_j), U^t x_a(w_j)>) over an
    orthonormal basis w_j of W, with gamma the phase of the first overlap,
    clamped to [0, 1].  A value of 1 means pointwise transfer numerically;
    subspace transfer with mismatched phases scores strictly below 1.
    """
    import numpy as np

    ws = orthonormal_columns(w_basis)
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
