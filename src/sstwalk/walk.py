"""Double-precision simulation of the arc-reversal walk U = RC.

States live on arcs in the graph's canonical order; the outgoing arcs of a
vertex form a contiguous slice, found in O(1) from ``Graph.arc_start``.  The
step applies the block-diagonal coin, then the arc reversal ``Graph.reversal``.
U is real orthogonal (C is built from reflections over Q), so the walk is real:
states are float64, the states of one call step as the columns of one
(arcs x k) block, and the orthonormal basis of a subspace W steps as one block.
Each coin's C = 2P - I is built from its primitive integer basis columns and
rounded to doubles once per entry.  A ``StepPlan``, built once per coin
assignment, keeps the block in a fixed plan order: degree class by degree
class, the arcs of the vertices with the class's most common coin first,
grouped by arc index at the vertex so that the shared coin multiplies all of
them and all states as one matrix, then the arcs of the other vertices (a
stack of coin blocks, each distinct coin converted once).  A step is one real
GEMM plus at most one batched ``matmul`` per degree class, whatever the number
of states, then one gather of whole rows that is the arc reversal composed
with plan order; the block enters plan order once per ``walk_apply`` and
leaves it once.  The plan is the only way U is applied; no
dense U is built.  No renormalization is performed: norm drift is itself a
diagnostic.  Subspaces W enter as rational vectors, floats converted exactly,
and are orthogonalized by exact Gram-Schmidt; ``_coin_weights`` then converts
each weight vector to doubles once, scaled by a power of two so entries past
the double range convert without overflow, and normalizes it once.
numpy is imported by each entry point on first use, so the exact layers
that import this module never load it.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from math import inf, lcm
from typing import TYPE_CHECKING

from . import linalg
from .coins import CoinAssignment, ReflectionCoin
from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np


def out_arc_slice(graph: Graph, u: int) -> slice:
    """Outgoing arcs of u form a contiguous slice in lexicographic arc order."""
    return slice(graph.arc_start[u], graph.arc_start[u + 1])


def _c_float(coin: ReflectionCoin) -> list[list[float]]:
    """C = 2P - I as doubles, each entry rounded once.  P = sum of b b^T/<b,b>
    over the basis columns is summed in Python ints q over L = lcm <b,b>, and
    C_ij = (2 q_ij - [i = j] L) / L is an int true division, which Python
    rounds correctly: the double nearest the exact rational entry."""
    cols = coin.basis
    norms = [linalg.dot(b, b) for b in cols]
    den = lcm(1, *norms)
    q = [[0] * coin.degree for _ in range(coin.degree)]
    for b, nb in zip(cols, norms):
        for x, row in zip(b, q):
            if x:
                s = den // nb * x
                for j, y in enumerate(b):
                    row[j] += s * y
    return [[(2 * x - den * (i == j)) / den for j, x in enumerate(row)]
            for i, row in enumerate(q)]


@dataclass(frozen=True)
class StepPlan:
    """One step of U = RC as a few real kernel calls on a block of states.

    Plan order lists the arcs degree class by degree class.  Within the class
    of degree d, the arcs of the n0 vertices that carry the class's most
    common coin come first, by arc index at the vertex and then by vertex;
    the arcs of the other vertices follow, vertex by vertex.  ``order[i]`` is
    the arc at plan position i and ``pos`` its inverse.  ``classes`` holds,
    per degree d, (n0, C as a float (d x d) array, the (m x d x d) float coin
    blocks of the m other vertices).  ``nxt`` is the arc reversal composed
    with plan order: after the coin, the state at plan position i is read
    from position nxt[i].

    U is real, so k states step as the columns of one float64 (arcs x k)
    block, kept in plan order: the common-coin rows of a class form one
    (d x n0 k) matrix for C (a reflection, so C = C^T), and the rows of each
    other vertex a (d x k) matrix for its own coin.
    """

    order: np.ndarray
    pos: np.ndarray
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
            order.append((np.arange(d)[:, None] + start[head]).ravel())
            order.append((start[rest][:, None] + np.arange(d)).ravel())
            blocks = np.array([floats[id(assignment.coin(u))] for u in rest]).reshape(-1, d, d)
            classes.append((len(head), floats[common], blocks))
        order = np.concatenate(order)
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        return cls(order, pos, pos[np.array(g.reversal)][order], tuple(classes))

    def apply(self, x: np.ndarray, t: int) -> np.ndarray:
        """U^t on each column of the float (arcs x k) block x, by t steps.  A
        step is, per degree class, one GEMM over the common-coin arcs and one
        batched ``matmul`` over the others, then one gather of whole rows."""
        import numpy as np

        k = x.shape[1]
        z = np.take(x, self.order, axis=0)
        y = np.empty_like(z)
        for _ in range(t):
            s = 0
            for n0, c, blocks in self.classes:
                d = len(c)
                m = s + n0 * d
                e = m + len(blocks) * d
                np.matmul(c, z[s:m].reshape(d, -1), out=y[s:m].reshape(d, -1))
                if len(blocks):
                    np.matmul(blocks, z[m:e].reshape(-1, d, k), out=y[m:e].reshape(-1, d, k))
                s = e
            # every index is in range; a mode other than "raise" lets take
            # write into z without buffering
            np.take(y, self.nxt, axis=0, out=z, mode="clip")
        return np.take(z, self.pos, axis=0)


def _refuse_bad_weights(g: Graph, a: int, ws) -> None:
    """Each weight vector must have length deg(a), as Gram-Schmidt's ``zip``
    would truncate it silently; a NaN or infinite weight would give a NaN
    state (NaN passes the fixed-vector test, as every comparison with it is
    false)."""
    d = g.degree(a)
    if any(len(w) != d for w in ws):
        raise ValueError(f"weight vector must have length deg({a}) = {d}")
    if not all(-inf < x < inf for w in ws for x in w):
        raise ValueError(f"weight vector at vertex {a} is not finite")


def _coin_weights(assignment: CoinAssignment, u: int, ws) -> np.ndarray:
    """The weights over sigma_u of the unit coin states x_u(w), one row per
    weight vector w in ``ws``, rational or float.  Each w is converted to
    doubles once, by ``linalg.scaled_doubles``, and normalized once; it must
    satisfy C_u w = w up to 1e-12, that is P w = w, tested in O(r d) as
    P w = B^T ((B w) / <b,b>) from the r basis columns B, each column b and
    its <b,b> scaled by 2^-e and 4^-e.  Each w has length deg(u) (callers check)."""
    import numpy as np

    d = assignment.graph.degree(u)
    wv = np.array([linalg.scaled_doubles(w)[0] for w in ws])
    cols = assignment.coin(u).basis
    scaled = [linalg.scaled_doubles(c) for c in cols]
    b = np.array([v for v, _ in scaled], dtype=float).reshape(-1, d)
    norms = np.array([linalg.to_double(linalg.dot(c, c), 2 * e)
                      for c, (_, e) in zip(cols, scaled)])
    pw = (wv @ b.T / norms) @ b
    for w, p in zip(wv, pw):
        if np.linalg.norm(p - w) > 1e-12 * np.linalg.norm(w):
            raise ValueError(f"weight vector is not fixed by the coin at vertex {u}")
    nrm = np.linalg.norm(wv, axis=1)
    if not nrm.all():
        raise ValueError(f"zero coin state at vertex {u}")
    return wv / nrm[:, None]


def coin_state(assignment: CoinAssignment, a: int, w) -> np.ndarray:
    """The unit arc-space coin state x_a(w), real for the real (rational or
    float) weights w; requires C_a w = w up to 1e-12."""
    import numpy as np

    g = assignment.graph
    _refuse_bad_weights(g, a, [w])
    state = np.zeros(g.num_arcs)
    state[out_arc_slice(g, a)] = _coin_weights(assignment, a, [w])[0]
    return state


def walk_apply(assignment: CoinAssignment, state: np.ndarray, t: int) -> np.ndarray:
    """U^t applied to a copy of ``state``, a real vector over the arcs or a
    stack of such rows, by t applications of C then R; the result is a fresh
    float64 array of the same shape.

    U is real, so the walk is real: all rows step together as the columns of
    one float block.  A complex state is refused (step its real and imaginary
    parts as two rows).  The assignment's step plan is built on the first
    call with t > 0 and then reused; t = 0 returns a fresh copy without
    building it."""
    import numpy as np

    g = assignment.graph
    x = np.asarray(state)
    if x.ndim not in (1, 2) or x.shape[-1] != g.num_arcs:
        raise ValueError(f"state must have length {g.num_arcs}, or be a stack of such rows")
    if x.dtype.kind == "c":
        raise ValueError("the walk is real: step the real and imaginary parts of a "
                         "complex state as two rows")
    try:
        t = operator.index(t)
    except TypeError:
        raise ValueError(f"t must be an integer, got t={t!r}") from None
    if t < 0:
        raise ValueError(f"t must be nonnegative, got t={t}")
    if not t:
        return x.astype(float)
    rows = x.astype(float, copy=False).reshape(-1, g.num_arcs)
    return assignment.step_plan.apply(rows.T, t).T.reshape(x.shape)


def transfer_fidelity(assignment: CoinAssignment, a: int, b: int, w_basis, t: int
                      ) -> tuple[float, float]:
    """Pointwise W-transfer fidelity at step t, plus the estimated phase.

    ``w_basis`` spans W as rational vectors over sigma_a (floats are converted
    to Fractions exactly; a vector whose length is not deg(a) is refused
    before Gram-Schmidt); the same coordinates are reused over sigma_b
    (positional identification, the identity on the shared neighbor set for
    twins).  Returns min_j gamma <x_b(w_j), U^t x_a(w_j)> over an orthonormal
    basis w_j of W, clamped to [0, 1], and the phase gamma: the walk is real,
    so gamma is the float sign of the first overlap, 1.0 when that overlap is
    within 1e-12 of 0.  A value of 1 means pointwise transfer numerically;
    subspace transfer with mismatched phases scores strictly below 1.  The
    states x_a(w_j) step together as one block, in one ``walk_apply`` call.
    """
    import numpy as np

    g = assignment.graph
    _refuse_bad_weights(g, a, w_basis)
    ws = linalg.gram_schmidt(w_basis)
    if not ws:
        raise ValueError("empty subspace")
    if g.degree(a) != g.degree(b):
        raise ValueError("positional identification needs deg(a) = deg(b)")
    x = np.zeros((len(ws), g.num_arcs))
    x[:, out_arc_slice(g, a)] = _coin_weights(assignment, a, ws)
    y = _coin_weights(assignment, b, ws)  # x_b(w_j) lives on the arcs of b
    overlaps = (y * walk_apply(assignment, x, t)[:, out_arc_slice(g, b)]).sum(axis=1)
    gamma = -1.0 if overlaps[0] < -1e-12 else 1.0
    worst = min(1.0, float((gamma * overlaps).min()))
    return max(0.0, worst), gamma
