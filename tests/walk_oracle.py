"""The per-degree ``einsum`` stepper, kept as a test oracle of ``walk.StepPlan``.

Before the package stepped the walk with one complex GEMM per degree class in
a fixed plan order, it stacked the coin blocks of each degree class in the
graph's arc order and applied them with one ``einsum`` per class, scattering
into the arc positions and then gathering the arc reversal.  That stepper
lives on here, unchanged, for the differential tests in
``test_walk_oracle.py``, on graphs too large for the dense ``walk_unitary``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sstwalk.coins import CoinAssignment
from sstwalk.walk import _c_float, reversal_permutation


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
                floats[id(coin)] = np.array(_c_float(coin))
            by_degree.setdefault(g.degree(u), []).append(u)
        start = np.array(g.arc_start[:-1], dtype=int)
        classes = []
        for d, us in sorted(by_degree.items()):
            arcs = start[us][:, None] + np.arange(d)
            blocks = np.stack([floats[id(assignment.coin(u))] for u in us])
            classes.append((arcs, blocks))
        return cls(tuple(classes), reversal_permutation(g))

    def apply(self, x: np.ndarray, t: int) -> np.ndarray:
        """U^t x by t steps, each one ``einsum`` per degree class plus one
        gather."""
        for _ in range(t):
            y = np.empty_like(x)
            for arcs, blocks in self.classes:
                y[arcs] = np.einsum("vij,vj->vi", blocks, x[arcs])
            x = y[self.rev]
        return x
