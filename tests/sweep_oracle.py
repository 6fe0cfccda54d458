"""Dense reference for the fidelity sweep ``sstwalk.families.fidelity_series``.

This is the original sweep, kept as a test oracle: it diagonalises all of the
dense H with ``eigh`` and evaluates cos(t theta_k) on every eigenvalue for
each step.  It costs O(size^3) plus O(t_max * size) and two size x size
arrays, so it is only fit for the instances the differential tests use.
``fidelity_series`` takes the same ``eigh`` on its dense route, but sums the
cosines with the angle-addition kernel ``_cos_sums``; this oracle sums
cos(t theta_k) directly, so it checks that kernel on both routes.
"""

from __future__ import annotations

import numpy as np


def dense_fidelity_series(red, t_max: int, early_exit: float | None = None,
                          chunk: int = 20000) -> np.ndarray:
    """Pointwise W-transfer fidelity at integer steps 0..t_max, spectrally.

    Uses N* U^t N = f_t(H): the overlap of U^t x_a(w_j) with x_b(w_j) is
    sum_k cos(t arccos lambda_k) E_k[T_j, S_j].  Identical to the direct
    simulation up to the spectral-bridge accuracy; with ``early_exit`` the
    sweep stops after the first step whose fidelity reaches the threshold.
    """
    h = red.h_numeric()
    lam, vecs = np.linalg.eigh(h)
    theta = np.arccos(np.clip(lam, -1.0, 1.0))
    weights = vecs[red.t, :] * vecs[red.s, :]  # (dim W, #eigvecs)
    out = np.zeros(t_max + 1)
    for start in range(0, t_max + 1, chunk):
        ts = np.arange(start, min(start + chunk, t_max + 1))
        cos_t = np.cos(np.outer(ts, theta))
        overlaps = cos_t @ weights.T  # (len(ts), dim W)
        gamma = np.sign(overlaps[:, 0])
        gamma[gamma == 0] = 1.0
        fid = np.min(overlaps * gamma[:, None], axis=1)
        out[ts] = np.clip(fid, 0.0, 1.0)
        if early_exit is not None and np.any(out[ts] >= early_exit):
            stop = int(ts[np.argmax(out[ts] >= early_exit)])
            return out[: stop + 1]
    return out
