#!/usr/bin/env python3
"""From the walk to a small Hermitian matrix, without leaving the rationals.

Fixing an exact orthogonal coin basis M (one block of columns per vertex)
turns the walk into the matrix H = D^{-1/2} (M^T R M) D^{-1/2} on "clones" of
vertices.  H itself is irrational, but it is diagonally similar to the
rational H_rat = (M^T R M) D^{-1}, and integer powers of the walk satisfy
N* U^t N = f_t(H) with f_t the Chebyshev polynomial of the first kind.  All
transfer questions become exact linear algebra over Q.
"""

from fractions import Fraction

import numpy as np

from sstwalk import (CoinAssignment, build_graph, chebyshev_apply,
                     reduction_for, walk_apply)
from sstwalk.walk import out_arc_slice

print(__doc__)

# all-Grover coins reduce to the normalized adjacency matrix: Petersen graph
outer = [(i, (i + 1) % 5) for i in range(5)]
inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
spokes = [(i, i + 5) for i in range(5)]
petersen = build_graph(outer + inner + spokes, 10)
asn = CoinAssignment.all_grover(petersen)
red = reduction_for(asn, 0, [[1, 1, 1]])
# H_rat[u][v] = sym[u][v] / delta_sq[v], read from the integer nonzeros of sym
h_rat = {(u, v): Fraction(x, red.norm_sq[v]) for u, v, x in red.nonzeros}
print("Petersen, all Grover: H_rat = A/3?",
      all(h_rat.get((u, v), 0) * 3 == (1 if petersen.adjacent(u, v) else 0)
          for u in range(10) for v in range(10)))
print("delta_sq (clone norms squared):", [str(x) for x in red.norm_sq[:5]], "...")

# the spectral bridge, numerically: U column by column from single steps, and
# N with one normalized coin-basis column per clone on its vertex's arcs
u = np.column_stack([walk_apply(asn, e, 1) for e in np.eye(petersen.num_arcs)]).real
n = np.zeros((petersen.num_arcs, red.size))
for j, (v, vec) in enumerate(red.basis.columns):
    n[out_arc_slice(petersen, v), j] = np.array(vec) / np.linalg.norm(vec)
lam, vecs = np.linalg.eigh(red.h_numeric())
for t in (1, 3, 6):
    ft = vecs @ np.diag(np.cos(t * np.arccos(np.clip(lam, -1, 1)))) @ vecs.T
    err = np.max(np.abs(n.T @ np.linalg.matrix_power(u, t) @ n - ft))
    print(f"  || N* U^{t} N - f_{t}(H) ||_max = {err:.2e}")

# exact Chebyshev evaluation stays rational
f2 = chebyshev_apply(red, 2)
print("\nf_2(H_rat) sample entries:", str(f2[0][0]), str(f2[0][1]), str(f2[0][5]))
print("eigenvalues of H lie in [-1, 1]:",
      float(np.min(lam)), "..", float(np.max(lam)))
