#!/usr/bin/env python3
"""The exact decision pipeline, end to end, on two worked instances.

Whether a subspace W of coin states moves perfectly from a to b at some
integer step is decided entirely over Q:

  1. resolvent traces psi_S, psi_T, psi_{S,T} of the reduction (exact),
     read from the moments of the start vectors e_s + e_t and e_s - e_t,
  2. the reduced denominator g carries the eigenvalue support,
  3. g is a product of distinct Psi_m, the minimal polynomials of
     cos(2 pi/m),  <=>  the walk is pointwise W-periodic, with minimum
     period tau = lcm of the orders m,
  4. the denominators of psi_S -+ psi_{S,T} split the support into the classes
     E B_S = +-E B_T; matching their orders against the parity split of tau
     fixes the transfer phase gamma.
"""

from fractions import Fraction

from sstwalk import (CoinAssignment, circulant_2m, complete_bipartite_k2m,
                     decide_periodicity, decide_transfer, exact_transfer_check,
                     psi, reduction_for, reflection_about, transfer_fidelity)

print(__doc__)


def walkthrough(title, graph, a, b, assignment, w):
    print(f"--- {title} ---")
    red = reduction_for(assignment, a, w, b)
    psi_s = psi(red, red.s, red.s)
    print("psi_S       =", psi_s.serialize())
    print("psi_{S,T}   =", psi(red, red.s, red.t).serialize())
    g = psi_s.den
    periodicity = decide_periodicity(red)
    orders = periodicity.orders
    print("g (support) =", g.serialize(), "   cosine orders =",
          "none" if orders is None else sorted(orders))
    print("periodicity :", periodicity.line())
    verdict = decide_transfer(red)
    print("transfer    :", verdict.line())
    if verdict.occurs:
        print("exact f_t(H) B_S = gamma B_T:",
              exact_transfer_check(red, verdict.time, verdict.gamma))
        fid, gamma = transfer_fidelity(assignment, a, b, w, verdict.time)
        print(f"simulation  : fidelity {fid:.12f}, phase {gamma.real:+.0f}")
    print()


# K_{2,3} with Grover coins, W = span{1}: transfer at t=2 with phase +1
g3, a3, b3 = complete_bipartite_k2m(3)
walkthrough("K_{2,3}, Grover, W = span{1}", g3, a3, b3,
            CoinAssignment.all_grover(g3), [[1, 1, 1]])

# the octahedron as a circulant with a 2-dimensional W: t=4, phase -1
g6, a6, b6 = circulant_2m(3, 1, 2)
w = [[1, 0, -1, 0], [0, 1, 0, -1]]
asn6 = CoinAssignment.grover_with_marked(g6, a6, b6, reflection_about(w))
walkthrough("octahedron circulant, dim-2 W", g6, a6, b6, asn6, w)

# a refusal: equal degrees are not enough
from sstwalk import build_graph

g5 = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)
walkthrough("triangle with a tail, vertices 0 and 3", g5, 0, 3,
            CoinAssignment.all_grover(g5), [[Fraction(1), Fraction(1)]])
