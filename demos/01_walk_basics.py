#!/usr/bin/env python3
"""Walk basics: arcs, reflection coins, and the step operator U = RC.

The state space of the walk is the set of arcs (ordered pairs along edges) of
a connected simple graph.  One step applies a per-vertex reflection coin to
the outgoing arcs of each vertex, then reverses every arc.
"""

from fractions import Fraction

import numpy as np

from sstwalk import CoinAssignment, build_graph, coin_state, walk_apply

print(__doc__)

g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3)], 4)
print(f"graph: {g.n} vertices, {len(g.edges)} edges, {g.num_arcs} arcs")
print("arc order:", g.arcs)

asn = CoinAssignment.all_grover(g)
# a coin is an orthogonal integer basis b of col(P); C = 2P - I with
# P = sum of b b^T / <b,b>, assembled here in exact rationals
coin = asn.coin(2)
print("\nGrover coin at the degree-3 vertex 2 (entries 2/3 - [i=j]):")
for i in range(coin.degree):
    row = [2 * sum(Fraction(b[i] * b[j], sum(x * x for x in b)) for b in coin.basis)
           - (i == j) for j in range(coin.degree)]
    print("  ", [str(x) for x in row])

# the columns of U are the images of the arc basis states after one step
u = np.column_stack([walk_apply(asn, e, 1) for e in np.eye(g.num_arcs)]).real
print("\nU is unitary:", np.allclose(u @ u.T.conj(), np.eye(g.num_arcs)))

# a coin state at vertex 0: weights fixed by the coin, living on outgoing arcs
x = coin_state(asn, 0, [1, 1])
print("\ncoin state x_0(1):")
for idx, arc in enumerate(g.arcs):
    if abs(x[idx]) > 1e-12:
        print(f"   {arc}: {x[idx].real:+.4f}")

print("\namplitudes after a few steps (norm is conserved):")
for t in range(4):
    y = walk_apply(asn, x, t)
    top = max(range(g.num_arcs), key=lambda i: abs(y[i]))
    print(f"  t={t}: ||state|| = {np.linalg.norm(y):.12f}, "
          f"largest amplitude {abs(y[top]):.4f} on arc {g.arcs[top]}")

# the edge graph K_2 has period 2 exactly: U = R there
k2 = build_graph([(0, 1)], 2)
asn2 = CoinAssignment.all_grover(k2)
e01 = np.array([1.0, 0.0])
print("\nK_2: U e_(0,1) =", walk_apply(asn2, e01, 1),
      " and U^2 e_(0,1) =", walk_apply(asn2, e01, 2))
