"""Shared helpers: seeded random walk instances and synthetic reductions."""

from __future__ import annotations

import random
from fractions import Fraction

from sstwalk.coins import CoinAssignment
from sstwalk.families import random_coin_and_subspace
from sstwalk.graphs import GraphError, build_graph
from sstwalk.reduction import HermitianReduction, reduction_for


def random_instance(seed: int):
    """A connected graph on <= 8 vertices, a random equal-degree marked pair,
    a random rational reflection coin shared by the pair (Grover elsewhere)
    and a random rational subspace of its fixed space."""
    rng = random.Random(10_000 + seed)
    while True:
        n = rng.randint(4, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        try:
            graph = build_graph(edges, n)
        except GraphError:
            continue
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if graph.degree(a) == graph.degree(b)]
        if not pairs:
            continue
        a, b = rng.choice(pairs)
        coin, w = random_coin_and_subspace(rng, graph.degree(a))
        return graph, a, b, coin, w


def assembled_instance(seed: int):
    graph, a, b, coin, w = random_instance(seed)
    assignment = CoinAssignment.grover_with_marked(graph, a, b, coin)
    red = reduction_for(assignment, a, w, b)
    return graph, a, b, assignment, w, red


def synthetic_reduction(sym_rows, delta_sq, s, t) -> HermitianReduction:
    """A reduction carrying an arbitrary (sym, delta_sq) pair, for exercising
    the exact algebra without a graph behind it."""
    nonzeros = [(i, j, Fraction(x)) for i, row in enumerate(sym_rows)
                for j, x in enumerate(row) if x]
    return HermitianReduction(assignment=None, basis=None, nonzeros=nonzeros,
                              delta_sq=[Fraction(x) for x in delta_sq],
                              clone_of=[(i, 0) for i in range(len(sym_rows))],
                              s=list(s), t=list(t))
