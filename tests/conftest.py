"""Shared helpers: seeded random walk instances and synthetic reductions."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain
from math import lcm

from hypothesis import settings

from sstwalk.coins import CoinAssignment, reflection_about
from sstwalk.families import (double_cone_w, marked_instance, random_coin_and_subspace,
                              random_orthogonal_columns)
from sstwalk.graphs import (GraphError, build_graph, circulant_2m,
                            complete_bipartite_k2m, cycle_graph,
                            double_cone_cycles, generalized_path)
from sstwalk.reduction import HermitianReduction, reduction_for

# the hypothesis tests draw the same examples on every run and keep no
# example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


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


def schedule_reduction(rng: random.Random, n: int, rank: int, dim_w: int
                       ) -> HermitianReduction:
    """The shape of the benchmark's random-small instances: a random tree on
    n vertices plus 30 % of the other vertex pairs as chords, a marked pair of
    equal degree >= rank with a shared random rational reflection coin of that
    rank (Grover elsewhere) and W spanned by dim_w of its basis vectors."""
    extra = round(0.3 * (n - 1) * (n - 2) / 2)
    while True:
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        chords = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in set(tree)]
        graph = build_graph(tree + rng.sample(chords, extra), n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if graph.degree(a) == graph.degree(b) >= rank]
        if pairs:
            break
    a, b = rng.choice(pairs)
    cols = random_orthogonal_columns(rng, graph.degree(a), rank)
    assignment = CoinAssignment.grover_with_marked(graph, a, b, reflection_about(cols))
    return reduction_for(assignment, a, cols[:dim_w], b)


FAMILY_NAMES = ["gp(4,10)", "circulant(20,1,19)", "double_cone([1,2,3])", "k2m(20)"]


def family_instance(name: str):
    """The reduction_for arguments (assignment, a, W, b) of one of the four
    FAMILY_NAMES instances the differential tests share, from the marked-pair
    recipe ``families.marked_instance``: gp(4,10) and k2m(20) with Grover
    coins and W = span{1}, circulant(20,1,19) and double_cone([1,2,3]) with
    the reflection about their canonical W."""
    if name == "gp(4,10)":
        return marked_instance(*generalized_path(4, 10))
    if name == "circulant(20,1,19)":
        return marked_instance(*circulant_2m(20, 1, 19), [[1, 0, -1, 0], [0, 1, 0, -1]])
    if name == "double_cone([1,2,3])":
        return marked_instance(*double_cone_cycles([1, 2, 3]), double_cone_w([1, 2, 3]))
    return marked_instance(*complete_bipartite_k2m(20))


def family_reduction(name: str) -> HermitianReduction:
    return reduction_for(*family_instance(name))


def odd_cycle_instances():
    """(name, reduction_for arguments) of ``odd_cycle_reductions``."""
    for n in (5, 7, 9, 11):
        assignment = CoinAssignment.all_grover(cycle_graph(n))
        for d in range(1, n // 2 + 1):
            yield f"C{n}(d={d})", (assignment, 0, [[1, 1]], d)


def odd_cycle_reductions():
    """(name, reduction) for the odd cycles C_n, n in {5, 7, 9, 11}, with
    Grover coins, W = span{(1, 1)} at vertex 0 and the marked vertex at every
    distance 1 .. (n - 1)/2.  Their support is periodic with odd minimum
    period, so every one ends at NO_TRANSFER stage=odd-tau."""
    for name, args in odd_cycle_instances():
        yield name, reduction_for(*args)


def synthetic_reduction(sym_rows, delta_sq, s, t) -> HermitianReduction:
    """A reduction carrying an arbitrary rational (sym, delta_sq) pair, for
    exercising the exact algebra without a graph behind it.  A reduction holds
    ints, so sym and delta_sq are both scaled by the least common denominator
    of their entries: H_rat = sym * diag(delta_sq)^-1, H and every psi stay
    as given.  delta_sq must be positive, as build_H's are: construction
    refuses delta_sq <= 0 with InvariantError."""
    sym_rows = [[Fraction(x) for x in row] for row in sym_rows]
    delta_sq = [Fraction(x) for x in delta_sq]
    den = lcm(*(x.denominator for x in chain(delta_sq, *sym_rows)))
    nonzeros = [(i, j, int(x * den)) for i, row in enumerate(sym_rows)
                for j, x in enumerate(row) if x]
    return HermitianReduction(assignment=None, basis=None, nonzeros=nonzeros,
                              norm_sq=[int(x * den) for x in delta_sq],
                              s=list(s), t=list(t))
