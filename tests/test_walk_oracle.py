"""The plan-order stepper ``walk.StepPlan`` against the per-degree ``einsum``
stepper it replaced (``walk_oracle.StepPlan``), on graphs too large for the
dense ``walk_unitary``, and the plan's per-step work pinned through its
structure."""

import random
from collections import Counter

import numpy as np
import pytest

from sstwalk.coins import (CoinAssignment, grover_coin, negative_identity_coin,
                           reflection_about)
from sstwalk.families import random_coin_and_subspace
from sstwalk.graphs import build_graph, circulant_2m, generalized_path
from sstwalk.walk import StepPlan, walk_apply
from walk_oracle import StepPlan as EinsumPlan

CIRCULANT_W = [[1, 0, -1, 0], [0, 1, 0, -1]]
TIMES = (1, 2, 5, 31, 100)


def circulant_marked():
    g, a, b = circulant_2m(1000, 1, 999)
    return CoinAssignment.grover_with_marked(g, a, b, reflection_about(CIRCULANT_W))


def circulant_distinct():
    """circulant(1000,1,999) with a distinct random rational coin at every
    vertex: every vertex but one is an exception to its class's coin."""
    g, _, _ = circulant_2m(1000, 1, 999)
    rng = random.Random(7)
    return CoinAssignment(g, {u: random_coin_and_subspace(rng, 4)[0] for u in range(g.n)})


def gp_marked():
    (g, a, b), rng = generalized_path(4, 50), random.Random(11)
    return CoinAssignment.grover_with_marked(g, a, b, random_coin_and_subspace(rng, 4)[0])


def mixed_degree():
    """A seeded connected graph with pendant vertices, a hub whose degree no
    other vertex has, and a most populous degree class whose most common
    coin is a shared non-Grover reflection (``shared``) among the classes
    above degree 1."""
    rng = random.Random(5)
    n_core, n_pendant = 40, 8
    edges = {(rng.randrange(v), v) for v in range(1, n_core)}  # random tree
    edges |= {(i, j) for i in range(n_core) for j in range(i + 1, n_core)
              if rng.random() < 0.06}
    hub = n_core
    edges |= {(u, hub) for u in rng.sample(range(n_core), 25)}
    edges |= {(rng.randrange(n_core), hub + 1 + k) for k in range(n_pendant)}
    n = hub + 1 + n_pendant
    g = build_graph(sorted(edges), n)
    degrees = Counter(g.degree(u) for u in range(n))
    big = max((d for d in degrees if d > 1), key=lambda d: (degrees[d], d))
    shared = random_coin_and_subspace(rng, big)[0]
    coins = {}
    for u in range(n):
        d = g.degree(u)
        if d == 1:
            coins[u] = rng.choice([grover_coin(1), negative_identity_coin(1)])
        elif d == big:
            coins[u] = rng.choice([shared, shared, shared, grover_coin(d),
                                   random_coin_and_subspace(rng, d)[0]])
        else:
            coins[u] = rng.choice([grover_coin(d), random_coin_and_subspace(rng, d)[0]])
    return CoinAssignment(g, coins), shared


def test_mixed_degree_instance_has_the_cases_it_names():
    asn, shared = mixed_degree()
    g = asn.graph
    degrees = Counter(g.degree(u) for u in range(g.n))
    assert degrees[1] >= 2 and 1 in degrees.values()  # pendants; a class of one vertex
    assert len({id(asn.coin(u)) for u in range(g.n) if g.degree(u) == 1}) == 2
    plan = StepPlan.build(asn)
    d = shared.degree
    n0, ct, blocks = plan.classes[sorted(degrees).index(d)]
    assert n0 == sum(asn.coin(u) is shared for u in range(g.n)) and len(blocks) > 0
    assert np.array_equal(ct, np.array(shared.c_matrix(), dtype=float).T)
    assert not np.array_equal(ct, np.array(grover_coin(d).c_matrix(), dtype=float).T)


@pytest.mark.parametrize("build", [circulant_marked, circulant_distinct, gp_marked,
                                   lambda: mixed_degree()[0]],
                         ids=["circulant-marked", "circulant-distinct", "gp(4,50)",
                              "mixed-degree"])
def test_plan_stepper_matches_einsum_oracle(build):
    asn = build()
    oracle = EinsumPlan.build(asn)
    nrng = np.random.default_rng(2025)
    m = asn.graph.num_arcs
    x = nrng.normal(size=m) + 1j * nrng.normal(size=m)
    for t in TIMES:
        assert np.allclose(walk_apply(asn, x, t), oracle.apply(x, t), rtol=0, atol=1e-12)


def test_per_step_work_does_not_grow_with_distinct_coins(monkeypatch):
    """A distinct coin at every vertex of circulant(1000,1,999) still gives
    one class per distinct degree, one shared block plus one block stack per
    class, and two kernel calls per class per step."""
    asn = circulant_distinct()
    g = asn.graph
    plan = asn.step_plan
    assert len(plan.classes) == len({g.degree(u) for u in range(g.n)}) == 1
    n0, ct, blocks = plan.classes[0]
    assert (n0, ct.shape, blocks.shape) == (1, (4, 4), (g.n - 1, 4, 4))
    assert sorted(plan.order) == list(range(g.num_arcs))
    assert sorted(plan.nxt) == list(range(g.num_arcs))

    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
    x = np.ones(g.num_arcs, dtype=complex)
    plan.apply(x, 3)
    assert len(calls) == 3 * 2 * len(plan.classes)
