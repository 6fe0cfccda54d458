"""The plan-order stepper ``walk.StepPlan`` against the per-degree ``einsum``
stepper it replaced (``walk_oracle.StepPlan``), on graphs too large for the
dense ``walk_unitary``; the plan's per-step work pinned through its
structure; the integer ``walk._c_float`` against float(2P - I) from the
Fraction assembly of P (``walk_oracle.c_float``); and the block
``walk.transfer_fidelity`` against the per-vector loop it replaced
(``walk_oracle.transfer_fidelity``)."""

import random
from collections import Counter

import numpy as np
import pytest

from conftest import FAMILY_NAMES, family_instance, random_instance
from sstwalk import linalg
from sstwalk.coins import (CoinAssignment, grover_coin, negative_identity_coin,
                           reflection_about)
from sstwalk.families import random_coin_and_subspace
from sstwalk.graphs import (build_graph, circulant_2m, complete_multipartite,
                            double_cone_over, generalized_path)
from sstwalk.walk import StepPlan, _c_float, transfer_fidelity, walk_apply
from walk_oracle import StepPlan as EinsumPlan
from walk_oracle import c_float
from walk_oracle import transfer_fidelity as per_vector_fidelity

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
    n0, c, blocks = plan.classes[sorted(degrees).index(d)]
    assert n0 == sum(asn.coin(u) is shared for u in range(g.n)) and len(blocks) > 0
    assert np.array_equal(c, c_float(shared))
    assert not np.array_equal(c, c_float(grover_coin(d)))


def test_c_float_equals_fraction_oracle():
    """_c_float rounds each entry of C = 2P - I once, from integers: it
    equals float(2 P - I) with P assembled in Fractions, entry by entry with
    ==, on 240 seeded random coins of degree 1-12, the Grover coins of degree
    1-12 and -I."""
    rng = random.Random(19)
    coins = [random_coin_and_subspace(rng, 1 + i % 12)[0] for i in range(240)]
    coins += [grover_coin(d) for d in range(1, 13)]
    coins += [negative_identity_coin(d) for d in range(1, 13)]
    assert {coin.rank for coin in coins} >= set(range(13))
    for coin in coins:
        assert _c_float(coin) == c_float(coin).tolist(), coin


@pytest.mark.parametrize("build", [circulant_marked, circulant_distinct, gp_marked,
                                   lambda: mixed_degree()[0]],
                         ids=["circulant-marked", "circulant-distinct", "gp(4,50)",
                              "mixed-degree"])
def test_plan_stepper_matches_einsum_oracle(build):
    """A real state, and a stack of three real rows (one of them zero), each
    stepped to a float64 array of its own shape."""
    asn = build()
    oracle = EinsumPlan.build(asn)
    nrng = np.random.default_rng(2025)
    m = asn.graph.num_arcs
    x = nrng.normal(size=m)
    stack = nrng.normal(size=(3, m))
    stack[1] = 0.0
    for t in TIMES:
        got = walk_apply(asn, x, t)
        assert got.shape == (m,) and got.dtype == np.float64
        assert np.allclose(got, oracle.apply(x, t), rtol=0, atol=1e-12)
        got = walk_apply(asn, stack, t)
        assert got.shape == (3, m) and got.dtype == np.float64
        for row, want in zip(got, stack):
            assert np.allclose(row, oracle.apply(want, t), rtol=0, atol=1e-12)
        assert not got[1].any()


def test_per_step_work_does_not_grow_with_distinct_coins(monkeypatch):
    """A distinct coin at every vertex of circulant(1000,1,999) still gives
    one class per distinct degree, one shared block plus one block stack per
    class, and two kernel calls per class per step, whatever the number of
    states stepped together."""
    asn = circulant_distinct()
    g = asn.graph
    plan = asn.step_plan
    assert len(plan.classes) == len({g.degree(u) for u in range(g.n)}) == 1
    n0, c, blocks = plan.classes[0]
    assert (n0, c.shape, blocks.shape) == (1, (4, 4), (g.n - 1, 4, 4))
    assert sorted(plan.order) == list(range(g.num_arcs))
    assert sorted(plan.nxt) == list(range(g.num_arcs))

    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
    x = np.ones((9, g.num_arcs))
    x[1::2] *= -1
    walk_apply(asn, x, 3)
    assert len(calls) == 3 * 2 * len(plan.classes)


def test_each_real_row_steps_as_one_column_and_complex_is_refused(monkeypatch):
    """U is real: a state steps as one float column and a stack of k rows as
    k, integer entries included; a complex state, even one with a zero
    imaginary part, is refused before any step, never cut to its real part."""
    asn = gp_marked()
    widths = []
    apply = StepPlan.apply
    monkeypatch.setattr(StepPlan, "apply",
                        lambda self, x, t: widths.append(x.shape[1]) or apply(self, x, t))
    m = asn.graph.num_arcs
    for state, width in ((np.ones(m), 1), (np.ones((3, m)), 3), (np.ones(m, dtype=int), 1)):
        widths.clear()
        out = walk_apply(asn, state, 2)
        assert widths == [width] and out.dtype == np.float64 and out.shape == state.shape
    widths.clear()
    for state in (np.ones(m) + 1j, np.ones((3, m)) + 0j):
        for t in (0, 2):
            with pytest.raises(ValueError, match="real and imaginary parts .* as two rows"):
                walk_apply(asn, state, t)
    assert widths == []


def k555_cone():
    """The double cone over K_{5,5,5}, W = ker A(K_{5,5,5}) (dim 12), and
    the reflection about W at both apexes."""
    base = complete_multipartite([5, 5, 5])
    kernel = linalg.kernel_basis([[int(base.adjacent(u, v)) for v in range(base.n)]
                                  for u in range(base.n)])
    g, a, b = double_cone_over(base)
    return CoinAssignment.grover_with_marked(g, a, b, reflection_about(kernel)), a, kernel, b


def fidelity_cases():
    """(id, (assignment, a, W, b), steps): seeded random instances, the
    family instances the exact-ladder benchmark runs, and the K_{5,5,5} cone
    at its best sweep step."""
    for seed in range(40):
        g, a, b, coin, w = random_instance(seed)
        yield (f"random{seed}", (CoinAssignment.grover_with_marked(g, a, b, coin), a, w, b),
               random.Random(seed).sample(range(40), 4))
    for name in FAMILY_NAMES:
        yield name, family_instance(name), (0, 1, 2, 4, 9, 17)
    yield "k555-cone", k555_cone(), (1, 3922)


FIDELITY_CASES = list(fidelity_cases())


def test_fidelity_cases_cover_dim_w_one_two_and_twelve():
    assert {1, 2, 12} <= {len(args[2]) for _, args, _ in FIDELITY_CASES}


@pytest.mark.parametrize("name,args,steps", FIDELITY_CASES, ids=[c[0] for c in FIDELITY_CASES])
def test_block_fidelity_matches_per_vector_oracle(name, args, steps):
    asn, a, w, b = args
    for t in steps:
        fid, gamma = transfer_fidelity(asn, a, b, w, t)
        want_fid, want_gamma = per_vector_fidelity(asn, a, b, w, t)
        assert abs(fid - want_fid) <= 1e-12 and abs(gamma - want_gamma) <= 1e-12
