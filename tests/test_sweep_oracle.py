"""The fidelity sweep against the dense eigh sweep of the test oracle.

``sweep_oracle.dense_fidelity_series`` diagonalises all of H and sums each
cosine directly; ``families.fidelity_series`` takes a dense ``eigh`` too when
the Krylov basis of the marked clones would start at its full size x size
capacity, and otherwise works in that block Krylov space.  Every reduction of
the benchmark's random-small schedule takes the dense route, so the schedule
and the weak coupling also run through the Krylov route by hand
(``krylov_route``).  On seeded random reductions on that schedule, over the
negative-verdict window t <= 4 size^3, each route and the oracle must agree
within 1e-11 for t <= 64 and within 1e-8 over the whole window, and the same
steps must reach 1 - 1e-9 and 1 - 1e-4 in both.

The looser whole-window bound is rounding, not method: near an eigenvalue
|lam| = 1 an error of one ulp in lam moves cos(t arccos lam) by about t^2 ulp,
in both sweeps.  For the same reason the four families, whose perfect
transfers recur all along their 4 size^3 windows, are compared on t <= 1000,
the benchmark's family sweep window: past a few thousand steps the recurring
fidelity-1 points drift below 1 - 1e-9 by t^2 ulp, at steps that depend on
each sweep's last bits (on k2m(20) the dense sweep is 2e-7 from a 40-digit
reference by t = 42592, the Krylov sweep 4e-12).
"""

import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import (FAMILY_NAMES, family_reduction, schedule_reduction,
                      synthetic_reduction)
from sstwalk import families, linalg
from sstwalk.coins import CoinAssignment, reflection_about
from sstwalk.families import fidelity_series
from sstwalk.graphs import (circulant_2m, complete_multipartite, double_cone_over,
                            generalized_path, prism_graph)
from sstwalk.reduction import HermitianReduction, reduction_for
from sstwalk.walk import coin_state, transfer_fidelity, walk_apply
from sweep_oracle import dense_fidelity_series

SCHEDULE_N = range(4, 13)
SCHEDULE_SHAPES = ((1, 1), (2, 1), (2, 2))   # (coin rank, dim W)
THRESHOLDS = (1 - 1e-9, 1 - 1e-4)


def assert_sweeps_agree(red, t_max: int) -> None:
    new = fidelity_series(red, t_max)
    old = dense_fidelity_series(red, t_max)
    assert new.shape == old.shape
    gap = np.abs(new - old)
    assert gap[:65].max() <= 1e-11
    assert gap.max() <= 1e-8
    for level in THRESHOLDS:
        assert np.array_equal(new >= level, old >= level), level


@contextmanager
def krylov_route(monkeypatch):
    """Within the block, ``fidelity_series`` takes the Krylov route whatever
    the reduction's size."""
    with monkeypatch.context() as patch:
        patch.setattr(families, "_marked_spectrum", families._krylov_spectrum)
        yield


def refuse(*_):
    raise AssertionError("the sweep took the other route")


def schedule_reductions():
    """486 reductions, one pass of the schedule: n cycles through 4..12 and
    (coin rank, dim W) through the three shapes."""
    rng = random.Random(20261018)
    for i in range(486):
        n = SCHEDULE_N[i % len(SCHEDULE_N)]
        rank, dim_w = SCHEDULE_SHAPES[i // len(SCHEDULE_N) % len(SCHEDULE_SHAPES)]
        yield schedule_reduction(rng, n, rank, dim_w)


def test_sweep_matches_dense_on_random_small_schedule(monkeypatch):
    """Both routes, on every schedule reduction."""
    sizes = set()
    for red in schedule_reductions():
        assert_sweeps_agree(red, 4 * red.size ** 3)
        with krylov_route(monkeypatch):
            assert_sweeps_agree(red, 4 * red.size ** 3)
        sizes.add(red.size)
    assert min(sizes) <= 5 and max(sizes) >= 13


def cone_reduction(base):
    """The double cone over base with W = ker A(base) and the reflection
    about W at both apexes, as ``case_pretty_good_cone`` builds it."""
    kernel = linalg.kernel_basis([[Fraction(int(base.adjacent(u, v))) for v in range(base.n)]
                                  for u in range(base.n)])
    g, a, b = double_cone_over(base)
    return reduction_for(CoinAssignment.grover_with_marked(g, a, b, reflection_about(kernel)),
                         a, kernel, b)


def test_route_follows_the_krylov_capacity(monkeypatch):
    """The dense route exactly when the Krylov basis would start at n rows:
    every schedule reduction (4..14 clones) and the prism cone (10 clones)
    take it, and so does the K_{5,5,5} cone, whose 24 marked clones of 39 put
    it past 16 clones on the dense side; gp(3,30), the family reductions and
    circulant(1000,1,999) take the Krylov route."""
    dense = list(schedule_reductions())
    dense += [cone_reduction(prism_graph()), cone_reduction(complete_multipartite([5, 5, 5]))]
    assert (dense[-2].size, dense[-1].size) == (10, 39)
    assert families._krylov_capacity(dense[-1]) == dense[-1].size
    with monkeypatch.context() as patch:
        patch.setattr(families, "_krylov_spectrum", refuse)
        for red in dense:
            assert len(families._marked_spectrum(red)[0]) == red.size
    g, a, b = generalized_path(3, 30)
    krylov = [reduction_for(CoinAssignment.all_grover(g), a, [[1, 1, 1]], b)]
    krylov += [family_reduction(name) for name in FAMILY_NAMES]
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(1000, 1, 999)
    krylov.append(reduction_for(
        CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)), a, w, b))
    monkeypatch.setattr(HermitianReduction, "h_numeric", refuse)
    for red in krylov:
        assert len(families._marked_spectrum(red)[0]) < red.size


def test_numeric_path_builds_no_arc_views():
    """The walk and build_H read the graph's ints per arc and its reversal:
    the reduction, the sweep, the stepped walk and the fidelity of
    circulant(1000,1,999) with the rank-2 marked coin build neither the arc
    tuples nor ``arc_index``."""
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(1000, 1, 999)
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    series = fidelity_series(reduction_for(asn, a, w, b), 8)
    assert series[4] > 1 - 1e-9
    assert np.linalg.norm(walk_apply(asn, coin_state(asn, a, w[0]), 4)
                          + coin_state(asn, b, w[0])) < 1e-9
    assert transfer_fidelity(asn, a, b, w, 4) == (pytest.approx(1.0), -1.0)
    assert "arcs" not in g.__dict__ and "arc_index" not in g.__dict__


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_sweep_matches_dense_on_families(name):
    assert_sweeps_agree(family_reduction(name), 1000)


def test_sweep_matches_dense_across_a_weak_coupling(monkeypatch):
    """Two weighted cycles (7 and 9 clones) joined by one edge of weight
    1e-9, one marked clone on each: the Krylov space nearly closes on each
    cycle, and the direction across the edge, of norm ~3e-9, is kept.  Only
    the second orthogonalisation pass keeps the basis orthonormal after it;
    with one pass, rounding noise survives as new directions until the basis
    outgrows the clone space.  At 16 clones the sweep would take the dense
    route, so the Krylov route is forced."""
    n_a, n = 7, 16
    sym = [[Fraction(0)] * n for _ in range(n)]
    for i, j in ([(i, (i + 1) % n_a) for i in range(n_a)]
                 + [(n_a + i, n_a + (i + 1) % (n - n_a)) for i in range(n - n_a)]):
        sym[i][j] = sym[j][i] = Fraction(1, 3) + Fraction(i % 3, 17)
    sym[2][n_a + 4] = sym[n_a + 4][2] = Fraction(1, 10 ** 9)
    red = synthetic_reduction(sym, [1] * n, [0], [n_a + 1])
    assert len(families._krylov_spectrum(red)[0]) == n
    with krylov_route(monkeypatch):
        assert_sweeps_agree(red, 4 * n ** 3)


def test_sweep_grows_the_krylov_basis():
    """gp(3,30) with Grover coins: Krylov dimension 30, so the basis outgrows
    its initial 16 rows and its capacity is doubled."""
    g, a, b = generalized_path(3, 30)
    red = reduction_for(CoinAssignment.all_grover(g), a, [[1, 1, 1]], b)
    assert len(families._marked_spectrum(red)[0]) > 16
    assert_sweeps_agree(red, 1000)


def test_early_exit_is_a_prefix_across_chunks(monkeypatch):
    """With the chunk made small, an early exit after a chunk boundary returns
    exactly the prefix of the full series, up to the first step at or above
    the threshold (transfer at t = n - 1 on gp(2,n)); so does the default
    chunk.  gp(2,12) (22 clones) takes the Krylov route, gp(2,8) (14 clones)
    the dense one."""
    for n in (12, 8):
        g, a, b = generalized_path(2, n)
        red = reduction_for(CoinAssignment.all_grover(g), a, [[1, 1]], b)
        full = fidelity_series(red, 40)
        for chunk in (5, families.SWEEP_CHUNK):
            with monkeypatch.context() as patch:
                patch.setattr(families, "SWEEP_CHUNK", chunk)
                part = fidelity_series(red, 40, early_exit=1 - 1e-6)
                assert len(part) == n and part[-1] >= 1 - 1e-6 > part[:-1].max()
                assert np.abs(part - full[:n]).max() <= 1e-12
                assert np.array_equal(part, fidelity_series(red, 40)[:n])


def test_sweep_allocates_no_clone_square():
    """circulant(1000,1,999), 2002 clones: the sweep's peak allocation stays
    below the 32 MB of a single size x size float array."""
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(1000, 1, 999)
    red = reduction_for(CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)),
                        a, w, b)
    red.h_sparse
    tracemalloc.start()
    try:
        series = fidelity_series(red, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(np.argmax(series >= 1 - 1e-9)) == 4
    assert peak < 8 * red.size ** 2
