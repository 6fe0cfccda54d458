"""The exact pipeline against the blow-up oracle of ``blowup_oracle.py``: the
support split of ``strong_cospectral_exact`` against the numeric split of the
blow-up over seeded random instances, and ``decide_transfer`` against the twin
theorem's transfer-time class for each supported degree delta."""

from fractions import Fraction

import numpy as np
import pytest

from blowup_oracle import (build_blowup, strong_cospectral_numeric,
                           twin_transfer_check)
from conftest import random_instance
from sstwalk import linalg
from sstwalk.coins import CoinAssignment, grover_coin, reflection_about
from sstwalk.cospec import strong_cospectral_exact
from sstwalk.decider import decide_transfer
from sstwalk.families import CIRCULANT_W
from sstwalk.graphs import (circulant_2m, complete_bipartite_k2m,
                            complete_multipartite, double_cone_over)
from sstwalk.reduction import reduction_for


def _factor_roots(factors) -> list[float]:
    return sorted(r.real for f in factors
                  for r in np.roots([float(c) for c in f.coeffs][::-1]))


def test_exact_split_matches_numeric_oracle_on_random_instances():
    """Seeds 0-199 of ``random_instance`` with a non-adjacent marked pair (79
    instances, 21 of them split): both routes find a split or neither does,
    and the roots of the exact plus and minus factors are the numeric class
    eigenvalues within 1e-7."""
    compared = split = 0
    for seed in range(200):
        graph, a, b, coin, w = random_instance(seed)
        if graph.adjacent(a, b):
            continue
        assignment = CoinAssignment.grover_with_marked(graph, a, b, coin)
        exact = strong_cospectral_exact(reduction_for(assignment, a, w, b))
        numeric = strong_cospectral_numeric(build_blowup(assignment, a, b), w)
        compared += 1
        assert (exact is None) == (numeric is None), seed
        if exact is None:
            continue
        split += 1
        for factors, evs in ((exact.plus_factors, numeric.plus_eigenvalues),
                             (exact.minus_factors, numeric.minus_eigenvalues)):
            roots = _factor_roots(factors)
            assert len(roots) == len(evs), seed
            assert np.allclose(roots, evs, atol=1e-7), seed
    assert (compared, split) == (79, 21)


def _cone_over_multipartite(sizes):
    """Double cone over K_{sizes} with W = ker A(base) and the reflection
    about W at the cone vertices."""
    base = complete_multipartite(sizes)
    adj = [[Fraction(int(base.adjacent(u, v))) for v in range(base.n)]
           for u in range(base.n)]
    w = linalg.kernel_basis(adj)
    return double_cone_over(base), reflection_about(w), w


@pytest.mark.parametrize("build, delta, mod4, min_time", [
    (lambda: (complete_bipartite_k2m(3), grover_coin(3), [[1, 1, 1]]), 2, 2, 2),
    (lambda: (circulant_2m(3, 1, 2), reflection_about(CIRCULANT_W), CIRCULANT_W),
     4, 0, 4),
    (lambda: _cone_over_multipartite([2, 2, 2, 2]), 8, 2, 6),
    (lambda: _cone_over_multipartite([3, 3, 3]), 8, 2, 6),
], ids=["k2m(3)", "circulant(3,1,2)", "cone(K_2,2,2,2)", "cone(K_3,3,3)"])
def test_decide_transfer_agrees_with_twin_theorem(build, delta, mod4, min_time):
    """Twins a, b with C_a = C_b, W in ker [A1; A2^T] and supp(W) of one
    degree delta: the twin theorem puts the first transfer at min_time, with
    every transfer time = mod4 (mod 4); the exact decider finds that time."""
    (graph, a, b), coin, w = build()
    assert {graph.degree(v) for v in graph.neighbors[a]} == {delta}
    twin = twin_transfer_check(graph, a, b, coin, w)
    assert twin is not None and twin.exact_kernel_condition
    assert (twin.mod4_class, twin.min_time) == (mod4, min_time)
    red = reduction_for(CoinAssignment.grover_with_marked(graph, a, b, coin), a, w, b)
    verdict = decide_transfer(red)
    assert verdict.occurs and verdict.time == min_time
