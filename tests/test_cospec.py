"""Cospectrality and the support split on the exact route; the numeric split
and twin shortcut of ``blowup_oracle.py``, and their agreement with it."""

from fractions import Fraction

import numpy as np
import pytest

from blowup_oracle import (IndeterminateClustering, build_blowup,
                           strong_cospectral_numeric, twin_transfer_check)
from conftest import assembled_instance
from sstwalk.coins import CoinAssignment, grover_coin, reflection_about
from sstwalk.cospec import strong_cospectral_exact
from sstwalk.decider import decide_transfer
from sstwalk.exact import RatPoly, resolvent
from sstwalk.graphs import (build_graph, circulant_2m, complete_bipartite_k2m,
                            double_cone_cycles)
from sstwalk.reduction import reduction_for


def P(*coeffs):
    return RatPoly([Fraction(c) for c in coeffs])


def test_cospectral_s_equals_t():
    red = assembled_instance(4)[5]
    assert resolvent(red, red.s, red.s).cospectral


def test_cospectral_twins():
    g, a, b = complete_bipartite_k2m(4)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, a, [[1, 1, 1, 1]], b)
    assert resolvent(red).cospectral


def test_cospectral_false_on_asymmetric_pair():
    """Frozen non-cospectral verdict: triangle-with-tail, pair (0, 3)."""
    g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1, 1]], 3)
    assert not resolvent(red).cospectral
    assert strong_cospectral_exact(red) is None


def test_strong_cospectral_octahedron_split():
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    red = reduction_for(asn, a, w, b)
    split = strong_cospectral_exact(red)
    assert split is not None
    assert split.plus_factors == (P(Fraction(-1, 2), 0, 1),)
    assert split.minus_factors == (P(0, 1),)


def test_strong_cospectral_s_equals_t_all_plus():
    red = assembled_instance(6)[5]
    split = strong_cospectral_exact(red, red.s, red.s)
    assert split is not None
    assert split.minus_factors == ()
    assert set(split.plus_factors) == set(split.support_factors)


def test_strong_cospectral_but_not_periodic():
    """Strong cospectrality without cyclotomic support (near-prism graph)."""
    g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 4)], 6)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1, 1]], 5)
    split = strong_cospectral_exact(red)
    assert split is not None
    assert split.plus_factors == (P(-1, 1), P(Fraction(1, 3), 1))
    assert split.minus_factors == (P(Fraction(-1, 3), 0, 1),)
    assert not decide_transfer(red).occurs


def test_numeric_split_k23():
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    bl = build_blowup(asn, a, b)
    split = strong_cospectral_numeric(bl, [[1, 1, 1]])
    assert split is not None
    assert np.allclose(split.plus_eigenvalues, [-1, 1], atol=1e-9)
    assert np.allclose(split.minus_eigenvalues, [0], atol=1e-9)


def test_numeric_split_double_cone():
    g, a, b = double_cone_cycles([1, 2])
    w = []
    for offset, m in ((0, 1), (4, 2)):
        vec = [Fraction(0)] * 12
        for i in range(m):
            vec[offset + 4 * i] = Fraction(1)
            vec[offset + 4 * i + 2] = Fraction(-1)
        w.append(vec)
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about([list(v) for v in w]))
    bl = build_blowup(asn, a, b)
    split = strong_cospectral_numeric(bl, w)
    assert split is not None
    r = 1 / np.sqrt(2)
    assert np.allclose(split.plus_eigenvalues, [-r, r], atol=1e-9)
    assert np.allclose(split.minus_eigenvalues, [0], atol=1e-9)


def test_numeric_split_none_on_random_pair():
    """Frozen: triangle-with-tail pair (0, 3) is not strongly cospectral."""
    g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)
    asn = CoinAssignment.all_grover(g)
    bl = build_blowup(asn, 0, 3)
    assert strong_cospectral_numeric(bl, [[1, 1]]) is None


def test_exact_numeric_agree_on_families():
    """Same split from both routes, factor roots matched within 1e-7."""
    instances = []
    g, a, b = complete_bipartite_k2m(3)
    instances.append((g, a, b, grover_coin(3), [[1, 1, 1]]))
    g, a, b = circulant_2m(4, 1, 3)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    instances.append((g, a, b, reflection_about(w), w))
    for g, a, b, coin, w in instances:
        asn = CoinAssignment.grover_with_marked(g, a, b, coin)
        red = reduction_for(asn, a, w, b)
        exact = strong_cospectral_exact(red)
        numeric = strong_cospectral_numeric(build_blowup(asn, a, b), w)
        assert (exact is None) == (numeric is None)
        if exact is None:
            continue
        for factors, evs in ((exact.plus_factors, numeric.plus_eigenvalues),
                             (exact.minus_factors, numeric.minus_eigenvalues)):
            roots = sorted(r.real for f in factors
                           for r in np.roots([float(c) for c in f.coeffs][::-1]))
            assert len(roots) == len(evs)
            assert np.allclose(roots, evs, atol=1e-7)


def test_twin_check_k2m():
    g, a, b = complete_bipartite_k2m(3)
    res = twin_transfer_check(g, a, b, grover_coin(3), [[1, 1, 1]])
    assert res is not None and res.exact_kernel_condition
    assert res.mod4_class == 2 and res.min_time == 2


def test_twin_check_circulant():
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    res = twin_transfer_check(g, a, b, reflection_about(w), w)
    assert res is not None and res.exact_kernel_condition
    assert res.mod4_class == 0 and res.min_time == 4


def test_twin_check_numeric_fallback():
    """Octahedron Grover span{1}: W is not in ker [A1; A2^T] (the cycle rows
    sum to 2), but the numeric E0 test still certifies strong cospectrality."""
    g, a, b = circulant_2m(3, 1, 2)
    res = twin_transfer_check(g, a, b, grover_coin(4), [[1, 1, 1, 1]])
    assert res is not None
    assert not res.exact_kernel_condition
    assert res.mod4_class is None


def test_twin_check_requires_twins():
    g = build_graph([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError):
        twin_transfer_check(g, 0, 1, grover_coin(1), [[1]])


def test_transfer_symmetry():
    """Transfer a -> b and b -> a get the same verdict: both marked blocks come
    from the same coins and W, so the swapped reduction is the same matrix
    with S and T exchanged."""
    instances = [assembled_instance(seed)[1:5] for seed in (0, 3, 12)]
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    instances.append((a, b, CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)), w))
    for a, b, assignment, w in instances:
        fwd, bwd = reduction_for(assignment, a, w, b), reduction_for(assignment, b, w, a)
        assert (bwd.s, bwd.t, bwd.nonzeros) == (fwd.t, fwd.s, fwd.nonzeros)
        assert decide_transfer(fwd) == decide_transfer(bwd)
    assert decide_transfer(fwd).line() == "TRANSFER time=4 gamma=-1"


def test_monogamy_spot_check():
    """Scanning all candidate receivers on the octahedron finds transfer only
    at the designated antipode."""
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    winners = []
    for cand in range(g.n):
        if cand == a or g.degree(cand) != g.degree(a):
            continue
        red = reduction_for(asn, a, [[1, 1, 1, 1]], cand)
        if decide_transfer(red).occurs:
            winners.append(cand)
    assert winners == [b]


def test_exact_numeric_agree_double_cone():
    g, a, b = double_cone_cycles([1, 1])
    w = []
    for offset in (0, 4):
        vec = [Fraction(0)] * 8
        vec[offset], vec[offset + 2] = Fraction(1), Fraction(-1)
        w.append(vec)
    asn = CoinAssignment.grover_with_marked(g, a, b,
                                            reflection_about([list(v) for v in w]))
    red = reduction_for(asn, a, w, b)
    exact = strong_cospectral_exact(red)
    numeric = strong_cospectral_numeric(build_blowup(asn, a, b), w)
    assert exact is not None and numeric is not None
    roots_plus = sorted(r.real for f in exact.plus_factors
                        for r in np.roots([float(c) for c in f.coeffs][::-1]))
    assert np.allclose(roots_plus, numeric.plus_eigenvalues, atol=1e-7)
    roots_minus = sorted(r.real for f in exact.minus_factors
                         for r in np.roots([float(c) for c in f.coeffs][::-1]))
    assert np.allclose(roots_minus, numeric.minus_eigenvalues, atol=1e-7)


def test_clustering_ambiguity_guard():
    """With the guard band 10*tol covering the (unit) spectral gap between
    classes of different sign, the checker refuses rather than guessing; a
    tighter tolerance on the same instance resolves normally."""
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    bl = build_blowup(asn, a, b)
    with pytest.raises(IndeterminateClustering):
        strong_cospectral_numeric(bl, [[1, 1, 1]], tol=0.1)
    assert strong_cospectral_numeric(bl, [[1, 1, 1]], tol=0.05) is not None


def test_exact_numeric_agree_gp():
    """Non-twin marked pair (disjoint neighborhoods): GP(2,4) path-cosine split."""
    from sstwalk.graphs import generalized_path

    g, a, b = generalized_path(2, 4)
    asn = CoinAssignment.all_grover(g)
    exact = strong_cospectral_exact(reduction_for(asn, a, [[1, 1]], b))
    numeric = strong_cospectral_numeric(build_blowup(asn, a, b), [[1, 1]])
    assert exact is not None and numeric is not None
    assert np.allclose(numeric.plus_eigenvalues, [-0.5, 1.0], atol=1e-9)
    assert np.allclose(numeric.minus_eigenvalues, [-1.0, 0.5], atol=1e-9)
    roots_plus = sorted(-f.coeffs[0] for f in exact.plus_factors)
    assert roots_plus == [Fraction(-1, 2), Fraction(1)]
