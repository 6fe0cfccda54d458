"""Family harness: every theorem instance decided, checked exactly, simulated."""

import random
from fractions import Fraction

import pytest

from sstwalk import linalg
from sstwalk.families import (CIRCULANT_W, case_circulant, case_double_cone, case_gp,
                              case_k2m, case_octahedron_grover,
                              case_pretty_good_cone, fidelity_series,
                              run_transfer_case, standard_battery)
from sstwalk.graphs import (circulant_2m, complete_multipartite, cycle_graph,
                            complete_bipartite_k2m, prism_graph)
from sstwalk.coins import CoinAssignment, reflection_about
from sstwalk.exact import InvariantError
from sstwalk.reduction import reduction_for
from sstwalk.walk import transfer_fidelity


def test_k2m_grover_cases():
    for m in (1, 2, 3):
        res = case_k2m(m)
        assert res.status == "PASS", res.line()
        assert res.verdict.time == 2 and res.verdict.gamma == 1


def test_k2m_random_cases():
    rng = random.Random(42)
    for m in (2, 4):
        for _ in range(2):
            res = case_k2m(m, rng=rng)
            assert res.status == "PASS", res.line()


def test_circulant_cases():
    for m, c, d in [(3, 1, 2), (4, 1, 3)]:
        res = case_circulant(m, c, d)
        assert res.status == "PASS", res.line()
        assert res.dim_w == 2 and res.verdict.gamma == -1


def test_circulant_extended_coin():
    """The circulant case with the marked coin reflecting about W plus one
    seeded random rational vector (numerators in -7..7, denominators 1..7)
    outside W."""
    graph, a, b = circulant_2m(4, 1, 3)
    w = [list(v) for v in CIRCULANT_W]
    rng = random.Random(3)
    while True:
        extra = [Fraction(rng.randint(-7, 7), rng.randint(1, 7)) for _ in range(4)]
        if any(extra) and len(linalg.gram_schmidt(w + [extra])) == 3:
            break
    assignment = CoinAssignment.grover_with_marked(graph, a, b, reflection_about(w + [extra]))
    res = run_transfer_case("circulant(m=4,c=1,d=3)", assignment, a, w, b, expected_time=4)
    assert res.status == "PASS", res.line()


def test_double_cone_cases():
    res = case_double_cone([1, 2])
    assert res.status == "PASS" and res.dim_w == 2
    res = case_double_cone([1, 1, 3])
    assert res.status == "PASS" and res.dim_w == 3


def test_gp_cases_and_gamma():
    for k, n in [(1, 3), (2, 4), (3, 5)]:
        res = case_gp(k, n)
        assert res.status == "PASS", res.line()
        assert res.verdict.time == n - 1 and res.verdict.gamma == 1


def test_gp_rank2_coin():
    res = case_gp(3, 5, coin_rank=2, rng=random.Random(1))
    assert res.status == "PASS" and res.dim_w == 2


def test_gp_minimality_sweep():
    """Fidelity stays below 1 - 1e-4 strictly before the transfer time."""
    k, n = 3, 5
    assert case_gp(k, n).verdict.time == n - 1
    from sstwalk.graphs import generalized_path
    from sstwalk.coins import grover_coin

    g, a, b = generalized_path(k, n)
    asn = CoinAssignment.grover_with_marked(g, a, b, grover_coin(k))
    for t in range(1, n - 1):
        fid, _ = transfer_fidelity(asn, a, b, [[1] * k], t)
        assert fid < 1 - 1e-4


def test_octahedron_grover_case():
    res = case_octahedron_grover()
    assert res.status == "PASS" and res.verdict.time == 6 and res.verdict.gamma == 1


def test_k2m_m1_path_degenerate():
    res = case_k2m(1)
    assert res.status == "PASS" and res.verdict.time == 2


def test_battery_all_pass():
    for res in standard_battery(seed=5):
        assert res.status == "PASS", res.line()


def test_pretty_good_prism_accepted():
    res = case_pretty_good_cone(prism_graph(), name="prism")
    assert res.accepted and res.status == "PASS"
    assert res.best_fidelity >= 0.999 and res.best_time <= 10 ** 5


def test_pretty_good_rejections():
    assert not case_pretty_good_cone(cycle_graph(4), name="c4").accepted
    assert not case_pretty_good_cone(complete_multipartite([3, 3, 3]), name="k333").accepted


@pytest.mark.parametrize("parts", [[4, 4], [5, 5], [6, 6, 6]],
                         ids=["K_4,4", "K_5,5", "K_6,6,6"])
def test_pretty_good_cone_theorem_accepts(parts):
    """Cones over K_{4,4}, K_{5,5} and K_{6,6,6} (k = 4, 5, 12; c^2 = 1/3,
    2/7, 1/7): accepted, and the sweep reaches 0.999."""
    res = case_pretty_good_cone(complete_multipartite(parts), name=str(parts))
    assert res.accepted and res.status == "PASS"


def test_pretty_good_cone_theorem_rejects():
    """k = 2 (C8) and k = 6 (K_{2,2,2,2}) give geodetic c^2 = 1/2 and 1/4."""
    assert case_pretty_good_cone(cycle_graph(8), name="c8").status == "REJECTED"
    assert case_pretty_good_cone(complete_multipartite([2, 2, 2, 2]),
                                 name="k2222").status == "REJECTED"


def test_pretty_good_sweep_simulation_disagreement_is_invariant_error(monkeypatch):
    """A best sweep step that the stepped walk misses by 1e-6 (above the 1e-7
    margin) is a fault of the program, not of the input."""
    import sstwalk.families as families

    def off(*args):
        fid, gamma = transfer_fidelity(*args)
        return fid - 1e-6, gamma

    monkeypatch.setattr(families, "transfer_fidelity", off)
    with pytest.raises(InvariantError, match="disagrees"):
        case_pretty_good_cone(prism_graph(), name="prism")


def test_pretty_good_empty_kernel():
    from sstwalk.graphs import build_graph

    k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
    with pytest.raises(ValueError, match="empty kernel"):
        case_pretty_good_cone(k4, name="k4")


def test_fidelity_series_matches_direct():
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    w = [[1, 1, 1]]
    red = reduction_for(asn, a, w, b)
    series = fidelity_series(red, 12)
    for t in (0, 1, 2, 5, 12):
        direct, _ = transfer_fidelity(asn, a, b, w, t)
        assert abs(series[t] - direct) < 1e-10


def test_gp1n_paths_all_lengths():
    """Path endpoints transfer at n-1 for a range of n (odd and even times)."""
    for n in range(3, 9):
        res = case_gp(1, n)
        assert res.status == "PASS" and res.verdict.time == n - 1


def test_larger_circulant():
    res = case_circulant(12, 5, 7)
    assert res.status == "PASS" and res.verdict.time == 4
