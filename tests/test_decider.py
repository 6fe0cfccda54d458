"""The sharp transform, cyclotomics, and the periodicity/transfer deciders."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import odd_cycle_reductions, schedule_reduction, synthetic_reduction
from sstwalk.coins import CoinAssignment, reflection_about
from sstwalk.decider import (cyclotomic, decide_periodicity,
                             decide_pretty_good_special, decide_transfer,
                             euler_phi, factor_into_cyclotomics, sharp)
from sstwalk.exact import RatPoly, resolvent
from sstwalk.graphs import (build_graph, circulant_2m, complete_bipartite_k2m,
                            generalized_path)
from sstwalk.reduction import exact_transfer_check, reduction_for


def P(*coeffs):
    return RatPoly([Fraction(c) for c in coeffs])


def test_sharp_examples():
    assert sharp(P(0, 1)) == P(1, 0, 1)                      # x -> Phi_4
    assert sharp(P(-1, 1)) == P(1, -2, 1)                    # x-1 -> Phi_1^2
    assert sharp(P(Fraction(-1, 2), 0, 1)) == P(1, 0, 0, 0, 1)  # -> Phi_8


def test_sharp_degree_doubles_and_zero_rejected():
    assert sharp(P(1, 2, 3)).degree == 4
    with pytest.raises(ValueError):
        sharp(RatPoly())


def test_sharp_multiplicative():
    a, b = P(-1, 2, 1), P(3, 1)
    assert sharp(a * b) == sharp(a) * sharp(b)


def test_cyclotomic_small():
    assert cyclotomic(1) == P(-1, 1)
    assert cyclotomic(6) == P(1, -1, 1)
    assert cyclotomic(12) == P(1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    for m in (1, 2, 6, 12, 30):
        prod = RatPoly([1])
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == P(*([-1] + [0] * (m - 1) + [1]))


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 6, 12, 30)] == [1, 1, 2, 4, 8]


def test_factor_into_cyclotomics():
    assert factor_into_cyclotomics(P(1, -1, 1)) == {6: 1}
    assert factor_into_cyclotomics(P(1, 0, 0, 0, 1)) == {8: 1}
    assert factor_into_cyclotomics(P(-1, -1, 1)) is None      # golden-ratio roots
    assert factor_into_cyclotomics(P(1, -2, 1)) == {1: 2}


def test_decide_periodicity_k2():
    red = synthetic_reduction([[0, 1], [1, 0]], [1, 1], [0], [0])
    v = decide_periodicity(red)
    assert v.periodic and v.min_period == 2
    assert v.orders == frozenset({1, 2})


def test_decide_periodicity_circulant_orders():
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    red = reduction_for(asn, a, w, b)
    v = decide_periodicity(red)
    assert v.periodic and v.orders == frozenset({4, 8}) and v.min_period == 8


def test_decide_periodicity_irrational_pole():
    red = synthetic_reduction([[Fraction(1, 3)]], [1], [0], [0])
    v = decide_periodicity(red)
    assert not v.periodic and v.reason == "support-not-cyclotomic"


def test_min_period_is_minimal():
    """lcm(L) passes the exact S=T check; every proper divisor fails."""
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, a, [[1, 1, 1]], b)
    v = decide_periodicity(red)
    assert v.periodic and v.min_period == 4
    red.t = list(red.s)
    assert exact_transfer_check(red, v.min_period, 1)
    for div in range(1, v.min_period):
        if v.min_period % div == 0:
            assert not exact_transfer_check(red, div, 1)


def test_decide_transfer_k23():
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, a, [[1, 1, 1]], b)
    v = decide_transfer(red)
    assert v.occurs and v.time == 2 and v.gamma == 1
    assert v.orders_plus == frozenset({1, 2})
    assert v.orders_minus == frozenset({4})


def test_decide_transfer_circulant_splits():
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    red = reduction_for(asn, a, w, b)
    v = decide_transfer(red)
    assert v.occurs and v.time == 4 and v.gamma == -1
    # Lambda^+ = {+-1/sqrt 2} has order 8; Lambda^- = {0} has order 4
    assert v.orders_plus == frozenset({8})
    assert v.orders_minus == frozenset({4})


def test_decide_transfer_gp24_odd_time():
    """tau = 6 is even although the transfer time 3 is odd."""
    g, a, b = generalized_path(2, 4)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, a, [[1, 1]], b)
    v = decide_transfer(red)
    assert v.occurs and v.time == 3 and v.gamma == 1


def test_decide_transfer_refusal_stages():
    """Frozen refusal cases on the triangle-with-tail graph."""
    g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)
    asn = CoinAssignment.all_grover(g)
    # (0, 3): equal degree but different neighborhoods -> not cospectral
    red = reduction_for(asn, 0, [[1, 1]], 3)
    assert decide_transfer(red).reason == "not-cospectral"
    # (0, 1): cospectral by symmetry but the support is not cyclotomic
    red2 = reduction_for(asn, 0, [[1, 1]], 1)
    v2 = decide_transfer(red2)
    assert not v2.occurs and v2.reason == "not-periodic"


def test_decide_transfer_p5_interior_pair():
    """Non-family positive: the Grover walk on P5 transfers span{1} between
    the two interior degree-2 vertices (and the endpoints) at t=4."""
    from sstwalk.walk import transfer_fidelity

    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 1, [[1, 1]], 3)
    v = decide_transfer(red)
    assert v.occurs and v.time == 4 and v.gamma == 1
    assert exact_transfer_check(red, 4, 1)
    fid, _ = transfer_fidelity(asn, 1, 3, [[1, 1]], 4)
    assert fid >= 1 - 1e-9


def test_transfer_positive_implies_exact_and_negative_has_reason():
    g, a, b = complete_bipartite_k2m(2)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, a, [[1, 1]], b)
    v = decide_transfer(red)
    assert v.occurs
    assert exact_transfer_check(red, v.time, v.gamma)
    assert v.line() == f"TRANSFER time={v.time} gamma=+1"


def test_verdict_lines():
    from sstwalk.decider import PeriodicityVerdict, TransferVerdict

    assert PeriodicityVerdict(True, 8, frozenset({4, 8})).line() == \
        "PERIODIC min_period=8 L={4,8}"
    assert PeriodicityVerdict(False, reason="support-not-cyclotomic").line() == \
        "NOT_PERIODIC reason=support-not-cyclotomic"
    assert TransferVerdict(False, reason="odd-tau").line() == "NO_TRANSFER stage=odd-tau"
    assert TransferVerdict(True, 4, -1).line() == "TRANSFER time=4 gamma=-1"


def test_pretty_good_special():
    """Planted supports: the path 0 - 1 - 2 with delta_sq (d0, d1, d2) has
    g = x (x^2 - c^2) at clone 0, c^2 = (1/d0 + 1/d2) / d1."""
    def support(sym, delta_sq):
        red = synthetic_reduction(sym, delta_sq, [0], [0])
        return red, resolvent(red, red.s, red.s).g_plus

    path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    red, g = support(path, [1, 5, 1])
    assert g == P(0, Fraction(-2, 5), 0, 1) and decide_pretty_good_special(red)
    red, g = support(path, [1, 4, 1])
    assert g == P(0, Fraction(-1, 2), 0, 1) and not decide_pretty_good_special(red)
    red, g = support(path, [2, 4, 2])   # x (x - 1/2) (x + 1/2)
    assert g == P(0, Fraction(-1, 4), 0, 1) and not decide_pretty_good_special(red)
    red, g = support([[0, 1], [1, 0]], [1, 2])
    assert g == P(Fraction(-1, 2), 0, 1)            # no 0 in the support
    with pytest.raises(ValueError):
        decide_pretty_good_special(red)
    red, g = support([[0, 1, 0], [1, 2, 1], [0, 1, 0]], [2, 4, 2])
    assert g == P(0, 1) * P(Fraction(-1, 4), Fraction(-1, 2), 1)
    with pytest.raises(ValueError):
        decide_pretty_good_special(red)


def test_pretty_good_numeric_cross_check():
    """c^2 = 2/5 accepted; the walk really does approach transfer (fidelity
    beyond 1 - 1e-3 within 1e5 steps)."""
    from sstwalk.families import case_pretty_good_cone
    from sstwalk.graphs import prism_graph

    res = case_pretty_good_cone(prism_graph(), name="prism")
    assert res.accepted
    assert res.best_fidelity > 1 - 1e-3
    assert res.best_time is not None and res.best_time <= 10 ** 5


def test_adjacent_marked_pair_t1():
    """a ~ b: the decider confirms the guaranteed one-step transfer on K_2."""
    g = build_graph([(0, 1)], 2)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1]], 1)
    v = decide_transfer(red)
    assert v.occurs and v.time == 1 and v.gamma == 1
    assert exact_transfer_check(red, 1, 1)


def test_order_bound_covers_totient_bound():
    from sstwalk.decider import default_order_bound

    for d in range(1, 40):
        # every m with phi(m) <= d must fall under the bound
        for m in range(1, 3000):
            if euler_phi(m) <= d:
                assert m <= default_order_bound(d), (d, m)


def test_sharp_evaluation_identity():
    """sharp(h)(x) = 2^deg x^deg h((x + 1/x)/2) at rational points."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    coeff = st.integers(-5, 5).map(Fraction)

    @given(st.lists(coeff, min_size=1, max_size=5),
           st.fractions(min_value=-4, max_value=4).filter(lambda q: q != 0))
    @settings(max_examples=40, deadline=None)
    def check(coeffs, x):
        from sstwalk.exact import RatPoly

        h = RatPoly(coeffs)
        if h.is_zero():
            return
        d = h.degree
        lhs = sharp(h)(x)
        rhs = Fraction(2) ** d * x ** d * h((x + 1 / x) / 2)
        assert lhs == rhs

    check()


def product_of_cyclotomics(orders) -> RatPoly:
    out = RatPoly([1])
    for m in orders:
        out = out * cyclotomic(m)
    return out


def test_cyclotomic_product_roundtrip():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.integers(1, 24), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def check(orders):
        prod = product_of_cyclotomics(orders)
        factored = factor_into_cyclotomics(prod)
        assert factored is not None
        want = {}
        for m in orders:
            want[m] = want.get(m, 0) + 1
        assert factored == want

    check()


def test_decider_agrees_with_sweep_on_random_graphs():
    """660 seeded random connected graphs on 4..14 vertices (the random-small
    shapes), against the spectral sweep over t <= 4 size^3 by the benchmark's
    rule: a positive verdict's time is the sweep's first step at or above
    1 - 1e-9; a negative verdict's sweep never reaches 1 - 1e-9, and a first
    near miss (>= 1 - 1e-4) at t <= 64 is rejected by the exact Chebyshev
    identity with both phases."""
    from sstwalk.families import fidelity_series

    rng = random.Random(20261020)
    shapes = ((1, 1), (2, 1), (2, 2))
    stages = Counter()
    for i in range(660):
        rank, dim_w = shapes[i // 11 % 3]
        red = schedule_reduction(rng, 4 + i % 11, rank, dim_w)
        verdict = decide_transfer(red)
        sweep = fidelity_series(red, 4 * red.size ** 3)
        if verdict.occurs:
            first = int(np.argmax(sweep >= 1 - 1e-9))
            assert sweep[first] >= 1 - 1e-9 and first == verdict.time, verdict.line()
        else:
            assert sweep.max() < 1 - 1e-9, verdict.line()
            near = np.flatnonzero(sweep >= 1 - 1e-4)
            if near.size and near[0] <= 64:
                assert not any(exact_transfer_check(red, int(near[0]), gamma)
                               for gamma in (1, -1))
        stages[verdict.reason or "transfer"] += 1
    assert stages["transfer"] > 0 and stages["not-cospectral"] > 0


def test_adjacent_triangle_odd_tau():
    """Adjacent marked pair on the triangle: span{1} does not transfer (the
    minimum period 3 is odd), even though the single arc state C e_{(a,b)}
    trivially crosses in one step."""
    from sstwalk.families import fidelity_series
    from walk_oracle import walk_unitary

    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1, 1]], 1)
    v = decide_transfer(red)
    assert not v.occurs and v.reason == "odd-tau"
    assert float(np.max(fidelity_series(red, 4 * red.size ** 3))) <= 1 - 1e-4
    # the one-step arc guarantee for adjacent pairs, by direct computation
    u = walk_unitary(asn)
    c = u[np.array([g.arc_index[(v, w)] for w, v in g.arcs]), :]
    e_ab = np.zeros(g.num_arcs)
    e_ab[g.arc_index[(0, 1)]] = 1.0
    out = u @ (c @ e_ab)
    assert abs(out[g.arc_index[(1, 0)]]) > 1 - 1e-12


def _count_kernels(monkeypatch):
    """Wrap the kernels of sstwalk.exact with recorders: sparse mat-vecs,
    inner products (``_Krylov.moment``), certificate checks on the moments
    (their order L) and the online Berlekamp-Massey instances (one per
    moment sequence)."""
    from sstwalk import exact

    calls = {"matvec": 0, "moment": 0, "certificate": [], "massey": 0}
    z_apply, certifies, massey = exact.z_apply, exact._hankel_certifies, exact._Massey
    moment = exact._Krylov.moment

    def counted_z_apply(rows, vec):
        calls["matvec"] += 1
        return z_apply(rows, vec)

    def counted_certifies(terms, conn):
        calls["certificate"].append(len(conn) - 1)
        return certifies(terms, conn)

    def counted_moment(self, start, wx, y):
        calls["moment"] += 1
        return moment(self, start, wx, y)

    class CountedMassey(massey):
        def __init__(self, seq):
            calls["massey"] += 1
            super().__init__(seq)

    monkeypatch.setattr(exact, "z_apply", counted_z_apply)
    monkeypatch.setattr(exact, "_hankel_certifies", counted_certifies)
    monkeypatch.setattr(exact, "_Massey", CountedMassey)
    monkeypatch.setattr(exact._Krylov, "moment", counted_moment)
    return calls


def test_resolvent_summary_built_once(monkeypatch):
    """decide_transfer, strong_cospectral_exact and the summary's cospectral
    on one reduction grow the Krylov vectors of each u_j = e_(s_j) + e_(t_j)
    once, to level L+ + 1 with L+ = deg g+, and of each v_j = e_(s_j) - e_(t_j)
    to level L- + 1 (the first level with 2L + 2 <= 2 level + 1 moments),
    pass one certificate on the moments and run one online Berlekamp-Massey
    per sequence: g+- are the certified recurrences.  That is |S| (L + 2)
    mat-vecs for L = deg g = L+ + L-, against (|S| + |T|)(L + 1) for the unit
    columns of S and T.  decide_periodicity then reads the (S, S) summary:
    it grows each u_j = 2 e_(s_j) to level L + 1 and each v_j = 0 to level 1,
    one mat-vec per clone of S, and certifies both sequences.  Each sequence
    takes one inner product per start at level 0 and two at every later
    level, and no other: cospectrality is an entry read of u's vectors, not
    a cross moment."""
    from sstwalk.cospec import strong_cospectral_exact
    from sstwalk.exact import resolvent

    calls = _count_kernels(monkeypatch)
    g, a, b = circulant_2m(4, 1, 3)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    red = reduction_for(CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)),
                        a, w, b)
    pairs = len(red.s)
    assert decide_transfer(red).occurs
    assert strong_cospectral_exact(red) is not None
    assert resolvent(red).cospectral
    summary = resolvent(red)
    plus, minus = summary.g_plus.degree, summary.g_minus.degree
    assert (plus, minus) == (2, 1)
    assert calls["matvec"] == pairs * (plus + minus + 2) == 10
    assert sorted(calls["certificate"]) == sorted([plus, minus])
    assert calls["massey"] == 2
    assert calls["moment"] == pairs * ((1 + 2 * (plus + 1)) + (1 + 2 * (minus + 1))) == 24
    assert decide_periodicity(red).periodic
    order = resolvent(red, red.s, red.s).g_plus.degree
    assert order == plus + minus and 2 * order + 2 < 2 * red.size
    assert calls["matvec"] == pairs * (plus + minus + 2) + pairs * (order + 1) + pairs
    assert calls["certificate"][2:] == [order, 0]
    assert calls["massey"] == 4
    assert calls["moment"] == 24 + pairs * ((1 + 2 * (order + 1)) + (1 + 2 * 1))


def test_memo_holds_only_resolvents():
    """Every question asked of one reduction leaves one Resolvent per (S, T)
    in its memo and nothing else: the sequences and their Krylov vectors
    belong to the summary that grew them."""
    from sstwalk.cospec import strong_cospectral_exact
    from sstwalk.exact import Resolvent, psi

    g, a, b = circulant_2m(4, 1, 3)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    red = reduction_for(CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)),
                        a, w, b)
    assert decide_transfer(red).occurs and decide_periodicity(red).periodic
    assert not psi(red, red.s, red.t).is_zero()
    assert strong_cospectral_exact(red) is not None
    assert len(red.memo) == 2
    assert all(isinstance(summary, Resolvent) for summary in red.memo.values())


def test_reduction_is_freed_without_the_cycle_collector():
    """A Resolvent keeps no reference to its reduction, so after the last
    outside reference goes, reference counting alone frees a reduction that
    was asked every question: transfer-positive (circulant(4,1,3)) and
    not-cospectral (a triangle with a tail, whose u vectors are still held)."""
    import gc
    import weakref

    from sstwalk.cospec import strong_cospectral_exact
    from sstwalk.exact import psi

    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(4, 1, 3)
    tail = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)
    instances = [(CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)), a, w, b),
                 (CoinAssignment.all_grover(tail), 0, [[1, 1]], 3)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for args in instances:
            red = reduction_for(*args)
            decide_transfer(red)
            strong_cospectral_exact(red)
            psi(red, red.s, red.s)
            assert len(red.memo) == 2
            ref = weakref.ref(red)
            del red
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _record_calls(monkeypatch, *names):
    """Wrap the named functions of sstwalk.exact, or the methods named
    "Class.method" of its classes, with a recorder; returns the list of
    calls."""
    from sstwalk import exact

    calls = []

    def recorder(name, fn):
        def recorded(*args):
            calls.append(name)
            return fn(*args)
        return recorded

    for name in names:
        owner, _, attr = name.rpartition(".")
        target = getattr(exact, owner) if owner else exact
        monkeypatch.setattr(target, attr, recorder(name, getattr(target, attr)))
    return calls


def test_periodicity_builds_no_psi_s(monkeypatch):
    """decide_periodicity reads the orders of g+ of the (S, S) summary: it
    forms no fraction, no RatFun and no gcd, and its verdicts (periodic and
    not) are those of the scan of g = den psi_S from the unit columns."""
    from transfer_oracle import OracleResolvent, decide_periodicity_oracle

    rng = random.Random(20261019)
    cases = [red for _name, red in odd_cycle_reductions()]
    cases += [schedule_reduction(rng, 4 + i % 9, 1, 1) for i in range(20)]
    calls = _record_calls(monkeypatch, "_fraction", "poly_gcd", "RatFun.__init__")
    verdicts = [decide_periodicity(red) for red in cases]
    assert calls == []
    monkeypatch.undo()
    assert verdicts == [decide_periodicity_oracle(OracleResolvent(red)) for red in cases]
    assert {v.periodic for v in verdicts} == {True, False}


def test_psi_s_takes_no_gcd(monkeypatch):
    """psi_S of the (S, S) summary is the fraction over u's own certified
    recurrence, g- = 1, so it is in lowest terms as it stands: no poly_gcd,
    no integer gcd and no Berlekamp-Massey past the two of u and v, and it
    equals the reduced psi_S of the unit columns."""
    from conftest import FAMILY_NAMES, family_reduction
    from sstwalk.exact import psi
    from transfer_oracle import unit_psi

    rng = random.Random(20261020)
    cases = [red for _name, red in odd_cycle_reductions()]
    cases += [family_reduction(name) for name in FAMILY_NAMES]
    cases += [schedule_reduction(rng, 4 + i % 9, 1 + i % 2, 1) for i in range(20)]
    calls = _record_calls(monkeypatch, "poly_gcd", "_int_gcd", "_Massey")
    values = [psi(red, red.s, red.s) for red in cases]
    assert calls == ["_Massey", "_Massey"] * len(cases)
    monkeypatch.undo()
    assert values == [unit_psi(red, red.s) for red in cases]


def test_coprime_pair_psi_st_takes_no_gcd(monkeypatch):
    """For a strongly cospectral pair, here circulant(3,1,2) with the
    reflection about its W, g+ and g- have disjoint orders, so psi_{S,T} is
    the fraction over g+ g- as it stands: no poly_gcd, no integer gcd and no
    Berlekamp-Massey past the two of u and v, and it equals the determinant
    oracle."""
    from psi_oracle import psi_oracle
    from sstwalk.exact import psi, resolvent

    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    graph, a, b = circulant_2m(3, 1, 2)
    red = reduction_for(CoinAssignment.grover_with_marked(graph, a, b, reflection_about(w)),
                        a, w, b)
    calls = _record_calls(monkeypatch, "poly_gcd", "_int_gcd", "_Massey")
    value = psi(red, red.s, red.t)
    summary = resolvent(red)
    assert summary.strong and summary.coprime and summary.g_minus.degree > 0
    assert calls == ["_Massey", "_Massey"]
    monkeypatch.undo()
    assert value == psi_oracle(red, red.s, red.t)


def test_zero_psi_st_of_a_shared_factor():
    """Path 0-1-2 with -I at vertex 1: the clones at 0 and 2 never meet, so
    H = 0 and g+ = g- = x share their only factor.  m_{S,T} = 0, whose
    minimal recurrence is empty, so psi_{S,T} = 0 serializes as the zero
    fraction."""
    from sstwalk.coins import grover_coin, negative_identity_coin
    from sstwalk.exact import X, psi, resolvent

    graph = build_graph([(0, 1), (1, 2)], 3)
    coins = {0: grover_coin(1), 1: negative_identity_coin(2), 2: grover_coin(1)}
    red = reduction_for(CoinAssignment(graph, coins), 0, [[1]], 2)
    summary = resolvent(red)
    assert summary.g_plus == summary.g_minus == X and not summary.coprime
    assert psi(red, red.s, red.t).serialize() == " | 1"


def test_shared_factor_psi_st_matches_the_reduced_oracle(monkeypatch):
    """When g+ and g- share a factor, psi_{S,T} is the fraction over the
    minimal recurrence that one more Berlekamp-Massey finds in m_{S,T}.  On
    100 seeded such pairs (n = 4-8), and on the coprime pairs drawn among
    them, psi_{S,T} equals the determinant oracle reduced by poly_gcd and is
    in lowest terms, and the package calls no poly_gcd, RatPoly.divmod or
    RatPoly.monic: one Berlekamp-Massey per shared pair, none per coprime
    one, once both sides are certified."""
    from psi_oracle import psi_oracle
    from sstwalk.exact import ONE, poly_gcd, psi, resolvent

    rng = random.Random(20261020)
    shared, coprime = [], []
    while len(shared) < 100:
        i = len(shared) + len(coprime)
        red = schedule_reduction(rng, 4 + i % 5, *((1, 1), (2, 1), (2, 2))[i % 3])
        (coprime if resolvent(red).coprime else shared).append(red)
    cases = shared + coprime
    calls = _record_calls(monkeypatch, "poly_gcd", "RatPoly.divmod", "RatPoly.monic",
                          "_Massey")
    values = [psi(red, red.s, red.t) for red in cases]
    assert calls == ["_Massey"] * len(shared)
    monkeypatch.undo()
    assert coprime and sum(v.is_zero() for v in values) < len(shared)
    for red, value in zip(cases, values):
        assert value == psi_oracle(red, red.s, red.t)
        assert value.is_zero() or poly_gcd(value.num, value.den) == ONE


def test_not_cospectral_never_builds_psi_st(monkeypatch):
    """The not-cospectral exit reads the cross terms c_k = m_S(k) - m_T(k)
    off u's own Krylov vectors, one entry read per level, and stops at the
    level of the first nonzero one, before Berlekamp-Massey has seen its
    terms: |S| first mat-vecs, no certificate, one online Berlekamp-Massey
    per sequence, and the v sequence is never grown."""
    from psi_oracle import krylov_moments
    from sstwalk.cospec import strong_cospectral_exact
    from sstwalk.exact import resolvent

    g = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)  # triangle with a tail
    red = reduction_for(CoinAssignment.all_grover(g), 0, [[1, 1]], 3)
    m_s, m_t = krylov_moments(red, red.s, red.s), krylov_moments(red, red.t, red.t)
    first = next(k for k, (x, y) in enumerate(zip(m_s, m_t)) if x != y)
    calls = _count_kernels(monkeypatch)
    assert decide_transfer(red).reason == "not-cospectral"
    assert strong_cospectral_exact(red) is None
    assert not resolvent(red).cospectral
    assert calls["matvec"] == len(red.s) * first
    assert calls["certificate"] == [] and calls["massey"] == 2
    plus, minus = resolvent(red)._sides
    assert len(plus.terms) == 2 * first + 1 and plus.massey.done < 2 * first
    assert plus.reads == [0] * first + [m_s[first] - m_t[first]]
    assert minus.terms == [] and minus.pairs == [] and minus.reads == []


@pytest.mark.parametrize("first", ["psi_st", "split_orders"])
def test_cospectral_after_certified_reads_no_more(monkeypatch, first):
    """Reading psi_st or split_orders first certifies u and v and drops
    their vectors; cospectral read afterwards decides from u's reads with no
    further mat-vec, and answers as a fresh summary that reads cospectral
    first, on a cospectral and on a not-cospectral reduction."""
    from sstwalk.exact import Resolvent, resolvent

    g, a, b = circulant_2m(4, 1, 3)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    cospectral = reduction_for(
        CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)), a, w, b)
    tail = build_graph([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)], 5)  # triangle with a tail
    not_cospectral = reduction_for(CoinAssignment.all_grover(tail), 0, [[1, 1]], 3)
    for red, want in ((cospectral, True), (not_cospectral, False)):
        assert Resolvent(red, list(red.s), list(red.t)).cospectral is want
        summary = resolvent(red)
        getattr(summary, first)
        assert all(seq.poly is not None and seq.pairs == [] for seq in summary._sides)
        calls = _count_kernels(monkeypatch)
        assert summary.cospectral is want
        assert calls["matvec"] == 0 and calls["moment"] == 0
        monkeypatch.undo()


def test_unpaired_clones_refused_before_any_matvec(monkeypatch):
    """|S| != |T|, or a pair of clones with different delta_sq, is refused
    with psi's ValueError by cospectral, decide_transfer and
    strong_cospectral_exact before any mat-vec."""
    from sstwalk.cospec import strong_cospectral_exact
    from sstwalk.exact import resolvent

    g, a, b = circulant_2m(4, 1, 3)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    red = reduction_for(CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)),
                        a, w, b)
    calls = _count_kernels(monkeypatch)
    unequal = next(c for c in range(red.size) if red.delta_sq[c] != red.delta_sq[red.s[0]])
    for s, t, message in ((red.s, red.t[:1], "|S| = |T|"),
                          (red.s[:1], [unequal], "different delta_sq")):
        with pytest.raises(ValueError, match=message):
            resolvent(red, s, t).cospectral
        with pytest.raises(ValueError, match=message):
            decide_transfer(red, s, t)
        with pytest.raises(ValueError, match=message):
            strong_cospectral_exact(red, s, t)
    assert calls["matvec"] == 0


def test_odd_cycles_reach_odd_tau():
    """Every marked distance on C5, C7, C9 and C11 with Grover coins ends at
    NO_TRANSFER stage=odd-tau, and the fidelity sweep to 4 size^3 never
    reaches 1 - 1e-9."""
    from sstwalk.families import fidelity_series

    for name, red in odd_cycle_reductions():
        assert decide_transfer(red).line() == "NO_TRANSFER stage=odd-tau", name
        assert float(np.max(fidelity_series(red, 4 * red.size ** 3))) < 1 - 1e-9, name
