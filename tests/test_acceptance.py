"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import hashlib
import random
import time
from fractions import Fraction

import numpy as np

from conftest import random_instance
from sstwalk.coins import CoinAssignment, grover_coin, reflection_about
from sstwalk.cospec import strong_cospectral_exact
from sstwalk.decider import (cyclotomic, decide_transfer,
                             factor_into_cyclotomics, sharp)
from sstwalk.exact import RatPoly, factor_irreducible, psi
from sstwalk.families import (case_circulant, case_double_cone, case_gp,
                              case_k2m, case_octahedron_grover,
                              case_pretty_good_cone, double_cone_w,
                              fidelity_series)
from sstwalk.graphs import (circulant_2m, complete_bipartite_k2m,
                            complete_multipartite, cycle_graph,
                            double_cone_cycles, generalized_path, prism_graph)
from sstwalk.reduction import exact_transfer_check, reduction_for
from sstwalk.walk import coin_state, transfer_fidelity, walk_apply
from walk_oracle import n_numeric, walk_unitary


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def P(*coeffs):
    return RatPoly([Fraction(c) for c in coeffs])


# instances shared by criteria 6, 7 and 9
def family_instances():
    out = []
    for m in (1, 2, 3, 5, 8):
        g, a, b = complete_bipartite_k2m(m)
        out.append((f"k2m-{m}", g, a, b, grover_coin(m), [[1] * m]))
    w4 = [[1, 0, -1, 0], [0, 1, 0, -1]]
    for m, c, d in ((3, 1, 2), (4, 1, 3), (5, 2, 3), (6, 1, 5)):
        g, a, b = circulant_2m(m, c, d)
        out.append((f"circ-{m}", g, a, b, reflection_about(w4), [list(v) for v in w4]))
    for k, n in ((1, 3), (2, 4), (3, 5), (4, 6)):
        g, a, b = generalized_path(k, n)
        out.append((f"gp-{k}-{n}", g, a, b, grover_coin(k), [[1] * k]))
    for ms in ([1, 2], [1, 1, 3]):
        g, a, b = double_cone_cycles(ms)
        w = double_cone_w(ms)
        out.append((f"cone-{ms}", g, a, b, reflection_about(w), w))
    g, a, b = circulant_2m(3, 1, 2)
    out.append(("octa-grover", g, a, b, grover_coin(4), [[1, 1, 1, 1]]))
    return out


def test_criterion_1_k2m_family():
    start = time.perf_counter()
    rng = random.Random(20240811)
    ok = True
    for m in (1, 2, 3, 5, 8):
        for _ in range(3):
            res = case_k2m(m, rng=rng)
            ok = ok and res.status == "PASS" and res.verdict.time == 2
            ok = ok and res.fidelity >= 1 - 1e-9
    elapsed = time.perf_counter() - start
    report(1, f"K2m family ({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_2_circulant_family():
    start = time.perf_counter()
    ok = True
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    for m, c, d in ((3, 1, 2), (4, 1, 3), (5, 2, 3), (6, 1, 5)):
        res = case_circulant(m, c, d)
        ok = ok and res.status == "PASS" and res.verdict.time == 4 and res.dim_w == 2
        g, a, b = circulant_2m(m, c, d)
        asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
        red = reduction_for(asn, a, w, b)
        split = strong_cospectral_exact(red)
        ok = ok and split is not None
        ok = ok and split.plus_factors == (P(Fraction(-1, 2), 0, 1),)
        ok = ok and split.minus_factors == (P(0, 1),)
        ok = ok and res.fidelity >= 1 - 1e-9
        for t in (1, 2, 3):
            fid, _ = transfer_fidelity(asn, a, b, w, t)
            ok = ok and fid < 1 - 1e-4
    elapsed = time.perf_counter() - start
    report(2, f"circulant family ({elapsed:.1f}s)", ok and elapsed < 30.0)


def test_criterion_3_gp_family():
    ok = True
    for k, n in ((1, 3), (2, 4), (3, 5), (4, 6)):
        res = case_gp(k, n)
        ok = ok and res.status == "PASS" and res.verdict.time == n - 1
        g, a, b = generalized_path(k, n)
        asn = CoinAssignment.grover_with_marked(g, a, b, grover_coin(k))
        for t in range(1, n - 1):
            fid, _ = transfer_fidelity(asn, a, b, [[1] * k], t)
            ok = ok and fid < 1 - 1e-4
    report(3, "GP family with minimality", ok)


def test_criterion_4_double_cones():
    r1 = case_double_cone([1, 2])
    r2 = case_double_cone([1, 1, 3])
    ok = (r1.status == "PASS" and r1.verdict.time == 4 and r1.dim_w == 2
          and r2.status == "PASS" and r2.verdict.time == 4 and r2.dim_w == 3)
    report(4, "double cones C4uC8 and C4uC4uC12", ok)


def test_criterion_5_octahedron_golden():
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    fid, gamma = transfer_fidelity(asn, a, b, [[1, 1, 1, 1]], 6)
    ok = fid >= 1 - 1e-9 and abs(gamma - 1) < 1e-6
    # golden amplitude table, frozen after the simulation oracle confirmed it:
    # U^6 x_0(1) = x_3(1), i.e. +1/2 on each arc out of vertex 3, 0 elsewhere
    state = walk_apply(asn, coin_state(asn, a, [1, 1, 1, 1]), 6)
    for idx, (u, v) in enumerate(g.arcs):
        want = 0.5 if u == b else 0.0
        ok = ok and abs(state[idx] - want) <= 1e-9
    res = case_octahedron_grover()
    ok = ok and res.status == "PASS" and res.verdict.time == 6
    report(5, "octahedron Grover t=6 golden", ok)


def test_criterion_6_three_way_agreement():
    ok = True
    for name, g, a, b, coin, w in family_instances():
        asn = CoinAssignment.grover_with_marked(g, a, b, coin)
        red = reduction_for(asn, a, w, b)
        v = decide_transfer(red)
        ok = ok and v.occurs  # every family instance above is a positive
        ok = ok and exact_transfer_check(red, v.time, v.gamma)
        fid, gam = transfer_fidelity(asn, a, b, w, v.time)
        ok = ok and fid >= 1 - 1e-9 and abs(gam - v.gamma) < 1e-6
    for seed in range(20):
        g, a, b, coin, w = random_instance(seed)
        asn = CoinAssignment.grover_with_marked(g, a, b, coin)
        red = reduction_for(asn, a, w, b)
        v = decide_transfer(red)
        if v.occurs:
            ok = ok and exact_transfer_check(red, v.time, v.gamma)
            fid, _ = transfer_fidelity(asn, a, b, w, v.time)
            ok = ok and fid >= 1 - 1e-9
        else:
            window = 4 * red.size ** 3
            series = fidelity_series(red, window)
            ok = ok and float(np.max(series)) <= 1 - 1e-4
    report(6, "three-way agreement (families + 20 random)", ok)


def test_criterion_7_spectral_bridge():
    ok = True
    for seed in range(8):
        g, a, b, coin, w = random_instance(seed)
        asn = CoinAssignment.grover_with_marked(g, a, b, coin)
        red = reduction_for(asn, a, w, b)
        u = walk_unitary(asn)
        nmat = n_numeric(red)
        lam, vecs = np.linalg.eigh(red.h_numeric())
        theta = np.arccos(np.clip(lam, -1, 1))
        ut = np.eye(u.shape[0])
        for t in range(1, 9):
            ut = ut @ u
            ft = vecs @ np.diag(np.cos(t * theta)) @ vecs.T
            ok = ok and np.max(np.abs(nmat.T @ ut @ nmat - ft)) <= 1e-8
    report(7, "spectral bridge N*U^tN = f_t(H)", ok)


def test_criterion_8_cyclotomic_suite():
    ok = True
    for m in range(1, 201):
        prod = P(1)
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic(d)
        ok = ok and prod == P(*([-1] + [0] * (m - 1) + [1]))
    ok = ok and sharp(P(Fraction(-1, 2), 0, 1)) == cyclotomic(8)
    ok = ok and factor_into_cyclotomics(P(-1, -1, 1)) is None
    report(8, "cyclotomic suite m<=200", ok)


def test_criterion_9_evsp_agreement():
    """Exact pole roots = numeric eigenvalue support within 1e-7."""
    ok = True
    for name, g, a, b, coin, w in family_instances():
        asn = CoinAssignment.grover_with_marked(g, a, b, coin)
        red = reduction_for(asn, a, w, b)
        factors = factor_irreducible(psi(red, red.s, red.s).den)
        exact_roots = sorted(
            r.real for f in factors
            for r in np.roots([float(c) for c in f.coeffs][::-1]))
        lam, vecs = np.linalg.eigh(red.h_numeric())
        support = []
        i = 0
        while i < len(lam):
            j = i
            while j + 1 < len(lam) and lam[j + 1] - lam[j] <= 1e-9:
                j += 1
            cluster = list(range(i, j + 1))
            weight = np.linalg.norm(vecs[np.ix_(red.s, cluster)])
            if weight > 1e-7:
                support.append(float(np.mean(lam[cluster])))
            i = j + 1
        ok = ok and len(exact_roots) == len(support)
        ok = ok and np.allclose(exact_roots, support, atol=1e-7)
    report(9, "psi poles = eigenvalue support", ok)


def test_criterion_10_pretty_good():
    res = case_pretty_good_cone(prism_graph(), name="prism-k3")
    ok = res.accepted and res.best_fidelity >= 0.999 and res.best_time <= 10 ** 5
    ok = ok and not case_pretty_good_cone(cycle_graph(4), name="c4-k2").accepted
    ok = ok and not case_pretty_good_cone(
        complete_multipartite([3, 3, 3]), name="k333-k6").accepted
    report(10, "pretty-good special case (k=3 in, k=2/6 out)", ok)


def test_criterion_11_gp_194_clones():
    """Exact decide + Chebyshev check on GP(4,50), 194 clones, under 10 s."""
    start = time.perf_counter()
    g, a, b = generalized_path(4, 50)
    asn = CoinAssignment.grover_with_marked(g, a, b, grover_coin(4))
    red = reduction_for(asn, a, [[1] * 4], b)
    verdict = decide_transfer(red)
    ok = red.size == 194 and verdict.line() == "TRANSFER time=49 gamma=+1"
    ok = ok and exact_transfer_check(red, verdict.time, verdict.gamma)
    elapsed = time.perf_counter() - start
    report(11, f"GP(4,50) exact decide + check ({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_12_sweep_10k_clones():
    """Fidelity sweep on circulant(5000,1,4999), 10002 clones (Grover coins
    plus the reflection about W): it first reaches 1 - 1e-9 at t = 4 over
    t <= 1000, and reduction_for + fidelity_series take under 5 s."""
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(5000, 1, 4999)
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    start = time.perf_counter()
    red = reduction_for(asn, a, w, b)
    series = fidelity_series(red, 1000)
    elapsed = time.perf_counter() - start
    first = int(np.argmax(series >= 1 - 1e-9))
    ok = red.size == 10002 and series[first] >= 1 - 1e-9 and first == 4
    report(12, f"sweep on circulant(5000,1,4999), 10002 clones ({elapsed:.1f}s)",
           ok and elapsed < 5.0)


def test_criterion_13_circulant_2002_clones():
    """Exact decide + Chebyshev check on circulant(1000,1,999), 2002 clones
    with support degree 3: reduction_for, decide_transfer and
    exact_transfer_check give TRANSFER time=4 gamma=-1 in under 1 s."""
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(1000, 1, 999)
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    start = time.perf_counter()
    red = reduction_for(asn, a, w, b)
    verdict = decide_transfer(red)
    ok = red.size == 2002 and verdict.line() == "TRANSFER time=4 gamma=-1"
    ok = ok and exact_transfer_check(red, verdict.time, verdict.gamma)
    elapsed = time.perf_counter() - start
    report(13, f"circulant(1000,1,999) exact decide + check, 2002 clones ({elapsed:.2f}s)",
           ok and elapsed < 1.0)


def test_criterion_14_gp300_one_support_scan(capsys, monkeypatch):
    """`transfer --report-split` on GP(3,300), 896 clones (decide_transfer,
    then strong_cospectral_exact) never scans g, scans each of g+ and g- at
    most once as an integer polynomial, calls ``zfactor`` at most once and
    forms no RatPoly product, and prints the verdict and split it printed
    when g+- were factored afresh (stdout digest).  Every cosine scan is a ``_cosine_split``
    of an integer polynomial, so its record is the whole scan.  Counts only:
    no wall-time gate."""
    from sstwalk import cli, exact, zfactor

    summaries, split_ints, factor_calls, products = [], [], [], []
    init, split = exact.Resolvent.__init__, exact._cosine_split
    factor, mul = zfactor.irreducible_factors, exact.RatPoly.__mul__

    def recorded_init(self, *args):
        summaries.append(self)
        init(self, *args)

    def recorded_split(ints):
        split_ints.append(tuple(ints))
        return split(ints)

    def recorded_factor(p):
        factor_calls.append(p)
        return factor(p)

    def recorded_mul(self, other):
        if isinstance(other, exact.RatPoly):
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(exact.Resolvent, "__init__", recorded_init)
    monkeypatch.setattr(exact, "_cosine_split", recorded_split)
    monkeypatch.setattr(zfactor, "irreducible_factors", recorded_factor)
    monkeypatch.setattr(exact.RatPoly, "__mul__", recorded_mul)
    rc = cli.main(["transfer", "--family", "gp", "--k", "3", "--n", "300", "--report-split"])
    out = capsys.readouterr().out
    monkeypatch.undo()
    (summary,) = summaries
    sides = tuple(tuple(exact._scaled_ints(p)) for p in (summary.g_plus, summary.g_minus))
    ok = rc == 0 and out.splitlines()[0] == "TRANSFER time=299 gamma=+1"
    ok = ok and hashlib.sha256(out.encode()).hexdigest() == (
        "936d133b36d2ea28cee1991994adf74034322ca69c0aacfa505c2f8864c2283a")
    ok = ok and summary.g_plus.degree + summary.g_minus.degree == 300
    ok = ok and sorted(split_ints) == sorted(sides)
    ok = ok and len(factor_calls) <= 1 and products == []
    report(14, f"GP(3,300) decide + split: {len(split_ints)} integer scans of g+-, "
               f"{len(factor_calls)} factorizer calls", ok)
