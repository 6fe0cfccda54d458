"""Exact polynomial algebra, characteristic polynomials, and resolvent traces."""

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_reduction
from psi_oracle import power
from test_cosine import squarefree_part
from sstwalk.exact import (ONE, RatFun, RatPoly, X, _cosine_orders, _quotient,
                           charpoly, factor_irreducible, poly_gcd, psi)
from sstwalk.graphs import build_graph
from sstwalk.coins import CoinAssignment
from sstwalk.reduction import reduction_for


def P(*coeffs):
    return RatPoly([Fraction(c) for c in coeffs])


# -- polynomial arithmetic -----------------------------------------------------


def test_gcd_examples():
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)          # gcd(x^2-1, x-1)
    assert poly_gcd(P(1, 0, 1), P(1, -1, 1)) == ONE             # gcd(Phi4, Phi6)


def test_divrem_example():
    q, r = P(0, 0, 0, 1).divmod(P(-2, 1))                       # x^3 / (x-2)
    assert q == P(4, 2, 1) and r == P(8)


def test_internal_faults_raise_invariant_error():
    """sharp of zero is the program's fault; it stays a ValueError for
    callers that catch those."""
    from sstwalk.decider import sharp
    from sstwalk.exact import InvariantError

    assert issubclass(InvariantError, ValueError)
    with pytest.raises(InvariantError, match="zero"):
        sharp(RatPoly())


def test_zero_poly_sentinel():
    z = RatPoly()
    assert z.degree == -1 and z.is_zero()
    with pytest.raises(ZeroDivisionError):
        P(1).divmod(z)


def test_canonical_trim():
    assert RatPoly([1, 2, 0, 0]) == RatPoly([1, 2])


def test_serialization_roundtrip():
    p = P(Fraction(1, 3), -2, 0, 5)
    assert RatPoly([Fraction(tok) for tok in p.serialize().split()]) == p
    f = RatFun(P(0, 1), P(-1, 0, 1))
    assert f.serialize() == "0 1 | -1 0 1"


coeff = st.integers(-9, 9).map(Fraction)
polys = st.lists(coeff, min_size=0, max_size=6).map(RatPoly)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divmod_roundtrip(a, b):
    if b.is_zero():
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    for p in (a, b):
        if not p.is_zero():
            assert p.divmod(g)[1] == RatPoly()


def test_squarefree_part():
    p = power(P(-1, 1), 3) * P(1, 1)
    assert squarefree_part(p) == (P(-1, 1) * P(1, 1)).monic()


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_poly(rng, degree, lead):
    return [rng.randint(-9, 9) for _ in range(degree)] + [lead]


def test_quotient_matches_q_x_division():
    """exact._quotient(num, den) is the Q[x] quotient exactly when the
    remainder is zero and the quotient is integral, and None otherwise, on
    1500 seeded pairs: den monic, non-monic or of degree 0, and num a Z[y]
    multiple of den, a Q[y] multiple that need not be a Z[y] one (den = c d,
    num = d q) or an arbitrary polynomial."""
    rng = random.Random(33)
    seen = set()
    for _ in range(1500):
        lead = rng.choice([1, 1, -1, 2, -3, 6])
        den = _int_poly(rng, rng.randint(0, 4), lead)
        q = _int_poly(rng, rng.randint(0, 4), rng.choice([1, -2, 5]))
        shape = rng.choice(["z-multiple", "q-multiple", "arbitrary"])
        if shape == "z-multiple":
            num = _int_mul(den, q)
        elif shape == "q-multiple":
            c = rng.choice([2, 3])
            den = [c * x for x in den]
            num = _int_mul([x // c for x in den], q)
        else:
            num = _int_poly(rng, rng.randint(0, 7), rng.choice([1, -4, 7]))
        quo, rem = P(*num).divmod(P(*den))
        integral = rem.is_zero() and all(x.denominator == 1 for x in quo.coeffs)
        expected = [int(x) for x in quo.coeffs] if integral else None
        assert _quotient(num, den) == expected, (num, den)
        kind = "degree-0" if len(den) == 1 else "monic" if den[-1] == 1 else "non-monic"
        seen.add((kind, "integral" if integral else "q-only" if rem.is_zero() else "remainder"))
    assert seen == {(kind, result) for kind in ("degree-0", "monic", "non-monic")
                    for result in ("integral", "q-only", "remainder")} - {
        ("monic", "q-only"), ("degree-0", "remainder")}  # Gauss's lemma; a constant divides in Q


# -- characteristic polynomials -------------------------------------------------


def test_charpoly_1x1_zero():
    assert charpoly([[Fraction(0)]]) == X


def test_charpoly_swap():
    assert charpoly([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == P(-1, 0, 1)


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return outer + inner + spokes


def test_charpoly_petersen_third():
    """charpoly((1/3)A(Petersen)) = (x-1)(x-1/3)^5 (x+2/3)^4, checked by exact
    factorization of the Petersen spectrum {3, 1^5, (-2)^4} scaled by 1/3."""
    g = build_graph(petersen_edges(), 10)
    a = [[Fraction(1, 3) if g.adjacent(u, v) else Fraction(0)
          for v in range(10)] for u in range(10)]
    expect = P(-1, 1) * power(P(Fraction(-1, 3), 1), 5) * power(P(Fraction(2, 3), 1), 4)
    assert charpoly(a) == expect


def test_charpoly_matches_numeric_roots():
    rng = random.Random(11)
    for _ in range(5):
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
        for i in range(6):
            for j in range(i):
                m[i][j] = m[j][i]
        cp = charpoly(m)
        lam = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in m]))
        prod = np.poly(lam)[::-1]  # constant term first
        ours = np.array([float(c) for c in cp.coeffs])
        assert np.max(np.abs(ours - prod)) < 1e-6


# -- psi -------------------------------------------------------------------------


def test_psi_1x1():
    red = synthetic_reduction([[0]], [1], [0], [0])
    assert psi(red, [0], [0]) == RatFun(ONE, X)


def test_psi_2x2_scaled():
    red = synthetic_reduction([[0, Fraction(1, 2)], [Fraction(1, 2), 0]],
                              [1, 1], [0], [0])
    assert psi(red, [0], [0]) == RatFun(P(0, 1), P(Fraction(-1, 4), 0, 1))


def test_psi_off_diagonal():
    red = synthetic_reduction([[0, Fraction(1, 2)], [Fraction(1, 2), 0]],
                              [1, 1], [0], [1])
    assert psi(red, [0], [1]) == RatFun(P(Fraction(1, 2)), P(Fraction(-1, 4), 0, 1))


def test_psi_requires_matched_delta():
    red = synthetic_reduction([[0, 1], [1, 0]], [1, 4], [0], [1])
    with pytest.raises(ValueError):
        psi(red, [0], [1])


def test_psi_reduced_canonical():
    """gcd(num, den) = 1 always; here the (x-1) pole of the charpoly drops."""
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1, 1]])
    f = psi(red, red.s, red.s)
    assert poly_gcd(f.num, f.den) == ONE
    assert f.den.lead == 1


def test_psi_twins_k23_equal():
    from sstwalk.graphs import complete_bipartite_k2m

    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, a, [[1, 1, 1]], b)
    assert psi(red, red.s, red.s) == psi(red, red.t, red.t)


def test_resolvent_identity_numeric():
    """psi_{S,T}(2) equals the numeric trace of the (S,T) resolvent block of
    the reconstituted symmetric H, Delta-correction included."""
    rng = random.Random(5)
    for _ in range(4):
        n = 6
        sym = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                sym[i][j] = sym[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        dpair = [Fraction(rng.randint(1, 4)) for _ in range(3)]
        dsq = [dpair[k // 2] for k in range(6)]
        red = synthetic_reduction(sym, dsq, [0, 2], [1, 3])
        val = float(psi(red, [0, 2], [1, 3])(Fraction(2)))
        d = np.sqrt(np.array([float(x) for x in dsq]))
        h = np.array([[float(x) for x in row] for row in sym]) / np.outer(d, d)
        res = np.linalg.inv(2 * np.eye(n) - h)
        want = res[0, 1] + res[2, 3]
        assert abs(val - want) < 1e-8


# -- pole support ----------------------------------------------------------------


def test_pole_support_examples():
    assert factor_irreducible(RatFun(ONE, X).den) == [X]
    f = RatFun(P(0, 1), P(Fraction(-1, 4), 0, 1))
    assert factor_irreducible(f.den) == [P(Fraction(-1, 2), 1), P(Fraction(1, 2), 1)]


def test_pole_support_octahedron_contains_half():
    """The circulant reduction's support carries the factor x^2 - 1/2
    (roots +-sqrt(2/delta) with delta = 4)."""
    from sstwalk.coins import reflection_about
    from sstwalk.graphs import circulant_2m

    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    red = reduction_for(asn, a, w, b)
    factors = factor_irreducible(psi(red, red.s, red.s).den)
    assert P(Fraction(-1, 2), 0, 1) in factors


def test_factor_irreducible_nonlinear():
    p = (P(-1, -1, 2) * P(3, 0, 1)).monic()  # (2x^2-x-1)(x^2+3)
    factors = factor_irreducible(p)
    assert P(Fraction(1, 2), 1) in factors
    assert P(-1, 1) in factors
    assert P(3, 0, 1) in factors
    # repeated factors come out once: (x^2 - 3)^2 (x - 1/3)^3 (x^3 - 2)
    p = power(P(-3, 0, 1), 2) * power(P(Fraction(-1, 3), 1), 3) * P(-2, 0, 0, 1)
    assert factor_irreducible(p) == [P(Fraction(-1, 3), 1), P(-3, 0, 1), P(-2, 0, 0, 1)]


# -- the memory of the Krylov sequences ------------------------------------------


def _held_vectors(seq) -> int:
    """The lists of ``size`` ints that seq holds inside the lists and tuples
    among its attributes: its Krylov vectors, however they are stored."""
    size, held = seq.krylov.size, set()
    todo = [v for v in vars(seq).values() if isinstance(v, (list, tuple))]
    while todo:
        for item in todo.pop():
            if isinstance(item, list) and len(item) == size and all(type(x) is int for x in item):
                held.add(id(item))
            elif isinstance(item, (list, tuple)):
                todo.append(item)
    return len(held)


def _gp3(n: int):
    from sstwalk.families import marked_instance
    from sstwalk.graphs import generalized_path

    return reduction_for(*marked_instance(*generalized_path(3, n)))


def test_sequences_keep_two_krylov_vectors_per_start(monkeypatch):
    """After every Krylov level a sequence holds at most two vectors of
    ``size`` per start, Z^(K-1) x and Z^K x, and none once its recurrence is
    final: the moments certify the recurrence, so no earlier Z^k x is
    kept."""
    from conftest import FAMILY_NAMES, family_reduction
    from sstwalk import exact
    from sstwalk.decider import decide_periodicity, decide_transfer

    grow, levels = exact._SelfMoments._grow, []

    def watched(self):
        grow(self)
        levels.append(len(self.reads))
        assert _held_vectors(self) <= 2 * len(self.starts), levels[-1]

    monkeypatch.setattr(exact._SelfMoments, "_grow", watched)
    for red in [family_reduction(name) for name in FAMILY_NAMES] + [_gp3(30)]:
        decide_transfer(red)
        decide_periodicity(red)
        for summary in red.memo.values():
            for seq in summary._sides:
                assert seq.poly is not None and _held_vectors(seq) == 0
    assert max(levels) > 30


def test_order_table_matches_a_wide_sieve():
    """_cosine_orders(D) for D = 0 ... 300 and 1000 lists every m with
    phi(m) <= 2D that a totient sieve to 3 * 2000^(3/2) finds: the table
    was sized before by the looser bound m <= 3 phi(m)^(3/2)."""
    bound = isqrt(9 * 2000 ** 3) + 1
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    small = [m for m in range(1, bound + 1) if phi[m] <= 2000]
    for degree in [*range(301), 1000]:
        assert _cosine_orders(degree) == tuple(
            (m, max(1, phi[m] // 2)) for m in small if phi[m] <= 2 * degree), degree


def test_order_table_peak_memory():
    """A cold _cosine_orders(1000) peaks under 1 MiB in tracemalloc: the
    totient sieve runs to default_order_bound(2000) = 9625, where the bound
    3 N^(3/2) sieved to 268329 and peaked at 10.6 MiB."""
    import gc
    import tracemalloc

    _cosine_orders.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        orders = _cosine_orders(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(orders), orders[-1]) == (3884, (9240, 960))
    assert peak < 2 ** 20, peak / 2 ** 20


def test_periodicity_peak_memory_is_two_vectors_per_start():
    """decide_periodicity on gp(3,100), 296 clones and a recurrence of order
    100, peaks under 0.5 MiB in tracemalloc, warm caches or cold (0.22 MiB
    cold, 0.10 warm).  Keeping every Z^k x until the certificate peaked at
    0.70 MiB."""
    import gc
    import tracemalloc

    from sstwalk.decider import decide_periodicity

    red = _gp3(100)
    gc.collect()
    tracemalloc.start()
    try:
        assert decide_periodicity(red).periodic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2 ** 20, peak / 2 ** 20
