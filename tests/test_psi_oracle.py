"""psi from moments + Berlekamp-Massey against the determinant reference.

``psi_oracle`` is the determinant algorithm psi used before (charpoly,
Bareiss minors, Newton interpolation).  The new psi must agree with it on
(S,S), (T,T) and (S,T), error cases included, and the resolvent summary's
shortcuts (cospectrality from moments, g+- from Berlekamp-Massey on
m_S +- m_{S,T}) must agree with the RatFun arithmetic they replace.
"""

import random
from fractions import Fraction

import pytest

from conftest import FAMILY_NAMES, family_reduction
from psi_oracle import newton_interpolate, psi_oracle
from sstwalk.coins import CoinAssignment, reflection_about
from sstwalk.exact import RatPoly, berlekamp_massey, psi, resolvent
from sstwalk.families import random_orthogonal_columns
from sstwalk.graphs import build_graph
from sstwalk.reduction import reduction_for


def test_newton_interpolation():
    pts = [(Fraction(i), Fraction(i) ** 2 + 1) for i in (-1, 0, 2)]
    assert newton_interpolate(pts) == RatPoly([1, 0, 1])


def test_berlekamp_massey_fibonacci():
    fib = [0, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert berlekamp_massey(fib) == [1, -1, -1]     # F_k - F_{k-1} - F_{k-2} = 0
    assert berlekamp_massey([0] * 6) == [1]
    # the fraction-free updates multiply by earlier discrepancies; dividing
    # out the content must leave the primitive connection polynomial
    scaled = [7 ** k * f for k, f in enumerate(fib)]
    assert berlekamp_massey(scaled) == [1, -7, -49]


def _value_or_error(fn, red, s, t):
    try:
        return fn(red, s, t)
    except ValueError:
        return ValueError


def check_against_oracle(red):
    """psi on (S,S), (T,T), (S,T) and the summary's cospectrality and g+-
    equal the determinant oracle and RatFun arithmetic on it."""
    s, t = red.s, red.t
    pairs = ((s, s), (t, t), (s, t))
    psi_s, psi_t, psi_st = (_value_or_error(psi_oracle, red, a, b) for a, b in pairs)
    assert [_value_or_error(psi, red, a, b) for a, b in pairs] == [psi_s, psi_t, psi_st]
    summary = resolvent(red)
    assert summary.cospectral == (psi_s == psi_t)
    assert summary.psi_s == psi_s
    assert summary.g == psi_s.den
    if psi_st is ValueError:
        with pytest.raises(ValueError):
            summary.g_plus
        with pytest.raises(ValueError):
            summary.g_minus
    else:
        assert summary.g_plus == (psi_s + psi_st).den.monic()
        assert summary.g_minus == (psi_s - psi_st).den.monic()
    return psi_st is ValueError


def random_reduction(rng: random.Random):
    """A connected graph on <= 10 vertices, an equal-degree marked pair with a
    shared random rank-1 or rank-2 reflection coin (Grover elsewhere), dim W
    in {1, 2}.  Half the rank-2, dim-1 instances identify W = <c_1> at a with
    V = <c_1 + c_2> at b, so the paired clones differ in delta_sq."""
    while True:
        n = rng.randint(3, 10)
        p = rng.uniform(0.3, 0.7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        try:
            graph = build_graph(edges, n)
        except ValueError:
            continue
        rank = rng.randint(1, 2)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if graph.degree(a) == graph.degree(b) >= rank]
        if pairs:
            break
    a, b = rng.choice(pairs)
    cols = random_orthogonal_columns(rng, graph.degree(a), rank)
    asn = CoinAssignment.grover_with_marked(graph, a, b, reflection_about(cols))
    dim_w = rng.randint(1, rank)
    v = None
    if rank == 2 and dim_w == 1 and rng.random() < 0.5:
        v = [[x + y for x, y in zip(*cols)]]
    return reduction_for(asn, a, cols[:dim_w], b, v)


def test_psi_matches_oracle_on_random_reductions():
    rng = random.Random(20251106)
    mismatched = 0
    for _ in range(300):
        mismatched += check_against_oracle(random_reduction(rng))
    assert mismatched > 0     # the delta_sq pairing error was exercised


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_psi_matches_oracle_on_families(name):
    assert not check_against_oracle(family_reduction(name))
