"""The resolvent summary from the sequences of e_s +- e_t, against the
unit-column route it replaced (``transfer_oracle``).

The transfer verdict (stage, time, gamma and the orders of g+-),
cospectrality, g+-, strong cospectrality and the split must agree on seeded
random reductions, the shared families, the odd cycles and reductions with
S = T, and on the mirror graphs, cospectral by their swap symmetry and
not periodic.  Unpaired S and T (|S| != |T|, or paired clones with different
delta_sq) are refused with psi's ValueError exactly where the oracle's
psi_{S,T} is one.

psi on (S,S), (T,T) and (S,T), the periodicity verdict and the POLE_FACTOR
factors, all read from the (S, S) and (S, T) summaries, must agree with psi_S
from the unit columns and the scan of its denominator g, on the families, on
seeded random-small shaped reductions and on the odd cycles.  Seeded
sign-indefinite draws are refused when constructed.

The u sequence's reads are the cross terms c_k = m_S(k) - m_T(k) of the
full moment kernel at every level it grew, and cospectral agrees with the
oracle's, on seeded random reductions; every read of an (S, S) summary
is 0.

The pretty-good special case read from the (S, S) summary agrees with the
factor-list rule and its table of geodetic cos^2 values, accepted, rejected
or refused alike, on the 512 planted path supports, on two shapes that both
refuse, and on the double cones of the cone theorem.
"""

import itertools
import random
from collections import Counter

import pytest

from conftest import (FAMILY_NAMES, family_instance, family_reduction, mirror,
                      odd_cycle_reductions, random_instance, schedule_reduction,
                      synthetic_reduction)
from psi_oracle import krylov_moments, series_fraction
from sstwalk.coins import CoinAssignment
from sstwalk.cospec import SupportSplit, strong_cospectral_exact
from sstwalk.decider import decide_periodicity, decide_pretty_good_special, decide_transfer
from sstwalk.exact import psi, resolvent
from sstwalk.families import fidelity_series
from sstwalk.graphs import complete_multipartite, cycle_graph, prism_graph
from sstwalk.reduction import reduction_for
from test_psi_oracle import indefinite_reduction, random_reduction
from test_sweep_oracle import cone_reduction
from transfer_oracle import (OracleResolvent, decide_periodicity_oracle,
                             decide_pretty_good_special_oracle, decide_transfer_oracle,
                             unit_psi)


def check_transfer_against_oracle(red) -> str:
    """The verdict, cospectrality, g+-, strong and the split of ``red`` equal
    the oracle's; returns the verdict's stage, or "refused"."""
    old = OracleResolvent(red)
    try:
        old.m_st
    except ValueError:
        for read in (lambda: resolvent(red).cospectral, lambda: decide_transfer(red),
                     lambda: strong_cospectral_exact(red)):
            with pytest.raises(ValueError):
                read()
        return "refused"
    summary = resolvent(red)
    verdict = decide_transfer(red)
    split = strong_cospectral_exact(red)
    assert verdict == decide_transfer_oracle(old)
    assert summary.cospectral == old.cospectral
    assert summary.strong == old.strong
    if old.cospectral:
        assert (summary.g_plus, summary.g_minus) == (old.g_plus, old.g_minus)
    else:       # the supports of psi_S + psi_T +- 2 psi_{S,T}, from all 2 size moments
        m_s, m_t, m_st = (krylov_moments(red, a, b)
                          for a, b in ((red.s, red.s), (red.t, red.t), (red.s, red.t)))
        scale = red.int_view[1]
        for got, sign in ((summary.g_plus, 2), (summary.g_minus, -2)):
            seq = [x + y + sign * z for x, y, z in zip(m_s, m_t, m_st)]
            assert got == series_fraction(seq, scale)[1]
    if old.strong:
        assert split == SupportSplit(old.factors, *old.split)
        if summary.split_orders is not None:
            assert summary.split_orders == old.split_orders
    else:
        assert split is None
    return verdict.reason or "transfer"


def test_transfer_matches_oracle_on_random_instances():
    seen = Counter(check_transfer_against_oracle(reduction_for(
        CoinAssignment.grover_with_marked(g, a, b, coin), a, w, b))
        for g, a, b, coin, w in map(random_instance, range(600)))
    assert seen["transfer"] > 0 and seen["not-cospectral"] > 0


@pytest.mark.parametrize("n", [6, 10, 20, 40])
def test_mirror_is_cospectral_and_not_periodic(n):
    """The mirror of a random graph on n vertices (seed n) is cospectral by its
    swap symmetry and generically not periodic: the verdict agrees with the
    oracle, and the fidelity sweep to 4 size^2 backs the negative."""
    red = mirror(n, n)
    assert resolvent(red).cospectral
    assert decide_transfer(red).line() == "NO_TRANSFER stage=not-periodic"
    assert check_transfer_against_oracle(red) == "not-periodic"
    assert fidelity_series(red, 4 * red.size ** 2).max() < 1 - 1e-9


def test_transfer_matches_oracle_on_schedule_reductions():
    rng = random.Random(20261019)
    shapes = ((1, 1), (2, 1), (2, 2))
    seen = Counter(check_transfer_against_oracle(
        schedule_reduction(rng, 4 + i % 9, *shapes[i % 3])) for i in range(300))
    assert seen["transfer"] > 0 and seen["not-cospectral"] > 0


def test_transfer_refuses_unpaired_as_the_oracle_does():
    """Every one of the 300 random_reduction_args instances is checked; the
    ones whose oracle psi_{S,T} is a ValueError are refused, none dropped."""
    rng = random.Random(20251106)
    seen = Counter(check_transfer_against_oracle(random_reduction(rng)) for _ in range(300))
    assert sum(seen.values()) == 300
    assert seen["refused"] > 0 and seen["transfer"] > 0


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_transfer_matches_oracle_on_families(name):
    assert check_transfer_against_oracle(family_reduction(name)) == "transfer"


def test_transfer_matches_oracle_on_odd_cycles():
    for _name, red in odd_cycle_reductions():
        assert check_transfer_against_oracle(red) == "odd-tau"


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_transfer_matches_oracle_when_s_is_t(name):
    """reduction_for(..., b=None) marks S = T: every v_j is 0, g- = 1 and
    g+ = g."""
    assignment, a, w, _b = family_instance(name)
    red = reduction_for(assignment, a, w)
    assert red.s == red.t
    check_transfer_against_oracle(red)
    summary = resolvent(red)
    assert summary.g_minus.is_one() and summary.g_plus == OracleResolvent(red).g
    check_self_route_against_oracle(red)


def check_reads_against_kernel(red) -> bool | None:
    """u's reads are m_S - m_T of the full kernel, before and after u is
    certified; cospectral is the oracle's; the (S, S) reads are all 0.
    Returns cospectral, or None for unpaired S and T."""
    try:
        summary = resolvent(red)
        cospectral = summary.cospectral
    except ValueError:
        return None
    m_s, m_t = krylov_moments(red, red.s, red.s), krylov_moments(red, red.t, red.t)
    c = [x - y for x, y in zip(m_s, m_t)]
    plus = summary._sides[0]
    assert plus.reads == c[:len(plus.reads)]
    assert cospectral == OracleResolvent(red).cospectral == (not any(c))
    plus.certify()
    assert plus.reads == c[:len(plus.reads)]
    self_summary = resolvent(red, red.s, red.s)
    assert self_summary.cospectral
    for seq in self_summary._sides:
        assert seq.certify().reads and not any(seq.reads)
    return cospectral


def test_reads_are_cross_terms_on_random_reductions():
    rng = random.Random(20251106)
    seen = Counter(check_reads_against_kernel(random_reduction(rng)) for _ in range(120))
    assert seen[True] > 0 and seen[False] > 0 and seen[None] > 0


def test_reads_are_cross_terms_on_indefinite_reductions():
    """A sign-indefinite draw is refused when constructed; an all +1 draw
    reads as any reduction does."""
    rng = random.Random(20261018)
    for _ in range(120):
        red = indefinite_reduction(rng)
        if red is not None:
            check_reads_against_kernel(red)


# -- psi_S, periodicity and the pole factors from the (S, S) summary -------------


def check_self_route_against_oracle(red) -> bool:
    """psi on (S,S), (T,T) and (S,T), decide_periodicity and the POLE_FACTOR
    factors (the support factors of the (S, S) split) equal the unit-column
    oracle's; psi_{S,T} is refused where the oracle's is.  Returns whether
    g = den psi_S is periodic."""
    old = OracleResolvent(red)
    assert psi(red, red.s, red.s) == old.psi_s
    assert psi(red, red.t, red.t) == unit_psi(red, red.t)
    try:
        want = old.psi_st
    except ValueError:
        with pytest.raises(ValueError):
            psi(red, red.s, red.t)
    else:
        assert psi(red, red.s, red.t) == want
    assert decide_periodicity(red) == decide_periodicity_oracle(old)
    assert strong_cospectral_exact(red, red.s, red.s).support_factors == old.factors
    return old.orders is not None


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_self_route_matches_oracle_on_families(name):
    assert check_self_route_against_oracle(family_reduction(name))


def test_self_route_matches_oracle_on_schedule_reductions():
    shapes = ((1, 1), (2, 1), (2, 2))
    seen = Counter(check_self_route_against_oracle(
        schedule_reduction(random.Random(seed), 4 + seed % 9, *shapes[seed % 3]))
        for seed in range(60))
    assert seen[True] > 0 and seen[False] > 0


def test_self_route_matches_oracle_on_odd_cycles():
    for _name, red in odd_cycle_reductions():
        assert check_self_route_against_oracle(red)


def test_self_route_matches_oracle_on_indefinite_reductions():
    """A sign-indefinite draw is refused when constructed; an all +1 draw
    matches the oracle as any reduction does."""
    rng = random.Random(20261018)
    for _ in range(200):
        red = indefinite_reduction(rng)
        if red is not None:
            check_self_route_against_oracle(red)


def check_pretty_good_against_oracle(red):
    """The special-case verdict of ``red`` equals the factor-list rule's on
    the (S, S) support; returns it, or "refused" when both raise."""
    factors = strong_cospectral_exact(red, red.s, red.s).support_factors
    verdicts = []
    for rule in (lambda: decide_pretty_good_special_oracle(factors),
                 lambda: decide_pretty_good_special(red)):
        try:
            verdicts.append(rule())
        except ValueError:
            verdicts.append("refused")
    assert verdicts[0] == verdicts[1], factors
    return verdicts[0]


def test_pretty_good_matches_oracle_on_planted_paths():
    """The path 0 - 1 - 2 with delta_sq (d0, d1, d2) marked at 0 has support
    x (x^2 - c^2) with c^2 = (1/d0 + 1/d2) / d1: c^2 > 1 refuses, and a
    geodetic c^2 (1/4, 1/2, 3/4 or 1) rejects."""
    seen = Counter(str(check_pretty_good_against_oracle(
        synthetic_reduction([[0, 1, 0], [1, 0, 1], [0, 1, 0]], d, [0], [0])))
        for d in itertools.product(range(1, 9), repeat=3))
    assert seen == {"True": 472, "False": 25, "refused": 15}


@pytest.mark.parametrize("sym, delta_sq", [
    ([[0, 1], [1, 0]], [1, 3]),                           # x^2 - 1/3: no 0
    ([[0, 1, 0], [1, 2, 1], [0, 1, 0]], [2, 4, 2]),       # x (x^2 - x/2 - 1/4)
])
def test_pretty_good_refusals_match_oracle(sym, delta_sq):
    assert check_pretty_good_against_oracle(synthetic_reduction(sym, delta_sq, [0], [0])) \
        == "refused"


CONE_BASES = {"C4": cycle_graph(4), "C8": cycle_graph(8), "prism": prism_graph(),
              "K_{3,3,3}": complete_multipartite([3, 3, 3]),
              "K_{4,4}": complete_multipartite([4, 4]),
              "K_{5,5}": complete_multipartite([5, 5]),
              "K_{2,2,2,2}": complete_multipartite([2, 2, 2, 2]),
              "K_{6,6,6}": complete_multipartite([6, 6, 6])}


@pytest.mark.parametrize("name", CONE_BASES)
def test_pretty_good_matches_oracle_on_cones(name):
    """The cone theorem: pretty good iff the base degree k is outside {0, 2, 6}."""
    base = CONE_BASES[name]
    accepted = base.degree(0) not in (0, 2, 6)
    assert check_pretty_good_against_oracle(cone_reduction(base)) is accepted
