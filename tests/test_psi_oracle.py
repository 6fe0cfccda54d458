"""psi from moments + Berlekamp-Massey against its two references.

``psi_oracle`` is the determinant algorithm psi used before (charpoly,
Bareiss minors, Newton interpolation).  The new psi must agree with it on
(S,S), (T,T) and (S,T), error cases included, and the resolvent summary's
shortcuts (cospectrality from the cross terms of e_s +- e_t, g+- from the
certified recurrences of their sequences) must agree with the RatFun
arithmetic they replace.

``full_kernel_summary`` is the moment route before the certified early stop
(all 2 size moments of each sequence); the early-stopped kernel must give the
same psi, cospectrality, g and g+-.

The support split the summary reads from the one integer scan of each of g+-
is checked against factoring g+ and g- afresh and scanning each in full
(``check_split_against_oracle``).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import reduction_oracle
from conftest import (FAMILY_NAMES, family_reduction, odd_cycle_reductions,
                      synthetic_reduction)
from psi_oracle import (berlekamp_massey, combination, full_kernel_summary, newton_interpolate,
                        psi_oracle)
from sstwalk import exact
from sstwalk.coins import CoinAssignment, grover_coin, reflection_about
from sstwalk.cospec import strong_cospectral_exact
from sstwalk.decider import decide_periodicity, decide_transfer
from sstwalk.exact import InvariantError, RatPoly, factor_irreducible, psi, resolvent
from sstwalk.families import random_orthogonal_columns
from sstwalk.graphs import build_graph, circulant_2m, complete_bipartite_k2m
from sstwalk.reduction import CoinBasis, build_H, reduction_for
from transfer_oracle import annihilates, cosine_factor, unit_psi


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
    equal the determinant oracle and combinations of its values: g+- are
    the denominators of psi_S + psi_T +- 2 psi_{S,T}, which are 2 (psi_S +-
    psi_{S,T}) when S and T are cospectral.  Where psi_{S,T} is refused, the
    summary refuses cospectral and g+- with the same ValueError."""
    s, t = red.s, red.t
    pairs = ((s, s), (t, t), (s, t))
    psi_s, psi_t, psi_st = (_value_or_error(psi_oracle, red, a, b) for a, b in pairs)
    assert [_value_or_error(psi, red, a, b) for a, b in pairs] == [psi_s, psi_t, psi_st]
    check_self_summary(red, psi_s)
    if psi_st is ValueError:
        for name in ("cospectral", "g_plus", "g_minus"):
            assert _field_or_error(red, name) is ValueError
        return True
    summary = resolvent(red)
    assert summary.cospectral == (psi_s == psi_t)
    assert summary.g_plus == combination((1, psi_s), (1, psi_t), (2, psi_st)).den
    assert summary.g_minus == combination((1, psi_s), (1, psi_t), (-2, psi_st)).den
    if summary.cospectral:
        assert summary.g_plus == combination((1, psi_s), (1, psi_st)).den
        assert summary.g_minus == combination((1, psi_s), (-1, psi_st)).den
    return False


def check_self_summary(red, psi_s):
    """The summary of (S, S) reads psi_S as its psi_st, with g+ = g and
    g- = 1 (u_j = 2 e_(s_j), v_j = 0)."""
    self_summary = resolvent(red, red.s, red.s)
    assert self_summary.psi_st == psi_s
    assert self_summary.g_plus == psi_s.den
    assert self_summary.g_minus.is_one()


def random_reduction_args(rng: random.Random):
    """The reduction_for arguments (assignment, a, W, b, V) of a connected
    graph on <= 10 vertices, an equal-degree marked pair with a shared random
    rank-1 or rank-2 reflection coin (Grover elsewhere), dim W in {1, 2}.
    Half the rank-2, dim-1 instances identify W = <c_1> at a with
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
    return asn, a, cols[:dim_w], b, v


def reduction_from_args(assignment, a, w_basis, b, v_basis=None):
    """reduction_for(assignment, a, W, b); with a V at b, build_H on the coin
    basis of ``reduction_oracle.induced_coin_basis``, which still takes V (the
    package always identifies V with W)."""
    if v_basis is None:
        return reduction_for(assignment, a, w_basis, b)
    columns, s, t = reduction_oracle.induced_coin_basis(assignment, a, w_basis, b, v_basis)
    columns = tuple((u, tuple(int(x) for x in vec)) for u, vec in columns)
    return build_H(assignment, CoinBasis(columns, s, t))


def random_reduction(rng: random.Random):
    return reduction_from_args(*random_reduction_args(rng))


def test_psi_matches_oracle_on_random_reductions():
    rng = random.Random(20251106)
    mismatched = 0
    for _ in range(300):
        mismatched += check_against_oracle(random_reduction(rng))
    assert mismatched > 0     # the delta_sq pairing error was exercised


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_psi_matches_oracle_on_families(name):
    assert not check_against_oracle(family_reduction(name))


# -- the support split read from g's one scan, against factoring g+- afresh -------


def check_split_against_oracle(red) -> str:
    """When the summary is strong: the support factors of the (S, T) split
    and of the (S, S) split (the POLE_FACTOR lines) are factor_irreducible(g)
    for g = den psi_S from the unit columns, its plus/minus factors are factor_irreducible(g+-)
    and, when g is periodic, its orders of g+- (and the decider's, on a
    transfer) are those of a full cosine_factor(g+-) scan.
    Returns what was checked: "transfer", "strong" or "".  A refusal of
    unpaired S and T (paired clones with different delta_sq) counts as not
    strong."""
    try:
        summary = resolvent(red)
        strong = summary.strong
    except ValueError:
        return ""
    if not strong:
        assert strong_cospectral_exact(red) is None
        return ""
    g_plus, g_minus = summary.g_plus, summary.g_minus
    g = unit_psi(red, red.s).den
    factors = strong_cospectral_exact(red, red.s, red.s).support_factors
    assert factors == tuple(factor_irreducible(g))
    split = strong_cospectral_exact(red)
    assert split.support_factors == factors
    assert split.plus_factors == tuple(factor_irreducible(g_plus))
    assert split.minus_factors == tuple(factor_irreducible(g_minus))
    full = (frozenset(cosine_factor(g_plus)[0]), frozenset(cosine_factor(g_minus)[0]))
    periodic = decide_periodicity(red).periodic
    assert summary.split_orders == (full if periodic else None)
    verdict = decide_transfer(red)
    if not verdict.occurs:
        return "strong"
    assert (verdict.orders_plus, verdict.orders_minus) == full
    return "transfer"


def test_split_matches_oracle_on_random_reductions():
    rng = random.Random(20251106)
    seen = Counter(check_split_against_oracle(random_reduction(rng)) for _ in range(300))
    assert seen["transfer"] > 0 and seen["strong"] > 0


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_split_matches_oracle_on_families(name):
    assert check_split_against_oracle(family_reduction(name)) == "transfer"


# -- the certified early stop against the full 2 size kernel ---------------------


def _field_or_error(red, name):
    """A field of red's (S, T) summary, or ValueError where the summary (built
    at the first read) or the field refuses."""
    try:
        return getattr(resolvent(red), name)
    except ValueError:
        return ValueError


def check_kernels_agree(red):
    """The summary read in the decider's order (cospectral first), then psi on
    (S,S), (T,T) and (S,T), equal what the full kernel gives."""
    want = full_kernel_summary(red, red.s, red.t)
    assert _field_or_error(red, "cospectral") == want["cospectral"]
    check_self_summary(red, want["psi_s"])
    assert _field_or_error(red, "g_plus") == want["g_plus"]
    assert _field_or_error(red, "g_minus") == want["g_minus"]
    s, t = red.s, red.t
    got = [_value_or_error(psi, red, a, b) for a, b in ((s, s), (t, t), (s, t))]
    assert got == [want["psi_s"], want["psi_t"], want["psi_st"]]


def test_kernels_agree_on_random_reductions():
    rng = random.Random(20251106)
    for _ in range(300):
        check_kernels_agree(random_reduction(rng))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_kernels_agree_on_families(name):
    check_kernels_agree(family_reduction(name))


def test_kernels_agree_on_circulant_300():
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(300, 1, 299)
    red = reduction_for(CoinAssignment.grover_with_marked(g, a, b, reflection_about(w)),
                        a, w, b)
    assert red.size == 602
    check_kernels_agree(red)


def test_kernels_agree_on_odd_cycles():
    for _name, red in odd_cycle_reductions():
        check_kernels_agree(red)


def indefinite_reduction(rng: random.Random):
    """A draw of the refusal generator: sym the adjacency matrix of a random
    graph on 6 - 10 vertices (loops allowed) and delta_sq = +-1 at random,
    S = [0, 1] and T = [2, 3] paired with equal delta_sq.

    A HermitianReduction refuses delta_sq <= 0 when it is constructed, with
    InvariantError: build_H's delta_sq are <b, b> > 0, and the Krylov
    moments try their one certificate on the positive definite form.  A draw
    with a -1 asserts that refusal and gives None; the rare all +1 draw gives
    its reduction."""
    n = rng.randint(6, 10)
    sym = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < 0.3:
                sym[i][j] = sym[j][i] = 1
    dsq = [rng.choice([-1, 1]) for _ in range(n)]
    dsq[2], dsq[3] = dsq[0], dsq[1]
    if min(dsq) > 0:
        return synthetic_reduction(sym, dsq, [0, 1], [2, 3])
    with pytest.raises(InvariantError, match="delta_sq is not positive"):
        synthetic_reduction(sym, dsq, [0, 1], [2, 3])
    return None


def test_kernels_agree_when_candidates_fail(monkeypatch):
    """A failed candidate is the program's fault, never a path the kernel
    takes.  Seeded sign-indefinite draws are refused when constructed.  On
    reductions every certificate passes at its first try, at exactly
    2 L + 3 terms of the sequence (2 L + 2 <= 2 K + 1 moments first holds at
    level K = L + 1), with c_0 = +-1 (the annihilator divides the monic
    integer charpoly of Z, so it is monic over Z by Gauss's lemma); a
    certificate forced to fail raises InvariantError."""
    rng = random.Random(20261018)
    for _ in range(200):
        red = indefinite_reduction(rng)
        if red is not None:
            check_kernels_agree(red)

    tried = []
    certifies = exact._hankel_certifies

    def recorded(terms, conn):
        tried.append((certifies(terms, conn), len(terms), conn))
        return tried[-1][0]

    monkeypatch.setattr(exact, "_hankel_certifies", recorded)
    rng = random.Random(20261018)
    reductions = [random_reduction(rng) for _ in range(200)]
    reductions += [family_reduction(name) for name in FAMILY_NAMES]
    reductions += [red for _name, red in odd_cycle_reductions()]
    for red in reductions:
        check_kernels_agree(red)
    assert tried
    for passed, terms, conn in tried:
        assert passed and terms == 2 * len(conn) + 1 and conn[0] in (1, -1)

    monkeypatch.setattr(exact, "_hankel_certifies", lambda terms, conn: False)
    g, a, b = complete_bipartite_k2m(3)
    red = reduction_for(CoinAssignment.grover_with_marked(g, a, b, grover_coin(3)),
                        a, [[1] * 3], b)
    with pytest.raises(InvariantError, match="certificate"):
        resolvent(red).cospectral


def _lower_connection(terms: list[int], order: int) -> list[int]:
    """The online Berlekamp-Massey connection polynomial of the given order,
    at the longest prefix of terms (the empty one included) that gives it."""
    seq: list[int] = []
    massey = exact._Massey(seq)
    found = massey.connection
    for m in terms[:2 * order + 2]:
        seq.append(m)
        massey.update()
        if massey.length == order:
            found = massey.connection
    assert len(found) == order + 1
    return found


def check_certificates_agree(red) -> Counter:
    """The certificate on the moments (``exact._hankel_certifies``) and the
    vector oracle (``transfer_oracle.annihilates``) give the same answer on
    every certified sequence of red's summaries, after psi on (S,S), (T,T)
    and (S,T) certified them: both accept the certified connection
    polynomial c of order L and its multiple c (y - 1), and, when L >= 1,
    both reject c with c_L + 1 and the Berlekamp-Massey candidate of order
    L - 1.  (A zero sequence, L = 0, has only zero starts, which every
    candidate annihilates.)  Returns the number of planted candidates."""
    for a, b in ((red.s, red.s), (red.t, red.t), (red.s, red.t)):
        _value_or_error(psi, red, a, b)
    seen = Counter()
    for summary in red.memo.values():
        for seq in summary._sides:
            conn, order = seq.poly, seq.order

            def both(candidate):
                verdict = exact._hankel_certifies(seq.terms, candidate)
                assert verdict == annihilates(summary.krylov, seq.starts, candidate), candidate
                return verdict

            assert both(conn)
            assert both(exact._product(conn, [1, -1]))
            seen["multiple"] += 1
            if order:
                assert not both(conn[:-1] + [conn[-1] + 1])
                assert not both(_lower_connection(seq.terms, order - 1))
                seen["wrong"] += 2
    return seen


def test_certificates_agree_with_vector_oracle():
    """The differential test of the certificate on the moments against the
    vector certificate it replaced, on the reductions of
    ``test_kernels_agree_when_candidates_fail``: its seeded random
    reductions and the all +1 draws of its indefinite generator (none at
    this seed), the families and the odd cycles."""
    rng = random.Random(20261018)
    reductions = [indefinite_reduction(rng) for _ in range(200)]
    rng = random.Random(20261018)
    reductions += [random_reduction(rng) for _ in range(200)]
    reductions += [family_reduction(name) for name in FAMILY_NAMES]
    reductions += [red for _name, red in odd_cycle_reductions()]
    seen = Counter()
    for red in reductions:
        if red is not None:
            seen += check_certificates_agree(red)
    assert seen["multiple"] > 1000 and seen["wrong"] > 1000, seen
