"""Coin bases, H = N*RN, the Chebyshev bridge, and the blow-up of
``blowup_oracle.py`` checked against H."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from blowup_oracle import AdjacentMarkedPair, build_blowup
from conftest import assembled_instance, family_instance, synthetic_reduction
from psi_oracle import h_rat
from reduction_oracle import flatten
from sstwalk.coins import (CoinAssignment, grover_coin, negative_identity_coin,
                           reflection_about)
from sstwalk.exact import InvariantError
from sstwalk.graphs import (build_graph, circulant_2m, complete_bipartite_k2m,
                            generalized_path)
from sstwalk.reduction import (CoinBasis, ReductionError, build_H, chebyshev_apply,
                               exact_transfer_check, induced_coin_basis,
                               reduction_for)
from tests_hutil import petersen  # noqa: F401  (helper module below)
from walk_oracle import n_numeric, walk_unitary


def test_all_grover_basis_one_column_per_vertex():
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    asn = CoinAssignment.all_grover(g)
    basis = induced_coin_basis(asn, 0, [[1, 1]])
    assert len(basis.columns) == 3
    assert all(vec == (1, 1) for _, vec in basis.columns)


def test_rank_zero_coin_contributes_no_clones():
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    coins = {u: grover_coin(2) for u in range(3)}
    coins[2] = negative_identity_coin(2)
    asn = CoinAssignment(g, coins)
    basis = induced_coin_basis(asn, 0, [[1, 1]])
    assert len(basis.columns) == 2
    assert {u for u, _ in basis.columns} == {0, 1}


def test_circulant_marked_clone_counts():
    """a and b contribute 2 W-clones plus rank-2 completion clones under a
    rank-4 coin containing W (rank oracle over Q)."""
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    full = reflection_about([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    asn = CoinAssignment.grover_with_marked(g, a, b, full)
    basis = induced_coin_basis(asn, a, w, b)
    at_a = [vec for u, vec in basis.columns if u == a]
    assert len(at_a) == 4  # 2 W-clones + 2 completion
    assert len(basis.s_clones) == 2 and len(basis.t_clones) == 2
    # a W that spans the coin's col(P) leaves no completion
    rank2 = reflection_about([[1, 1, 0, 0], [0, 0, 1, 1]])
    asn = CoinAssignment.grover_with_marked(g, a, b, rank2)
    basis = induced_coin_basis(asn, a, [[1, 1, 1, 1], [1, 1, -1, -1]], b)
    assert [vec for u, vec in basis.columns if u == a] == [(1, 1, 1, 1), (1, 1, -1, -1)]
    assert len(basis.s_clones) == 2 and len(basis.t_clones) == 2


def test_build_H_k2_is_R():
    g = build_graph([(0, 1)], 2)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1]], 1)
    assert h_rat(red) == [[0, 1], [1, 0]]


def test_build_H_petersen_grover():
    g = petersen()
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1, 1, 1]])
    want = [[Fraction(1, 3) if g.adjacent(u, v) else Fraction(0)
             for v in range(10)] for u in range(10)]
    assert h_rat(red) == want


def test_star_spectrum():
    g = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, 0, [[1, 1, 1]])
    lam = np.sort(np.linalg.eigvalsh(red.h_numeric()))
    assert np.allclose(lam, [-1, 0, 0, 1], atol=1e-10)


def test_nonorthogonal_basis_rejected():
    g = build_graph([(0, 1)], 2)
    asn = CoinAssignment.all_grover(g)
    from sstwalk.reduction import CoinBasis

    bad = CoinBasis(((0, (Fraction(1),)), (0, (Fraction(1),)),
                     (1, (Fraction(1),))), (0,), (0,))
    with pytest.raises(ReductionError):
        build_H(asn, bad)


def test_basis_out_of_vertex_order_refused():
    """build_H emits its nonzeros in row order for columns grouped by
    ascending vertex; a hand-built basis that breaks the grouping, or
    reorders whole vertex blocks, gets a ReductionError before any work,
    never the InvariantError of an unsorted carrier."""
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    cols = induced_coin_basis(asn, a, w, b).columns
    assert [u for u, _ in cols[:3]] == [0, 0, 1]
    for bad in (cols[:1] + cols[2:] + cols[1:2], cols[2:] + cols[:2], cols[::-1]):
        with pytest.raises(ReductionError, match="not grouped by ascending vertex"):
            build_H(asn, CoinBasis(bad, (0,), (0,)))


def test_symmetry_identity_exact():
    _, _, _, _, _, red = assembled_instance(1)
    n = red.size
    h = h_rat(red)
    for i in range(n):
        for j in range(n):
            assert red.delta_sq[j] * h[i][j] == red.delta_sq[i] * h[j][i]


def test_spectral_radius_at_most_one():
    for seed in (0, 2, 4):
        red = assembled_instance(seed)[5]
        lam = np.linalg.eigvalsh(red.h_numeric())
        assert np.max(np.abs(lam)) <= 1 + 1e-9


def test_spectral_bridge_random_suite():
    """||N* U^t N - f_t(H)||_max <= 1e-8 for t <= 8 (Theorem consequence)."""
    for seed in range(6):
        _, _, _, asn, _, red = assembled_instance(seed)
        u = walk_unitary(asn)
        n = n_numeric(red)
        h = red.h_numeric()
        lam, vecs = np.linalg.eigh(h)
        theta = np.arccos(np.clip(lam, -1, 1))
        ut = np.eye(u.shape[0])
        for t in range(1, 9):
            ut = ut @ u
            ft = vecs @ np.diag(np.cos(t * theta)) @ vecs.T
            assert np.max(np.abs(n.T @ ut @ n - ft)) <= 1e-8


def test_chebyshev_t0_t2():
    red = assembled_instance(3)[5]
    n = red.size
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert chebyshev_apply(red, 0) == ident
    h = h_rat(red)
    t2 = chebyshev_apply(red, 2)
    for i in range(n):
        for j in range(n):
            val = sum(2 * h[i][k] * h[k][j] for k in range(n)) - ident[i][j]
            assert t2[i][j] == val


def test_chebyshev_f2_on_swap():
    from conftest import synthetic_reduction

    red = synthetic_reduction([[0, 1], [1, 0]], [1, 1], [0], [0])
    assert chebyshev_apply(red, 2) == [[1, 0], [0, 1]]


def test_exact_transfer_check_t0():
    red = assembled_instance(2)[5]
    assert exact_transfer_check(red, 0, 1) or red.s != red.t
    # with S = T the identity always passes at t=0
    red.t = list(red.s)
    assert exact_transfer_check(red, 0, 1)


def test_exact_transfer_k23():
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    red = reduction_for(asn, a, [[1, 1, 1]], b)
    assert exact_transfer_check(red, 2, 1)
    assert not exact_transfer_check(red, 1, 1)
    assert not exact_transfer_check(red, 2, -1)


def test_exact_transfer_octahedron_t4():
    """Column-exact Chebyshev verdict for the circulant theorem instance."""
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    red = reduction_for(asn, a, w, b)
    assert exact_transfer_check(red, 4, -1)
    assert not exact_transfer_check(red, 4, 1)


def test_gram_schmidt_runs_at_the_marked_vertices_only(monkeypatch):
    """On circulant(1000,1,999) the coin basis makes two Gram-Schmidt passes
    at each marked vertex, W and the coin's columns completed against it
    (they also decide that the coin fixes W), and none elsewhere."""
    from sstwalk import linalg

    g, a, b = circulant_2m(1000, 1, 999)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    calls = []
    gram_schmidt = linalg.gram_schmidt

    def counting(*args, **kwargs):
        calls.append(1)
        return gram_schmidt(*args, **kwargs)

    monkeypatch.setattr(linalg, "gram_schmidt", counting)
    red = reduction_for(asn, a, w, b)
    assert red.size == 2002
    assert len(calls) == 4


@pytest.mark.parametrize("w, message", [
    ([[1, 1, 0, 0], [1, 1, 0]], "subspace vector at vertex 0 has wrong length 3"),
    ([[1, 0, 0, 0], [1, 1, 0]], "subspace vector at vertex 0 has wrong length 3"),
    ([[1, 0, 0, 0], [2, 0, 0, 0]], "subspace at vertex 0 is not fixed by its coin"),
    ([[1, 1, 1, 1], [1, 1, -1, 0]], "subspace at vertex 0 is not fixed by its coin"),
    ([[1, 1, 0, 0], [2, 2, 0, 0]], "dependent subspace basis at vertex 0: "
                                   "linearly dependent vector in Gram-Schmidt input"),
    ([[0, 0, 0, 0]], "dependent subspace basis at vertex 0: "
                     "linearly dependent vector in Gram-Schmidt input"),
], ids=["length", "length-before-fixed", "fixed-before-dependent", "not-fixed",
        "dependent", "zero"])
def test_marked_subspace_refusals_in_order(w, message):
    """W at a marked vertex is refused for a wrong length first, then for not
    being fixed by its coin, then for a dependent basis."""
    g, a, b = circulant_2m(3, 1, 2)
    coin = reflection_about([[1, 1, 0, 0], [0, 0, 1, 1]])
    asn = CoinAssignment.grover_with_marked(g, a, b, coin)
    with pytest.raises(ReductionError) as err:
        induced_coin_basis(asn, a, w, b)
    assert str(err.value) == message


def test_basis_independence_two_completions():
    """Verdicts agree on two different per-vertex completions (open question)."""
    from sstwalk.decider import decide_transfer

    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    coin_a = reflection_about([[1, 0, -1, 0], [0, 1, 0, -1], [1, 0, 1, 0]])
    coin_b = reflection_about([[1, 0, -1, 0], [0, 1, 0, -1], [1, 1, 1, 1]])
    verdicts = []
    for marked in (coin_a, coin_b):
        asn = CoinAssignment.grover_with_marked(g, a, b, marked)
        red = reduction_for(asn, a, w, b)
        verdicts.append(decide_transfer(red))
    assert verdicts[0].occurs and verdicts[1].occurs
    assert verdicts[0].time == verdicts[1].time == 4
    assert verdicts[0].gamma == verdicts[1].gamma == -1


# -- the blow-up oracle ------------------------------------------------------


def test_blowup_adjacent_pair_refused():
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    asn = CoinAssignment.all_grover(g)
    with pytest.raises(AdjacentMarkedPair, match="t=1"):
        build_blowup(asn, 0, 1)


def test_blowup_requires_grover_elsewhere():
    g, a, b = complete_bipartite_k2m(2)
    coins = {u: grover_coin(g.degree(u)) for u in range(g.n)}
    coins[2] = negative_identity_coin(2)
    asn = CoinAssignment(g, coins)
    with pytest.raises(ReductionError):
        build_blowup(asn, a, b)


def test_blowup_k2m_B_block_zero():
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    bl = build_blowup(asn, a, b)
    rest = list(bl.rest)
    assert np.allclose(bl.g_numeric()[np.ix_(rest, rest)], 0)


def test_blowup_twin_blocks_coincide():
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    bl = build_blowup(asn, a, b)
    gmat = bl.g_numeric()
    cl_a, cl_b, rest = list(bl.cl_a), list(bl.cl_b), list(bl.rest)
    assert np.allclose(gmat[np.ix_(cl_a, rest)], gmat[np.ix_(cl_b, rest)])


def test_blowup_kernel_seeds_exact():
    from reduction_oracle import mat_vec

    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    bl = build_blowup(asn, a, b)
    deg = g.degree(a)
    for j in range(deg):
        seed = [Fraction(0)] * len(bl.delta_sq)
        seed[j], seed[deg + j] = Fraction(1), Fraction(-1)
        assert all(x == 0 for x in mat_vec(bl.sym, seed))


def test_blowup_gp_is_normalized_path():
    """GP(1,n) blow-up with span{1}-fixing marked coins acts as the normalized
    adjacency matrix of P_n."""
    n = 5
    g, a, b = generalized_path(1, n)
    asn = CoinAssignment.all_grover(g)
    bl = build_blowup(asn, a, b)
    gmat = bl.g_numeric()
    # reorder: a-clone, inner path vertices, b-clone
    order = [0] + [bl.rest[bl.rest_vertices.index(v)] for v in range(1, n - 1)] + [1]
    p = gmat[np.ix_(order, order)]
    want = np.zeros((n, n))
    want[0, 1] = want[1, 0] = want[n - 2, n - 1] = want[n - 1, n - 2] = 1 / np.sqrt(2)
    for i in range(1, n - 2):
        want[i, i + 1] = want[i + 1, i] = 0.5
    assert np.allclose(p, want, atol=1e-12)


def test_blowup_restriction_reproduces_H():
    """M G M^T = H with M = blockdiag(K, L, I) (numeric, 1e-10)."""
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    coin = reflection_about(w)
    asn = CoinAssignment.grover_with_marked(g, a, b, coin)
    red = reduction_for(asn, a, w, b)
    bl = build_blowup(asn, a, b)
    # columns of K = normalized W vectors in sigma_a coordinates
    k = np.array([[float(x) for x in col] for col in coin.basis]).T
    k = k / np.linalg.norm(k, axis=0)
    nrest = len(bl.rest_vertices)
    m = np.zeros((len(bl.delta_sq), 2 * k.shape[1] + nrest))
    m[: k.shape[0], : k.shape[1]] = k
    m[k.shape[0]: 2 * k.shape[0], k.shape[1]: 2 * k.shape[1]] = k
    m[2 * k.shape[0]:, 2 * k.shape[1]:] = np.eye(nrest)
    h_from_g = m.T @ bl.g_numeric() @ m
    # align clone order: reduction orders clones by vertex; build permutation
    perm = []
    for u, _ in red.basis.columns:
        if u == a:
            perm.append(len([x for x in perm if x < k.shape[1]]))
        elif u == b:
            perm.append(k.shape[1] + len([x for x in perm
                                          if k.shape[1] <= x < 2 * k.shape[1]]))
        else:
            perm.append(2 * k.shape[1] + bl.rest_vertices.index(u))
    h_perm = h_from_g[np.ix_(perm, perm)]
    assert np.max(np.abs(h_perm - red.h_numeric())) <= 1e-10


def test_quad_ev_eq_invariant():
    """Lemma: nonzero eigenpairs satisfy (l^2 I - l B - F F^*) y = 0; zero
    eigenpairs satisfy F^* y = 0 (y = non-clone block)."""
    for builder in (lambda: complete_bipartite_k2m(4),
                    lambda: circulant_2m(4, 1, 3)):
        g, a, b = builder()
        asn = CoinAssignment.all_grover(g)
        bl = build_blowup(asn, a, b)
        gmat = bl.g_numeric()
        rest, clones = list(bl.rest), list(bl.cl_a) + list(bl.cl_b)
        f, bmat = gmat[np.ix_(rest, clones)], gmat[np.ix_(rest, rest)]
        lam, vecs = np.linalg.eigh(gmat)
        nclone = bl.deg_a + bl.deg_b
        for i, lv in enumerate(lam):
            y = vecs[nclone:, i]
            if abs(lv) > 1e-9:
                res = (lv * lv * np.eye(len(y)) - lv * bmat - f @ f.T) @ y
            else:
                res = f.T @ y
            assert np.linalg.norm(res) <= 1e-8


def test_exact_transfer_check_rejects_mismatched_delta():
    from conftest import synthetic_reduction

    red = synthetic_reduction([[0, 1], [1, 0]], [1, 4], [0], [1])
    with pytest.raises(ReductionError):
        exact_transfer_check(red, 1, 1)


@pytest.mark.parametrize("s, t, message", [([0, 1], [1], "|S| = |T|"),
                                           ([], [], "nonempty clone sets")])
def test_exact_transfer_check_rejects_unpaired_clones(s, t, message):
    """The check pairs S with T by the rule psi uses: an unpaired clone or
    empty S and T are refused, not checked on the pairs zip forms."""
    red = synthetic_reduction([[0, 1], [1, 0]], [1, 1], s, t)
    with pytest.raises(ReductionError, match=message):
        exact_transfer_check(red, 1, 1)


def test_unequal_marked_degrees_refused_by_name():
    """Positional identification needs deg(a) = deg(b): the refusal names
    both vertices and their degrees before W is read at either."""
    g, _, b = generalized_path(3, 4)
    assert (g.degree(1), b, g.degree(b)) == (2, 7, 3)
    with pytest.raises(ReductionError, match=r"^positional identification needs "
                       r"deg\(a\) = deg\(b\): vertex 1 has degree 2, vertex 7 has degree 3$"):
        induced_coin_basis(CoinAssignment.all_grover(g), 1, [[1, 1]], b)


def test_sparse_numeric_views_match_dense_scan():
    """h_numeric and int_view, read from the recorded nonzeros, equal their
    dense-scan definitions over sym (h_numeric bit for bit)."""
    from math import lcm

    g, a, b = generalized_path(4, 10)
    reds = [reduction_for(CoinAssignment.all_grover(g), a, [[1] * 4], b)]
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    g, a, b = circulant_2m(20, 1, 19)
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    reds.append(reduction_for(asn, a, w, b))
    reds += [assembled_instance(seed)[-1] for seed in range(20)]
    for red in reds:
        d = np.sqrt(np.array([float(x) for x in red.delta_sq]))
        assert np.array_equal(red.h_numeric(), np.array(red.sym, dtype=float) / np.outer(d, d))
        assert red.nonzeros == [(i, j, x) for i, row in enumerate(red.sym)
                                for j, x in enumerate(row) if x]
        entries = [[(j, x / red.delta_sq[j]) for j, x in enumerate(row) if x]
                   for row in red.sym]
        scale = lcm(1, *(h.denominator for row in entries for _, h in row))
        rows = [(tuple(j for j, _ in row), tuple(int(h * scale) for _, h in row))
                for row in entries]
        assert red.int_view == (flatten(rows), scale)


def test_reduction_rejects_asymmetric_sym():
    """A reduction whose nonzeros are not those of a symmetric sym cannot be
    built (nor one from build_H): the Krylov moments of sstwalk.exact read
    (Z^(i+j))[s, t] as a delta_sq-weighted inner product, which needs it."""
    red = synthetic_reduction([[0, 1], [1, 0]], [1, 2], [0], [0])
    corrupted = [(0, 1, 1), (1, 0, 2)]
    with pytest.raises(InvariantError, match="symmetric sym"):
        dataclasses.replace(red, nonzeros=corrupted)
    with pytest.raises(InvariantError):
        synthetic_reduction([[0, 1], [0, 0]], [1, 1], [0], [0])
    g, a, b = circulant_2m(3, 1, 2)
    red = reduction_for(CoinAssignment.all_grover(g), a, [[1, 1, 1, 1]], b)
    i, j, x = red.nonzeros[0]
    with pytest.raises(InvariantError):
        dataclasses.replace(red, nonzeros=[(i, j, 2 * x)] + red.nonzeros[1:])


def test_reduction_refuses_planted_records():
    """The one-pass construction check refuses, with InvariantError, a record
    that is asymmetric, unsorted (across rows or within one), has a column
    index out of range, carries a Fraction entry (even one equal to an int, in
    a symmetric pair), or a delta_sq that is a Fraction or <= 0."""
    red = reduction_for(*family_instance("gp(4,10)"))
    nz, dsq = red.nonzeros, red.norm_sq
    (i, j, x), k = nz[0], next(k for k in range(len(nz)) if nz[k][0] == nz[k + 1][0])
    mirror = nz.index((j, i, x))
    fraction_pair = [(a, b, Fraction(y)) if n in (0, mirror) else (a, b, y)
                     for n, (a, b, y) in enumerate(nz)]
    planted = [
        ("symmetric sym", {"nonzeros": [(i, j, 2 * x)] + nz[1:]}),
        ("symmetric sym", {"nonzeros": nz[::-1]}),
        ("symmetric sym", {"nonzeros": nz[:k] + [nz[k + 1], nz[k]] + nz[k + 2:]}),
        ("symmetric sym", {"nonzeros": nz + [(0, len(dsq), 1), (len(dsq), 0, 1)]}),
        ("nonzeros are not ints", {"nonzeros": fraction_pair}),
        ("delta_sq is not positive", {"norm_sq": [Fraction(d) for d in dsq]}),
        ("delta_sq is not positive", {"norm_sq": [0] + dsq[1:]}),
        ("delta_sq is not positive", {"norm_sq": dsq[:-1] + [-dsq[-1]]}),
    ]
    for message, fields in planted:
        with pytest.raises(InvariantError, match=message):
            dataclasses.replace(red, **fields)
    assert dataclasses.replace(red).int_view == red.int_view


def test_one_sparse_integer_mat_vec(monkeypatch):
    """Z is applied in one place: the Krylov sequences (``_SelfMoments._grow``)
    and the exact Chebyshev check (``_chebyshev_columns``) both call
    ``reduction.z_apply``, and nothing else in the package iterates over or
    indexes Z's entries.  The per-row gather of the old row-form view
    (``map(vec.__getitem__, cols)``) is gone from src/."""
    import sys
    from collections import Counter
    from pathlib import Path

    from sstwalk import decider, exact, reduction

    calls, reads = Counter(), Counter()
    z_apply = reduction.z_apply

    class Entries(list):
        def __iter__(self):
            reads[sys._getframe(1).f_code.co_name] += 1
            return super().__iter__()

        def __getitem__(self, key):
            reads[sys._getframe(1).f_code.co_name] += 1
            return super().__getitem__(key)

    def counted(entries, vec):
        calls[sys._getframe(1).f_code.co_name] += 1
        return z_apply(entries, vec)

    monkeypatch.setattr(reduction, "z_apply", counted)
    monkeypatch.setattr(exact, "z_apply", counted)
    red = reduction_for(*family_instance("gp(4,10)"))
    entries, scale = red.int_view
    red.__dict__["int_view"] = (Entries(entries), scale)
    verdict = decider.decide_transfer(red)
    assert verdict.occurs and calls["_grow"] > 0 and set(calls) == {"_grow"}
    assert exact_transfer_check(red, verdict.time, verdict.gamma)
    assert calls["_chebyshev_columns"] >= verdict.time
    assert set(calls) == {"_grow", "_chebyshev_columns"}
    assert set(reads) == {"z_apply"}
    src = Path(reduction.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "__getitem__" in p.read_text()] == []
