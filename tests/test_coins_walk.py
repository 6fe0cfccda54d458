"""Reflection coins, the walk operator, and the simulator."""

import random
from fractions import Fraction

import numpy as np
import pytest

from sstwalk.coins import (CoinAssignment, CoinError, grover_coin,
                           negative_identity_coin, parse_coins,
                           reflection_about)
from sstwalk.decider import decide_transfer
from sstwalk.families import fidelity_series
from sstwalk.graphs import (build_graph, circulant_2m, complete_bipartite_k2m,
                            double_cone_cycles, generalized_path)
from sstwalk.reduction import exact_transfer_check, reduction_for
from sstwalk.walk import _c_float, coin_state, transfer_fidelity, walk_apply
from reduction_oracle import assemble_projection, fixes
import walk_oracle
from walk_oracle import walk_unitary


def reflection(coin):
    """C = 2P - I in Fractions, with P assembled from the coin's basis."""
    p = assemble_projection(coin.degree, coin.basis)
    return [[2 * x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(p)]


def test_grover_degree_1():
    c = grover_coin(1)
    assert c.basis == ((1,),)
    assert reflection(c) == [[Fraction(1)]]
    assert _c_float(c) == [[1.0]]


def test_grover_degree_3():
    c = reflection(grover_coin(3))
    for i in range(3):
        for j in range(3):
            want = Fraction(2, 3) - (1 if i == j else 0)
            assert c[i][j] == want
    assert _c_float(grover_coin(3)) == [[float(x) for x in row] for row in c]


def test_grover_degree_4():
    c = _c_float(grover_coin(4))
    assert c[0][0] == -0.5
    assert c[0][1] == 0.5


def test_grover_zero_degree_rejected():
    with pytest.raises(CoinError):
        grover_coin(0)


def test_reflection_single_axis():
    c = reflection_about([[1, 0, 0]])
    assert c.basis == ((1, 0, 0),)
    assert _c_float(c) == [[1, 0, 0], [0, -1, 0], [0, 0, -1]]


def test_reflection_circulant_w():
    c = reflection_about([[1, 0, -1, 0], [0, 1, 0, -1]])
    p = assemble_projection(c.degree, c.basis)
    assert p[0][0] == Fraction(1, 2)
    assert p[0][2] == Fraction(-1, 2)
    assert c.rank == 2
    assert fixes(c, [1, 1, -1, -1]) and not fixes(c, [1, 0, 1, 0])


def test_reflection_dependent_rejected():
    with pytest.raises(CoinError):
        reflection_about([[1, 1], [2, 2]])


def test_coin_is_involution_exact():
    rng = random.Random(1)
    for deg in (2, 3, 5):
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(deg)]
                for _ in range(2)]
        try:
            c = reflection_about(vecs)
        except CoinError:
            continue
        cm = reflection(c)
        sq = [[sum(cm[i][k] * cm[k][j] for k in range(deg)) for j in range(deg)]
              for i in range(deg)]
        assert sq == [[1 if i == j else 0 for j in range(deg)] for i in range(deg)]


def test_coin_eigenvalues_pm1():
    c = reflection_about([[1, 2, 0], [0, 1, -1]])
    lam = np.linalg.eigvalsh(np.array(_c_float(c)))
    assert np.max(np.abs(np.abs(lam) - 1)) < 1e-10


def test_assignment_validates_degree():
    g = build_graph([(0, 1), (1, 2)], 3)
    with pytest.raises(CoinError):
        CoinAssignment(g, {0: grover_coin(2), 1: grover_coin(2), 2: grover_coin(1)})


def test_walk_t0_identity():
    g, a, b = complete_bipartite_k2m(2)
    asn = CoinAssignment.all_grover(g)
    x = coin_state(asn, a, [1, 1])
    assert np.allclose(walk_apply(asn, x, 0), x)


def test_walk_apply_returns_a_fresh_array():
    """walk_apply never hands back or writes to the caller's array, and t = 0
    does not build the step plan."""
    g, a, b = circulant_2m(4, 1, 3)
    asn = CoinAssignment.all_grover(g)
    x = coin_state(asn, a, [1, 1, 1, 1])
    keep = x.copy()
    out = walk_apply(asn, x, 0)
    assert out is not x and np.array_equal(out, keep)
    assert "step_plan" not in vars(asn)
    for t in (1, 5):
        assert walk_apply(asn, x, t) is not x
        assert np.array_equal(x, keep)


def test_k2_arc_swap():
    g = build_graph([(0, 1)], 2)
    asn = CoinAssignment.all_grover(g)
    e01 = np.zeros(2)
    e01[g.arc_index[(0, 1)]] = 1.0
    out = walk_apply(asn, e01, 1)
    assert abs(out[g.arc_index[(1, 0)]] - 1.0) < 1e-15


def test_k2_period_2_exact():
    g = build_graph([(0, 1)], 2)
    asn = CoinAssignment.all_grover(g)
    state = np.array([[0.6, 0.0], [0.0, 0.8]])  # 0.6 e_0 + 0.8i e_1 as real, imaginary rows
    assert np.array_equal(walk_apply(asn, state, 2), state)


def test_unitarity_norm_drift():
    rng = np.random.default_rng(3)
    g, a, b = circulant_2m(4, 1, 3)
    asn = CoinAssignment.all_grover(g)
    x = rng.normal(size=(2, g.num_arcs))  # a complex state as real, imaginary rows
    for t in (1, 5, 20):
        y = walk_apply(asn, x, t)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-10 * max(t, 1)


def test_r_and_c_are_involutions_on_random_states():
    g, a, b = complete_bipartite_k2m(3)
    asn = CoinAssignment.all_grover(g)
    rng = np.random.default_rng(0)
    x = rng.normal(size=g.num_arcs)
    u = walk_unitary(asn)
    rev = np.array([g.arc_index[(v, u)] for u, v in g.arcs])
    assert np.allclose(x[rev][rev], x)          # R^2 = I
    c = u[rev, :]                               # C = R^-1 U (rev is an involution)
    assert np.allclose(c @ (c @ x), x, atol=1e-12)  # C^2 = I


def test_octahedron_grover_t6():
    """Golden: all-ones state at vertex 0 lands on vertex 3 at t=6, phase +1."""
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    fid, gamma = transfer_fidelity(asn, a, b, [[1, 1, 1, 1]], 6)
    assert fid >= 1 - 1e-10
    assert abs(gamma - 1.0) < 1e-9


def test_circulant_walk_t4_and_t2():
    """Theorem instance at t=4; the frozen t=2 value is 1/2 (simulation oracle).
    A dependent and a zero vector added to W's basis change neither value
    nor the phase: exact Gram-Schmidt drops both."""
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    fid4, _ = transfer_fidelity(asn, a, b, w, 4)
    assert fid4 >= 1 - 1e-9
    fid2, _ = transfer_fidelity(asn, a, b, w, 2)
    assert abs(fid2 - 0.5) < 1e-9
    assert fid2 < 1 - 1e-4
    padded = w + [[2, -1, -2, 1], [0, 0, 0, 0]]
    for t in (2, 4):
        assert transfer_fidelity(asn, a, b, padded, t) == transfer_fidelity(asn, a, b, w, t)


def test_transfer_fidelity_refuses_a_w_it_cannot_place():
    """An all-zero W spans nothing, a W of the wrong length does not live
    over sigma_a, and positional identification needs deg(a) = deg(b)."""
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    with pytest.raises(ValueError, match="^empty subspace$"):
        transfer_fidelity(asn, a, b, [[0, 0, 0, 0], [0, 0, 0, 0]], 6)
    with pytest.raises(ValueError, match=rf"^weight vector must have length deg\({a}\) = 4$"):
        transfer_fidelity(asn, a, b, [[1, 1, 1]], 6)
    g, a, _ = double_cone_cycles([1, 2])  # degree 12 at the apex, 4 on the cycles
    with pytest.raises(ValueError, match=r"^positional identification needs deg\(a\) = deg\(b\)$"):
        transfer_fidelity(CoinAssignment.all_grover(g), a, 2, [[1] * 12], 6)


def test_w_vector_of_wrong_length_refused_before_gram_schmidt():
    """Gram-Schmidt pairs entries with zip, so a W vector one entry too long
    or too short beside a good one was truncated or dropped, and the
    octahedron with Grover coins scored (1.0, 1.0) at t = 6.  Every vector
    must have length deg(a), in the package and in the oracle alike."""
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    assert transfer_fidelity(asn, a, b, [[1, 1, 1, 1]], 6) == (1.0, 1.0)
    for w in ([[1, 1, 1, 1], [1, 1, 1, 1, 5]], [[1, 1, 1, 1], [0, 0, 0]]):
        with pytest.raises(ValueError, match=rf"^weight vector must have length deg\({a}\) = 4$"):
            transfer_fidelity(asn, a, b, w, 6)
        with pytest.raises(ValueError, match="^weight vector must have length 4$"):
            walk_oracle.transfer_fidelity(asn, a, b, w, 6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_weights_are_refused(bad):
    """A NaN weight passed the fixed-vector test (every comparison with NaN
    is false) and gave a NaN state; NaN and +-inf are refused by vertex."""
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    for w in ([bad] * 4, [1, 1, bad, 1]):
        with pytest.raises(ValueError, match=f"weight vector at vertex {a} is not finite"):
            coin_state(asn, a, w)
        with pytest.raises(ValueError, match=f"weight vector at vertex {a} is not finite"):
            transfer_fidelity(asn, a, b, [[1, 1, 1, 1], w], 6)


def test_exact_entries_past_the_double_range():
    """gp(2,4) with the marked coin and W = span{(10^400, 1)}: the decider
    and the Chebyshev identity give transfer at t = 3, and the walk, whose
    exact vectors are scaled by a power of two before conversion, agrees
    instead of overflowing; so does the spectral sweep."""
    w = [[10 ** 400, 1]]
    g, a, b = generalized_path(2, 4)
    asn = CoinAssignment.grover_with_marked(g, a, b, reflection_about(w))
    red = reduction_for(asn, a, w, b)
    assert decide_transfer(red).line() == "TRANSFER time=3 gamma=+1"
    assert exact_transfer_check(red, 3, 1)
    assert coin_state(asn, a, w[0])[:2].tolist() == [1.0, 0.0]
    assert transfer_fidelity(asn, a, b, w, 3) == (1.0, 1.0)
    assert abs(fidelity_series(red, 3)[3] - 1) < 1e-12


def test_coin_state_accepts_numpy_float32_weights():
    """A real that is neither a float nor a rational, such as np.float32,
    is read as float(x), as before the power-of-two scaling."""
    g, a, b = complete_bipartite_k2m(2)
    asn = CoinAssignment.all_grover(g)
    w = np.array([0.1, 0.1], dtype=np.float32)
    assert coin_state(asn, a, w).tolist() == coin_state(asn, a, [float(w[0])] * 2).tolist()


def test_gram_schmidt_reads_numpy_weights_exactly():
    """Gram-Schmidt reads each entry through ``linalg._ratio``: numpy
    integers and np.float32 give the Python-int columns their Python values
    give, in a reflection coin and in the W of a fidelity."""
    coin = reflection_about([[np.int64(1), np.float32(0.5), 0]])
    assert coin.basis == reflection_about([[1, Fraction(1, 2), 0]]).basis
    assert all(type(x) is int for x in coin.basis[0])
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    w = np.ones((1, 4), dtype=np.float32)
    assert transfer_fidelity(asn, a, b, w, 6) == transfer_fidelity(asn, a, b, [[1] * 4], 6)


def test_coin_state_refuses_zero_weights_by_vertex():
    g, a, b = complete_bipartite_k2m(2)
    asn = CoinAssignment.all_grover(g)
    with pytest.raises(ValueError, match=f"^zero coin state at vertex {b}$"):
        coin_state(asn, b, [0, 0])


def test_coin_state_requires_fixed_vector():
    g, a, b = complete_bipartite_k2m(2)
    asn = CoinAssignment.all_grover(g)
    with pytest.raises(ValueError):
        coin_state(asn, a, [1, -1])  # not fixed by the Grover coin


def test_coin_state_error_names_the_vertex_whose_coin_moves_w():
    """W fixed by the reflection at a but not by the Grover coin at b: the
    error names b, and with the coins swapped it names a."""
    g, a, b = circulant_2m(3, 1, 2)
    w = [[1, 0, -1, 0], [0, 1, 0, -1]]
    coins = {u: grover_coin(4) for u in range(g.n)}
    for marked, other in ((a, b), (b, a)):
        asn = CoinAssignment(g, {**coins, marked: reflection_about(w)})
        with pytest.raises(ValueError, match=f"not fixed by the coin at vertex {other}$"):
            transfer_fidelity(asn, a, b, w, 4)
        with pytest.raises(ValueError, match=f"coin at vertex {other}$"):
            coin_state(asn, other, w[0])


def test_walk_apply_refuses_a_step_count_that_is_not_an_integer():
    g, a, b = circulant_2m(3, 1, 2)
    asn = CoinAssignment.all_grover(g)
    x = coin_state(asn, a, [1, 1, 1, 1])
    for bad in (2.0, 2.5, "2", None):
        with pytest.raises(ValueError, match=f"t={bad!r}"):
            walk_apply(asn, x, bad)
    with pytest.raises(ValueError, match="t=-1"):
        walk_apply(asn, x, -1)
    for t in (np.int64(3), np.int32(0), np.uint8(6)):
        assert np.array_equal(walk_apply(asn, x, t), walk_apply(asn, x, int(t)))


def test_dimension_mismatch():
    g, a, b = complete_bipartite_k2m(2)
    asn = CoinAssignment.all_grover(g)
    with pytest.raises(ValueError):
        walk_apply(asn, np.zeros(5), 1)


def test_parse_coins():
    g, a, b = complete_bipartite_k2m(2)
    text = """
    # marked coins
    coin 0 basis 1 1/2 1/2
    coin 1 grover
    """
    asn = parse_coins(text, g)
    assert asn.coin(0).rank == 1
    assert asn.coin(2) is grover_coin(2)
    with pytest.raises(CoinError):
        parse_coins("coin 0 basis 1 1", g)  # wrong entry count
    for bad in ("coin 9 grover", "coin 1 grover extra", "coin 1 minus_identity 7"):
        with pytest.raises(CoinError):
            parse_coins(bad, g)


def test_minus_identity_coin_has_no_clones():
    c = negative_identity_coin(3)
    assert c.rank == 0
    assert c.basis == ()
    assert _c_float(c) == [[-1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_walk_apply_matches_dense_power_on_random_graphs():
    """The stacked-block stepper against U^t from the dense walk_unitary: the
    all-Grover K_{2,2} from a coin state at t in {0, 3, 17}, then 50 seeded
    connected graphs of mixed degree, n <= 12, every vertex a random rational
    reflection or a (shared) Grover coin, a stack of two real rows, t <= 6."""
    from sstwalk.families import random_coin_and_subspace
    from sstwalk.graphs import GraphError

    g, a, b = complete_bipartite_k2m(2)
    asn = CoinAssignment.all_grover(g)
    u = walk_unitary(asn)
    x = coin_state(asn, a, [1, 1])
    for t in (0, 3, 17):
        want = np.linalg.matrix_power(u, t) @ x
        assert np.allclose(walk_apply(asn, x, t), want, rtol=0, atol=1e-12)

    rng = random.Random(2024)
    nrng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        n = rng.randint(3, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        try:
            g = build_graph(edges, n)
        except GraphError:
            continue
        if len({g.degree(u) for u in range(n)}) < 2:
            continue
        coins = {u: grover_coin(g.degree(u)) if rng.random() < 0.5
                 else random_coin_and_subspace(rng, g.degree(u))[0] for u in range(n)}
        asn = CoinAssignment(g, coins)
        u = walk_unitary(asn)
        x = nrng.normal(size=(2, g.num_arcs))
        for t in range(7):
            want = (np.linalg.matrix_power(u, t) @ x.T).T
            assert np.allclose(walk_apply(asn, x, t), want, rtol=0, atol=1e-12)
        checked += 1


def test_zero_basis_vector_rejected():
    """A zero basis column is orthogonal to everything, so it passed the
    orthogonality check, and the reduction dropped it: C6 with C = I at the
    marked pair was modelled as a rank-1 coin."""
    from sstwalk.coins import ReflectionCoin

    with pytest.raises(CoinError, match="zero vector"):
        ReflectionCoin(2, ((1, 0), (0, 0)))
    assert ReflectionCoin(2, ((1, 0), (0, 3))).basis == ((1, 0), (0, 1))


def test_all_grover_validates_one_coin(monkeypatch):
    """2000 degree-4 vertices share one Grover coin, validated once; a
    non-orthogonal basis, a basis vector of the wrong length and a wrong-size
    coin are still refused."""
    from sstwalk.coins import ReflectionCoin

    validations = []
    original = ReflectionCoin.__post_init__

    def counting(self):
        validations.append(self.degree)
        original(self)

    monkeypatch.setattr(ReflectionCoin, "__post_init__", counting)
    grover_coin.cache_clear()
    g, a, b = circulant_2m(1000, 1, 999)
    asn = CoinAssignment.all_grover(g)
    assert validations == [4]
    assert all(asn.coin(u) is asn.coin(0) for u in range(g.n))

    with pytest.raises(CoinError, match="not orthogonal"):
        ReflectionCoin(2, ((1, 1), (1, 0)))
    with pytest.raises(CoinError, match="length 2, degree is 3"):
        ReflectionCoin(3, ((1, 1),))
    coins = {u: grover_coin(4) for u in range(g.n)}
    coins[7] = grover_coin(3)
    with pytest.raises(CoinError, match="degree is 4"):
        CoinAssignment(g, coins)


def test_grover_coin_called_once_per_degree(monkeypatch):
    """all_grover, grover_with_marked and parse_coins ask for one Grover coin
    per distinct degree, not one per vertex."""
    from sstwalk import coins

    calls = []

    def counting(degree):
        calls.append(degree)
        return grover_coin(degree)

    monkeypatch.setattr(coins, "grover_coin", counting)
    g, a, b = circulant_2m(1000, 1, 999)
    asn = CoinAssignment.all_grover(g)
    assert calls == [4]
    assert all(asn.coin(u) is grover_coin(4) for u in range(g.n))
    g, a, b = complete_bipartite_k2m(5)
    calls.clear()
    CoinAssignment.grover_with_marked(g, a, b, grover_coin(5))
    assert sorted(calls) == [2, 5]
    calls.clear()
    parse_coins("", g)
    assert sorted(calls) == [2, 5]
