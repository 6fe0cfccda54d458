"""The integer route from coin to Z against the Fraction route it replaced.

``reduction_oracle`` keeps the Fraction Gram-Schmidt, the Fraction coin
validation and ``fixes``, the per-vertex Gram-Schmidt ``induced_coin_basis``,
the Fraction ``build_H``, the dividing ``int_view`` and the Fraction
Householder ``random_orthogonal_columns``.  The integer versions must give the
same primitive vectors, verdicts, error messages, columns, nonzeros, delta_sq
and Z, on seeded rational inputs and seeded reductions.
"""

import random
from fractions import Fraction

import pytest

import reduction_oracle as oracle
from conftest import (FAMILY_NAMES, assembled_instance, family_instance,
                      family_reduction, odd_cycle_instances, odd_cycle_reductions,
                      schedule_reduction, synthetic_reduction)
from sstwalk import linalg
from sstwalk.coins import (CoinAssignment, CoinError, ReflectionCoin, grover_coin,
                           negative_identity_coin, reflection_about)
from sstwalk.exact import InvariantError
from sstwalk.families import (marked_instance, random_coin_and_subspace,
                              random_orthogonal_columns)
from sstwalk.graphs import build_graph, circulant_2m, generalized_path
from sstwalk.reduction import ReductionError, induced_coin_basis, z_apply
from test_psi_oracle import random_reduction_args, reduction_from_args


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 7)))


def _vector(rng: random.Random, dim: int) -> list[Fraction]:
    return [_rational(rng) for _ in range(dim)]


def _gram_schmidt_case(rng: random.Random):
    """Rational vectors with mixed denominators and signs, some of them in the
    span of the others or of ``against`` (or zero), and an ``against`` list of
    orthogonal vectors rescaled by rationals of either sign."""
    dim = rng.randint(1, 6)
    against = []
    if rng.random() < 0.5:
        raw = [_vector(rng, dim) for _ in range(rng.randint(1, dim))]
        for b in oracle.gram_schmidt(raw, on_dependent="drop"):
            c = _rational(rng) or Fraction(-1, 2)
            against.append([c * x for x in b])
    vectors = []
    for _ in range(rng.randint(1, dim + 1)):
        pool = vectors + against
        roll = rng.random()
        if pool and roll < 0.25:
            vectors.append([sum(_rational(rng) * v[i] for v in pool) for i in range(dim)])
        elif roll < 0.3:
            vectors.append([Fraction(0)] * dim)
        else:
            vectors.append(_vector(rng, dim))
    return vectors, against


def test_gram_schmidt_matches_fraction_oracle():
    """The package's Gram-Schmidt drops dependent vectors: it equals the
    oracle's "drop" mode, and where the oracle's "error" mode raises, it keeps
    fewer vectors than it was given."""
    rng = random.Random(20261018)
    dependent = 0
    for _ in range(400):
        vectors, against = _gram_schmidt_case(rng)
        got = linalg.gram_schmidt(vectors, against)
        assert got == oracle.gram_schmidt(vectors, against, on_dependent="drop"), (
            vectors, against)
        assert all(type(x) is int for v in got for x in v)
        try:
            oracle.gram_schmidt(vectors, against)
        except ValueError:
            assert len(got) < len(vectors)
            dependent += 1
        else:
            assert len(got) == len(vectors)
    assert dependent > 20      # dependent inputs were exercised


def _random_coin(rng: random.Random) -> ReflectionCoin:
    dim = rng.randint(1, 5)
    kind = rng.random()
    if kind < 0.15:
        return grover_coin(dim)
    if kind < 0.2:
        return negative_identity_coin(dim)
    while True:
        try:
            return reflection_about([_vector(rng, dim) for _ in range(rng.randint(1, dim))])
        except CoinError:
            continue


def _marked_error(coin: ReflectionCoin, ws) -> str:
    """The ReductionError message of induced_coin_basis with W spanned by ws
    at the centre of a star whose centre carries ``coin``, or ''."""
    d = coin.degree
    g = build_graph([(0, i) for i in range(1, d + 1)], d + 1)
    asn = CoinAssignment(g, {u: coin if u == 0 else grover_coin(1) for u in range(d + 1)})
    try:
        induced_coin_basis(asn, 0, list(ws))
    except ReductionError as e:
        return str(e)
    return ""


def test_fixes_matches_fraction_oracle():
    """The package's exact fixedness test, the rank of the marked block in
    induced_coin_basis, refuses W as not fixed by its coin exactly when the
    Fraction oracle finds P w != w for some w in W, on seeded coins with
    fixed, random and zero vectors; a vector of the wrong length is refused
    for its length, and the oracle does not fix it either."""
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        coin = _random_coin(rng)
        fixed = [sum((_rational(rng) * x for x in col), Fraction(0))
                 for col in zip(*coin.basis)] if coin.basis else [Fraction(0)] * coin.degree
        cases = (fixed, _vector(rng, coin.degree), fixed[:-1])
        for ws in [(w,) for w in cases] + [(fixed, fixed), (fixed, cases[1]), cases]:
            want = all(oracle.fixes(coin, w) for w in ws)
            error = _marked_error(coin, ws)
            if any(len(w) != coin.degree for w in ws):
                assert not want and "wrong length" in error
            else:
                assert ("not fixed by its coin" in error) == (not want), (coin, ws)
            seen.add(want)
    assert seen == {True, False}


def _coin_case(rng: random.Random):
    """(degree, basis, fault): the basis of a valid reflection coin or one
    with a single fault: two basis vectors not orthogonal, a zero vector or a
    vector of the wrong length."""
    coin = _random_coin(rng)
    d = coin.degree
    basis = [[Fraction(x) for x in v] for v in coin.basis]
    fault = rng.choice(["none", "orthogonal", "zero", "length"])
    if fault == "orthogonal" and len(basis) > 1:
        basis[1] = [x + y for x, y in zip(basis[0], basis[1])]
    elif fault == "zero" and basis:
        basis[rng.randrange(len(basis))] = [Fraction(0)] * d
    elif fault == "length" and basis:
        i = rng.randrange(len(basis))
        basis[i] = basis[i][:-1] if rng.random() < 0.5 else basis[i] + [_rational(rng)]
    else:
        fault = "none"
    return d, tuple(map(tuple, basis)), fault


def _verdict(fn, *args):
    try:
        fn(*args)
    except CoinError as e:
        return str(e)
    return None


def test_coin_validation_matches_fraction_oracle():
    """A basis of the right length is accepted exactly when the Fraction
    validation accepts it together with the projection assembled from it;
    each fault is refused with its own message."""
    rng = random.Random(11)
    messages = {"none": None, "orthogonal": "coin basis is not orthogonal",
                "zero": "coin basis has a zero vector",
                "length": "coin basis vector has length"}
    seen = set()
    for _ in range(600):
        d, basis, fault = _coin_case(rng)
        got, want = _verdict(ReflectionCoin, d, basis), messages[fault]
        assert got is None if want is None else (got or "").startswith(want), (d, basis)
        if fault != "length":
            want = _verdict(oracle.validate_coin, d,
                            oracle.assemble_projection(d, basis), basis)
            assert (got is None) == (want is None), (d, basis)
        seen.add(fault)
    assert seen == set(messages)


def test_derived_projection_keeps_the_dropped_invariants():
    """The checks a coin ran on a stored P hold by construction for the P
    its basis spans: on seeded random coins of degree 1-8 and on the Grover
    and -I coins, the Fraction assembly of sum b b^T/<b,b> from the integer
    basis and from a coin built on the basis rescaled by rationals agree, the
    two coins are equal, P = P^T = P^2, tr P = rank and P b = b on the basis,
    exactly."""
    coins = [coin for seed in range(6) for coin in
             (random_coin_and_subspace(random.Random(seed), d)[0] for d in range(1, 9))]
    coins += [make(d) for make in (grover_coin, negative_identity_coin) for d in range(1, 9)]
    for coin in coins:
        d, p = coin.degree, oracle.assemble_projection(coin.degree, coin.basis)
        rescaled = ReflectionCoin(d, tuple(tuple(Fraction(-x, k + 2) for x in b)
                                           for k, b in enumerate(coin.basis)))
        assert rescaled == coin
        assert p == oracle.assemble_projection(d, rescaled.basis)
        assert p == oracle.transpose(p) == oracle.mat_mul(p, p)
        assert sum(p[i][i] for i in range(d)) == coin.rank
        assert all(oracle.mat_vec(p, list(b)) == list(b) for b in coin.basis)
    for d in range(1, 9):
        assert oracle.assemble_projection(d, grover_coin(d).basis) == [
            [Fraction(1, d)] * d for _ in range(d)]
        assert oracle.assemble_projection(d, negative_identity_coin(d).basis) == linalg.zeros(d, d)


def test_integer_householder_matches_fraction_oracle():
    """families.random_orthogonal_columns, in Python ints, returns the
    Fraction Householder route's columns and leaves the generator in the same
    state, on 360 (seed, dim, count) cases."""
    cases = 0
    for seed in range(24):
        for dim in range(1, 7):
            for count in sorted({1, (dim + 1) // 2, dim}):
                rng, ref = random.Random(seed), random.Random(seed)
                assert (random_orthogonal_columns(rng, dim, count)
                        == oracle.random_orthogonal_columns(ref, dim, count)), (seed, dim, count)
                assert rng.random() == ref.random()
                cases += 1
    assert cases == 360


def check_reduction_against_oracle(args) -> None:
    """Clone columns, S and T, nonzeros, delta_sq and Z of reduction_for equal
    the Fraction route's (Z as its rows, flattened); the nonzeros and norm_sq
    are ints.  With a V at b (a fifth argument) the columns come from the
    oracle, so only build_H and Z are compared."""
    try:
        want = oracle.induced_coin_basis(*args)
    except ReductionError as e:
        with pytest.raises(ReductionError, match=str(e)):
            reduction_from_args(*args)
        return
    red = reduction_from_args(*args)
    basis = red.basis
    assert (basis.columns, basis.s_clones, basis.t_clones) == want
    nonzeros, delta_sq = oracle.build_H(args[0], want[0])
    assert red.nonzeros == nonzeros and red.delta_sq == delta_sq
    assert all(type(x) is int for _, _, x in red.nonzeros)
    assert all(type(d) is int for d in red.norm_sq) and red.norm_sq == delta_sq
    rows, scale = oracle.int_view(nonzeros, delta_sq)
    assert red.int_view == (oracle.flatten(rows), scale)


def test_reductions_match_fraction_oracle_on_random_reductions():
    rng = random.Random(20251106)
    for _ in range(300):
        check_reduction_against_oracle(random_reduction_args(rng))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_reductions_match_fraction_oracle_on_families(name):
    check_reduction_against_oracle(family_instance(name))


def test_reductions_match_fraction_oracle_on_a_large_circulant():
    """circulant(3000,1,2999), 12000 arcs, with the rank-2 marked coin: the
    nonzeros build_H emits in row order, unsorted, are the oracle's sorted
    ones."""
    check_reduction_against_oracle(
        marked_instance(*circulant_2m(3000, 1, 2999), [[1, 0, -1, 0], [0, 1, 0, -1]]))


def test_unequal_marked_degrees_refused_like_oracle():
    """Both routes refuse deg(a) != deg(b) with the same message."""
    g, _, b = generalized_path(3, 4)
    args = (CoinAssignment.all_grover(g), 1, [[1, 1]], b)
    with pytest.raises(ReductionError) as want:
        oracle.induced_coin_basis(*args)
    with pytest.raises(ReductionError) as got:
        reduction_from_args(*args)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("vertex 1 has degree 2, vertex 7 has degree 3")


def test_reductions_match_fraction_oracle_on_odd_cycles():
    for _, args in odd_cycle_instances():
        check_reduction_against_oracle(args)


def _z_reductions():
    """The conftest random reductions (both shapes), the FAMILY_NAMES
    instances and the odd cycles."""
    yield from (assembled_instance(seed)[-1] for seed in range(40))
    rng = random.Random(36)
    yield from (schedule_reduction(rng, 4 + i % 9, *((1, 1), (2, 1), (2, 2))[i % 3])
                for i in range(30))
    yield from map(family_reduction, FAMILY_NAMES)
    yield from (red for _, red in odd_cycle_reductions())


def test_int_view_and_z_apply_match_row_oracle():
    """The flat integer view, built with one scale per column, is the old
    row-form view with one gcd per entry, flattened (same scale, same entries
    in the same order), and z_apply's one multiply-add per nonzero gives the
    row-wise gather and sum's Z vec on random vectors of 8- and 400-bit
    entries."""
    rng = random.Random(3636)
    count = 0
    for red in _z_reductions():
        rows, scale = oracle.row_int_view(red.nonzeros, red.norm_sq)
        entries = red.int_view[0]
        assert red.int_view == (oracle.flatten(rows), scale)
        for bits in (8, 400):
            vec = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(red.size)]
            assert z_apply(entries, vec) == oracle.row_z_apply(rows, vec)
        count += 1
    assert count == 40 + 30 + len(FAMILY_NAMES) + 14


def test_int_view_matches_fraction_oracle_on_synthetic_reductions():
    """Rational sym entries and delta_sq drawn of either sign: a draw with a
    negative delta_sq is refused when constructed, and its |delta_sq| twin,
    like every positive draw, gives the oracle's Z and scale."""
    rng = random.Random(5)
    for _ in range(200):
        size = rng.randint(1, 6)
        sym = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                if rng.random() < 0.6:
                    sym[i][j] = sym[j][i] = _rational(rng)
        delta_sq = [_rational(rng) or Fraction(-3, 2) for _ in range(size)]
        if min(delta_sq) < 0:
            with pytest.raises(InvariantError, match="delta_sq is not positive"):
                synthetic_reduction(sym, delta_sq, [0], [0])
        red = synthetic_reduction(sym, list(map(abs, delta_sq)), [0], [0])
        rows, scale = oracle.int_view(red.nonzeros, red.delta_sq)
        assert red.int_view == (oracle.flatten(rows), scale)
