"""The cosine scan on g over Z against the g# oracle it replaced.

``old_orders`` and ``old_factor_irreducible`` are the algorithms the decider
and the factorizer used before the scan: the sharp transform g -> g# plus a
scan for cyclotomic factors with the Phi_{1,2}-squared multiplicity rule, and
peel-x-then-sympy, with the square-free part and sympy's Q[x] factorizer
it ran on (``squarefree_part`` and ``sympy_factor``, kept here as the
oracle; the package factors in Z[y] and needs neither).  The cosine scan (read
as the resolvent summary reads it, ``scan_orders``, and
``exact.factor_irreducible``) must agree with both on the single Psi_m, on
random products of distinct Psi_m with and without a squared or non-cosine
factor, on random integer products, and on g, g+ and g- of seeded random
reductions.  The package's Zassenhaus factorizer ``zfactor`` is checked
against sympy's factor_list over Z (``sympy_int_factors``) on the rests of
the random-small schedule and on planted hard cases.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sstwalk import exact, zfactor
from sstwalk.cospec import strong_cospectral_exact
from sstwalk.decider import (cyclotomic, decide_periodicity, decide_transfer,
                             factor_into_cyclotomics, sharp)
from sstwalk.exact import (X, RatPoly, _scaled_ints, cosine_poly, factor_irreducible,
                           poly_gcd, resolvent)
from conftest import schedule_reduction
from psi_oracle import power, quotient
from test_cli import SPLIT_GOLDEN, _instance_argv
from test_psi_oracle import random_reduction
from transfer_oracle import cosine_factor, unit_psi

ORACLE_BOUND = 200
# The g# oracle divides a degree-2D Fraction polynomial by every Phi_m in
# turn: on the single Psi_m it took 3 s for m <= 80 and 87 s for m <= 200
# (2-core x86 host, Python 3.11), so it runs on m <= ORACLE_SINGLE and on
# products of orders below ORACLE_PRODUCT; sharp(Psi_m) = Phi_m is checked for
# every m <= ORACLE_BOUND.
ORACLE_SINGLE = 80
ORACLE_PRODUCT = 30

def scan_orders(g: RatPoly):
    """The orders ``exact.Resolvent.split_orders`` reads from the cosine scan
    of g+-: those of g = prod Psi_m with each Psi_m once, else None."""
    orders, rest = cosine_factor(g)
    if not rest.is_one() or any(e != 1 for e in orders.values()):
        return None
    return frozenset(orders)


def old_orders(g: RatPoly, m_bound: int | None = None):
    """The decider's order set before the cosine scan (g# oracle)."""
    factors = factor_into_cyclotomics(sharp(g), m_bound)
    if factors is None:
        return None
    if any(e != (2 if m <= 2 else 1) for m, e in factors.items()):
        return None
    return frozenset(factors)


def squarefree_part(p: RatPoly) -> RatPoly:
    """p divided by gcd(p, p'), monic."""
    if p.degree <= 0:
        return p.monic()
    derivative = RatPoly([i * c for i, c in enumerate(p.coeffs)][1:])
    return quotient(p, poly_gcd(p, derivative)).monic()


def sympy_factor(p: RatPoly) -> list[RatPoly]:
    """The monic factors of p from sympy's factorizer over Q[x]."""
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], x, domain="QQ")
    out = []
    for fac, _mult in expr.factor_list()[1]:
        q = RatPoly([Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]).monic()
        if q.degree >= 1:
            out.append(q)
    return out


def sympy_int_factors(ints: list[int]) -> list[list[int]]:
    """The distinct irreducible factors over Z of an integer polynomial
    (constant term first) from sympy's factor_list, primitive with positive
    lead, sorted."""
    import sympy

    poly = sympy.Poly(ints[::-1], sympy.Symbol("y"), domain="ZZ")
    out = []
    for fac, _mult in poly.factor_list()[1]:
        q = [int(c) for c in reversed(fac.all_coeffs())]
        out.append(q if q[-1] > 0 else [-c for c in q])
    return sorted(out)


def old_factor_irreducible(p: RatPoly) -> list[RatPoly]:
    """The factorizer before the cosine scan: peel x, then sympy."""
    if p.degree <= 0:
        return []
    sf = squarefree_part(p)
    factors = []
    if sf.coeffs[0] == 0:
        factors.append(X)
        while sf.coeffs[0] == 0:
            sf = RatPoly(sf.coeffs[1:])
    if sf.degree == 1:
        factors.append(sf.monic())
    elif sf.degree > 1:
        factors.extend(sympy_factor(sf))
    return sorted(factors, key=lambda q: (q.degree, q.coeffs))


def test_cosine_poly_is_the_sharp_preimage_of_phi_m():
    assert cosine_poly(1) == RatPoly([-1, 1]) and cosine_poly(2) == RatPoly([1, 1])
    assert cosine_poly(4) == X
    assert cosine_poly(8) == RatPoly([Fraction(-1, 2), 0, 1])
    for m in range(3, ORACLE_BOUND + 1):
        assert sharp(cosine_poly(m)) == cyclotomic(m), m


def test_cyclotomic_is_the_recursive_quotient():
    """Phi_m from the Moebius product equals (x^m - 1) / prod_{d | m, d < m} Phi_d."""
    for m in range(1, 61):
        num = RatPoly([-1] + [0] * (m - 1) + [1])
        for d in range(1, m):
            if m % d == 0:
                num = quotient(num, cyclotomic(d))
        assert cyclotomic(m) == num, m


def test_every_single_cosine_poly_matches_oracle():
    """Psi_m alone: the scan finds {m} for every m <= 200, and equals the g#
    oracle and the old factorizer for m <= 80.  Beyond that the oracle's
    answer is pinned by sharp(Psi_m) = Phi_m (checked above for m <= 200)
    and the irreducibility of Phi_m."""
    for m in range(1, ORACLE_BOUND + 1):
        psi_m = cosine_poly(m)
        assert scan_orders(psi_m) == {m}, m
        assert cosine_factor(psi_m) == ({m: 1}, RatPoly([1]))
        assert factor_irreducible(psi_m) == [psi_m]
        if m <= ORACLE_SINGLE:
            assert old_orders(psi_m) == {m}, m
            assert old_factor_irreducible(psi_m) == [psi_m], m


def _non_cosine_factor(rng: random.Random) -> RatPoly:
    """A rational linear or quadratic factor with no root cos(2 pi k/m)."""
    while True:
        if rng.random() < 0.5:
            f = RatPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1])
        else:
            f = RatPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 1])
        if not cosine_factor(f)[0] and not old_orders(f):
            return f


def test_random_products_match_oracle():
    """300 products of 1-3 distinct Psi_m (m < 30), each with a copy that has
    a squared factor or a non-cosine rational linear or quadratic factor, all
    times a random rational.  The oracle scans m <= 30: no input has a
    cyclotomic factor of higher order in its sharp, so that is its answer
    under the default bound too."""
    rng = random.Random(20261018)
    kinds = {"periodic": 0, "squared": 0, "non-cosine": 0}
    for _ in range(300):
        orders = rng.sample(range(1, ORACLE_PRODUCT), rng.randint(1, 3))
        prod = RatPoly([1])
        for m in orders:
            prod = prod * cosine_poly(m)
        kind = rng.choice(["squared", "non-cosine"])
        if kind == "squared":
            extra = cosine_poly(rng.choice(orders))
        else:
            extra = _non_cosine_factor(rng)
        for p, label in ((prod, "periodic"), (prod * extra, kind)):
            p = p * Fraction(rng.randint(1, 5), rng.randint(1, 5))
            want = old_orders(p, ORACLE_PRODUCT)
            assert want == (frozenset(orders) if label == "periodic" else None)
            assert scan_orders(p) == want, p
            assert factor_irreducible(p) == old_factor_irreducible(p), p
            kinds[label] += 1
    assert kinds["periodic"] == 300 and min(kinds.values()) > 100


def test_random_reduction_supports_match_oracle():
    """g, g+ and g- of 100 seeded random reductions (those that exist: g+- need
    equal delta_sq along the pairing), with the default totient bound; g is
    den psi_S from the unit columns (``transfer_oracle.unit_psi``), and
    decide_periodicity's orders, read from g+ of the (S, S) summary, are its
    orders."""
    rng = random.Random(4)
    checked, periodic = 0, 0
    for _ in range(100):
        red = random_reduction(rng)
        g = unit_psi(red, red.s).den
        polys = [g]
        try:
            summary = resolvent(red)
            polys += [summary.g_plus, summary.g_minus]
        except ValueError:
            pass
        assert decide_periodicity(red).orders == old_orders(g)
        for g in polys:
            want = old_orders(g)
            assert scan_orders(g) == want, g
            assert factor_irreducible(g) == old_factor_irreducible(g), g
            checked += 1
            periodic += want is not None
    assert checked >= 250 and periodic > 0


def _integer_factor(rng: random.Random) -> RatPoly:
    """A random integer polynomial of degree 1-4 in x with a lead of 1-6."""
    degree = rng.randint(1, 4)
    return RatPoly([rng.randint(-12, 12) for _ in range(degree)] + [rng.randint(1, 6)])


def test_random_integer_products_match_oracle():
    """factor_irreducible against the old factorizer on 150 seeded products
    of 1-4 random integer factors in x with non-unit leads, a third of them
    with one factor squared: the rests have repeated factors, linear factors
    of non-unit lead and factors of degree up to 4 and beyond."""
    rng = random.Random(20261020)
    repeated = 0
    for _ in range(150):
        factors = [_integer_factor(rng) for _ in range(rng.randint(1, 4))]
        if rng.random() < 1 / 3:
            factors.append(rng.choice(factors))
            repeated += 1
        p = RatPoly([1])
        for f in factors:
            p = p * f
        assert factor_irreducible(p) == old_factor_irreducible(p), p
    assert repeated > 30


def _schedule_pass(seed: int):
    """One pass of reductions in the shape of the benchmark's random-small
    schedule: n cycles through 4..12, and (coin rank, dim W) through (1, 1),
    (2, 1), (2, 2) every nine instances."""
    rng = random.Random(seed)
    for i in range(486):
        rank, dim_w = ((1, 1), (2, 1), (2, 2))[i // 9 % 3]
        yield schedule_reduction(rng, 4 + i % 9, rank, dim_w)


def test_schedule_rests_match_sympy():
    """Every rest of degree >= 2 in the split of a strongly cospectral
    summary, on three seeded passes of the random-small schedule, factors
    over Z as sympy's factor_list does."""
    rests = 0
    for seed in (1, 2, 3):
        for red in _schedule_pass(seed):
            summary = resolvent(red)
            if not summary.strong:
                continue
            for _orders, rest in summary._side_scans:
                if len(rest) > 2:
                    assert sorted(zfactor.irreducible_factors(rest)) == sympy_int_factors(rest)
                    rests += 1
    assert rests >= 30


SWINNERTON_DYER = [1, 0, -10, 0, 1]      # x^4 - 10x^2 + 1, roots +-sqrt 2 +- sqrt 3
SQRT3_PLUS_SQRT5 = [4, 0, -16, 0, 1]     # x^4 - 16x^2 + 4, roots +-sqrt 3 +- sqrt 5


def _product(*polys):
    out = [1]
    for q in polys:
        out = exact._product(out, q)
    return out


def _modular_counts(f: list[int], bound: int) -> list[int]:
    """The number of factors of f mod every admissible prime below bound."""
    counts = []
    for p in zfactor._odd_primes(f[-1]):
        if p >= bound:
            return counts
        if zfactor._squarefree(f, p):
            parts = zfactor._distinct_degree(zfactor._monic(f, p), p, len(f))
            counts.append(sum((len(g) - 1) // d for d, g in parts))


def test_planted_hard_cases():
    """Inputs that force the factorizer's less travelled paths.

    - x^4 - 10x^2 + 1 is irreducible but splits mod every prime, so only
      recombination proves it; with x^4 - 16x^2 + 4 (same kind) the product
      has at least four modular factors and needs pairs.
    - Linear factors with non-unit leads, as the rest 4 + 3y of random-small.
    - y^2 - 3 is square-free, but not mod 3, the first prime the search
      tries, so the search moves on; y^2 - 15015 is square-free mod none of
      3, 5, 7, 11 and 13, so its square-free part is taken (itself) before
      the search goes on past them."""
    for f in (SWINNERTON_DYER, SQRT3_PLUS_SQRT5):
        assert min(_modular_counts(f, 200)) >= 2
        assert zfactor.irreducible_factors(f) == [f]
    both = _product(SWINNERTON_DYER, SQRT3_PLUS_SQRT5)
    assert min(_modular_counts(both, 200)) >= 4
    assert sorted(zfactor.irreducible_factors(both)) == sorted([SWINNERTON_DYER,
                                                               SQRT3_PLUS_SQRT5])
    assert factor_irreducible(RatPoly(SWINNERTON_DYER)) == [RatPoly(SWINNERTON_DYER)]
    linear = [[4, 3], [-2, 5], [7, 9]]
    assert sorted(zfactor.irreducible_factors(_product(*linear))) == sorted(linear)
    assert zfactor.irreducible_factors([-3, 0, 1]) == [[-3, 0, 1]]
    assert not zfactor._squarefree([-3, 0, 1], 3)
    assert zfactor.irreducible_factors([-15015, 0, 1]) == [[-15015, 0, 1]]
    assert not any(zfactor._squarefree([-15015, 0, 1], p) for p in (3, 5, 7, 11, 13))
    for f in ([-15015, 0, 1], _product([-3, 0, 1], [-3, 0, 1], [4, 3])):
        assert sorted(zfactor.irreducible_factors(f)) == sympy_int_factors(f)


def test_strong_and_split_call_no_poly_gcd(monkeypatch):
    """decide_transfer and strong_cospectral_exact on 100 seeded random
    reductions with poly_gcd made to raise: strong cospectrality is one gcd
    of g+- in Z[y] and the split factors the rests in Z[y].  Among them are
    cospectral ones whose g is not a product of distinct Psi_m (the gcd
    decides strong) and strong ones with a rest of degree >= 3 (``zfactor``)."""
    def no_poly_gcd(f, g):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(exact, "poly_gcd", no_poly_gcd)
    rng = random.Random(1)
    by_gcd = cubic = 0
    for _ in range(100):
        red = random_reduction(rng)
        try:
            summary = resolvent(red)
        except ValueError:
            continue
        decide_transfer(red)
        split = strong_cospectral_exact(red)
        by_gcd += summary.cospectral and summary.split_orders is None
        cubic += split is not None and any(len(rest) > 3 for _, rest in summary._side_scans)
    assert by_gcd > 0 and cubic > 0


def test_cosine_factor_rest_and_zero():
    p = cosine_poly(5) * power(cosine_poly(12), 2) * RatPoly([-3, 0, 1]) * 7
    orders, rest = cosine_factor(p)
    assert orders == {5: 1, 12: 2} and rest == RatPoly([-3, 0, 1])
    assert cosine_factor(RatPoly([Fraction(2, 3)])) == ({}, RatPoly([1]))
    with pytest.raises(ValueError):
        cosine_factor(RatPoly())


def _run_without_sympy(code: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("argv", [
    ["psi", "--family", "k2m", "--m", "3"],
    ["transfer", "--family", "circulant", "--m", "3", "--c", "1", "--d", "2",
     "--report-split"],
    ["transfer", "--report-split", "quadratic+cubic"],
    ["psi", "quadratic+cubic"],
])
def test_cosine_supports_never_import_sympy(argv, tmp_path):
    """No command imports sympy: neither on cosine supports nor on the
    SPLIT_GOLDEN instance whose split has two irrational quadratics and a
    cubic (its name, last in argv, stands for its graph, coin and subspace
    files)."""
    if argv[-1] in SPLIT_GOLDEN:
        argv = argv[:-1] + _instance_argv(tmp_path, argv[-1])
    out = _run_without_sympy(
        "import sys\n"
        "from sstwalk import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('sympy' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_no_rest_goes_to_sympy():
    """A non-cosine quadratic rest and a cubic one are both factored by the
    package's factorizer, with sympy never imported."""
    out = _run_without_sympy(
        "import sys\n"
        "from fractions import Fraction\n"
        "from sstwalk.exact import RatPoly, factor_irreducible\n"
        "p = RatPoly([Fraction(-1, 3), 0, 1])\n"
        "assert factor_irreducible(p) == [p]\n"
        "print('sympy' in sys.modules)\n"
        "q = RatPoly([-2, 0, 0, 1])\n"
        "assert factor_irreducible(q) == [q]\n"
        "print('sympy' in sys.modules)\n")
    assert out.splitlines()[-2:] == ["False", "False"]


def test_quadratic_split_matches_sympy():
    """factor_irreducible against sympy's Q[x] factorizer on 200 seeded
    monic quadratics: products of two distinct rational linear factors
    (square discriminant) and random x^2 + bx + c, which have a non-square
    or negative discriminant unless they happen to split.  Every quadratic
    rest goes through ``zfactor`` like any other, so its Z[y] factors are
    checked against sympy's factor_list over Z as well."""
    rng = random.Random(20261019)

    def rational():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    split = 0
    for i in range(200):
        if i % 2:
            r, s = rational(), rational()
            while s == r:
                s = rational()
            p = RatPoly([-r, 1]) * RatPoly([-s, 1])
        else:
            p = RatPoly([rational(), rational(), 1])
            if squarefree_part(p).degree < 2:
                continue
        want = sorted(sympy_factor(p), key=lambda q: (q.degree, q.coeffs))
        ints = _scaled_ints(p)
        assert sorted(zfactor.irreducible_factors(ints)) == sympy_int_factors(ints), p
        assert factor_irreducible(p) == want, p
        split += len(want) == 2
    assert 100 <= split < 200
