"""Exact decision procedures for pointwise periodicity and perfect transfer.

Everything runs over Q end to end.  The eigenvalue support of the clones shows
up as the reduced denominator g of a resolvent trace; the degree-doubling
transform h -> h#(x) = 2^deg x^deg h((x + 1/x)/2) sends cos(theta) roots to
e^{+-i theta}, so integer-step questions become "does g# factor into
cyclotomic polynomials", which the totient bound makes a finite check.

Phase bookkeeping: the reduced denominator of psi_S - psi_{S,T} carries the
poles where E B_S = -E B_T, and that of psi_S + psi_{S,T} the poles where
E B_S = +E B_T.  Transfer occurs with gamma = +1 exactly when the +1 class has
orders L+ = {m : tau/m even}; the swapped match gives gamma = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import TYPE_CHECKING

from .exact import ONE, RatPoly, resolvent

if TYPE_CHECKING:
    from .reduction import HermitianReduction


@dataclass(frozen=True)
class PeriodicityVerdict:
    periodic: bool
    min_period: int | None = None
    orders: frozenset[int] | None = None
    reason: str | None = None

    def line(self) -> str:
        if self.periodic:
            orders = ",".join(str(m) for m in sorted(self.orders))
            return f"PERIODIC min_period={self.min_period} L={{{orders}}}"
        return f"NOT_PERIODIC reason={self.reason}"


@dataclass(frozen=True)
class TransferVerdict:
    occurs: bool
    time: int | None = None
    gamma: int | None = None
    orders_plus: frozenset[int] | None = None
    orders_minus: frozenset[int] | None = None
    reason: str | None = None

    def line(self) -> str:
        if self.occurs:
            sign = "+1" if self.gamma == 1 else "-1"
            return f"TRANSFER time={self.time} gamma={sign}"
        return f"NO_TRANSFER stage={self.reason}"


def sharp(h: RatPoly) -> RatPoly:
    """h#(x) = 2^deg(h) x^deg(h) h((x + 1/x)/2), exact.

    With h = sum c_k y^k this is sum c_k 2^(d-k) x^(d-k) (x^2+1)^k; the result
    has degree 2 deg(h) and is palindromic up to sign.
    """
    if h.is_zero():
        raise ValueError("sharp of the zero polynomial")
    d = h.degree
    x2p1 = RatPoly([1, 0, 1])
    out = RatPoly()
    for k, c in enumerate(h.coeffs):
        if c:
            term = (x2p1 ** k) * c * Fraction(2) ** (d - k)
            out = out + RatPoly([Fraction(0)] * (d - k) + list(term.coeffs))
    return out


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> RatPoly:
    """The m-th cyclotomic polynomial, by recursive exact division of x^m - 1."""
    if m < 1:
        raise ValueError("cyclotomic order must be positive")
    num = RatPoly([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num = num // cyclotomic(d)
    return num


def euler_phi(m: int) -> int:
    result = m
    p = 2
    rem = m
    while p * p <= rem:
        if rem % p == 0:
            while rem % p == 0:
                rem //= p
            result -= result // p
        p += 1
    if rem > 1:
        result -= result // rem
    return result


def default_order_bound(degree: int) -> int:
    """Orders m with phi(m) <= degree satisfy m <= 3 phi(m)^{3/2} <= 3 degree^{3/2};
    computed exactly as floor(sqrt(9 degree^3)) + 1."""
    if degree <= 0:
        return 1
    return isqrt(9 * degree ** 3) + 1


def factor_into_cyclotomics(p: RatPoly, m_bound: int | None = None
                            ) -> dict[int, int] | None:
    """If p = prod Phi_m^{e_m} exactly, return the multiset {m: e_m}; else None.

    Absence of such a factorization is a normal outcome, not an error.
    """
    if p.is_zero():
        return None
    p = p.monic()
    if m_bound is None:
        m_bound = default_order_bound(p.degree)
    out: dict[int, int] = {}
    m = 1
    while p.degree > 0 and m <= m_bound:
        if euler_phi(m) <= p.degree:
            phi_m = cyclotomic(m)
            while True:
                q, r = p.divmod(phi_m)
                if not r.is_zero():
                    break
                out[m] = out.get(m, 0) + 1
                p = q
        m += 1
    return out if p.is_one() else None


def _orders_of_sharp(g: RatPoly) -> frozenset[int] | None:
    """Cyclotomic order set of g# for squarefree g with roots in [-1, 1].

    Phi_1 and Phi_2 always show up squared (lambda = +-1 gives double roots of
    the sharp); multiplicity is collapsed to the single order, which leaves
    every lcm unchanged.
    """
    factors = factor_into_cyclotomics(sharp(g))
    if factors is None:
        return None
    for m, e in factors.items():
        if m > 2 and e != 1:
            return None
        if m <= 2 and e != 2:
            return None
    return frozenset(factors)


def decide_periodicity(red: "HermitianReduction", s: list[int] | None = None
                       ) -> PeriodicityVerdict:
    """Pointwise W-periodicity at a with integer periods (exact).

    Writes psi_S = p/q reduced, takes g = q/gcd(p, q) (which is q, psi_S being
    reduced), and checks whether g# is a product of cyclotomics; if so the
    minimum period is lcm of their orders.  With the default clone set it
    reads the same resolvent summary as ``decide_transfer``.
    """
    summary = resolvent(red) if s is None else resolvent(red, s, s)
    if not summary.s:
        raise ValueError("periodicity needs a nonempty clone set")
    orders = _orders_of_sharp(summary.g)
    if orders is None:
        return PeriodicityVerdict(False, reason="support-not-cyclotomic")
    return PeriodicityVerdict(True, min_period=lcm(*orders), orders=orders)


def decide_transfer(red: "HermitianReduction", s: list[int] | None = None,
                    t: list[int] | None = None) -> TransferVerdict:
    """Pointwise perfect W-transfer from a to b at integer steps (exact).

    The six stages: cospectrality, periodicity, even minimum period tau, the
    L+/L- order split by parity of tau/m, and the matching of the split
    against the denominators of psi_S -+ psi_{S,T}.  On success the minimum
    time is tau/2 and gamma records the transfer phase.
    """
    summary = resolvent(red, s, t)
    if not summary.cospectral:
        return TransferVerdict(False, reason="not-cospectral")
    g = summary.g
    orders = _orders_of_sharp(g)
    if orders is None:
        return TransferVerdict(False, reason="not-periodic")
    tau = lcm(*orders)
    if tau % 2:
        return TransferVerdict(False, reason="odd-tau")
    l_plus = frozenset(m for m in orders if (tau // m) % 2 == 0)
    l_minus = orders - l_plus
    g_from_plus, g_from_minus = summary.g_plus, summary.g_minus
    if g_from_plus * g_from_minus != g:
        # strong cospectrality fails: some pole survives in both combinations
        return TransferVerdict(False, reason="support-split-fails")
    plus_orders = _orders_of_sharp(g_from_plus) if g_from_plus.degree > 0 else frozenset()
    minus_orders = _orders_of_sharp(g_from_minus) if g_from_minus.degree > 0 else frozenset()
    if plus_orders is None or minus_orders is None:
        return TransferVerdict(False, reason="support-split-fails")
    if plus_orders == l_plus and minus_orders == l_minus:
        gamma = 1
    elif plus_orders == l_minus and minus_orders == l_plus:
        gamma = -1
    else:
        return TransferVerdict(False, reason="support-split-fails")
    return TransferVerdict(True, time=tau // 2, gamma=gamma,
                           orders_plus=plus_orders, orders_minus=minus_orders)


# cos^2 values whose arccos is a rational multiple of pi (pure geodetic
# angles: tan(q pi) in {0, +-sqrt(3), +-1/sqrt(3), +-1, inf})
_GEODETIC_COS_SQ = {Fraction(0), Fraction(1, 4), Fraction(1, 2),
                    Fraction(3, 4), Fraction(1)}


def decide_pretty_good_special(support_factors: list[RatPoly]) -> bool:
    """Pretty-good decision for the closed-form support {0, +c, -c}.

    ``support_factors`` are the irreducible factors of the eigenvalue support
    with the minus class {0}: either {x, x^2 - c^2} or {x, x - c, x + c}.
    Returns True iff arccos(c) is not a rational multiple of pi, i.e. iff
    c^2 is outside {0, 1/4, 1/2, 3/4, 1}.
    """
    factors = sorted((f.monic() for f in support_factors),
                     key=lambda f: (f.degree, f.coeffs))
    c_sq = _special_support_csq(factors)
    if c_sq is None:
        raise ValueError("support is not of the special form {0, +c, -c}")
    return c_sq not in _GEODETIC_COS_SQ


def _special_support_csq(factors: list[RatPoly]) -> Fraction | None:
    x = RatPoly([0, 1])
    if x not in factors:
        return None
    rest = [f for f in factors if f != x]
    if len(rest) == 1 and rest[0].degree == 2 and rest[0].coeffs[1] == 0:
        c_sq = -rest[0].coeffs[0]
        return c_sq if 0 < c_sq <= 1 else None
    if len(rest) == 2 and all(f.degree == 1 for f in rest):
        r0, r1 = (-f.coeffs[0] for f in rest)
        if r0 == -r1 and r0 != 0:
            return r0 * r0
    return None


def product_of_cyclotomics(orders) -> RatPoly:
    out = ONE
    for m in orders:
        out = out * cyclotomic(m)
    return out
