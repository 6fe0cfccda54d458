"""Exact decision procedures for pointwise periodicity, perfect transfer and
the pretty-good special case.

Everything runs over Q end to end.  The eigenvalue support of the clones shows
up as the reduced denominator g of a resolvent trace, and integer-step
questions become "is every root of g of the form cos(2 pi k/m)".  The deciders
read the resolvent summary (``exact.resolvent``), that is the sequences of
e_s +- e_t, whose supports g+- are scanned once each over Z[y]: transfer the
summary of (S, T), periodicity and the pretty-good special case that of
(S, S), where g- = 1 and g+ = g.
``sharp`` (g -> g#, which sends cos(theta) roots to e^{+-i theta}) and
``factor_into_cyclotomics`` answer the same question on g#; the tests keep
them as the oracle.

Phase bookkeeping: g+ carries the poles where E B_S = +E B_T and g- those
where E B_S = -E B_T.  Transfer occurs with gamma = +1 exactly when the +1
class has orders L+ = {m : tau/m even}; the swapped match gives gamma = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .exact import (InvariantError, RatPoly, cyclotomic, default_order_bound,
                    euler_phi, resolvent)

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

    With h = sum c_k y^k this is sum c_k (x^2+1)^k (2x)^(d-k), evaluated by
    Horner's rule in the pair (x^2+1, 2x); the result has degree 2 deg(h) and
    is palindromic up to sign.
    """
    if h.is_zero():
        raise InvariantError("sharp of the zero polynomial")
    acc = [h.coeffs[-1]]
    for j, c in enumerate(reversed(h.coeffs[:-1]), 1):
        acc = [Fraction(0)] * 2 + acc
        for i in range(len(acc) - 2):
            acc[i] += acc[i + 2]
        acc[j] += c * 2 ** j
    return RatPoly(acc)


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


def decide_periodicity(red: "HermitianReduction") -> PeriodicityVerdict:
    """Pointwise W-periodicity at a with integer periods (exact): periodic iff
    the support g of psi_S is a product of distinct cosine minimal polynomials
    Psi_m, and then the minimum period is the lcm of their orders.  It reads
    the summary of (S, S), whose starts are 2 e_(s_j) and 0: g+ = g and
    g- = 1, so g's orders are O+, and no psi_S is built.
    """
    split = resolvent(red, red.s, red.s).split_orders
    if split is None:
        return PeriodicityVerdict(False, reason="support-not-cyclotomic")
    orders = split[0]
    return PeriodicityVerdict(True, min_period=lcm(*orders), orders=orders)


def decide_transfer(red: "HermitianReduction") -> TransferVerdict:
    """Pointwise perfect W-transfer from a to b at integer steps (exact).

    The stages: cospectrality, periodicity, even minimum period tau, and the
    match of the L+/L- split by parity of tau/m against the orders O+- of
    g+-.  For cospectral S and T, g = lcm(g+, g-): g is periodic iff both
    are products of distinct Psi_m, with orders O+ | O-, and a match makes
    O+ and O- disjoint, which is strong cospectrality.  On success the
    minimum time is tau/2 and gamma records the transfer phase.
    """
    summary = resolvent(red)
    if not summary.cospectral:
        return TransferVerdict(False, reason="not-cospectral")
    split = summary.split_orders
    if split is None:
        return TransferVerdict(False, reason="not-periodic")
    orders = split[0] | split[1]
    tau = lcm(*orders)
    if tau % 2:
        return TransferVerdict(False, reason="odd-tau")
    l_plus = frozenset(m for m in orders if (tau // m) % 2 == 0)
    l_minus = orders - l_plus
    if split not in ((l_plus, l_minus), (l_minus, l_plus)):
        return TransferVerdict(False, reason="support-split-fails")
    return TransferVerdict(True, time=tau // 2, gamma=1 if split[0] == l_plus else -1,
                           orders_plus=split[0], orders_minus=split[1])


def decide_pretty_good_special(red: "HermitianReduction") -> bool:
    """Pretty-good decision for the closed-form support {0, +c, -c}.

    Reads the summary of (S, S), whose g+ = g must be x^3 - c^2 x with
    0 < c^2 <= 1.  Returns True iff arccos(c) is not a rational multiple of
    pi, that is iff g is not a product of cosine polynomials Psi_m: for
    rational c^2 the scan leaves x^2 - c^2 as a rest exactly when c^2 is
    outside Niven's {0, 1/4, 1/2, 3/4, 1}.
    """
    summary = resolvent(red, red.s, red.s)
    c = summary.g_plus.coeffs
    if len(c) != 4 or c[0] or c[2] or not 0 < -c[1] <= 1:
        raise ValueError("support is not of the special form {0, +c, -c}")
    return summary.split_orders is None
