"""The unit-column route of the resolvent summary, before every field was
read from the sequences of e_s +- e_t, kept as the oracle of the
differential tests.

``unit_psi`` is psi_S from the certified self moments of the unit columns
e_(s_j).  ``OracleResolvent`` compares the self moments of the unit columns
of S and of T for cospectrality, reads the 2 L_S moments of psi_{S,T} as
inner products of unit-column Krylov vectors that ``cross_moments`` grows
itself (the sequences drop theirs once certified), runs
Berlekamp-Massey on m_S +- m_{S,T} for g+ and g-, scans g = den psi_S once
for its orders and factors, tests strong cospectrality by the Fraction
product g+ g- == g, finds the orders of g+- by trial division by the Psi~_m
of g's scan, and partitions g's factors between g+ and g- by remainder.
``cosine_factor`` is the cosine split of a RatPoly that g's scan reads.
``decide_transfer_oracle`` and ``decide_periodicity_oracle`` are the
deciders on top of it.  ``decide_pretty_good_special_oracle`` is the
pretty-good special case as a rule on the support's factor list, with the
table of Niven's geodetic values of cos^2.

``annihilates`` is the certificate the sequences tried before they proved
their recurrence from the moments alone (``exact._hankel_certifies``):
sum_i c_i Z^(L-i) x = 0, summed over Krylov vectors x .. Z^L x that it grows
itself for every start.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from psi_oracle import series_fraction
from sstwalk.decider import PeriodicityVerdict, TransferVerdict
from sstwalk.exact import (X, RatFun, RatPoly, _cosine_coeffs, _cosine_split, _fraction,
                           _from_scaled, _Krylov, _quotient, _scaled_ints,
                           _SelfMoments, cosine_poly, factor_irreducible)
from sstwalk.reduction import check_pairs, z_apply


def cosine_factor(p: RatPoly) -> tuple[dict[int, int], RatPoly]:
    """Split p = c * prod_m Psi_m^{e_m} * rest over Q; returns ({m: e_m}, rest)
    with rest monic and divisible by no Psi_m (``_cosine_split`` of
    ``_scaled_ints(p)``)."""
    if p.is_zero():
        raise ValueError("cosine_factor of the zero polynomial")
    orders, rest = _cosine_split(_scaled_ints(p))
    return orders, _from_scaled(rest)


def unit_moments(red, *clone_sets: list[int]) -> tuple[_SelfMoments, ...]:
    """The self-moment sequences of the unit columns of each clone set, on
    one Krylov carrier of ``red``."""
    krylov = _Krylov(red)
    return tuple(_SelfMoments(krylov, tuple(((c, 1),) for c in cols)) for cols in clone_sets)


def unit_psi(red, cols: list[int]) -> RatFun:
    """psi_S for S = cols from the certified self moments of its unit columns
    (2 L + O(1) moments, L = deg of the reduced denominator)."""
    seq = unit_moments(red, cols)[0].certify()
    return RatFun(*_fraction(seq.poly, seq.terms, red.int_view[1]))


def _powers(kr: _Krylov, row: int, last: int) -> list[list[int]]:
    """[Z^0 e_row, ..., Z^last e_row], grown by sparse mat-vecs."""
    vecs = [[int(r == row) for r in range(kr.size)]]
    while len(vecs) <= last:
        vecs.append(z_apply(kr.entries, vecs[-1]))
    return vecs


def _annihilates(vecs: list[list[int]], conn: list[int]) -> bool:
    """The certificate sum_i c_i Z^(L-i) x = 0, for vecs = [Z^k x] with
    k <= L at least and conn = c_0 .. c_L."""
    acc = [0] * len(vecs[0])
    for ci, vec in zip(conn, vecs[len(conn) - 1::-1]):
        if ci:
            acc = [a + ci * x for a, x in zip(acc, vec)]
    return not any(acc)


def annihilates(kr: _Krylov, starts: tuple[tuple, ...], conn: list[int]) -> bool:
    """The vector certificate of conn on every start of a ``_SelfMoments``
    (a tuple of (row, coefficient) pairs), from the start's own Krylov
    vectors x, Zx, .., Z^L x."""
    for x in starts:
        vecs = [[0] * kr.size]
        for r, c in x:
            vecs[0][r] += c
        while len(vecs) < len(conn):
            vecs.append(z_apply(kr.entries, vecs[-1]))
        if not _annihilates(vecs, conn):
            return False
    return True


def cross_moments(red, s: list[int], t: list[int], count: int) -> list[int]:
    """m_k = sum_j (Z^k)[s_j, t_j] for k < count, read as
    delta_sq[s_j] <Z^i e_(s_j), Z^(k-i) e_(t_j)> with i = ceil(k/2) off the
    Krylov vectors of the unit columns, grown here for each pair."""
    kr = _Krylov(red)
    out = [0] * count
    for a, b in zip(s, t):
        vs, vt = _powers(kr, a, count // 2), _powers(kr, b, (count - 1) // 2)
        for k in range(count):
            out[k] += kr.moment(((a, 1),), kr.weighted(vs[(k + 1) // 2]), vt[k // 2])
    return out


class OracleResolvent:
    """The old summary of a reduction and its clone sets S, T: the same fields
    as ``sstwalk.exact.Resolvent``, with g+- the denominators of
    psi_S +- psi_{S,T}."""

    def __init__(self, red):
        self.red, self.s, self.t = red, list(red.s), list(red.t)
        self.m_s, self.m_t = unit_moments(red, self.s, self.t)

    @cached_property
    def cospectral(self) -> bool:
        """The self moments of S and T agree up to the end of both final
        recurrences, and the recurrences are equal."""
        m_s, m_t = self.m_s, self.m_t
        k = 0
        while True:
            if m_s.term(k) != m_t.term(k):
                return False
            k += 1
            if k == len(m_s.terms) == len(m_t.terms):
                final_s, final_t = m_s.settle(), m_t.settle()
                if final_s and final_t:
                    return m_s.poly == m_t.poly

    @cached_property
    def m_st(self) -> list[int]:
        """The first 2 L_S moments of psi_{S,T}."""
        check_pairs(self.red, self.s, self.t)
        return cross_moments(self.red, self.s, self.t, 2 * self.m_s.certify().order)

    @cached_property
    def psi_s(self):
        m_s = self.m_s.certify()
        return RatFun(*_fraction(m_s.poly, m_s.terms, self.red.int_view[1]))

    @cached_property
    def psi_st(self):
        return RatFun(*series_fraction(self.m_st, self.red.int_view[1]))

    @property
    def g(self):
        return self.psi_s.den

    def _combined_den(self, sign: int):
        seq = [self.m_s.term(k) + sign * y for k, y in enumerate(self.m_st)]
        return series_fraction(seq, self.red.int_view[1])[1]

    @cached_property
    def g_plus(self):
        return self._combined_den(1)

    @cached_property
    def g_minus(self):
        return self._combined_den(-1)

    @cached_property
    def scan(self):
        return cosine_factor(self.g)

    @cached_property
    def orders(self) -> frozenset[int] | None:
        orders, rest = self.scan
        return frozenset(orders) if rest.is_one() and set(orders.values()) <= {1} else None

    @cached_property
    def strong(self) -> bool:
        return self.cospectral and self.g_plus * self.g_minus == self.g

    @cached_property
    def split_orders(self) -> tuple[frozenset[int], frozenset[int]]:
        return tuple(frozenset(m for m in self.scan[0]
                               if _quotient(ints, _cosine_coeffs(m)) is not None)
                     for ints in map(_scaled_ints, (self.g_plus, self.g_minus)))

    @cached_property
    def factors(self):
        return tuple(factor_irreducible(self.g))

    @cached_property
    def split(self):
        if not self.strong:
            return None
        cos = {cosine_poly(m): m for m in self.scan[0]}
        return tuple(tuple(f for f in self.factors
                           if (cos[f] in orders if f in cos else h.divmod(f)[1].is_zero()))
                     for h, orders in zip((self.g_plus, self.g_minus), self.split_orders))


def decide_transfer_oracle(summary: OracleResolvent) -> TransferVerdict:
    """The six decider stages on the old summary."""
    if not summary.cospectral:
        return TransferVerdict(False, reason="not-cospectral")
    orders = summary.orders
    if orders is None:
        return TransferVerdict(False, reason="not-periodic")
    tau = lcm(*orders)
    if tau % 2:
        return TransferVerdict(False, reason="odd-tau")
    l_plus = frozenset(m for m in orders if (tau // m) % 2 == 0)
    l_minus = orders - l_plus
    split = summary.split_orders if summary.strong else None
    if split not in ((l_plus, l_minus), (l_minus, l_plus)):
        return TransferVerdict(False, reason="support-split-fails")
    return TransferVerdict(True, time=tau // 2, gamma=1 if split[0] == l_plus else -1,
                           orders_plus=split[0], orders_minus=split[1])


def decide_periodicity_oracle(summary: OracleResolvent) -> PeriodicityVerdict:
    """Periodicity from the scan of g = den psi_S."""
    orders = summary.orders
    if orders is None:
        return PeriodicityVerdict(False, reason="support-not-cyclotomic")
    return PeriodicityVerdict(True, min_period=lcm(*orders), orders=orders)


# cos^2 values whose arccos is a rational multiple of pi (pure geodetic
# angles: tan(q pi) in {0, +-sqrt(3), +-1/sqrt(3), +-1, inf})
GEODETIC_COS_SQ = {Fraction(0), Fraction(1, 4), Fraction(1, 2),
                   Fraction(3, 4), Fraction(1)}


def decide_pretty_good_special_oracle(support_factors: list[RatPoly]) -> bool:
    """Pretty-good decision for the support {0, +c, -c} given as its
    irreducible factors, {x, x^2 - c^2} or {x, x - c, x + c}: True iff c^2
    is outside ``GEODETIC_COS_SQ``."""
    factors = sorted((f.monic() for f in support_factors),
                     key=lambda f: (f.degree, f.coeffs))
    c_sq = special_support_csq(factors)
    if c_sq is None:
        raise ValueError("support is not of the special form {0, +c, -c}")
    return c_sq not in GEODETIC_COS_SQ


def special_support_csq(factors: list[RatPoly]) -> Fraction | None:
    """c^2 for the factor list of a special support, else None.  Only the
    quadratic branch checks 0 < c^2 <= 1; a rational c beyond [-1, 1] cannot
    come from a walk, whose H has its spectrum in [-1, 1]."""
    if X not in factors:
        return None
    rest = [f for f in factors if f != X]
    if len(rest) == 1 and rest[0].degree == 2 and rest[0].coeffs[1] == 0:
        c_sq = -rest[0].coeffs[0]
        return c_sq if 0 < c_sq <= 1 else None
    if len(rest) == 2 and all(f.degree == 1 for f in rest):
        r0, r1 = (-f.coeffs[0] for f in rest)
        if r0 == -r1 and r0 != 0:
            return r0 * r0
    return None
