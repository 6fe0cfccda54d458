"""Strong cospectrality and the support split, read from resolvent traces.

S and T are cospectral iff psi_S = psi_T, and strongly cospectral iff
additionally every support factor drops out of exactly one of
psi_S -+ psi_{S,T}.  Both tests, and the partition of the support into the
factors of g+ and of g- (the supports of psi_S +- psi_{S,T}), are read from
the one resolvent summary of the reduction; this module only packages the
split for its readers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import RatPoly, resolvent
from .reduction import HermitianReduction


@dataclass(frozen=True)
class SupportSplit:
    """Partition of the eigenvalue support into the +gamma and -gamma classes,
    as Q-irreducible factors."""

    support_factors: tuple[RatPoly, ...]
    plus_factors: tuple[RatPoly, ...]
    minus_factors: tuple[RatPoly, ...]


def strong_cospectral_exact(red: HermitianReduction, s: list[int] | None = None,
                            t: list[int] | None = None) -> SupportSplit | None:
    """Exact strong cospectrality; returns the support split or None.

    With the rational carrier the unimodular factor is forced to +-1; the
    split is reported with gamma = +1, plus = the factors of g+, minus = the
    factors of g-, and the support is their sorted union.  For S = T, g- = 1,
    so the support is the factors of g = den psi_S.
    """
    split = resolvent(red, s, t).split
    if split is None:
        return None
    plus, minus = split
    return SupportSplit(tuple(sorted(plus + minus, key=lambda f: (f.degree, f.coeffs))),
                        plus, minus)
