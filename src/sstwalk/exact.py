"""Exact univariate polynomials, rational functions and resolvent traces over Q.

``RatPoly`` is a dense coefficient vector of Fractions (constant term first);
``RatFun`` is a fraction of two RatPolys in lowest terms with monic
denominator, which its constructor takes as given: no Q[x] Euclid runs on
the way to a psi.  These carry every exact object in the pipeline: the
resolvent traces psi_{S,T}, their denominators, and cyclotomic factors.

psi is computed from moments, never from determinants.  With the reduction's
sparse integer view Z = scale * H_rat, the moments of integer start vectors x
are inner products of their Krylov vectors Z^i x (two moments per sparse
mat-vec), and Berlekamp-Massey turns them into the reduced fraction.  The
vectors are grown only until an online Berlekamp-Massey candidate of order L
is certified exactly, sum_i c_i Z^(L-i) x = 0 for every start (Wiedemann
1986), from the moments alone: about L + 1 mat-vecs per start, L the support
degree, instead of 2 size, and two live vectors per start.  ``Resolvent``
memoises per (reduction, S, T) what the decider, the cospectrality checks
and the CLI read, all from one start family, the vectors e_(s_j) +- e_(t_j):
cospectrality, psi_{S,T}, g+- and their split.  Cospectrality is one entry
read of u's own Krylov vectors per level, so no inner product ever mixes the
two sequences.  psi_S, its support g and periodicity are the (S, S)
question, where the starts are 2 e_(s_j) and 0.  A Resolvent is the only
value a reduction's ``memo`` holds: it owns the two moment sequences of its
starts, and each sequence owns the last two Krylov vectors of each start
until its recurrence is final.  ``charpoly`` (integer Berkowitz) is kept as
the reference the tests check psi against.

The support questions are answered over Z as well: 2cos(2 pi/m) is an
algebraic integer, so its minimal polynomial Psi~_m(y) is monic over Z, and
``_cosine_split`` divides the primitive integer polynomial of each certified
recurrence (``_scaled_conn``) by every Psi~_m that fits.  g+- stay in Z[y]
to the output: the split decides periodicity and transfer, ``coprime`` (one
``_int_gcd`` when neither g- = 1 nor the orders decide) decides strong
cospectrality and whether psi_st's recurrence is the product of g+ and g- or
the minimal one that Berlekamp-Massey finds, and a rest of
degree >= 2 is factored over Z by the package's Zassenhaus factorizer
``zfactor``.  ``_from_scaled`` turns an integer polynomial in y into the
monic RatPoly in x only where a field is read out: g+-, the factor lists
(the Psi_m(x) = 2^-deg Psi~_m(2x) and the factors of the rest) and
psi_st's denominator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd as int_gcd, lcm, prod
from operator import mul
from typing import Iterable, TYPE_CHECKING

from . import linalg
from .reduction import check_pairs, z_apply

if TYPE_CHECKING:
    from .reduction import HermitianReduction


class InvariantError(ValueError):
    """An internal invariant of the exact pipeline failed: the program, not
    its input, is at fault (``sst`` exits 3)."""


class RatPoly:
    """Univariate polynomial over Q, canonical dense form.

    The zero polynomial has degree -1 (sentinel).  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- basics ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "RatPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "RatPoly(" + " + ".join(terms) + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        """Exact polynomial division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv_lead = 1 / other.lead
        d = other.degree
        low = [(j, b) for j, b in enumerate(other.coeffs[:d]) if b]
        for k in range(dq, -1, -1):
            c = rem[k + d] * inv_lead
            if c:
                quo[k] = c
                rem[k + d] = Fraction(0)
                for j, b in low:
                    rem[k + j] -= c * b
        return RatPoly(quo), RatPoly(rem)

    def monic(self) -> "RatPoly":
        if self.is_zero():
            return self
        return self * (1 / self.lead)

    def __call__(self, x):
        """Evaluate (Horner); works for Fraction, int, float or complex x."""
        exact = isinstance(x, (Fraction, int))
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + (c if exact else float(c))
        return acc

    # -- integer content ---------------------------------------------------

    def primitive_int_coeffs(self) -> list[int]:
        """Coefficients scaled to a primitive integer vector (positive lead)."""
        if self.is_zero():
            return []
        den = lcm(*(c.denominator for c in self.coeffs))
        return _primitive([int(c * den) for c in self.coeffs])

    def serialize(self) -> str:
        """Space-separated rational coefficients, constant term first."""
        return " ".join(str(c) for c in self.coeffs)


X = RatPoly([0, 1])
ONE = RatPoly([1])


def poly_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd via the primitive polynomial remainder sequence over Z[x].
    No package path calls it: the tests reduce their reference fractions
    with it."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    return RatPoly(_int_gcd(f.primitive_int_coeffs(), g.primitive_int_coeffs())).monic()


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd (positive lead) of two nonzero primitive integer
    polynomials, by the primitive polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a = _prem_primitive(a, b)
        a, b = b, a
    return a


def _prem_primitive(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder prem(a, b) over Z[x]."""
    rem = list(a)
    lb = b[-1]
    while len(rem) >= len(b) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        lead = rem[-1]
        rem = [c * lb for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= lead * bc
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return _primitive(rem) if rem else []


def _primitive(ints: list[int]) -> list[int]:
    """ints divided by their content, with a positive last entry."""
    g = int_gcd(*ints)
    return [c // g for c in ints] if ints[-1] > 0 else [-(c // g) for c in ints]


def factor_irreducible(p: RatPoly) -> list[RatPoly]:
    """Distinct monic Q-irreducible factors of p, sorted by (degree, coeffs)."""
    return _factors(*_cosine_split(_scaled_ints(p))) if p.degree > 0 else []


def _factors(orders: dict[int, int], rest: list[int]) -> list[RatPoly]:
    """The distinct monic irreducible factors of p(x), for the split
    p~ = prod_m Psi~_m^{e_m} * rest in Z[y] of ``_cosine_split``: the Psi_m,
    then the factors of rest.  A rest of degree >= 2 goes to the Zassenhaus
    factorizer ``zfactor``, imported on first use, which returns each of its
    irreducible factors once, also when rest has repeated ones (g+- have
    none: they are square-free)."""
    factors = {cosine_poly(m) for m in orders}
    if len(rest) == 2:
        factors.add(_from_scaled(rest))
    elif len(rest) > 2:
        from . import zfactor

        factors.update(map(_from_scaled, zfactor.irreducible_factors(rest)))
    return sorted(factors, key=lambda q: (q.degree, q.coeffs))


# -- cyclotomic and cosine minimal polynomials ---------------------------------


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def euler_phi(m: int) -> int:
    result = m
    for p in _prime_factors(m):
        result -= result // p
    return result


def default_order_bound(degree: int) -> int:
    """A bound on every m with phi(m) <= degree.  If m has k distinct primes,
    phi(m) >= prod_{i<=k} (p_i - 1) and m/phi(m) <= prod_{i<=k} p_i/(p_i - 1)
    for p_i the i-th prime; so k <= K, the largest k with
    prod_{i<=k} (p_i - 1) <= degree, and m <= degree prod_{i<=K} p_i/(p_i - 1)."""
    num = den = 1
    for p in range(2, degree + 2):
        if _prime_factors(p) == [p]:
            if den * (p - 1) > degree:
                break
            num, den = num * p, den * (p - 1)
    return max(1, degree * num // den)


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Phi_m = prod_{d | m} (x^d - 1)^mu(m/d) over Z, constant term first."""
    if m < 1:
        raise ValueError("cyclotomic order must be positive")
    primes = _prime_factors(m)
    up, down = [], []                 # d = m/e over the squarefree divisors e
    for mask in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if mask >> i & 1]
        (down if len(chosen) % 2 else up).append(m // prod(chosen))
    out = [1]
    for d in up:                      # times x^d - 1
        times = [-c for c in out] + [0] * d
        for i, c in enumerate(out):
            times[i + d] += c
        out = times
    for d in down:                    # exactly divided by x^d - 1
        quo = [0] * (len(out) - d)
        for i in range(len(quo) - 1, -1, -1):
            quo[i] = out[i + d] + (quo[i + d] if i + d < len(quo) else 0)
        out = quo
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> RatPoly:
    """The m-th cyclotomic polynomial Phi_m."""
    return RatPoly(_cyclotomic_coeffs(m))


@lru_cache(maxsize=None)
def _cosine_coeffs(m: int) -> tuple[int, ...]:
    """Psi~_m, the minimal polynomial of 2cos(2 pi/m): monic over Z, constant
    term first.

    For m >= 3, Phi_m is palindromic of degree 2k and
    x^-k Phi_m(x) = c_k + sum_j c_{k+j} (x^j + x^-j); with y = x + 1/x,
    x^j + x^-j = L_j(y) where L_0 = 2, L_1 = y, L_{j+1} = y L_j - L_{j-1}.
    """
    if m <= 2:
        return (-2, 1) if m == 1 else (2, 1)
    phi = _cyclotomic_coeffs(m)
    k = len(phi) // 2
    out = [phi[k]] + [0] * k
    prev, cur = [2], [0, 1]
    for j in range(1, k + 1):
        for i, c in enumerate(cur):
            out[i] += phi[k + j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(out)


@lru_cache(maxsize=None)
def _cosine_orders(degree: int) -> tuple[tuple[int, int], ...]:
    """(m, deg Psi_m) for every m with deg Psi_m <= degree, ascending in m.

    deg Psi_m is phi(m)/2 (1 for m <= 2), so these m have phi(m) <= 2 degree
    and lie below default_order_bound(2 degree); a totient sieve to that bound
    finds them all.
    """
    bound = default_order_bound(2 * degree)
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    return tuple((m, max(1, phi[m] // 2)) for m in range(1, bound + 1)
                 if phi[m] <= 2 * degree)


def _from_scaled(ints) -> RatPoly:
    """The monic p(x) proportional to p~(2x), for p~ = ints."""
    k = len(ints) - 1
    return RatPoly([Fraction(c * 2 ** i, ints[-1] * 2 ** k) for i, c in enumerate(ints)])


@lru_cache(maxsize=None)
def cosine_poly(m: int) -> RatPoly:
    """Psi_m(x) = 2^-k Psi~_m(2x), the monic minimal polynomial of
    cos(2 pi/m) over Q (k = phi(m)/2, or 1 for m <= 2)."""
    return _from_scaled(_cosine_coeffs(m))


def _quotient(num: list[int], den: list[int] | tuple[int, ...]) -> list[int] | None:
    """num / den in Z[y] (lead of den nonzero), or None when den does not divide
    num; a monic den takes no integer division, a zero coefficient no product."""
    k, lead = len(den) - 1, den[-1]
    low = [(j, b) for j, b in enumerate(den[:k]) if b]
    rem, quo = list(num), [0] * (len(num) - k)
    for i in range(len(quo) - 1, -1, -1):
        c, r = (rem[i + k], 0) if lead == 1 else divmod(rem[i + k], lead)
        if r:
            return None
        if c:
            quo[i] = c
            for j, b in low:
                rem[i + j] -= c * b
    return quo if quo and not any(rem[:k]) else None


def _scaled_ints(p: RatPoly) -> list[int]:
    """p~(y), the primitive integer polynomial of 2^deg p(y/2)."""
    d = p.degree
    return RatPoly([c * 2 ** (d - i) for i, c in enumerate(p.coeffs)]).primitive_int_coeffs()


def _cosine_split(ints: list[int]) -> tuple[dict[int, int], list[int]]:
    """({m: e_m}, rest) with ints = prod_m Psi~_m^{e_m} * rest in Z[y], for a
    primitive ints with positive lead: every monic Psi~_m with deg Psi_m <=
    deg ints that still fits is divided out as often as it divides (the
    orders of a cyclotomic scan of p#), so the split is exact in Z[y].
    """
    orders: dict[int, int] = {}
    for m, k in _cosine_orders(len(ints) - 1):
        if len(ints) == 1:
            break
        while k < len(ints):
            quo = _quotient(ints, _cosine_coeffs(m))
            if quo is None:
                break
            ints = quo
            orders[m] = orders.get(m, 0) + 1
    return orders, ints


class RatFun:
    """A rational function num/den over Q in lowest terms, den monic.

    The constructor only normalizes: zero becomes 0/1 and den is made monic.
    It computes no gcd, so num and den must be coprime, as every psi of the
    package is: ``_fraction`` over a minimal recurrence is in lowest terms.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: RatPoly, den: RatPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = RatPoly(), ONE
        lead = den.lead
        self.num, self.den = num * (1 / lead), den * (1 / lead)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatFun)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.den.coeffs))

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __repr__(self) -> str:
        return f"RatFun({self.num!r} / {self.den!r})"

    def serialize(self) -> str:
        return f"{self.num.serialize()} | {self.den.serialize()}"


def charpoly(m: linalg.Mat) -> RatPoly:
    """det(xI - M), exact, via Berkowitz on the denominator-cleared matrix."""
    n = len(m)
    if n == 0:
        return ONE
    if any(len(row) != n for row in m):
        raise ValueError("charpoly needs a square matrix")
    scale = lcm(*(x.denominator for row in m for x in row))
    z = [[int(x * scale) for x in row] for row in m]
    int_coeffs = linalg.berkowitz_charpoly(z)
    # det(xI - M) = scale^-n * det((scale x)I - Z)
    return RatPoly([Fraction(c) * Fraction(scale) ** (k - n)
                    for k, c in enumerate(int_coeffs)])


class _Krylov:
    """The integer matrix Z = scale * H_rat of one reduction (its entries and
    scale, ``HermitianReduction.int_view``) and its inner product, shared by
    the two sequences of a ``Resolvent``.

    Z is self-adjoint for <x, y> = sum_r x_r y_r / delta_sq[r] (sym is
    symmetric, which every HermitianReduction checks), so
    (Z^(i+j))[s, t] = delta_sq[s] <Z^i e_s, Z^j e_t>: every new Krylov vector
    yields two moments.  The delta_sq are ints, and ``weights`` clears their
    inverses: weights[r] = big // delta_sq[r] with big their lcm.
    """

    def __init__(self, red: "HermitianReduction"):
        self.entries, self.scale = red.int_view
        self.size, self.norm_sq = red.size, red.norm_sq
        self.big = lcm(*red.norm_sq)
        self.weights = [self.big // d for d in red.norm_sq]

    def weighted(self, x: list[int]) -> list[int]:
        return list(map(mul, self.weights, x))

    def moment(self, start: tuple, wx: list[int], y: list[int]) -> int:
        """delta_sq[r] <x, y> for wx = weighted(x), r the first row of start
        (whose rows share delta_sq): integer entries of a power of Z; a
        remainder means Z is not self-adjoint."""
        q, r = divmod(sum(map(mul, wx, y)) * self.norm_sq[start[0][0]], self.big)
        if r:
            raise InvariantError("Krylov moment is not an integer: Z is not self-adjoint")
        return q


def _hankel_certifies(terms: list[int], conn: list[int]) -> bool:
    """r_k = sum_i c_i m_(k+L-i) = 0 for k = 0 .. L, for conn = c_0 .. c_L and
    terms = m_0 .. m_2L at least: r is the Hankel matrix times reversed conn."""
    length = len(conn) - 1
    return not any(sum(map(mul, conn, reversed(terms[k:k + length + 1])))
                   for k in range(length + 1))


class _SelfMoments:
    """m_k = sum_x delta_sq <Z^i x, Z^(k-i) x> over the starts x of one
    sequence (the u_j or the v_j = e_(s_j) -+ e_(t_j) of a ``Resolvent``; a
    zero start adds nothing), grown two terms per Krylov level and certified
    online.  A start is a tuple of (row, coefficient) pairs: ((s, 1), (t, -1))
    is e_s - e_t.  At level K, ``pairs`` holds [Z^(K-1) x, Z^K x] per start,
    all the next level reads, until ``settle`` drops them with the final
    ``poly``.  ``reads[K]`` is sum_x (Z^K x)[a] - (Z^K x)[b], a and b the
    first and last row of x, one entry read per start and level: for
    u_j = e_(s_j) + e_(t_j) it is the cross term c_K = m_S(K) - m_T(K)
    (paired clones share delta_sq, so (Z^K)[s, t] = (Z^K)[t, s]).

    Level K adds m_(2K-1) and m_(2K); ``settle`` feeds them to an online
    Berlekamp-Massey and, at its first candidate c of order L with
    2L + 2 <= terms, checks r = 0 of ``_hankel_certifies`` once: then every
    later moment obeys c, and so do the reads.  That is a proof because
    delta_sq > 0 (checked by every HermitianReduction): the Hankel matrix
    (m_(i+j)), i, j <= L, is sum_x delta_sq_x times the Gram matrix of
    x, Zx, .., Z^L x in a positive definite inner product (Golub and Meurant
    2010, ch. 2-4), so c'.r = sum_x delta_sq_x ||sum_i c_i Z^(L-i) x||^2 for
    the reversed c', and r = 0 makes c annihilate every start.  The same
    positivity makes the residues sum_x ||E x||^2 >= 0, so no pole cancels
    and the minimal recurrence of m is the annihilator of the starts; its
    Hankel matrices are positive definite, so BM's order grows by one every
    two terms until it gets there, and the first candidate tried is that
    annihilator, at 2L + 3 terms.  A failed certificate is the program's
    fault (``InvariantError``).  ``poly`` is the final connection
    polynomial; later terms come from it.
    """

    def __init__(self, krylov: _Krylov, starts: tuple[tuple, ...]):
        self.krylov, self.starts = krylov, starts
        self.pairs: list[list[list[int] | None]] = []
        self.terms: list[int] = []
        self.reads: list[int] = []
        self.massey = _Massey(self.terms)
        self.poly: list[int] | None = None

    @property
    def order(self) -> int:
        return len(self.poly) - 1

    def term(self, k: int) -> int:
        """m_k: grown level by level until final, then from the recurrence."""
        while len(self.terms) <= k:
            if self.poly is None:
                self._grow()
            else:
                c, n = self.poly, len(self.terms)
                q, r = divmod(-sum(ci * self.terms[n - i] for i, ci in enumerate(c) if i), c[0])
                if r:
                    raise InvariantError("moment recurrence is not integral")
                self.terms.append(q)
        return self.terms[k]

    def certify(self) -> "_SelfMoments":
        """Grow until final; later terms come from ``poly``."""
        while not self.settle():
            self._grow()
        return self

    def settle(self) -> bool:
        """Feed the terms grown since the last call to Berlekamp-Massey and
        try the certificate once it is due; True once the recurrence is
        final, when the Krylov vectors go."""
        if self.poly is None and self.terms:
            self.massey.update()
            conn = self.massey.connection
            if 2 * self.massey.length + 2 <= len(self.terms):
                if not _hankel_certifies(self.terms, conn):
                    raise InvariantError("Krylov recurrence fails its annihilator certificate")
                self.poly, self.pairs = conn, []
        return self.poly is not None

    def _grow(self) -> None:
        """The next Krylov level K: m_(2K-1) and m_(2K) (m_0 for K = 0) and
        reads[K]."""
        kr, level = self.krylov, len(self.reads)
        if not level:
            self.pairs = [[None, [0] * kr.size] for _ in self.starts]
            for x, pair in zip(self.starts, self.pairs):
                for r, c in x:
                    pair[1][r] += c
        odd = even = read = 0
        for x, pair in zip(self.starts, self.pairs):
            if level:
                pair[:] = pair[1], z_apply(kr.entries, pair[1])
            prev, top = pair
            wv = kr.weighted(top)
            even += kr.moment(x, wv, top)
            odd += kr.moment(x, wv, prev) if level else 0
            read += top[x[0][0]] - top[x[-1][0]]
        if level:
            self.terms.append(odd)
        self.terms.append(even)
        self.reads.append(read)


class _Massey:
    """Berlekamp-Massey (Massey 1969) over the integers, fed online: ``update``
    consumes the terms appended to ``seq`` since the last call.

    ``connection`` is c_0 + c_1 z + ... + c_L z^L as a primitive integer
    vector (c_0 != 0, length L + 1) with sum_i c_i seq[k - i] = 0 for
    L <= k < len(seq).  The update C <- b C - d z^m B is the rational one
    scaled by the earlier discrepancy b; dividing out the content after each
    step keeps C at the size of the rational connection polynomial instead of
    letting it grow with every step.
    """

    def __init__(self, seq: list[int]):
        self.seq = seq
        self.c, self.prev = [1], [1]
        self.length, self.shift, self.prev_disc = 0, 1, 1
        self.done = 0

    def update(self) -> None:
        seq = self.seq
        for k in range(self.done, len(seq)):
            c = self.c
            d = sum(ci * seq[k - i] for i, ci in enumerate(c))
            if d == 0:
                self.shift += 1
                continue
            prev, shift = self.prev, self.shift
            new = [self.prev_disc * x for x in c] + [0] * max(0, len(prev) + shift - len(c))
            for i, x in enumerate(prev):
                new[i + shift] -= d * x
            while new[-1] == 0:
                new.pop()
            g = int_gcd(*new)
            new = [x // g for x in new]
            if 2 * self.length <= k:
                self.prev, self.prev_disc = c, d
                self.length, self.shift = k + 1 - self.length, 1
            else:
                self.shift += 1
            self.c = new
        self.done = len(seq)

    @property
    def connection(self) -> list[int]:
        return self.c + [0] * (self.length + 1 - len(self.c))


def _fraction(conn: list[int], seq: list[int], scale: int) -> tuple[RatPoly, RatPoly]:
    """(num, den) with den monic, such that num/den = sum_k seq[k] scale^-k
    x^(-k-1), for a connection polynomial ``conn`` = c_0 .. c_L (c_0 != 0)
    that seq obeys from term L on; only seq[:L] is read.  num and den are
    coprime when conn is the minimal one.

    It gives the fraction P(y)/Q(y) in y = scale x of the moments of Z; the
    function of x is scale P(scale x)/Q(scale x).
    """
    length = len(conn) - 1
    q = conn[::-1]                   # Q(y) = sum_i c_i y^(L-i), lead c_0
    p = [sum(q[j] * seq[j - i - 1] for j in range(i + 1, length + 1))
         for i in range(length)]
    lead = q[-1] * scale ** length
    num = RatPoly([Fraction(x * scale ** (i + 1), lead) for i, x in enumerate(p)])
    return num, _from_scaled(_scaled_conn(conn, scale))


def _scaled_conn(conn: list[int], scale: int) -> list[int]:
    """The primitive integer polynomial in y = 2x of Q(scale x), Q the
    reversed ``conn``: 2^L Q(scale y/2) is proportional to
    sum_j c_(L-j) scale^j 2^(L-j) y^j."""
    length = len(conn) - 1
    return _primitive([(c * scale ** j) << (length - j) for j, c in enumerate(reversed(conn))])


def _product(a: list[int], b: list[int]) -> list[int]:
    """The coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def psi(red: "HermitianReduction", s: list[int], t: list[int]) -> RatFun:
    """The resolvent trace psi_{S,T}(x) = tr((xI - H)^{-1}_{S,T}), exact over Q.

    psi_{S,T} = sum_k m_k x^(-k-1) with m_k = sum_j (H^k)[s_j, t_j], read
    off the certified sequences of e_(s_j) +- e_(t_j) by the summary of
    (S, T) (``Resolvent.psi_st``), for S = T as well.  Computed on the
    rational similar matrix H_rat; valid whenever the paired clones carry
    equal squared scaling (checked), in which case the diagonal similarity
    cancels entrywise.
    """
    return resolvent(red, s, t).psi_st


class Resolvent:
    """The resolvent summary of one (reduction, S, T), filled lazily: every
    field is computed at most once, because a reduction is not mutated after
    build_H.  Obtain it through ``resolvent``.

    Every field is read from the certified sequences of one start family,
    u_j, v_j = e_(s_j) +- e_(t_j); construction refuses unpaired S and T,
    before any mat-vec.  The summary keeps the reduction's ``_Krylov``, not
    the reduction, so a reduction and the summaries in its ``memo`` form no
    reference cycle.  m_u,v = m_S + m_T +- 2 m_{S,T}, so their certified
    recurrences are the supports g+- of psi_S + psi_T +- 2 psi_{S,T}, which is
    2 (psi_S +- psi_{S,T}) for cospectral S and T; the residues
    sum_j ||E u_j||^2, sum_j ||E v_j||^2 >= 0 add up to
    4 sum_j ||E e_(s_j)||^2, so g+- are square-free and g = lcm(g+, g-).
    Cospectrality reads only the u sequence (its ``reads``), so a
    not-cospectral exit never grows v.  psi_S and its support are the (S, S)
    summary: there u_j = 2 e_(s_j) and v_j = 0, so psi_st is psi_S, g- = 1,
    g+ = g and ``split_orders`` holds g's orders.
    """

    def __init__(self, red: "HermitianReduction", s: list[int], t: list[int]):
        check_pairs(red, s, t)
        self.s, self.t = s, t
        self.krylov = _Krylov(red)

    @cached_property
    def _sides(self) -> tuple[_SelfMoments, _SelfMoments]:
        return tuple(_SelfMoments(self.krylov, tuple(((a, 1), (b, sign))
                                                     for a, b in zip(self.s, self.t)))
                     for sign in (1, -1))

    @cached_property
    def cospectral(self) -> bool:
        """psi_S = psi_T, exactly: the cross terms c_k = m_S(k) - m_T(k),
        the reads of the u sequence, one per level, are all 0.  The first
        nonzero one gives False.  c obeys every polynomial that annihilates
        the u_j, so once u is final its reads decide: L + 2 levels."""
        plus = self._sides[0]
        while not plus.settle():
            plus._grow()
            if plus.reads[-1]:
                return False
        return not any(plus.reads)

    @cached_property
    def psi_st(self) -> RatFun:
        """psi_{S,T} from m_{S,T} = (m_u - m_v)/4, in lowest terms without a
        gcd: the fraction over the minimal recurrence of m_{S,T}.  Both
        sequences obey the product of their certified recurrences, of order
        L = L+ + L-.  Each side's fraction is in lowest terms, so when g+ and
        g- are coprime (always for S = T) that product is the minimal
        recurrence and L terms give the fraction over it, with no third
        Berlekamp-Massey, which would cost as much as a side's.  Otherwise
        Berlekamp-Massey on 2L terms finds the minimal one."""
        plus, minus = (seq.certify() for seq in self._sides)
        conn = _product(plus.poly, minus.poly)
        order = len(conn) - 1
        diffs = [plus.term(k) - minus.term(k)
                 for k in range(order if self.coprime else 2 * order)]
        if any(d % 4 for d in diffs):
            raise InvariantError("m_u - m_v is not divisible by 4")
        seq = [d // 4 for d in diffs]
        if not self.coprime:
            massey = _Massey(seq)
            massey.update()
            conn = massey.connection
        return RatFun(*_fraction(conn, seq, self.krylov.scale))

    @cached_property
    def _scaled(self) -> tuple[list[int], list[int]]:
        """g+ and g- in Z[y], y = 2x: the primitive integer polynomials of
        the certified recurrences of u and v."""
        return tuple(_scaled_conn(seq.certify().poly, self.krylov.scale)
                     for seq in self._sides)

    @cached_property
    def g_plus(self) -> RatPoly:
        """For cospectral S and T: the poles where E B_S = +E B_T."""
        return _from_scaled(self._scaled[0])

    @cached_property
    def g_minus(self) -> RatPoly:
        """For cospectral S and T: the poles where E B_S = -E B_T."""
        return _from_scaled(self._scaled[1])

    @cached_property
    def _side_scans(self) -> tuple[tuple[dict[int, int], list[int]], ...]:
        """The cosine splits of g+ and g- in Z[y]."""
        return tuple(map(_cosine_split, self._scaled))

    @cached_property
    def split_orders(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """(O+, O-), the orders of g+ and g- when both are products of
        distinct Psi_m (for cospectral S and T: when g is), else None."""
        if any(len(rest) > 1 or max(orders.values(), default=1) > 1
               for orders, rest in self._side_scans):
            return None
        return tuple(frozenset(orders) for orders, _ in self._side_scans)

    @cached_property
    def coprime(self) -> bool:
        """g+ and g- share no factor: at once when g- = 1 (every (S, S)
        summary), else by disjoint orders, else by one gcd in Z[y]."""
        if len(self._scaled[1]) == 1:
            return True
        if self.split_orders is not None:
            return not self.split_orders[0] & self.split_orders[1]
        return len(_int_gcd(*self._scaled)) == 1

    @cached_property
    def strong(self) -> bool:
        """Strong cospectrality: S and T are cospectral and g+, g- coprime,
        so every pole of psi_S survives in exactly one of psi_S +- psi_{S,T}."""
        return self.cospectral and self.coprime

    @cached_property
    def split(self) -> tuple[tuple[RatPoly, ...], tuple[RatPoly, ...]] | None:
        """(plus, minus): the irreducible factors of g+ and g-, or None
        unless ``strong``."""
        if not self.strong:
            return None
        return tuple(tuple(_factors(orders, rest)) for orders, rest in self._side_scans)


def resolvent(red: "HermitianReduction", s: list[int] | None = None,
              t: list[int] | None = None) -> Resolvent:
    """The memoised resolvent summary of (red, S, T); S and T default to the
    reduction's clone sets."""
    s = list(red.s if s is None else s)
    t = list(red.t if t is None else t)
    key = ("resolvent", tuple(s), tuple(t))
    if key not in red.memo:
        red.memo[key] = Resolvent(red, s, t)
    return red.memo[key]
