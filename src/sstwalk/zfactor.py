"""Irreducible factors over Z of a primitive integer polynomial (Zassenhaus).

This is the factorizer behind the ``SPLIT`` and ``POLE_FACTOR`` lines: it
factors the rest of g+- in Z[y], y = 2x, once ``exact._cosine_split`` has
divided out every Psi~_m.  It follows Zassenhaus, "On Hensel factorization I"
(J. Number Theory 1, 1969), in the form of von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 14-15 (vzGG):

1. f is made square-free.  f mod p square-free, for an odd prime p that
   does not divide lc(f), proves it; only when the first ``_PRIMES`` such
   primes all fail is the square-free part f / gcd(f, f') taken, once, by
   ``exact._int_gcd``.  A square-free f fails only at the primes dividing
   its discriminant, and the gcd in Z[y] costs far more than a few gcds
   mod p: on the degree-119 rest of a random 140-vertex graph, whose first
   admissible candidates 7 and 11 divide the discriminant, 2.0 s against
   2 ms per prime.
2. The modular factors are counted by distinct-degree factorization modulo
   ``_PRIMES`` admissible primes (odd, not dividing lc(f), f mod p
   square-free), and the prime with the fewest is kept.
3. Its factors of equal degree are split by Cantor-Zassenhaus.
4. They are lifted by quadratic Hensel steps (vzGG Alg. 15.10) on a factor
   tree built by halves, until p^(2^k) exceeds twice the Mignotte bound.
5. Subsets of the lifted factors, smallest first, are recombined and kept
   when they divide f in Z.

Polynomials are lists of ints, constant term first, with no trailing zero;
modulo m their coefficients lie in [0, m).  A product is one integer product
of the two coefficient vectors packed into fixed-width fields (Kronecker
substitution), so its Python-level work is linear in the degree.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import combinations, islice, zip_longest
from math import isqrt

from .exact import _int_gcd, _prime_factors, _primitive, _quotient

_PRIMES = 5
"""Admissible primes whose factor counts are compared.  By Chebotarev's
theorem the degrees of the factors mod p are the cycle lengths of a
Frobenius element of the Galois group of f, so one prime's count can exceed
the true count by far (x^4 - 10x^2 + 1 has at least two factors mod every
prime), and recombination tries up to 2^(count - 1) subsets.  Each further
prime costs one distinct-degree factorization, cut short once its count
reaches the best so far: on the irreducible degree-119 rest of a random
140-vertex graph about 0.05 s, a third of its Hensel lift.  Five primes gave
counts 5, 3, 6, 5 and 4 there, and the next eight no count below 2, so a
longer search buys little; five is also the most sympy's Zassenhaus tries.
A count of 1 ends the search: f is irreducible."""


def irreducible_factors(f: list[int]) -> list[list[int]]:
    """The distinct irreducible factors over Z of a primitive integer
    polynomial f of degree >= 1 with positive lead, each primitive with
    positive lead."""
    if not any(_squarefree(f, p) for p in islice(_odd_primes(f[-1]), _PRIMES)):
        f = _quotient(f, _int_gcd(f, _primitive([i * c for i, c in enumerate(f)][1:])))
    if len(f) <= 2:
        return [f]
    best = None
    for p in islice((q for q in _odd_primes(f[-1]) if _squarefree(f, q)), _PRIMES):
        parts = _distinct_degree(_monic(f, p), p, best[1] if best else len(f))
        if parts is not None:
            best = (p, sum((len(g) - 1) // d for d, g in parts), parts)
            if best[1] == 1:
                return [f]
    p, _count, parts = best
    rng = random.Random(p)
    modular = [h for d, g in parts for h in _equal_degree(g, d, p, rng)]
    return _recombine(f, p, modular)


# -- arithmetic modulo m ------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


_ITEMS = {array(code).itemsize: code for code in "BHIQ"}
"""Array type codes by item size: fields of 1, 2, 4 or 8 bytes are packed and
read back by ``array`` in C, wider ones one int at a time."""


def _width(bits: int) -> int:
    """Bytes per packed field for values below 2^bits."""
    size = bits // 8 + 1
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _pack(a: list[int], width: int) -> int:
    """sum_i a_i 2^(8 width i), for 0 <= a_i < 2^(8 width)."""
    if width in _ITEMS:
        items = array(_ITEMS[width], a)
        if sys.byteorder == "big":
            items.byteswap()
        return int.from_bytes(items.tobytes(), "little")
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")


def _unpack(x: int, width: int, count: int, m: int) -> list[int]:
    """The first ``count`` fields of x, each reduced mod m, trimmed."""
    raw = x.to_bytes(width * count, "little")
    if width in _ITEMS:
        items = array(_ITEMS[width], raw)
        if sys.byteorder == "big":
            items.byteswap()
        return _trim([c % m for c in items])
    return _trim([int.from_bytes(raw[i:i + width], "little") % m
                  for i in range(0, len(raw), width)])


def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    """a b mod m, by one integer product (Kronecker substitution): a field
    holds any coefficient of the product before reduction."""
    if not a or not b:
        return []
    width = _width(2 * m.bit_length() + min(len(a), len(b)).bit_length())
    return _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1, m)


def _add(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m, for a unit lead of b."""
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    inv, low = pow(b[-1], -1, m), b[:-1]
    rem, quo = list(a), [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + db] * inv % m
        if c:
            rem[i:i + db] = [(x - c * y) % m for x, y in zip(rem[i:i + db], low)]
    return _trim(quo), _trim(rem[:db])


def _monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b over F_p (a nonzero)."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _bezout(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s g + t h = 1 over F_p, deg s < deg h and deg t < deg g,
    for coprime g and h of positive degree."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


class _Ring:
    """F_p[x] modulo a monic f of degree n >= 1: a product of two reduced
    polynomials is reduced by Newton's inverse of the reversed f (vzGG
    Alg. 9.5), so ``mul`` is three Kronecker products."""

    def __init__(self, f: list[int], p: int):
        self.n, self.p, self.low = len(f) - 1, p, f[:-1]
        rev, inv, k = f[::-1], [1], 1
        while k < self.n - 1:
            k = min(2 * k, self.n - 1)
            err = [-c % p for c in _mul(rev[:k], inv, p)[:k]]
            err[0] = (err[0] + 2) % p
            inv = _mul(inv, err, p)[:k]
        self.inv = inv

    def reduce(self, a: list[int]) -> list[int]:
        n, p = self.n, self.p
        k = len(a) - n
        if k <= 0:
            return a
        rq = _mul(a[n:][::-1], self.inv[:k], p)[:k]
        quo = (rq + [0] * (k - len(rq)))[::-1]
        return _sub(a[:n], _mul(quo, self.low, p)[:n], p)

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        return self.reduce(_mul(a, b, self.p))

    def power(self, a: list[int], e: int) -> list[int]:
        out = [1]
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out


# -- factoring modulo p -------------------------------------------------------


def _odd_primes(lead: int):
    """The odd primes that do not divide ``lead``, ascending."""
    p = 3
    while True:
        if lead % p and _prime_factors(p) == [p]:
            yield p
        p += 2


def _squarefree(f: list[int], p: int) -> bool:
    """f mod p is square-free (p does not divide lc(f))."""
    fp = [c % p for c in f]
    return len(_gcd(fp, _trim([i * c % p for i, c in enumerate(fp)][1:]), p)) == 1


def _distinct_degree(f: list[int], p: int, limit: int) -> list[tuple[int, list[int]]] | None:
    """[(d, g_d)] for a monic square-free f over F_p, g_d the product of its
    irreducible factors of degree d; None once the count of factors is
    known to reach ``limit``.

    x^(p^d) mod f comes from x^(p^(d-1)) by the Frobenius map
    h -> h(x^p) = sum_i h_i x^(ip) mod f, one sum of packed rows x^(ip).
    """
    n = len(f) - 1
    ring = _Ring(f, p)
    width = _width(2 * p.bit_length() + n.bit_length())
    step, row = _divmod([0] * p + [1], f, p)[1], [1]
    rows = [_pack(row, width)]
    for _ in range(n - 1):
        row = ring.mul(row, step)
        rows.append(_pack(row, width))
    parts, count, rest, h, d = [], 0, f, [0, 1], 0
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        h = _unpack(sum(c * r for c, r in zip(h, rows) if c), width, n, p)
        g = _gcd(rest, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            parts.append((d, g))
            count += (len(g) - 1) // d
            rest = _divmod(rest, g, p)[0]
            if count + (len(rest) > 1) >= limit:
                return None
    if len(rest) > 1:
        parts.append((len(rest) - 1, rest))
        count += 1
    return parts if count < limit else None


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors of g over F_p, all of degree d
    (Cantor-Zassenhaus, odd p): gcd(g, a^((p^d - 1)/2) - 1) for random a
    splits off about half of them."""
    if len(g) - 1 == d:
        return [g]
    ring = _Ring(g, p)
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        u = _gcd(g, _sub(ring.power(a, (p ** d - 1) // 2), [1], p), p)
        if 1 < len(u) < len(g):
            return (_equal_degree(u, d, p, rng)
                    + _equal_degree(_divmod(g, u, p)[0], d, p, rng))


# -- lifting and recombination ------------------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """vzGG Alg. 15.10: from f = g h and s g + t h = 1 mod m, h monic, the
    same mod m^2, with deg g, deg h, deg s and deg t unchanged."""
    mm = m * m
    e = _sub([c % mm for c in f], _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    return g, h, _sub(s, d, mm), _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)


def _lift(f: list[int], modular: list[list[int]], p: int, top: int) -> list[list[int]]:
    """Monic factors mod p^(2^top) of f = lc(f) prod(modular) mod p: the
    left half of the factors (times lc(f)) and the right half are lifted
    together, then each half on its own."""
    if len(modular) == 1:
        mod = p ** (1 << top)
        return [_monic([c % mod for c in f], mod)]
    half = len(modular) // 2
    g, h = [f[-1] % p], [1]
    for u in modular[:half]:
        g = _mul(g, u, p)
    for u in modular[half:]:
        h = _mul(h, u, p)
    s, t = _bezout(g, h, p)
    m = p
    for _ in range(top):
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _lift(g, modular[:half], p, top) + _lift(h, modular[half:], p, top)


def _recombine(f: list[int], p: int, modular: list[list[int]]) -> list[list[int]]:
    """The irreducible factors of the square-free f from its monic factors
    mod p: lifted mod p^(2^k) > 2B, B = sqrt(n+1) 2^n |f|_inf lc(f) the
    Mignotte bound on lc(f)/lc(g) g for a factor g, then lc(rest) times each
    subset's product, read in the symmetric range, is tried as a divisor of
    the rest, subsets of s factors before those of s + 1 (vzGG Alg. 15.19)."""
    n = len(f) - 1
    bound = (isqrt((n + 1) * max(abs(c) for c in f) ** 2) + 1) * 2 ** n * f[-1]
    top = 0
    while p ** (1 << top) <= 2 * bound:
        top += 1
    mod = p ** (1 << top)
    lifted = _lift(f, modular, p, top)
    found, rest, size = [], f, 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            lead = rest[-1]
            const = lead
            for i in subset:
                const = const * lifted[i][0] % mod
            const = const - mod if 2 * const > mod else const
            if rest[0] and (not const or rest[0] * lead % const):
                continue
            cand = [lead % mod]
            for i in subset:
                cand = _mul(cand, lifted[i], mod)
            cand = _primitive([c - mod if 2 * c > mod else c for c in cand])
            quo = _quotient(rest, cand)
            if quo is not None:
                found.append(cand)
                rest = quo
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [rest]
