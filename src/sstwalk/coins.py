"""Reflection coins and per-vertex coin assignments.

A reflection coin at a degree-d vertex is C_u = 2P_u - I for an exact rational
symmetric projection P_u on C^{sigma_u}.  Coins are stored by their projection
plus an exact orthogonal (unnormalized) basis of col(P_u); that basis, as
primitive integer columns, is what the Hermitian reduction consumes.

Coins are frozen and validated exactly (P^2 = P = P^T, basis nonzero, fixed
and orthogonal) once, when built, in integers: on den * P, with den the least
common denominator of P, and on the basis scaled to integer vectors.  The
Grover and -I coins are cached per degree, so an assignment shares one
validated coin per (degree, kind) instead of holding a copy per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm

from . import linalg
from .graphs import Graph
from .linalg import Mat, Vec


class CoinError(ValueError):
    pass


@dataclass(frozen=True)
class ReflectionCoin:
    """Exact rational reflection coin: projection P with P^2 = P = P^T.

    Validation and ``fixes`` run on the integer form (den, den * P) of the
    projection; the coin also keeps its basis as primitive integer clone
    columns, the block a vertex with nothing prescribed gives the reduction.
    """

    degree: int
    projection: tuple[tuple[Fraction, ...], ...]
    basis: tuple[tuple[Fraction | int, ...], ...]  # orthogonal basis of col(P)

    def __post_init__(self):
        den, q = self.int_projection
        if any(q[i][j] != q[j][i] for i in range(self.degree) for j in range(i)):
            raise CoinError("coin projection is not symmetric")
        # q is symmetric, so (q q)[i][j] is the dot product of rows i and j
        if any(den * q[i][j] != linalg.dot(q[i], q[j])
               for i in range(self.degree) for j in range(i + 1)):
            raise CoinError("coin projection is not idempotent")
        trace = Fraction(sum(q[i][i] for i in range(self.degree)), den)
        if trace != len(self.basis):
            raise CoinError("coin basis does not span col(P): rank tr(P) = "
                            f"{trace}, basis has {len(self.basis)} columns")
        ints = [linalg.int_vector(u) for u in self.basis]
        for i, u in enumerate(ints):
            if not any(u):
                raise CoinError("coin basis has a zero vector")
            if not self.fixes(u):
                raise CoinError("coin basis vector not fixed by the projection")
            for v in ints[i + 1:]:
                if linalg.dot(u, v) != 0:
                    raise CoinError("coin basis is not orthogonal")

    @cached_property
    def int_projection(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, den * P) with den the least common denominator of P."""
        den = lcm(1, *(x.denominator for row in self.projection for x in row))
        return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                          for row in self.projection)

    @cached_property
    def clone_columns(self) -> tuple[tuple[int, ...], ...]:
        """The basis as primitive integer vectors (it is validated orthogonal)."""
        return tuple(tuple(linalg.primitive_int_vector(u)) for u in self.basis)

    def p_matrix(self) -> Mat:
        return [list(row) for row in self.projection]

    def c_matrix(self) -> Mat:
        """The reflection C = 2P - I, exact."""
        c = [[2 * x for x in row] for row in self.projection]
        for i in range(self.degree):
            c[i][i] -= 1
        return c

    @property
    def rank(self) -> int:
        return len(self.basis)

    def fixes(self, w: Vec) -> bool:
        """Exact test that C w = w, i.e. (den P) w = den w on w scaled to ints."""
        den, q = self.int_projection
        w = linalg.int_vector(w)
        return len(w) == self.degree and all(
            linalg.dot(row, w) == den * x for row, x in zip(q, w))


def _freeze(m: Mat) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row) for row in m)


@cache
def grover_coin(degree: int) -> ReflectionCoin:
    """The Grover coin (2/d)J - I: reflection about the all-ones vector."""
    if degree < 1:
        raise CoinError("Grover coin needs degree >= 1")
    p = [[Fraction(1, degree)] * degree for _ in range(degree)]
    ones = tuple(Fraction(1) for _ in range(degree))
    return ReflectionCoin(degree, _freeze(p), (ones,))


@cache
def negative_identity_coin(degree: int) -> ReflectionCoin:
    """C = -I: the rank-0 reflection (no clones)."""
    return ReflectionCoin(degree, _freeze(linalg.zeros(degree, degree)), ())


def reflection_about(basis_vectors: list[Vec]) -> ReflectionCoin:
    """Reflection about the span of the given rational vectors.

    The vectors are orthogonalized exactly (unnormalized Gram-Schmidt);
    dependent inputs are an error, not silently dropped.
    """
    if not basis_vectors:
        raise CoinError("reflection_about needs at least one basis vector")
    degree = len(basis_vectors[0])
    if any(len(v) != degree for v in basis_vectors):
        raise CoinError("basis vectors must share a common dimension")
    try:
        ortho = linalg.gram_schmidt([linalg.frac_vec(v) for v in basis_vectors])
    except ValueError as e:
        raise CoinError(f"rank-deficient coin basis: {e}") from e
    p = linalg.zeros(degree, degree)
    for b in ortho:
        nb = linalg.dot(b, b)
        for i in range(degree):
            if b[i]:
                for j in range(degree):
                    p[i][j] += Fraction(b[i] * b[j], nb)
    return ReflectionCoin(degree, _freeze(p), _freeze(ortho))


def _grover_coins(graph: Graph) -> dict[int, ReflectionCoin]:
    """The Grover coin at every vertex, with one grover_coin call per degree."""
    degrees = [graph.degree(u) for u in range(graph.n)]
    by_degree = {d: grover_coin(d) for d in set(degrees)}
    return {u: by_degree[d] for u, d in enumerate(degrees)}


class CoinAssignment:
    """One reflection coin per vertex of a graph; immutable once built.

    The coins are kept as given (vertices may share one coin object); each was
    validated when it was built, so only the sizes are checked here.
    """

    def __init__(self, graph: Graph, coins: dict[int, ReflectionCoin]):
        self.graph = graph
        for u in range(graph.n):
            coin = coins.get(u)
            if coin is None:
                raise CoinError(f"vertex {u} has no coin")
            if coin.degree != graph.degree(u):
                raise CoinError(
                    f"coin at vertex {u} has size {coin.degree}, degree is {graph.degree(u)}")
        self.coins = {u: coins[u] for u in range(graph.n)}

    @classmethod
    def all_grover(cls, graph: Graph) -> "CoinAssignment":
        return cls(graph, _grover_coins(graph))

    @classmethod
    def grover_with_marked(cls, graph: Graph, a: int, b: int,
                           coin: ReflectionCoin) -> "CoinAssignment":
        """Grover coins everywhere except the marked pair, which both get
        ``coin``."""
        coins = _grover_coins(graph)
        coins[a] = coins[b] = coin
        return cls(graph, coins)

    def coin(self, u: int) -> ReflectionCoin:
        return self.coins[u]

    @cached_property
    def step_plan(self):
        """The simulator's coin blocks and arc reversal in plan order
        (``sstwalk.walk.StepPlan``), built on first use and then reused."""
        from .walk import StepPlan

        return StepPlan.build(self)


def parse_coins(text: str, graph: Graph) -> CoinAssignment:
    """Parse the coin spec format.

    One line per non-default vertex: ``coin <v> grover`` or
    ``coin <v> basis <r> <r*deg rationals>`` (row-major basis vectors).
    Vertices not mentioned get the Grover coin.
    """
    coins = _grover_coins(graph)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "coin" or len(parts) < 3 or (parts[2] != "basis" and len(parts) > 3):
            raise CoinError(f"bad coin line: {line!r}")
        try:
            v = int(parts[1])
        except ValueError as e:
            raise CoinError(f"bad coin line: {line!r}") from e
        if not 0 <= v < graph.n:
            raise CoinError(f"coin vertex {v} out of range")
        deg = graph.degree(v)
        if parts[2] == "grover":
            coins[v] = grover_coin(deg)
        elif parts[2] == "minus_identity":
            coins[v] = negative_identity_coin(deg)
        elif parts[2] == "basis":
            try:
                r = int(parts[3])
                entries = [Fraction(tok) for tok in parts[4:]]
            except (IndexError, ValueError, ZeroDivisionError) as e:
                raise CoinError(f"bad coin line: {line!r}") from e
            if len(entries) != r * deg:
                raise CoinError(
                    f"coin at {v}: expected {r * deg} entries, got {len(entries)}")
            rows = [entries[i * deg:(i + 1) * deg] for i in range(r)]
            coins[v] = reflection_about(rows)
        else:
            raise CoinError(f"unknown coin kind {parts[2]!r}")
    return CoinAssignment(graph, coins)
