"""Reflection coins and per-vertex coin assignments.

A reflection coin at a degree-d vertex is C_u = 2P_u - I for an exact rational
orthogonal projector P_u on C^{sigma_u}.  A coin is an orthogonal basis of
col(P_u), kept as primitive integer columns: the Hermitian reduction consumes
them as they are, and the float walk (``sstwalk.walk``) builds C from them, so
this module never forms P or any d x d matrix.

Coins are frozen and validated exactly once, when built, in integers: each
basis vector has length d, is nonzero and is orthogonal to the others, in
O(r^2 d) for rank r; the projector onto the span of such a basis is
symmetric, idempotent, of trace r and fixes the basis by construction.  The
Grover and -I coins are cached per degree, so an assignment shares one
validated coin per (degree, kind) instead of holding a copy per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from . import linalg
from .graphs import Graph, content_lines
from .linalg import Vec


class CoinError(ValueError):
    pass


@dataclass(frozen=True)
class ReflectionCoin:
    """Exact rational reflection coin C = 2P - I about the span of ``basis``,
    given in rationals and kept as primitive integer columns, the block a
    vertex with nothing prescribed gives the reduction: rescaling a column
    gives an equal coin."""

    degree: int
    basis: tuple[tuple[int, ...], ...]  # orthogonal basis of col(P)

    def __post_init__(self):
        ints = []
        for u in map(linalg.int_vector, self.basis):
            if len(u) != self.degree:
                raise CoinError(f"coin basis vector has length {len(u)}, "
                                f"degree is {self.degree}")
            if not any(u):
                raise CoinError("coin basis has a zero vector")
            if any(linalg.dot(u, v) for v in ints):
                raise CoinError("coin basis is not orthogonal")
            ints.append(u)
        object.__setattr__(self, "basis", tuple(
            tuple(linalg.primitive_int_vector(u)) for u in ints))

    @property
    def rank(self) -> int:
        return len(self.basis)


@cache
def grover_coin(degree: int) -> ReflectionCoin:
    """The Grover coin (2/d)J - I: reflection about the all-ones vector."""
    if degree < 1:
        raise CoinError("Grover coin needs degree >= 1")
    return ReflectionCoin(degree, ((1,) * degree,))


@cache
def negative_identity_coin(degree: int) -> ReflectionCoin:
    """C = -I: the rank-0 reflection (no clones)."""
    return ReflectionCoin(degree, ())


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
    ortho = linalg.gram_schmidt(basis_vectors)
    if len(ortho) < len(basis_vectors):
        raise CoinError("rank-deficient coin basis: "
                        "linearly dependent vector in Gram-Schmidt input")
    return ReflectionCoin(degree, tuple(map(tuple, ortho)))


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

    One line per non-default vertex: ``coin <v> grover``,
    ``coin <v> minus_identity`` or ``coin <v> basis <r> <r*deg rationals>``
    (row-major basis vectors, 1 <= r <= deg), each vertex on one line at
    most.  Vertices not mentioned get the Grover coin.
    """
    coins = _grover_coins(graph)
    seen = set()
    for line in content_lines(text):
        parts = line.split()
        if parts[0] != "coin" or len(parts) < 3 or (parts[2] != "basis" and len(parts) > 3):
            raise CoinError(f"bad coin line: {line!r}")
        try:
            v = int(parts[1])
        except ValueError as e:
            raise CoinError(f"bad coin line: {line!r}") from e
        if not 0 <= v < graph.n:
            raise CoinError(f"coin vertex {v} out of range")
        if v in seen:
            raise CoinError(f"coin line {line!r}: vertex {v} already has a coin")
        seen.add(v)
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
            if not 1 <= r <= deg:
                raise CoinError(f"coin line {line!r}: basis rank {r} is not in "
                                f"1..deg({v}) = {deg}")
            if len(entries) != r * deg:
                raise CoinError(
                    f"coin at {v}: expected {r * deg} entries, got {len(entries)}")
            try:
                coins[v] = reflection_about([entries[i * deg:(i + 1) * deg]
                                             for i in range(r)])
            except CoinError as e:
                raise CoinError(f"coin line {line!r}: {e}") from e
        else:
            raise CoinError(f"unknown coin kind {parts[2]!r}")
    return CoinAssignment(graph, coins)
