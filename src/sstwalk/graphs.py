"""Simple connected graphs with a canonical arc ordering, plus graph families.

Arcs are ordered pairs (tail, head) over adjacent vertices, enumerated in
lexicographic order; the neighbor order sigma_u at each vertex is ascending.
Fixing both makes every coin matrix and every reduction reproducible.  A graph
stores ints per arc (neighbors, ``arc_start`` and, derived once on first read,
``reversal``); the arc tuples and ``arc_index`` are views built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph with canonical arc indexing."""

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)
    # n + 1 cumulative degrees: u's outgoing arcs are arcs[arc_start[u]:arc_start[u + 1]]
    arc_start: tuple[int, ...] = field(repr=False, compare=False)

    def degree(self, u: int) -> int:
        return len(self.neighbors[u])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    @property
    def num_arcs(self) -> int:
        return self.arc_start[-1]

    @cached_property
    def reversal(self) -> tuple[int, ...]:
        """reversal[i] is the index of arc (v, u) for the i-th arc (u, v).  The
        arcs into v are met in ascending tail order, which is sigma_v, so one
        cursor per vertex walks v's outgoing arcs: O(arcs), no dict."""
        cursor = list(self.arc_start)
        out = []
        for v in chain.from_iterable(self.neighbors):
            out.append(cursor[v])
            cursor[v] += 1
        return tuple(out)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u, heads in enumerate(self.neighbors) for v in heads)

    @cached_property
    def arc_index(self) -> dict[tuple[int, int], int]:
        return {arc: i for i, arc in enumerate(self.arcs)}


def build_graph(edges, n: int) -> Graph:
    """Build a Graph from an edge list; rejects loops, out-of-range vertices
    and disconnected inputs.  Duplicate edges are deduplicated."""
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    canon = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex out of range in edge ({u},{v})")
        if u == v:
            raise GraphError(f"loop at vertex {u} not allowed")
        canon.add((min(u, v), max(u, v)))
    if n > len(canon) + 1:  # too few edges to connect n vertices
        raise GraphError("graph is disconnected")
    nbrs = [set() for _ in range(n)]
    for u, v in canon:
        nbrs[u].add(v)
        nbrs[v].add(u)
    # connectivity
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in nbrs[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != n:
        raise GraphError("graph is disconnected")
    neighbors = tuple(tuple(sorted(s)) for s in nbrs)
    arc_start = tuple(accumulate(map(len, neighbors), initial=0))
    return Graph(n=n, edges=tuple(sorted(canon)), neighbors=neighbors, arc_start=arc_start)


def content_lines(text: str) -> list[str]:
    """The nonblank lines of an input file, each cut at its first ``#`` (a
    comment) and stripped."""
    return [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())]


def parse_graph(text: str) -> Graph:
    """Parse the text format: first line ``n <count>``, then ``u v`` edges;
    ``#`` starts a comment."""
    lines = content_lines(text)
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "n":
        raise GraphError("graph file must start with 'n <count>'")
    try:
        n = int(header[1])
    except ValueError as e:
        raise GraphError(f"bad header line {lines[0]!r}: the count must be an integer") from e
    edges = []
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError as e:
            raise GraphError(f"bad edge line: {line!r}") from e
        edges.append((u, v))
    return build_graph(edges, n)


# -- families ----------------------------------------------------------------


def build_family(name: str, params: tuple) -> tuple[Graph, int, int]:
    """(graph, a, b) of the family ``name`` of ``sstwalk.families.FAMILIES``;
    ``params`` are the values of that family's flags, in order."""
    from .families import FAMILIES

    if name not in FAMILIES:
        raise GraphError(f"unknown family {name!r}")
    return FAMILIES[name].graph(*params)


def complete_bipartite_k2m(m: int) -> tuple[Graph, int, int]:
    """K_{2,m}; marked pair = the two vertices of degree m (vertices 0, 1)."""
    if m < 1:
        raise GraphError("K_{2,m} needs m >= 1")
    edges = [(0, 2 + i) for i in range(m)] + [(1, 2 + i) for i in range(m)]
    return build_graph(edges, m + 2), 0, 1


def circulant_2m(m: int, c: int, d: int) -> tuple[Graph, int, int]:
    """The 4-regular circulant on 2m vertices with connection set {+-c, +-d},
    c + d = m; marked pair = (0, m)."""
    if c > d:
        c, d = d, c
    if not (0 <= c and d <= m and c != d and c + d == m):
        raise GraphError("circulant needs 0 <= c,d <= m, c != d, c + d = m")
    if c == 0 or d == m:
        raise GraphError("circulant with c=0 or d=m is not simple (loops/multi-edges)")
    nvert = 2 * m
    edges = []
    for i in range(nvert):
        edges.append((i, (i + c) % nvert))
        edges.append((i, (i + d) % nvert))
    return build_graph(edges, nvert), 0, m


def _double_cone(edges, n: int) -> tuple[Graph, int, int]:
    """Double cone over the base graph on n vertices with these edges: base
    vertex v becomes v + 2; the marked conical vertices 0 and 1 are joined to
    every base vertex."""
    cone = [(u + 2, v + 2) for u, v in edges]
    cone += [(c, v + 2) for v in range(n) for c in (0, 1)]
    return build_graph(cone, n + 2), 0, 1


def double_cone_cycles(ms: list[int]) -> tuple[Graph, int, int]:
    """Double cone over the disjoint union of cycles C_{4m_j}; marked pair =
    the two conical vertices (0, 1)."""
    if not ms or any(m < 1 for m in ms):
        raise GraphError("double cone needs cycle parameters m_j >= 1")
    edges, offset = [], 0
    for length in (4 * m for m in ms):
        edges += [(offset + i, offset + (i + 1) % length) for i in range(length)]
        offset += length
    return _double_cone(edges, offset)


def double_cone_over(base: Graph) -> tuple[Graph, int, int]:
    """Double cone over an arbitrary base graph; conical vertices are (0, 1),
    base vertex v becomes v + 2."""
    return _double_cone(base.edges, base.n)


def generalized_path(k: int, n: int) -> tuple[Graph, int, int]:
    """GP(k, n): k paths P_n glued at both endpoints; marked pair = the two
    glued endpoints, of degree k.

    Vertices: a = 0; path j occupies 1 + j(n-2) .. (j+1)(n-2); b = k(n-2)+1.
    This numbering aligns the ascending neighbor orders of a and b path by
    path, so the positional W-identification matches paths.
    """
    if k < 1 or n < 3:
        raise GraphError("GP(k,n) needs k >= 1 and n >= 3")
    inner = n - 2
    b = k * inner + 1
    edges = []
    for j in range(k):
        start = 1 + j * inner
        edges.append((0, start))
        for i in range(inner - 1):
            edges.append((start + i, start + i + 1))
        edges.append((start + inner - 1, b))
    return build_graph(edges, b + 1), 0, b


def cycle_graph(length: int) -> Graph:
    if length < 3:
        raise GraphError("cycle needs length >= 3")
    return build_graph([(i, (i + 1) % length) for i in range(length)], length)


def prism_graph() -> Graph:
    """Triangular prism C3 x K2: 3-regular with a 2-dimensional adjacency kernel."""
    tri = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    rungs = [(0, 3), (1, 4), (2, 5)]
    return build_graph(tri + rungs, 6)


def complete_multipartite(sizes: list[int]) -> Graph:
    parts = []
    v = 0
    for s in sizes:
        parts.append(list(range(v, v + s)))
        v += s
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            edges.extend((a, b) for a in parts[i] for b in parts[j])
    return build_graph(edges, v)
