"""Graph construction, arc ordering, and the graph families."""

import itertools

import pytest

from conftest import random_instance
from sstwalk.graphs import (GraphError, build_family, build_graph,
                            circulant_2m, complete_bipartite_k2m,
                            complete_multipartite, cycle_graph,
                            double_cone_cycles, double_cone_over,
                            generalized_path, parse_graph, prism_graph)
from tests_hutil import format_graph

# the octahedron as drawn in the motivating figures (6 vertices, 12 edges)
FIGURE_OCTAHEDRON = [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3),
                     (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]


def test_single_edge():
    g = build_graph([(0, 1)], 2)
    assert g.num_arcs == 2
    assert g.arcs == ((0, 1), (1, 0))


def test_figure_octahedron_arc_count():
    g = build_graph(FIGURE_OCTAHEDRON, 6)
    assert g.n == 6 and g.num_arcs == 24


def test_disconnected_rejected():
    with pytest.raises(GraphError):
        build_graph([(0, 1), (2, 3)], 4)


def test_too_few_edges_refused_before_allocating():
    """A graph with fewer than n - 1 distinct edges cannot be connected: the
    two-line file ``n 200000`` / ``0 1`` is refused with the usual message
    and a peak under 1 MB, not after n neighbour sets.  Enough edges that
    still leave a vertex out go through the traversal and get the same
    message."""
    import tracemalloc

    tracemalloc.start()
    try:
        for build in (lambda: build_graph([(0, 1), (1, 0), (0, 1)], 200_000),
                      lambda: parse_graph("n 200000\n0 1\n")):
            with pytest.raises(GraphError, match="^graph is disconnected$"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(GraphError, match="^graph is disconnected$"):
        build_graph([(0, 1), (1, 2), (0, 2)], 4)


def test_loop_rejected():
    with pytest.raises(GraphError):
        build_graph([(0, 0)], 1)


def test_vertex_out_of_range():
    with pytest.raises(GraphError):
        build_graph([(0, 5)], 3)


def test_duplicate_edges_dedup():
    g = build_graph([(0, 1), (1, 0), (0, 1)], 2)
    assert len(g.edges) == 1


def test_arc_reverse_involution():
    g = circulant_2m(4, 1, 3)[0]
    rev = [g.arc_index[(v, u)] for u, v in g.arcs]
    for i in range(g.num_arcs):
        assert rev[rev[i]] == i
    assert sorted(g.arc_index.values()) == list(range(g.num_arcs))


def test_sigma_ascending():
    g = build_graph(FIGURE_OCTAHEDRON, 6)
    for u in range(6):
        assert list(g.neighbors[u]) == sorted(g.neighbors[u])


def test_circulant_is_figure_octahedron():
    """Brute-force isomorphism oracle on 6 vertices."""
    g, a, b = circulant_2m(3, 1, 2)
    assert (a, b) == (0, 3)
    target = {frozenset(e) for e in FIGURE_OCTAHEDRON}
    ours = {frozenset(e) for e in g.edges}
    found = any({frozenset((p[u], p[v])) for u, v in ours} == target
                for p in itertools.permutations(range(6)))
    assert found


def test_circulant_regular():
    for m, c, d in [(3, 1, 2), (4, 1, 3), (5, 2, 3), (6, 1, 5)]:
        g, a, b = circulant_2m(m, c, d)
        assert all(g.degree(u) == 4 for u in range(g.n))
        assert (a, b) == (0, m)


def test_circulant_degenerate_rejected():
    with pytest.raises(GraphError):
        circulant_2m(3, 0, 3)
    with pytest.raises(GraphError):
        circulant_2m(4, 2, 2)


def test_k2m_marked_degrees():
    for m in (1, 2, 5):
        g, a, b = complete_bipartite_k2m(m)
        assert g.degree(a) == m and g.degree(b) == m
        assert g.n == m + 2


def test_gp_counts():
    for k, n in [(1, 3), (2, 4), (3, 5), (4, 6)]:
        g, a, b = generalized_path(k, n)
        assert g.n == k * (n - 2) + 2
        assert len(g.edges) == k * (n - 1)
        assert g.degree(a) == k and g.degree(b) == k


def test_gp_1_3_is_path():
    g, a, b = generalized_path(1, 3)
    assert g.n == 3 and len(g.edges) == 2
    assert g.degree(a) == 1 and g.degree(b) == 1


def test_double_cone_c4_is_octahedron():
    """Degree-sequence oracle: double cone over C4 must be 4-regular on 6."""
    g, a, b = double_cone_cycles([1])
    assert g.n == 6
    assert sorted(g.degree(u) for u in range(6)) == [4] * 6


def test_double_cone_conical_twins():
    g, a, b = double_cone_cycles([1, 2])
    assert g.neighbors[a] == g.neighbors[b]
    assert g.degree(a) == 12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_double_cone_over_one_cycle_is_double_cone_cycles(m):
    """A single cycle is a connected base, so both routes build its cone."""
    assert double_cone_cycles([m]) == double_cone_over(cycle_graph(4 * m))


def test_build_family_dispatch():
    g, a, b = build_family("gp", (2, 4))
    assert g.n == 6 and (a, b) == (0, 5)
    with pytest.raises(GraphError):
        build_family("nope", ())


def test_parse_format_roundtrip():
    g = prism_graph()
    again = parse_graph(format_graph(g))
    assert again.edges == g.edges and again.n == g.n


def test_parse_comments_and_errors():
    g = parse_graph("# header\nn 3\n0 1\n1 2  # chain\n")
    assert g.n == 3 and len(g.edges) == 2
    for text in ("0 1\n", "n 4 5\n0 1\n1 2\n2 3\n", "n 4 x\n0 1\n1 2\n2 3\n"):
        with pytest.raises(GraphError):
            parse_graph(text)


def test_prism_is_3_regular():
    g = prism_graph()
    assert all(g.degree(u) == 3 for u in range(6))


def test_cycle_graph():
    g = cycle_graph(5)
    assert all(g.degree(u) == 2 for u in range(5))
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_family_parameter_validation():
    with pytest.raises(GraphError):
        complete_bipartite_k2m(0)
    with pytest.raises(GraphError):
        generalized_path(0, 4)
    with pytest.raises(GraphError):
        generalized_path(2, 2)
    with pytest.raises(GraphError):
        double_cone_cycles([])
    with pytest.raises(GraphError):
        double_cone_cycles([0])


def test_arc_start_offsets():
    """arc_start[u] is the index of u's first outgoing arc and arc_start[n]
    the arc count, on graphs of uniform and of mixed degree."""
    graphs = [build_graph(FIGURE_OCTAHEDRON, 6), generalized_path(3, 5)[0],
              complete_bipartite_k2m(4)[0], double_cone_cycles([1, 2])[0],
              build_graph([(0, 1)], 2)]
    for g in graphs:
        assert len(g.arc_start) == g.n + 1
        for u in range(g.n):
            assert g.arc_start[u] == g.arc_index[(u, g.neighbors[u][0])]
            span = g.arcs[g.arc_start[u]:g.arc_start[u + 1]]
            assert span == tuple((u, v) for v in g.neighbors[u])
        assert g.arc_start[g.n] == g.num_arcs


def test_reversal_is_the_arc_involution():
    """reversal[i] is the index of the reverse of arc i, so it is an
    involution, on every family and on 50 seeded random graphs."""
    graphs = [build_graph([(0, 1)], 2), build_graph(FIGURE_OCTAHEDRON, 6),
              complete_bipartite_k2m(4)[0], circulant_2m(7, 2, 5)[0],
              double_cone_cycles([1, 2])[0], generalized_path(3, 5)[0],
              double_cone_over(prism_graph())[0], cycle_graph(5), prism_graph(),
              complete_multipartite([1, 2, 3])]
    graphs += [random_instance(seed)[0] for seed in range(50)]
    for g in graphs:
        rev = g.reversal
        assert len(rev) == g.num_arcs
        for i, (u, v) in enumerate(g.arcs):
            assert rev[rev[i]] == i
            assert g.arcs[rev[i]] == (v, u)


def test_arc_storage_is_ints_per_arc():
    """circulant(3000,1,2999), 12000 arcs, built with its reversal retains at
    most 150 B per arc: no arc tuple or arc dict is built until read."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = circulant_2m(3000, 1, 2999)[0]
        g.reversal
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert "arcs" not in g.__dict__ and "arc_index" not in g.__dict__
    assert retained <= 150 * g.num_arcs, retained / g.num_arcs
