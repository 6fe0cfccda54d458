"""Small graph constructions shared by a few test modules, and the writer of
the graph text format that ``sstwalk.graphs.parse_graph`` reads."""

from sstwalk.graphs import Graph, build_graph


def format_graph(g: Graph) -> str:
    out = [f"n {g.n}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(outer + inner + spokes, 10)
