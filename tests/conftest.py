import numpy as np
import pytest

from qemc.graphs import Graph, complete_bipartite_graph, complete_graph


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k33() -> Graph:
    return complete_bipartite_graph(3, 3)


def brute_force_maxcut(graph: Graph) -> float:
    """Independent oracle: enumerate every coloring with plain Python."""
    best = 0.0
    for mask in range(1 << graph.num_nodes):
        cut = 0.0
        for u, v, w in graph.edges:
            if ((mask >> u) & 1) != ((mask >> v) & 1):
                cut += w
        best = max(best, cut)
    return best


def reference_maxcut(graph: Graph) -> tuple[float, np.ndarray]:
    """Reference for ``exhaustive_maxcut``: the first best cut in mask order (bit
    k - 1 of the mask colors node k > 0; node 0 is white) and its colors, with
    every mask's cut summed edge by edge, in edge order."""
    n = graph.num_nodes
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    acc = np.zeros(masks.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w):
            bu = (masks >> (u - 1)) & 1 if u > 0 else np.zeros(masks.size, dtype=masks.dtype)
            bv = (masks >> (v - 1)) & 1
            acc += w * (bu != bv)
    best = int(np.argmax(acc))
    return float(acc[best]), ((best << 1) >> np.arange(n)) & 1


def random_graph(num_nodes: int, edge_prob: float, rng: np.random.Generator) -> Graph:
    edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)
             if rng.random() < edge_prob]
    if not edges:
        edges = [(0, 1)]
    return Graph.from_edges(num_nodes, edges)
