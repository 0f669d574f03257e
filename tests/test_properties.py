"""Property tests: the edge-list round-trip, the decode/cost invariants and
the uniqueness of the GW relaxation's optimum that ``baselines.gw`` rests on.

Examples are capped and derandomized, so the module runs in a few seconds
and draws the same examples on every run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qemc.baselines import gw_solve
from qemc.core import EncodingConfig, cost, cost_gradient_wrt_probs, decode
from qemc.graphs import Graph, generate_regular, parse_edge_list, write_edge_list

_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

_WEIGHTS = st.one_of(st.just(1.0),
                     st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def graphs(draw, weights=_WEIGHTS, min_nodes=1, max_nodes=12):
    """A graph on 1..12 nodes with any subset of edges and any finite weights."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(num_nodes, [(u, v, draw(weights)) for u, v in chosen])


@st.composite
def instances(draw):
    """A graph with non-negative weights, an encoding for it and a histogram
    padded to the next power of two, as the simulator returns it."""
    graph = draw(graphs(weights=st.floats(0.0, 10.0), min_nodes=2))
    encoding = EncodingConfig(draw(st.integers(1, graph.num_nodes // 2)),
                              graph.num_nodes)
    dim = 1 << (graph.num_nodes - 1).bit_length()
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    probs = raw / raw.sum() if raw.sum() > 0 else np.full(dim, 1.0 / dim)
    return graph, encoding, probs


class TestEdgeListRoundTrip:
    @_SETTINGS
    @given(graphs())
    def test_parse_inverts_write(self, graph):
        assert parse_edge_list(write_edge_list(graph)) == graph

    @_SETTINGS
    @given(graphs(), st.randoms(use_true_random=False))
    def test_line_order_and_orientation_do_not_matter(self, graph, rnd):
        lines = write_edge_list(graph).splitlines()
        header = [l for l in lines if l.startswith("N ")]
        edges = [l.split() for l in lines if not l.startswith("N ")]
        rnd.shuffle(edges)
        flipped = [" ".join([e[1], e[0]] + e[2:]) if rnd.random() < 0.5 else " ".join(e)
                   for e in edges]
        text = "\n".join(["# comment", ""] + header + flipped) + "\n"
        parsed = parse_edge_list(text)
        # Edges are stored in the order they are read, so compare them as a set.
        assert parsed.num_nodes == graph.num_nodes
        assert sorted(parsed.edges) == sorted(graph.edges)


class TestDecodeAndCost:
    @_SETTINGS
    @given(instances())
    def test_cost_is_non_negative(self, instance):
        graph, encoding, probs = instance
        assert cost(probs, graph, encoding) >= 0.0

    @_SETTINGS
    @given(instances(), st.data())
    def test_blue_iff_strictly_above_threshold(self, instance, data):
        graph, encoding, probs = instance
        t = encoding.threshold
        # Put some entries exactly at the threshold and next to it on either side.
        picks = data.draw(st.lists(st.sampled_from([t, np.nextafter(t, 0.0),
                                                    np.nextafter(t, 1.0)]),
                                   min_size=graph.num_nodes, max_size=graph.num_nodes))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=graph.num_nodes,
                                           max_size=graph.num_nodes)))
        probs = probs.copy()
        probs[:graph.num_nodes][mask] = np.array(picks)[mask]
        colors = decode(probs, encoding).colors
        assert np.array_equal(colors, probs[:graph.num_nodes] > t)
        assert not colors[probs[:graph.num_nodes] == t].any()

    @_SETTINGS
    @given(instances(), st.data())
    def test_padding_is_ignored(self, instance, data):
        graph, encoding, probs = instance
        padded = probs.copy()
        padded[graph.num_nodes:] = data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=padded.size - graph.num_nodes,
            max_size=padded.size - graph.num_nodes))
        assert decode(padded, encoding) == decode(probs, encoding)
        assert cost(padded, graph, encoding) == cost(probs, graph, encoding)
        grad = cost_gradient_wrt_probs(padded, graph, encoding)
        assert np.array_equal(grad, cost_gradient_wrt_probs(probs, graph, encoding))
        assert not grad[graph.num_nodes:].any()


class TestGwRelaxationOptimum:
    """``gw`` solves once per call because every start reaches the same optimum.

    Degrees start at 4: some sparse 3-regular graphs have a non-unique optimum
    (10 of 90 graphs with N = 16, 32, 64 and graph seeds 0-29 reached Gram
    matrices 0.04-0.35 apart from three starts, at equal values), and there a
    call's trials share the optimum its one solve found.
    """

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([16, 32, 64]), st.integers(4, 9), st.integers(0, 2**32 - 1))
    def test_every_start_reaches_one_optimum(self, num_nodes, degree, graph_seed):
        graph = generate_regular(num_nodes, degree, seed=graph_seed)
        solves = [gw_solve(graph, seed=seed) for seed in (0, 1, 2)]
        grams = [s.embedding.vectors @ s.embedding.vectors.T for s in solves]
        for solved, gram in zip(solves[1:], grams[1:]):
            assert solved.relaxation_value == pytest.approx(solves[0].relaxation_value,
                                                            rel=1e-9)
            np.testing.assert_allclose(gram, grams[0], rtol=0, atol=1e-4)
