import numpy as np
import pytest

from qemc.errors import (
    ConfigError,
    DuplicateEdge,
    InvalidBlueCount,
    InvalidCount,
    InvalidDegree,
    ParseError,
    RuntimeFailure,
    SelfLoop,
    SizeMismatch,
    TooLarge,
)
from qemc.graphs import (
    Graph,
    Partition,
    complete_bipartite_graph,
    complete_graph,
    cut_value,
    exhaustive_maxcut,
    generate_regular,
    parse_edge_list,
    random_star_partition,
    read_edge_list_file,
    write_edge_list,
)

from conftest import brute_force_maxcut, random_graph


class TestGraphConstruction:
    def test_canonical_orientation(self):
        g = Graph.from_edges(3, [(2, 0), (1, 2)])
        assert g.edges == [(0, 2, 1.0), (1, 2, 1.0)]

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            Graph.from_edges(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdge):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ConfigError, match="edge weights must be finite"):
            Graph(4, [0, 1], [1, 2], [1.0, weight])
        with pytest.raises(ConfigError, match="edge weights must be finite"):
            Graph.from_edges(4, [(0, 1, weight), (1, 2), (2, 3), (0, 3)])

    @pytest.mark.parametrize("build", [
        lambda: Graph(0, [], [], []),
        lambda: Graph(3, [0, 1], [1], [1.0]),
        lambda: Graph(3, [1], [0], [1.0]),
        lambda: Partition(np.zeros((2, 2))),
        lambda: Partition(np.array([0, 2])),
    ], ids=["no-nodes", "ragged-edges", "u-above-v", "2-d-colors", "bad-color"])
    def test_invariants_raise_config_error(self, build):
        with pytest.raises(ConfigError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: complete_graph(2.5),
        lambda: complete_graph(np.float64(4.0)),
        lambda: complete_graph(-3),
        lambda: complete_bipartite_graph(1.5, 2),
        lambda: complete_bipartite_graph(2, 2.0),
        lambda: complete_bipartite_graph(-1, 3),
        lambda: complete_bipartite_graph(3, -1),
    ], ids=["K-float", "K-numpy-float", "K-negative", "Kab-float-left",
            "Kab-float-right", "Kab-negative-left", "Kab-negative-right"])
    def test_complete_graph_counts_checked(self, build):
        with pytest.raises(InvalidCount):
            build()

    def test_equality_and_immutability(self, k4):
        assert k4 == complete_graph(4)
        assert k4 != complete_graph(5)
        with pytest.raises(ValueError):
            k4.edge_w[0] = 3.0


class TestIsConnected:
    @pytest.mark.parametrize("num_nodes,edges,connected", [
        (1, [], True),
        (3, [], False),
        (3, [(0, 1)], False),
        (2, [(0, 1, 0.0)], True),
        (4, [(0, 1), (2, 3)], False),
        (5, [(3, 4), (2, 3), (1, 2), (0, 1)], True),
        (4, [(1, 2), (0, 3, -1.0), (2, 3)], True),
    ], ids=["one-node", "edgeless", "isolated-node", "zero-weight-edge",
            "two-components", "path", "negative-weight-edge"])
    def test_reachability(self, num_nodes, edges, connected):
        assert Graph.from_edges(num_nodes, edges).is_connected() is connected


class TestGenerateRegular:
    def test_k4_is_unique_3_regular_on_4_nodes(self):
        for seed in (0, 1, 99):
            g = generate_regular(4, 3, seed)
            assert g == complete_graph(4)
            assert g.num_edges == 6

    def test_odd_parity_rejected(self):
        with pytest.raises(InvalidDegree):
            generate_regular(5, 3, seed=0)

    def test_degree_bound_rejected(self):
        with pytest.raises(InvalidDegree):
            generate_regular(4, 4, seed=0)

    def test_handshake_lemma_16_9(self):
        g = generate_regular(16, 9, seed=7)
        assert g.num_edges == 16 * 9 // 2

    @pytest.mark.parametrize("num_nodes,degree", [(8, 3), (10, 4), (16, 9), (30, 3)])
    def test_degree_invariant_every_node(self, num_nodes, degree):
        for seed in range(3):
            g = generate_regular(num_nodes, degree, seed)
            assert np.all(g.degrees() == degree)
            assert g.is_connected()

    def test_deterministic_per_seed(self):
        assert generate_regular(20, 3, seed=5) == generate_regular(20, 3, seed=5)

    def test_seeds_differ(self):
        graphs = {tuple(generate_regular(20, 3, seed=s).edges) for s in range(5)}
        assert len(graphs) > 1


class TestCutValue:
    def test_k4_balanced_split_cuts_4(self, k4):
        part = Partition(np.array([1, 1, 0, 0], dtype=np.uint8))
        assert cut_value(k4, part) == 4

    def test_all_white_cuts_zero(self, k4):
        assert cut_value(k4, Partition(np.zeros(4, dtype=np.uint8))) == 0

    def test_weighted_single_edge(self):
        g = Graph.from_edges(2, [(0, 1, 2.5)])
        assert cut_value(g, Partition(np.array([1, 0], dtype=np.uint8))) == 2.5

    def test_size_mismatch(self, k4):
        with pytest.raises(SizeMismatch):
            cut_value(k4, Partition(np.zeros(3, dtype=np.uint8)))

    def test_invariant_under_global_flip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_graph(8, 0.4, rng)
            part = Partition(rng.integers(0, 2, size=8).astype(np.uint8))
            assert cut_value(g, part) == cut_value(g, part.flipped())


class TestExhaustiveMaxcut:
    def test_k4(self, k4):
        cut_star, part = exhaustive_maxcut(k4)
        assert cut_star == 4
        assert cut_value(k4, part) == 4

    def test_triangle(self, triangle):
        cut_star, _ = exhaustive_maxcut(triangle)
        assert cut_star == 2

    def test_k33_matches_brute_force(self, k33):
        cut_star, part = exhaustive_maxcut(k33)
        assert cut_star == brute_force_maxcut(k33) == 9
        assert cut_value(k33, part) == 9

    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(9, 0.5, rng)
            cut_star, part = exhaustive_maxcut(g)
            assert cut_star == brute_force_maxcut(g)
            assert cut_value(g, part) == cut_star

    def test_dominates_random_partitions(self):
        rng = np.random.default_rng(4)
        g = random_graph(12, 0.35, rng)
        cut_star, _ = exhaustive_maxcut(g)
        for i in range(1000):
            part = Partition(rng.integers(0, 2, size=12).astype(np.uint8))
            assert cut_value(g, part) <= cut_star

    def test_bipartite_cuts_everything(self):
        for left, right in [(2, 3), (3, 3), (4, 5)]:
            g = complete_bipartite_graph(left, right)
            cut_star, _ = exhaustive_maxcut(g)
            assert cut_star == g.total_weight

    @pytest.mark.filterwarnings("error")
    def test_overflowing_optimum_is_a_runtime_failure(self):
        g = Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
        with pytest.raises(RuntimeFailure, match="best cut is not finite"):
            exhaustive_maxcut(g)

    @pytest.mark.filterwarnings("error")
    def test_large_finite_optimum(self):
        g = Graph.from_edges(3, [(0, 1, 5e307), (1, 2, 5e307), (0, 2, 5e307)])
        assert exhaustive_maxcut(g)[0] == 1e308

    def test_weighted(self):
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
        cut_star, _ = exhaustive_maxcut(g)
        assert cut_star == 7.0  # isolate node 2

    def test_cap_enforced(self):
        g = complete_graph(6)
        with pytest.raises(TooLarge):
            exhaustive_maxcut(g, node_cap=5)


class TestRandomStarPartition:
    def test_exact_blue_count(self):
        part = random_star_partition(8, 4, seed=0)
        assert part.blue_count == 4
        assert part.num_nodes == 8

    def test_all_blue_forced(self):
        assert random_star_partition(5, 5, seed=1).blue_count == 5

    def test_deterministic(self):
        assert random_star_partition(4, 1, seed=9) == random_star_partition(4, 1, seed=9)

    def test_invalid_counts(self):
        with pytest.raises(InvalidBlueCount):
            random_star_partition(4, 0, seed=0)
        with pytest.raises(InvalidBlueCount):
            random_star_partition(4, 5, seed=0)

    def test_spread_over_nodes(self):
        seen = set()
        for seed in range(30):
            seen.update(random_star_partition(6, 2, seed=seed).blue_nodes())
        assert seen == set(range(6))


class TestEdgeListFormat:
    def test_basic_parse(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.edge_w.tolist() == [1.0, 1.0]

    def test_self_loop_error(self):
        with pytest.raises(SelfLoop):
            parse_edge_list("0 0\n")

    def test_duplicate_error_reports_line(self):
        with pytest.raises(DuplicateEdge) as info:
            parse_edge_list("0 1\n1 0\n")
        assert info.value.line_number == 2

    def test_bad_token_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_edge_list("0 1\n# fine\nx y\n")
        assert info.value.line_number == 3

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_weight_reports_line(self, token):
        with pytest.raises(ParseError) as info:
            parse_edge_list(f"0 1\n1 2 {token}\n")
        assert info.value.line_number == 2

    def test_comments_and_header(self):
        g = parse_edge_list("# a comment\nN 5\n0 1\n")
        assert g.num_nodes == 5
        assert g.num_edges == 1

    def test_header_too_small(self):
        with pytest.raises(ParseError):
            parse_edge_list("N 2\n0 3\n")

    def test_header_after_edges_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1\nN 4\n")

    def test_round_trip_k4(self, k4):
        assert parse_edge_list(write_edge_list(k4)) == k4
        assert len(write_edge_list(k4).splitlines()) == 6  # no header needed

    def test_round_trip_weighted(self):
        g = Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 2.0)])
        assert parse_edge_list(write_edge_list(g)) == g

    def test_round_trip_isolated_nodes(self):
        g = Graph.from_edges(6, [(0, 1)])
        text = write_edge_list(g)
        assert text.splitlines()[0] == "N 6"
        assert parse_edge_list(text) == g

    def test_empty_needs_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("# nothing\n")

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        with pytest.raises(ParseError, match="is not UTF-8 text"):
            read_edge_list_file(path)
