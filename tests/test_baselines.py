import numpy as np
import pytest

from qemc.baselines import (
    Embedding,
    default_rank,
    gw,
    gw_round,
    gw_solve,
    random_star_cuts,
)
from qemc.errors import ConfigError, InvalidCount, SizeMismatch
from qemc.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cut_value,
    exhaustive_maxcut,
    generate_regular,
)


class TestEmbedding:
    def test_rows_must_be_unit(self):
        with pytest.raises(ConfigError, match="unit norm"):
            Embedding(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rows_must_form_a_matrix(self):
        with pytest.raises(ConfigError, match="2-D"):
            Embedding(np.array([1.0, 0.0]))

    def test_default_rank(self):
        assert default_rank(8) == 5
        assert default_rank(256) == 24


class TestGwSolve:
    def test_single_edge_antipodal(self):
        g = Graph.from_edges(2, [(0, 1)])
        result = gw_solve(g, seed=0)
        assert result.relaxation_value == pytest.approx(1.0, abs=1e-6)
        assert result.converged

    def test_triangle_value(self, triangle):
        result = gw_solve(triangle, seed=1)
        assert result.relaxation_value == pytest.approx(2.25, abs=1e-4)

    def test_k4_relaxes_above_maxcut(self, k4):
        result = gw_solve(k4, seed=2)
        assert result.relaxation_value >= 4.0 - 1e-9

    def test_unit_rows(self, k4):
        result = gw_solve(k4, seed=3)
        norms = np.linalg.norm(result.embedding.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-8)

    def test_iteration_cap_is_soft(self, k4):
        result = gw_solve(k4, max_iterations=2, seed=4)
        assert not result.converged
        assert result.iterations == 2
        assert np.isfinite(result.relaxation_value)

    def test_rank_validated(self, k4):
        with pytest.raises(ConfigError, match="rank must be >= 2"):
            gw_solve(k4, rank=1)
        for rank in (2.5, "3"):
            with pytest.raises(InvalidCount, match="rank must be an integer"):
                gw_solve(k4, rank=rank)
        assert gw_solve(k4, rank=np.int64(3), max_iterations=2).embedding.rank == 3

    def test_deterministic(self, k4):
        a = gw_solve(k4, seed=5)
        b = gw_solve(k4, seed=5)
        assert np.array_equal(a.embedding.vectors, b.embedding.vectors)

    def test_relaxation_dominates_roundings(self):
        # Slack covers solver convergence: a run stopped at gradient tolerance
        # can sit marginally below an integral optimum it has matched.
        flagged = 0
        for trial in range(20):
            g = generate_regular(10, 3, seed=trial)
            solved = gw_solve(g, seed=trial)
            best, _ = gw_round(solved.embedding, g, num_hyperplanes=100, seed=trial)
            if solved.relaxation_value < best - 1e-6:
                flagged += 1
        assert flagged == 0


class TestGwRound:
    def test_antipodal_edge_always_cut(self):
        g = Graph.from_edges(2, [(0, 1)])
        embedding = Embedding(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        for seed in range(10):
            best, part = gw_round(embedding, g, num_hyperplanes=1, seed=seed)
            assert best == 1.0
            assert part.colors[0] != part.colors[1]

    def test_k4_best_of_100_reaches_optimum(self, k4):
        solved = gw_solve(k4, seed=7)
        best, part = gw_round(solved.embedding, k4, num_hyperplanes=100, seed=8)
        assert best == 4.0
        assert cut_value(k4, part) == 4.0

    def test_deterministic(self, k4):
        solved = gw_solve(k4, seed=9)
        a = gw_round(solved.embedding, k4, num_hyperplanes=20, seed=10)
        b = gw_round(solved.embedding, k4, num_hyperplanes=20, seed=10)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_negated_embedding_flips_partition(self, triangle):
        solved = gw_solve(triangle, seed=11)
        vectors = solved.embedding.vectors
        cut_a, part_a = gw_round(Embedding(vectors), triangle, 1, seed=12)
        cut_b, part_b = gw_round(Embedding(-vectors), triangle, 1, seed=12)
        assert cut_a == cut_b
        assert part_b == part_a.flipped()

    def test_num_hyperplanes_validated(self, k4):
        solved = gw_solve(k4, seed=13)
        with pytest.raises(InvalidCount):
            gw_round(solved.embedding, k4, num_hyperplanes=0)

    def test_node_count_validated(self, k4):
        solved = gw_solve(k4, seed=13)
        with pytest.raises(SizeMismatch):
            gw_round(solved.embedding, complete_graph(5))

    def test_bipartite_full_cut(self):
        for left, right in [(3, 3), (4, 4), (5, 6)]:
            g = complete_bipartite_graph(left, right)
            solved = gw_solve(g, seed=left)
            best, _ = gw_round(solved.embedding, g, num_hyperplanes=100, seed=right)
            assert best == g.total_weight


class TestGwTrials:
    def test_k4_ten_trials_all_optimal(self, k4):
        cuts = gw(k4, trials=10, seed=0)
        assert max(cuts) == 4.0
        assert len(cuts) == 10

    def test_single_trial_equals_composition(self, k4):
        from qemc.seeding import derive_seed
        cuts = gw(k4, trials=1, seed=3)
        solved = gw_solve(k4, seed=derive_seed(3, "gw", 0, "solve"))
        best, _ = gw_round(solved.embedding, k4, num_hyperplanes=100,
                           seed=derive_seed(3, "gw", 0, "round"))
        assert cuts == [best]

    def test_regular_16_beats_approximation_bound(self):
        g = generate_regular(16, 3, seed=7)
        cut_star, _ = exhaustive_maxcut(g)
        cuts = gw(g, trials=10, seed=1)
        assert max(cuts) / cut_star >= 0.878

    def test_trials_validated(self, k4):
        with pytest.raises(InvalidCount):
            gw(k4, trials=0)


class TestRandomStarCuts:
    def test_balanced_k4_always_cuts_4(self, k4):
        # Every balanced partition of K4 cuts exactly 4 edges.
        assert random_star_cuts(k4, trials=20, seed=0) == [4.0] * 20

    def test_deterministic_and_bounded(self):
        g = generate_regular(10, 3, seed=2)
        cut_star, _ = exhaustive_maxcut(g)
        cuts = random_star_cuts(g, trials=50, seed=3)
        assert cuts == random_star_cuts(g, trials=50, seed=3)
        assert all(0 <= c <= cut_star for c in cuts)

    def test_explicit_blue_count(self, k4):
        cuts = random_star_cuts(k4, trials=10, seed=1, blue_count=1)
        assert cuts == [3.0] * 10  # any 1-vs-3 split of K4 cuts 3 edges

    def test_trials_validated(self, k4):
        with pytest.raises(InvalidCount, match="trials must be >= 1"):
            random_star_cuts(k4, trials=0)
