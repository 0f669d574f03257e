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
from qemc.errors import ConfigError, InvalidCount, RuntimeFailure, SizeMismatch
from qemc.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cut_value,
    exhaustive_maxcut,
    generate_regular,
)
from qemc.seeding import derive_seed


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

    @pytest.mark.parametrize("max_iterations", [0, 2, 5000])
    def test_relaxation_value_is_the_edgewise_objective(self, max_iterations):
        rng = np.random.default_rng(max_iterations)
        for sign in ("positive", "mixed"):
            for _ in range(5):
                n = int(rng.integers(3, 12))
                edges = [(u, v, float(rng.uniform(0.1, 2.0)) if sign == "positive"
                          else float(rng.choice([-1.5, 0.0, 0.7, 2.0])))
                         for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
                g = Graph.from_edges(n, edges or [(0, 1, 1.0)])
                result = gw_solve(g, max_iterations=max_iterations,
                                  seed=int(rng.integers(1 << 30)))
                vec = result.embedding.vectors
                inner = np.sum(vec[g.edge_u] * vec[g.edge_v], axis=1)
                expected = 0.5 * float(np.sum(g.edge_w * (1.0 - inner)))
                assert result.relaxation_value == pytest.approx(expected, rel=1e-9,
                                                                abs=1e-12)
                assert result.converged == (max_iterations == 5000)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("max_iterations", [0, 5000])
    def test_overflowing_objective_is_a_runtime_failure(self, max_iterations):
        g = Graph.from_edges(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
        with pytest.raises(RuntimeFailure, match="objective is not finite at iteration 0"):
            gw_solve(g, max_iterations=max_iterations)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gradient_is_a_runtime_failure(self):
        # the objective is finite, but the squared gradient norm overflows
        g = Graph.from_edges(4, [(0, 1, 1e200), (1, 2, 1e200), (0, 2, -1e200),
                                 (2, 3, 1e200)])
        with pytest.raises(RuntimeFailure,
                           match="gradient norm is not finite at iteration 0"):
            gw_solve(g)

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

    def test_every_trial_equals_composition(self):
        g = generate_regular(12, 3, seed=5)
        cuts = gw(g, trials=3, seed=3, num_hyperplanes=2)
        for k in range(3):
            solved = gw_solve(g, seed=derive_seed(3, "gw", k, "solve"))
            best, _ = gw_round(solved.embedding, g, num_hyperplanes=2,
                               seed=derive_seed(3, "gw", k, "round"))
            assert cuts[k] == best

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
