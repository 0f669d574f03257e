import threading

import numpy as np
import pytest

from qemc.core import (
    EncodingConfig,
    OptimizerConfig,
    cost,
    cost_gradient_params,
    cost_gradient_wrt_probs,
    cut_ratio,
    decode,
    default_shots,
    rescaled_ratio,
    train,
)
from qemc.errors import (
    ConfigError,
    DegenerateDenominator,
    HistogramTooShort,
    InvalidBlueCount,
    RuntimeFailure,
    ShapeMismatch,
)
from qemc import core, simulator
from golden import WEIGHTED
from qemc.graphs import Graph, cut_value
from qemc.simulator import (
    ANALYTIC,
    PARAMETER_SHIFT,
    AnsatzConfig,
    probabilities,
    random_parameters,
)


def hist(values):
    return np.asarray(values, dtype=float)


class TestEncodingConfig:
    def test_threshold(self):
        assert EncodingConfig(2, 4).threshold == 0.25
        assert EncodingConfig(4, 8).threshold == 0.125

    def test_blue_count_range(self):
        with pytest.raises(InvalidBlueCount):
            EncodingConfig(0, 4)
        with pytest.raises(InvalidBlueCount):
            EncodingConfig(3, 4)  # the smaller set is designated blue

    def test_half(self):
        assert EncodingConfig.half(9).blue_count == 4


class TestOptimizerConfig:
    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan"), float("inf"), "0.1"])
    def test_step_size_positive_and_finite(self, step):
        with pytest.raises(ShapeMismatch):
            OptimizerConfig(step_size=step, max_iterations=1)

    @pytest.mark.parametrize(
        "counts",
        [dict(max_iterations=2.5), dict(max_iterations=2.0), dict(max_iterations="2"),
         dict(max_iterations=3, shots=3.5), dict(max_iterations=3, shots=np.float64(4))],
        ids=["iterations-fractional", "iterations-float", "iterations-str",
             "shots-fractional", "shots-numpy-float"])
    def test_counts_must_be_integral(self, counts):
        with pytest.raises(ShapeMismatch):
            OptimizerConfig(0.5, gradient_mode=PARAMETER_SHIFT, **counts)

    def test_numpy_integer_counts_accepted(self):
        config = OptimizerConfig(0.5, np.int64(3), shots=np.int32(8))
        assert (config.max_iterations, config.shots) == (3, 8)


class TestDecode:
    def test_two_high_entries(self):
        part = decode(hist([0.5, 0.5, 0.0, 0.0]), EncodingConfig(2, 4))
        assert part.blue_nodes() == [0, 1]

    def test_uniform_boundary_is_white(self):
        # p(k) equal to the threshold decodes white, not blue.
        part = decode(hist([0.25, 0.25, 0.25, 0.25]), EncodingConfig(2, 4))
        assert part.blue_count == 0

    def test_padding_ignored(self):
        part = decode(hist([0.6, 0.2, 0.1, 0.1]), EncodingConfig(1, 3))
        assert part.num_nodes == 3
        assert part.blue_nodes() == [0]

    def test_padding_values_irrelevant(self):
        enc = EncodingConfig(1, 3)
        a = decode(hist([0.3, 0.2, 0.1, 0.4]), enc)
        b = decode(hist([0.3, 0.2, 0.4, 0.1]), enc)
        assert a == b

    def test_too_short(self):
        with pytest.raises(HistogramTooShort):
            decode(hist([0.5, 0.5]), EncodingConfig(2, 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # A NaN entry used to compare False and colour its node white.
        with pytest.raises(ConfigError, match="probabilities must be finite"):
            decode(hist([bad, 1, 0, 0]), EncodingConfig(2, 4))

    def test_blue_set_grows_with_blue_count(self):
        # Larger B means a smaller threshold, hence a superset of blue nodes.
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(8))
            previous = set()
            for blue_count in range(1, 5):
                current = set(decode(hist(p), EncodingConfig(blue_count, 8)).blue_nodes())
                assert previous <= current
                previous = current


class TestCost:
    def test_ideal_edge_term_is_zero(self):
        # One endpoint at 0, the other at 1/B: both summands vanish.
        g = Graph.from_edges(4, [(0, 1)])
        enc = EncodingConfig(2, 4)
        assert cost(hist([0.0, 0.5, 0.25, 0.25]), g, enc) == pytest.approx(0.0)

    def test_both_zero_edge(self):
        g = Graph.from_edges(4, [(0, 1)])
        enc = EncodingConfig(2, 4)
        # d = 0, s = 0, 1/B = 0.5 -> (0-.5)^2 + (0-.5)^2
        assert cost(hist([0.0, 0.0, 0.5, 0.5]), g, enc) == pytest.approx(0.5)

    def test_k4_uniform(self, k4):
        value = cost(hist([0.25] * 4), k4, EncodingConfig(2, 4))
        assert value == pytest.approx(6 * 0.25)

    def test_non_negative(self, k4):
        rng = np.random.default_rng(1)
        enc = EncodingConfig(2, 4)
        for _ in range(200):
            assert cost(hist(rng.dirichlet(np.ones(4))), k4, enc) >= 0.0

    def test_weighted_edges_scale_terms(self):
        g = Graph.from_edges(4, [(0, 1, 3.0)])
        enc = EncodingConfig(2, 4)
        assert cost(hist([0.0, 0.0, 0.5, 0.5]), g, enc) == pytest.approx(1.5)

    @pytest.mark.parametrize("fn", [cost, cost_gradient_wrt_probs],
                             ids=["cost", "gradient"])
    def test_encoding_must_match_graph(self, k4, fn):
        with pytest.raises(ShapeMismatch, match="disagree on num_nodes"):
            fn(hist([0.25] * 4), k4, EncodingConfig(1, 3))

    @pytest.mark.parametrize("fn", [cost, cost_gradient_wrt_probs],
                             ids=["cost", "gradient"])
    def test_non_finite_distribution_rejected(self, k4, fn):
        with pytest.raises(ConfigError, match="probabilities must be finite"):
            fn([np.nan, 0.5, 0.25, 0.25], k4, EncodingConfig(2, 4))

    def test_zero_cost_implies_full_cut(self, k33):
        ideal = hist([1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0, 0])
        enc = EncodingConfig(3, 6)
        assert cost(ideal, k33, enc) == pytest.approx(0.0, abs=1e-12)
        part = decode(ideal, enc)
        assert cut_value(k33, part) == k33.total_weight


def add_at_gradient(probs, graph, blue_count):
    """Reference dC/dp: zeros, then one ``np.add.at`` pass over the ``u``
    endpoints' terms and one over the ``v`` endpoints' terms."""
    pj, pk = probs[graph.edge_u], probs[graph.edge_v]
    inv_b = 1.0 / blue_count
    diff = pj - pk
    d_term = 2.0 * (np.abs(diff) - inv_b) * np.sign(diff)
    s_term = 2.0 * (pj + pk - inv_b)
    grad = np.zeros(probs.size)
    np.add.at(grad, graph.edge_u, graph.edge_w * (d_term + s_term))
    np.add.at(grad, graph.edge_v, graph.edge_w * (-d_term + s_term))
    return grad


class TestCostGradient:
    @pytest.mark.parametrize("num_nodes,num_edges,dim", [
        (2, 1, 2), (5, 7, 8), (8, 20, 8), (12, 40, 16), (6, 0, 8)],
        ids=["one-edge", "padded-5", "dense-8", "padded-12", "edgeless"])
    def test_bincount_matches_add_at_bit_for_bit(self, num_nodes, num_edges, dim):
        rng = np.random.default_rng(num_nodes * 100 + num_edges)
        pairs = sorted({tuple(sorted(rng.choice(num_nodes, 2, replace=False)))
                        for _ in range(num_edges)})
        order = rng.permutation(len(pairs))     # edges in no particular order
        weights = rng.normal(size=len(pairs))
        weights[::3] = 0.0
        graph = Graph.from_edges(num_nodes, [(*pairs[i], weights[i]) for i in order])
        if graph.num_edges > 2:     # some node is a u endpoint and a v endpoint
            assert np.intersect1d(graph.edge_u, graph.edge_v).size
        for blue_count in sorted({1, num_nodes // 2}):
            probs = rng.dirichlet(np.ones(dim))
            probs[1] = probs[0]     # a tie takes the sign(0) = 0 branch
            got = cost_gradient_wrt_probs(probs, graph, EncodingConfig(blue_count, num_nodes))
            assert got.tobytes() == add_at_gradient(probs, graph, blue_count).tobytes()

    def test_uniform_histogram_formula(self, k4):
        # With equal probabilities the difference terms vanish (sign(0) = 0).
        enc = EncodingConfig(2, 4)
        grad = cost_gradient_wrt_probs(hist([0.25] * 4), k4, enc)
        expected = 3 * 2 * (0.5 - 0.5)  # degree * 2 * (s - 1/B) = 0 here
        assert np.allclose(grad, expected)
        enc1 = EncodingConfig(1, 4)
        grad = cost_gradient_wrt_probs(hist([0.25] * 4), k4, enc1)
        assert np.allclose(grad, 3 * 2 * (0.5 - 1.0))

    def test_zero_at_minimum(self):
        g = Graph.from_edges(4, [(0, 1)])
        grad = cost_gradient_wrt_probs(hist([0.0, 0.5, 0.25, 0.25]), g,
                                       EncodingConfig(2, 4))
        assert np.allclose(grad, 0.0)

    def test_padded_entries_zero(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        grad = cost_gradient_wrt_probs(hist([0.4, 0.3, 0.2, 0.1]), g,
                                       EncodingConfig(1, 3))
        assert grad.size == 4
        assert grad[3] == 0.0

    def test_matches_finite_differences(self, k4):
        rng = np.random.default_rng(2)
        enc = EncodingConfig(2, 4)
        h = 1e-7
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            if np.min(np.abs(p[k4.edge_u] - p[k4.edge_v])) < 1e-6:
                continue  # keep away from the |.| kink
            grad = cost_gradient_wrt_probs(hist(p), k4, enc)
            for j in range(4):
                up, down = p.copy(), p.copy()
                up[j] += h
                down[j] -= h
                fd = (cost(hist(up), k4, enc) - cost(hist(down), k4, enc)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_chain_rule_matches_finite_differences(self, k4):
        config = AnsatzConfig(2, 2)
        enc = EncodingConfig(2, 4)
        params = random_parameters(config, seed=3)
        grad = cost_gradient_params(k4, config, enc, params)
        h = 1e-5
        for i in range(config.num_parameters):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            fd = (cost(probabilities(config, up), k4, enc)
                  - cost(probabilities(config, down), k4, enc)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestTrain:
    def test_k4_reaches_optimum(self, k4):
        ansatz = AnsatzConfig(2, 1)
        enc = EncodingConfig(2, 4)
        for seed in range(3):
            record = train(k4, ansatz, enc,
                           OptimizerConfig(step_size=0.99, max_iterations=300,
                                           seed=seed))
            assert record.final_best_cut == 4.0

    def test_loop_checks_no_distribution(self, k4, monkeypatch):
        # train reaches the cost through _cost_terms, so its loop pays for no
        # public-entry check.
        optimizer = OptimizerConfig(0.5, 3, shots=16, gradient_mode=PARAMETER_SHIFT)
        calls = []
        monkeypatch.setattr(core, "check_finite", lambda *args: calls.append(args))
        train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4), optimizer)
        assert calls == []

    def test_zero_iterations(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=0))
        assert record.iterations_executed == 0
        assert record.costs.size == 0
        assert record.final_best_cut == 0.0

    def test_deterministic_replay(self, k4):
        cfg = OptimizerConfig(step_size=0.9, max_iterations=40, seed=11)
        a = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4), cfg)
        b = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4), cfg)
        assert np.array_equal(a.costs, b.costs)
        assert np.array_equal(a.cuts, b.cuts)
        assert np.array_equal(a.final_params, b.final_params)
        assert a.counters == b.counters

    def test_best_so_far_monotone(self, k4):
        record = train(k4, AnsatzConfig(2, 2), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.3, max_iterations=60, seed=4))
        assert np.all(np.diff(record.best_cuts) >= 0)
        assert np.all(record.best_cuts >= record.cuts)

    def test_one_forward_pass_per_analytic_iteration(self, k4, monkeypatch):
        runs = []
        real_run = simulator._run
        monkeypatch.setattr(simulator, "_run",
                            lambda *args: runs.append(1) or real_run(*args))
        monkeypatch.setattr(simulator, "_workspaces", threading.local())
        train(k4, AnsatzConfig(2, 2), EncodingConfig(2, 4),
              OptimizerConfig(step_size=0.5, max_iterations=10, seed=0))
        assert len(runs) == 10

    def test_one_forward_pass_per_sampled_analytic_iteration(self, k4, monkeypatch):
        runs = []
        real_run = simulator._run
        monkeypatch.setattr(simulator, "_run",
                            lambda *args: runs.append(1) or real_run(*args))
        monkeypatch.setattr(simulator, "_workspaces", threading.local())
        train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
              OptimizerConfig(step_size=0.5, max_iterations=10, shots=64, seed=0))
        assert len(runs) == 10

    def test_exact_shift_trains_as_analytic(self, k4):
        # The golden corpus's exact runs, and a deeper circuit on K4.
        for graph, ansatz, encoding in [(WEIGHTED, AnsatzConfig(3, 2), EncodingConfig(3, 6)),
                                        (k4, AnsatzConfig(2, 4), EncodingConfig(2, 4))]:
            analytic, shift = (
                train(graph, ansatz, encoding,
                      OptimizerConfig(0.3, 30, gradient_mode=mode, seed=2718))
                for mode in (ANALYTIC, PARAMETER_SHIFT))
            for field in ("costs", "cuts", "best_cuts", "final_params"):
                assert getattr(shift, field).tobytes() == getattr(analytic, field).tobytes()
            assert analytic.counters.circuit_executions == 30
            assert shift.counters.circuit_executions == 30 * (1 + 2 * ansatz.num_parameters)

    def test_one_reverse_sweep_per_exact_shift_iteration(self, k4, monkeypatch):
        calls = []
        for name in ("_vjp", "_tangents"):
            real = getattr(simulator, name)
            monkeypatch.setattr(simulator, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        train(k4, AnsatzConfig(2, 2), EncodingConfig(2, 4),
              OptimizerConfig(step_size=0.5, max_iterations=10,
                              gradient_mode=PARAMETER_SHIFT, seed=0))
        assert calls == ["_vjp"] * 10

    @pytest.mark.parametrize("mode,shots", [
        ("analytic", None), ("analytic", 32), (PARAMETER_SHIFT, None), (PARAMETER_SHIFT, 32)],
        ids=["analytic", "analytic-shots", "shift", "shift-shots"])
    def test_rotations_built_once_per_step(self, k4, monkeypatch, mode, shots):
        # Once for the circuit, which the gradient reuses: parameter shift
        # starts its tangent rows from the same rotations' generators.
        calls = []
        real_rotations = simulator._rotations
        monkeypatch.setattr(simulator, "_rotations",
                            lambda *args: calls.append(1) or real_rotations(*args))
        for num_layers in (1, 5):
            monkeypatch.setattr(simulator, "_workspaces", threading.local())
            calls.clear()
            train(k4, AnsatzConfig(2, num_layers), EncodingConfig(2, 4),
                  OptimizerConfig(step_size=0.5, max_iterations=4, shots=shots,
                                  gradient_mode=mode, seed=0))
            assert len(calls) == 4

    def test_counters_analytic_exact(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=25, seed=0))
        assert record.counters.circuit_executions == 25
        assert record.counters.shots_total == 0

    def test_counters_parameter_shift_shots(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=4, shots=32,
                                       gradient_mode=PARAMETER_SHIFT, seed=0))
        per_iter = 1 + 2 * 6
        assert record.counters.circuit_executions == 4 * per_iter
        assert record.counters.shots_total == 4 * per_iter * 32

    def test_shot_mode_trains(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.9, max_iterations=60,
                                       shots=default_shots(4),
                                       gradient_mode=PARAMETER_SHIFT, seed=1))
        assert record.final_best_cut == 4.0
        assert record.counters.shots_total > 0

    def test_qubit_count_checked(self, k4):
        with pytest.raises(ShapeMismatch):
            train(k4, AnsatzConfig(3, 1), EncodingConfig(2, 4),
                  OptimizerConfig(step_size=0.5, max_iterations=1))

    def test_json_schema(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=3, seed=2))
        payload = record.to_json_dict()
        assert set(payload) == {"config", "seed", "iterations", "final_params",
                                "counters"}
        assert len(payload["iterations"]) == 3
        assert set(payload["iterations"][0]) == {"cost", "cut", "best_cut"}
        assert set(payload["counters"]) == {"circuit_executions", "shots_total",
                                            "gate_applications"}


@pytest.mark.filterwarnings("error")
class TestNonFiniteTraining:
    """Overflow ends ``train`` at the iteration it happens, and the public
    gradient before it returns, with no warning."""

    @staticmethod
    def square(weight):
        return Graph.from_edges(4, [(0, 1, weight), (1, 2, weight), (2, 3, weight),
                                    (0, 3, weight)])

    @pytest.mark.parametrize("mode", [ANALYTIC, PARAMETER_SHIFT])
    @pytest.mark.parametrize("weight", [1e200, 1e308])
    def test_overflowing_weights(self, weight, mode):
        # 1e200: the cost is finite, but Adam's second moment overflows, so the
        # angles would never move; 1e308: the cost and the cut overflow.
        with pytest.raises(RuntimeFailure, match="not finite at iteration 1$"):
            train(self.square(weight), AnsatzConfig(2, 1), EncodingConfig(2, 4),
                  OptimizerConfig(step_size=0.5, max_iterations=5, gradient_mode=mode))

    def test_overflowing_step(self, k4):
        # The first step leaves the angles finite, near 1e308; the second
        # overflows them.
        with pytest.raises(RuntimeFailure, match="not finite at iteration 2$"):
            train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                  OptimizerConfig(step_size=1e308, max_iterations=3))

    def test_overflowing_gradient_params(self):
        config = AnsatzConfig(2, 1)
        with pytest.raises(RuntimeFailure, match="the gradient is not finite$"):
            cost_gradient_params(self.square(1e308), config, EncodingConfig(2, 4),
                                 random_parameters(config, seed=0))

    def test_large_finite_weights_train(self):
        record = train(self.square(1e100), AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=5))
        assert np.all(np.isfinite(record.costs))
        assert record.final_best_cut <= 4e100


class TestRatios:
    def test_equal_cuts(self):
        assert cut_ratio(4, 4) == 1.0
        assert rescaled_ratio(4, 4, 6) == 1.0

    def test_half_cut_rescales_to_zero(self):
        assert rescaled_ratio(3, 4, 6) == pytest.approx(0.0)

    def test_sixteen_node_example(self):
        assert cut_ratio(18.6, 21) == pytest.approx(0.8857, abs=5e-5)

    def test_degenerate(self):
        with pytest.raises(DegenerateDenominator):
            cut_ratio(1, 0)
        with pytest.raises(DegenerateDenominator):
            rescaled_ratio(1, 2, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # cut_ratio(1, inf) read 0.0 and the NaN cases returned nan.
        for call in (lambda: cut_ratio(1.0, bad), lambda: cut_ratio(bad, 1.0),
                     lambda: rescaled_ratio(1.0, bad, 3), lambda: rescaled_ratio(bad, 1.0, 3),
                     lambda: rescaled_ratio(1.0, 1.0, bad)):
            with pytest.raises(ConfigError, match="must be finite"):
                call()

    def test_default_shots(self):
        assert default_shots(4) == 48
        assert default_shots(16) == 768
        assert default_shots(32) == 3072
