import dataclasses
import os
import re
import time

import numpy as np
import pytest

from qemc import baselines, core, harness
from qemc.core import EncodingConfig, OptimizerConfig, train
from qemc.errors import ConfigError, InvalidCount, RuntimeFailure, ShapeMismatch
from qemc.graphs import Graph, complete_bipartite_graph, generate_regular
from qemc.harness import (
    GridResult,
    GridSpec,
    QemcSettings,
    _trial,
    default_shot_ladder,
    grid_search,
    multi_instance_study,
    resource_estimate,
    scaling_study,
    scan_blue_sizes,
)
from qemc.seeding import derive_seed
from qemc.simulator import ANALYTIC, PARAMETER_SHIFT, AnsatzConfig


@pytest.fixture
def no_training(monkeypatch):
    def fail(*args):
        raise AssertionError("trained although the configuration is invalid")

    monkeypatch.setattr(core, "train", fail)


class TestQemcSettings:
    @pytest.mark.parametrize("field", ["iterations", "trials", "layers"])
    def test_zero_count_rejected(self, field):
        counts = dict(layers=1, iterations=5, trials=2)
        counts[field] = 0
        with pytest.raises(InvalidCount, match=f"^{field} must be >= 1"):
            QemcSettings(step_size=0.5, **counts)

    @pytest.mark.parametrize("field", ["iterations", "trials", "layers"])
    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2)],
                             ids=["fractional", "float", "numpy-float"])
    def test_non_integral_count_rejected(self, field, value):
        counts = dict(layers=1, iterations=5, trials=2)
        counts[field] = value
        with pytest.raises(InvalidCount, match=f"^{field} must be an integer"):
            QemcSettings(step_size=0.5, **counts)

    def test_numpy_integer_counts_accepted(self):
        settings = QemcSettings(layers=np.int64(2), step_size=0.5,
                                iterations=np.int32(3), trials=np.int64(1))
        _, ansatz, _, optimizer = _trial(generate_regular(8, 3, seed=1), settings, 0)
        assert (ansatz.num_layers, optimizer.max_iterations) == (2, 3)

    def test_trial_resolves_defaults(self):
        graph = generate_regular(12, 3, seed=1)
        _, ansatz, encoding, optimizer = _trial(
            graph, QemcSettings(layers=3, step_size=0.5, iterations=4), seed=7)
        assert (ansatz.num_qubits, ansatz.num_layers) == (4, 3)
        assert encoding == EncodingConfig.half(12)
        assert optimizer == OptimizerConfig(step_size=0.5, max_iterations=4,
                                            gradient_mode=ANALYTIC, seed=7)

    def test_trial_gradient_mode_follows_shots(self, k4):
        sampled = QemcSettings(layers=1, step_size=0.5, iterations=4, shots=16)
        assert _trial(k4, sampled, 0)[3].gradient_mode == PARAMETER_SHIFT
        forced = QemcSettings(layers=1, step_size=0.5, iterations=4, shots=16,
                              gradient_mode=ANALYTIC, blue_count=1)
        _, _, encoding, optimizer = _trial(k4, forced, 0)
        assert optimizer.gradient_mode == ANALYTIC
        assert encoding.blue_count == 1


class TestGridSearch:
    def test_k4_single_cell_hits_optimum(self, k4):
        grid = GridSpec(layer_values=(1,), step_values=(0.99,),
                        trials_per_cell=3, iteration_budget=200)
        result = grid_search(k4, grid, EncodingConfig(2, 4), seed=0, jobs=1)
        assert result.cell_mean(1, 0.99) == 4.0

    def test_single_trial_cell_equals_train_run(self, k4):
        grid = GridSpec(layer_values=(1,), step_values=(0.5,),
                        trials_per_cell=1, iteration_budget=30)
        result = grid_search(k4, grid, EncodingConfig(2, 4), seed=9, jobs=1)
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=30,
                                       seed=derive_seed(9, "grid", 1, 0.5, 0)))
        assert result.cuts[0, 0, 0] == record.final_best_cut

    def test_deterministic_and_mean_definition(self, k4):
        grid = GridSpec(layer_values=(1, 2), step_values=(0.3, 0.9),
                        trials_per_cell=2, iteration_budget=20)
        a = grid_search(k4, grid, EncodingConfig(2, 4), seed=1, jobs=1)
        b = grid_search(k4, grid, EncodingConfig(2, 4), seed=1, jobs=1)
        assert np.array_equal(a.cuts, b.cuts)
        assert np.allclose(a.mean_table(), a.cuts.mean(axis=2))

    def test_jobs_do_not_change_results(self, k4):
        grid = GridSpec(layer_values=(1,), step_values=(0.3, 0.9),
                        trials_per_cell=2, iteration_budget=15)
        serial = grid_search(k4, grid, EncodingConfig(2, 4), seed=2, jobs=1)
        parallel = grid_search(k4, grid, EncodingConfig(2, 4), seed=2, jobs=2)
        assert np.array_equal(serial.cuts, parallel.cuts)

    def test_default_jobs_count_usable_cpus(self, k4, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool on one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        grid = GridSpec(layer_values=(1,), step_values=(0.3, 0.9),
                        trials_per_cell=2, iteration_budget=15)
        default = grid_search(k4, grid, EncodingConfig(2, 4), seed=2)
        serial = grid_search(k4, grid, EncodingConfig(2, 4), seed=2, jobs=1)
        assert np.array_equal(default.cuts, serial.cuts)

    def test_min_layers_to_target(self, k4):
        grid = GridSpec(layer_values=(1,), step_values=(0.99,),
                        trials_per_cell=2, iteration_budget=200)
        result = grid_search(k4, grid, EncodingConfig(2, 4), seed=0,
                             target=3.7, jobs=1)
        assert result.min_layers_to_target == 1

    @pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected_before_training(self, k4, no_training, target):
        grid = GridSpec(layer_values=(1,), step_values=(0.5,),
                        trials_per_cell=1, iteration_budget=5)
        with pytest.raises(ConfigError, match="target must be finite"):
            grid_search(k4, grid, EncodingConfig(2, 4), target=target, jobs=1)

    def test_best_cell_prefers_fewer_layers_then_larger_step(self, k4):
        grid = GridSpec(layer_values=(1, 2), step_values=(0.8, 0.99),
                        trials_per_cell=2, iteration_budget=200)
        result = grid_search(k4, grid, EncodingConfig(2, 4), seed=3, jobs=1)
        layers, step = result.best_cell()
        # All cells reach 4 on K4, so the tie rules pick (1, 0.99).
        assert result.mean_table().max() == 4.0
        assert layers == 1
        assert step == 0.99

    def test_best_cell_prefers_fewer_layers_in_any_order(self):
        spec = GridSpec(layer_values=(3, 1), step_values=(0.5,), trials_per_cell=2,
                        iteration_budget=30)
        result = GridResult(spec=spec, cuts=np.full((2, 1, 2), 4.0), target=None,
                            min_layers_to_target=None)
        assert result.best_cell() == (1, 0.5)

    def test_csv_rows(self, k4):
        grid = GridSpec(layer_values=(1, 2), step_values=(0.5,),
                        trials_per_cell=2, iteration_budget=5)
        result = grid_search(k4, grid, EncodingConfig(2, 4), seed=0, jobs=1)
        rows = list(result.to_csv_rows())
        assert len(rows) == 4
        assert rows[0][:3] == (1, 0.5, 0)

    def test_mismatched_encoding_rejected_before_training(self, k4, no_training):
        grid = GridSpec(layer_values=(1,), step_values=(0.5,),
                        trials_per_cell=1, iteration_budget=5)
        with pytest.raises(ShapeMismatch):
            grid_search(k4, grid, EncodingConfig(2, 6), seed=0, jobs=1)

    def test_zero_iterations_rejected_before_training(self, k4, no_training):
        grid = GridSpec(layer_values=(1,), step_values=(0.5,),
                        trials_per_cell=1, iteration_budget=0)
        with pytest.raises(InvalidCount, match="^iterations"):
            grid_search(k4, grid, EncodingConfig(2, 4), seed=0, jobs=1)

    def test_spec_validation(self):
        with pytest.raises(InvalidCount):
            GridSpec(layer_values=(), step_values=(0.5,), trials_per_cell=1,
                     iteration_budget=5)
        with pytest.raises(InvalidCount):
            GridSpec(layer_values=(1,), step_values=(0.5,), trials_per_cell=0,
                     iteration_budget=5)

    @pytest.mark.parametrize("layers,steps,name", [
        ((1, 1), (0.5,), "layer_values"), ((1, 2), (0.5, 0.9, 0.5), "step_values"),
        ((2, 1, 2), (0.5, 0.50), "layer_values")])
    def test_repeated_value_rejected_before_training(self, k4, no_training, layers,
                                                     steps, name):
        # A repeated value would run the same tag paths and seeds again, and
        # cell_mean and the CSV would count those trials twice.
        with pytest.raises(InvalidCount, match=f"^{name} must not repeat a value"):
            grid_search(k4, GridSpec(layers, steps, 1, 2), EncodingConfig(2, 4),
                        seed=0, jobs=1)

    def test_deeper_circuits_prefer_smaller_steps(self):
        # Trend on a 22-node cubic instance: the best step size per layer
        # count never grows with depth (ties allowed).  Deterministic seeds,
        # so the observed argmax sequence (0.99, 0.99, 0.5) is stable.
        g = generate_regular(22, 3, seed=22)
        grid = GridSpec(layer_values=(1, 3, 5), step_values=(0.1, 0.5, 0.99),
                        trials_per_cell=5, iteration_budget=200)
        result = grid_search(g, grid, EncodingConfig(11, 22), seed=1, jobs=2)
        argmax_steps = [grid.step_values[int(np.argmax(row))]
                        for row in result.mean_table()]
        assert all(later <= earlier
                   for earlier, later in zip(argmax_steps, argmax_steps[1:]))


class TestIterationsToTarget:
    def test_immediate_hit(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.99, max_iterations=100, seed=1))
        assert record.iterations_to_target(0.0) == 1

    def test_unreachable(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.99, max_iterations=10, seed=1))
        assert record.iterations_to_target(100.0) is None

    def test_matches_first_crossing(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.99, max_iterations=150, seed=2))
        hit = record.iterations_to_target(4.0)
        assert hit is not None
        assert record.best_cuts[hit - 1] >= 4.0
        assert np.all(record.best_cuts[:hit - 1] < 4.0)


class TestScanBlueSizes:
    def test_k4_scans_both_sizes_and_picks_two(self, k4):
        # B = 1 cannot decode a balanced split (two probabilities > 1/2 would
        # exceed normalization), so B = 2 wins with cut 4.
        record = scan_blue_sizes(
            k4, QemcSettings(layers=1, step_size=0.99, iterations=200, trials=1))
        assert record.final_best_cut == 4.0
        assert record.encoding.blue_count == 2

    def test_tie_prefers_smaller_blue_count(self):
        # A star K_{1,3} is fully cut by blue = {center}, reachable under both
        # B = 1 and B = 2, so both saturate at 3 and the tie goes to B = 1.
        star = complete_bipartite_graph(1, 3)
        record = scan_blue_sizes(
            star, QemcSettings(layers=2, step_size=0.9, iterations=200, trials=2),
            seed=3)
        assert record.final_best_cut == 3.0
        assert record.encoding.blue_count == 1

    def test_bipartite_two_six(self):
        g = complete_bipartite_graph(2, 6)
        record = scan_blue_sizes(
            g, QemcSettings(layers=3, step_size=0.8, iterations=150, trials=1))
        assert record.final_best_cut == g.total_weight == 12.0

    def test_record_replays_with_train(self):
        graph = generate_regular(10, 3, seed=2)
        settings = QemcSettings(layers=2, step_size=0.7, iterations=15, trials=2)
        record = scan_blue_sizes(graph, settings, seed=5)
        blue = record.encoding.blue_count
        assert record.seed in {derive_seed(5, "scan_blue", blue, t) for t in range(2)}
        replay = train(*_trial(graph, dataclasses.replace(settings, blue_count=blue),
                               record.seed))
        assert replay.to_json_dict() == record.to_json_dict()
        for name in ("costs", "cuts", "best_cuts", "final_params"):
            assert getattr(replay, name).tobytes() == getattr(record, name).tobytes()

    def test_jobs_do_not_change_results(self):
        graph = generate_regular(8, 3, seed=4)
        settings = QemcSettings(layers=1, step_size=0.5, iterations=3, trials=2)
        serial = scan_blue_sizes(graph, settings, seed=6, jobs=1)
        parallel = scan_blue_sizes(graph, settings, seed=6, jobs=2)
        assert serial.to_json_dict() == parallel.to_json_dict()

    def test_one_node_graph_rejected_before_training(self, no_training):
        one = Graph.from_edges(1, [])
        with pytest.raises(ShapeMismatch):
            scan_blue_sizes(one, QemcSettings(layers=1, step_size=0.5, iterations=2,
                                              trials=1))


class TestScalingStudy:
    def test_layers_axis_k4(self, k4):
        settings = QemcSettings(layers=1, step_size=0.99, iterations=200, trials=3)
        rows = scaling_study([k4], [3.7], "layers", settings,
                             axis_values=[1, 2], seed=0, jobs=1)
        assert rows[0].num_nodes == 4
        assert rows[0].axis == "layers"
        assert rows[0].minimal_value == 1.0
        assert rows[0].reached

    def test_default_shot_ladder_includes_3n2(self):
        assert default_shot_ladder(16) == (16, 64, 256, 512, 768)
        assert 3072 in default_shot_ladder(32)

    def test_shots_axis_k4(self, k4):
        settings = QemcSettings(layers=1, step_size=0.9, iterations=60, trials=2)
        rows = scaling_study([k4], [3.0], "shots", settings,
                             axis_values=[16, 48], seed=0, jobs=1)
        assert rows[0].axis == "shots"
        assert rows[0].reached
        assert rows[0].minimal_value in (16.0, 48.0)

    def test_iterations_axis_matches_mean_curve(self, k4):
        settings = QemcSettings(layers=1, step_size=0.99, iterations=150, trials=2)
        rows = scaling_study([k4], [4.0], "iterations", settings, seed=4, jobs=1)
        records = [train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                         OptimizerConfig(step_size=0.99, max_iterations=150,
                                         seed=derive_seed(4, "scaling", "iterations",
                                                          0, trial)))
                   for trial in range(2)]
        mean_curve = np.mean([r.best_cuts for r in records], axis=0)
        expected = int(np.flatnonzero(mean_curve >= 4.0)[0]) + 1
        assert rows[0].minimal_value == float(expected)

    def test_unreachable_target_is_not_fatal(self, k4):
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5, trials=1)
        rows = scaling_study([k4], [1e9], "layers", settings,
                             axis_values=[1], seed=0, jobs=1)
        assert not rows[0].reached
        assert rows[0].minimal_value is None

    def test_larger_budget_never_increases_minimum(self, k4):
        settings = QemcSettings(layers=1, step_size=0.99, iterations=200, trials=2)
        small = scaling_study([k4], [3.7], "layers", settings,
                              axis_values=[1, 2], seed=1, jobs=1)
        large = scaling_study([k4], [3.7], "layers", settings,
                              axis_values=[1, 2, 3, 5], seed=1, jobs=1)
        assert large[0].minimal_value <= small[0].minimal_value

    def test_target_count_validated(self, k4):
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5)
        with pytest.raises(ConfigError):
            scaling_study([k4], [1.0, 2.0], "layers", settings)
        with pytest.raises(ConfigError):
            scaling_study([k4], [1.0], "qubits", settings)

    @pytest.mark.parametrize("axis", ["layers", "iterations"])
    def test_non_finite_target_rejected_before_training(self, k4, no_training, axis):
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5, trials=1)
        with pytest.raises(ConfigError, match="every target must be finite"):
            scaling_study([k4, k4], [3.0, np.nan], axis, settings, jobs=1)
        with pytest.raises(ConfigError, match="every target must be finite"):
            scaling_study([k4], [np.inf], axis, settings, jobs=1)

    def test_iterations_axis_takes_no_values(self, k4, no_training):
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5)
        with pytest.raises(ConfigError, match="axis_values"):
            scaling_study([k4], [1.0], "iterations", settings, axis_values=[0])

    def test_one_shot_values_serve_every_graph(self, k4):
        # The rungs are read once, not once per graph.
        settings = QemcSettings(layers=1, step_size=0.99, iterations=60, trials=1)
        rows = scaling_study([k4, k4], [3.0, 3.0], "layers", settings,
                             axis_values=iter([1, 2]), seed=1, jobs=1)
        assert rows[0] == rows[1]
        assert rows[1].reached

    @pytest.mark.parametrize("axis,values,problem", [
        ("layers", [2, 2], "must not repeat a value"),
        ("shots", [8, 16, 8], "must not repeat a value"),
        ("layers", [], "must be non-empty")])
    def test_bad_rung_list_rejected_before_training(self, k4, no_training, axis, values,
                                                    problem):
        # An empty list would report every target unreachable without training.
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5, trials=1)
        with pytest.raises(InvalidCount, match=f"^axis_values {problem}"):
            scaling_study([k4], [3.0], axis, settings, axis_values=values, jobs=1)

    def test_zero_layer_rung_rejected_before_training(self, k4, no_training):
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5)
        with pytest.raises(InvalidCount, match="^layers"):
            scaling_study([k4], [1.0], "layers", settings, axis_values=[2, 0], jobs=1)

    @pytest.mark.parametrize("values", [[1, 2.5], [1, 3, 1e9]])
    def test_later_rung_rejected_before_training(self, k4, no_training, values):
        # Rungs 1 and 3 are valid, but every rung is built before any trains.
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5, trials=1)
        with pytest.raises(InvalidCount, match="^layers must be an integer"):
            scaling_study([k4], [100.0], "layers", settings, axis_values=values, jobs=1)

    def test_later_graph_rejected_before_training(self, k4, no_training):
        settings = QemcSettings(layers=1, step_size=0.5, iterations=5, trials=1)
        with pytest.raises(ShapeMismatch):
            scaling_study([k4, Graph.from_edges(1, [])], [3.0, 0.0], "iterations",
                          settings, jobs=1)


class TestMultiInstanceStudy:
    def test_single_instance_single_trial_collapses(self):
        settings = QemcSettings(layers=1, step_size=0.9, iterations=20, trials=1)
        result = multi_instance_study(1, 8, 3, settings, gw_trials=1, seed=5, jobs=1)
        assert np.array_equal(result.max_qemc_curve, result.avg_qemc_curve)
        assert result.max_gw == result.avg_gw
        assert result.qemc_final_cuts.shape == (1, 1)
        assert result.gw_cuts.shape == (1, 1)

    def test_curves_monotone_and_ordered(self):
        settings = QemcSettings(layers=2, step_size=0.9, iterations=30, trials=2)
        result = multi_instance_study(2, 8, 3, settings, gw_trials=2, seed=6, jobs=1)
        assert np.all(np.diff(result.max_qemc_curve) >= 0)
        assert np.all(np.diff(result.avg_qemc_curve) >= 0)
        assert np.all(result.max_qemc_curve >= result.avg_qemc_curve - 1e-12)
        assert result.max_gw >= result.avg_gw

    def test_csv_rows_cover_every_iteration(self):
        settings = QemcSettings(layers=1, step_size=0.9, iterations=7, trials=1)
        result = multi_instance_study(1, 8, 3, settings, gw_trials=1, seed=7, jobs=1)
        rows = list(result.to_csv_rows())
        assert len(rows) == 4 * 7
        names = {r[1] for r in rows}
        assert names == {"max_qemc", "avg_qemc", "max_gw", "avg_gw"}

    def test_deterministic_across_jobs(self, monkeypatch, tmp_path):
        """``jobs`` spreads only the QEMC trials: one pool, GW in this process."""
        pools = []
        gw_pids = tmp_path / "gw_pids"
        real_gw = baselines.gw

        class CountedPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        def gw(*args, **kwargs):
            with open(gw_pids, "a") as fh:    # a pool worker writes here too
                fh.write(f"{os.getpid()}\n")
            return real_gw(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(baselines, "gw", gw)
        settings = QemcSettings(layers=1, step_size=0.9, iterations=10, trials=2)
        b = multi_instance_study(2, 8, 3, settings, gw_trials=2, seed=8, jobs=2)
        assert len(pools) == 1
        assert gw_pids.read_text().split() == [str(os.getpid())] * 2
        a = multi_instance_study(2, 8, 3, settings, gw_trials=2, seed=8, jobs=1)
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


class TestResourceEstimate:
    def test_analytic_exact_counts(self, k4):
        record = train(k4, AnsatzConfig(2, 2), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=12, seed=0))
        estimate = resource_estimate(record)
        assert estimate.num_parameters == 12
        assert estimate.layers == 2
        assert estimate.gate_count == 2 + 2 * 4
        assert estimate.expected_circuit_executions == 12
        assert estimate.circuit_executions == estimate.expected_circuit_executions
        assert estimate.classical_time_proxy == k4.num_edges
        assert estimate.tts_proxy == (6 + estimate.gate_count) * 12 * 12

    def test_parameter_shift_counts(self, k4):
        record = train(k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
                       OptimizerConfig(step_size=0.5, max_iterations=3, shots=16,
                                       gradient_mode=PARAMETER_SHIFT, seed=0))
        estimate = resource_estimate(record)
        assert estimate.expected_circuit_executions == 3 * (1 + 2 * 6)
        assert estimate.circuit_executions == estimate.expected_circuit_executions
        assert estimate.quantum_time_proxy == estimate.gate_count * 16


GRID = GridSpec(layer_values=(1, 2), step_values=(0.5, 0.9), trials_per_cell=2,
                iteration_budget=3)
BAD_SEED = derive_seed(0, "grid", 2, 0.9, 1)


def _train_failing_on(monkeypatch, seed, action):
    """Patch ``core.train`` so the trial seeded ``seed`` runs ``action``; pool
    workers forked afterwards inherit the patch."""
    real = core.train

    def train_or_fail(*args):
        if args[3].seed == seed:
            action()
        return real(*args)

    monkeypatch.setattr(core, "train", train_or_fail)


class TestTrialFailures:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_tag_path_and_seed(self, k4, monkeypatch, jobs):
        def overflow():
            raise FloatingPointError("overflow")

        _train_failing_on(monkeypatch, BAD_SEED, overflow)
        with pytest.raises(RuntimeFailure) as info:
            grid_search(k4, GRID, EncodingConfig(2, 4), seed=0, jobs=jobs)
        message = str(info.value)
        assert message == (f"trial grid/2/0.9/1 (seed {BAD_SEED}) failed: "
                           "FloatingPointError('overflow')")
        # The named seed replays the failing trial alone.
        seed = int(re.search(r"\(seed (\d+)\)", message).group(1))
        cell = QemcSettings(layers=2, step_size=0.9, iterations=3, blue_count=2)
        with pytest.raises(FloatingPointError, match="overflow"):
            core.train(*_trial(k4, cell, seed))

    def test_dead_worker_raises_runtime_failure(self, k4, monkeypatch):
        _train_failing_on(monkeypatch, BAD_SEED, lambda: os._exit(3))
        with pytest.raises(RuntimeFailure, match=r"^trial grid/.*BrokenProcessPool") as info:
            grid_search(k4, GRID, EncodingConfig(2, 4), seed=0, jobs=2)
        # The trial that killed its worker is among those named.
        assert f"grid/2/0.9/1 (seed {BAD_SEED})" in str(info.value)

    def test_first_failure_stops_the_rest(self, k4, monkeypatch, tmp_path):
        calls = tmp_path / "calls"
        first = derive_seed(0, "grid", 1, 0.5, 0)
        real = core.train

        def slow_train(*args):
            with open(calls, "a") as fh:
                fh.write(f"{args[3].seed}\n")
            if args[3].seed == first:
                raise FloatingPointError("overflow")
            time.sleep(0.2)
            return real(*args)

        monkeypatch.setattr(core, "train", slow_train)
        grid = GridSpec(layer_values=(1,), step_values=(0.5,), trials_per_cell=40,
                        iteration_budget=3)
        with pytest.raises(RuntimeFailure, match=r"^trial grid/1/0.5/0 "):
            grid_search(k4, grid, EncodingConfig(2, 4), seed=0, jobs=2)
        assert len(calls.read_text().splitlines()) < 20


class TestPlan:
    """Every experiment's trials come from ``_plan``: unique tag paths, seeds
    derived from them, and each arm's trials innermost, the trial index last."""

    MASTER = 5
    SETTINGS = QemcSettings(layers=1, step_size=0.5, iterations=2, trials=2)

    @pytest.fixture
    def planned(self, monkeypatch):
        """The ``(fn, items)`` of every ``_map_jobs`` call, run in process."""
        calls = []
        real = harness._map_jobs

        def record(fn, items, jobs):
            calls.append((fn, list(items)))
            return real(fn, calls[-1][1], 1)

        monkeypatch.setattr(harness, "_map_jobs", record)
        return calls

    def arms(self, calls):
        """The QEMC arms' tag paths, after checking the plan's invariants."""
        items = [item for _, batch in calls for item in batch]
        paths = [tags for tags, _, _ in items]
        assert len(set(paths)) == len(paths)
        for tags, seed, _ in items:
            assert seed == derive_seed(self.MASTER, *tags)
        qemc = [item for fn, batch in calls if fn is harness._run_train for item in batch]
        trials = self.SETTINGS.trials
        arms = [tags[:-1] for tags, _, _ in qemc[::trials]]
        assert [tags for tags, _, _ in qemc] == [(*arm, t) for arm in arms
                                                for t in range(trials)]
        assert all(args[3].seed == seed for _, seed, args in qemc)
        return arms

    def test_grid(self, k4, planned):
        grid = GridSpec(layer_values=(2, 1), step_values=(0.5, 0.2),
                        trials_per_cell=self.SETTINGS.trials, iteration_budget=2)
        grid_search(k4, grid, EncodingConfig(2, 4), seed=self.MASTER)
        assert self.arms(planned) == [("grid", 2, 0.5), ("grid", 2, 0.2),
                                      ("grid", 1, 0.5), ("grid", 1, 0.2)]

    def test_blue_size_scan(self, planned):
        scan_blue_sizes(generate_regular(6, 3, seed=1), self.SETTINGS, seed=self.MASTER)
        assert self.arms(planned) == [("scan_blue", 1), ("scan_blue", 2), ("scan_blue", 3)]

    @pytest.mark.parametrize("axis", ["layers", "shots", "iterations"])
    def test_scaling_ladder(self, k4, planned, axis):
        graphs = [k4, generate_regular(6, 3, seed=1)]
        values = {"layers": (2, 1), "shots": None, "iterations": None}[axis]
        # Unreachable targets run every rung.
        scaling_study(graphs, [1e9, 1e9], axis, self.SETTINGS, axis_values=values,
                      seed=self.MASTER)
        rungs = {"layers": lambda graph: [(1,), (2,)],
                 "shots": lambda graph: [(s,) for s in default_shot_ladder(graph.num_nodes)],
                 "iterations": lambda graph: [()]}[axis]
        assert self.arms(planned) == [("scaling", axis, index, *rung)
                                      for index, graph in enumerate(graphs)
                                      for rung in rungs(graph)]

    def test_two_instance_study(self, planned):
        multi_instance_study(2, 6, 3, self.SETTINGS, gw_trials=1, seed=self.MASTER)
        assert self.arms(planned) == [("study", "qemc", 0), ("study", "qemc", 1)]
        assert [tags for tags, _, _ in planned[1][1]] == [("study", "gw", 0),
                                                          ("study", "gw", 1)]
