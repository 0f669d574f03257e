"""Every count an entry point takes goes through ``errors.check_count``: a
non-integral value or one below the minimum raises the entry point's own
``QemcError`` subclass, never a numpy ``TypeError``."""

import numpy as np
import pytest

from qemc import core
from qemc.baselines import gw, gw_round, gw_solve, random_star_cuts
from qemc.core import EncodingConfig, OptimizerConfig
from qemc.errors import (
    InvalidBlueCount,
    InvalidCount,
    InvalidDegree,
    ConfigError,
    ShapeMismatch,
    check_count,
    check_finite,
)
from qemc.graphs import Graph, complete_graph, generate_regular, random_star_partition
from qemc.harness import (
    GridSpec,
    QemcSettings,
    grid_search,
    multi_instance_study,
    scaling_study,
)
from qemc.simulator import (
    AnsatzConfig,
    num_qubits_for,
    probabilities,
    probability_jacobian,
    probability_vjp,
    run_circuit,
    sample_histogram,
)

K4 = complete_graph(4)
SETTINGS = dict(layers=1, step_size=0.5, iterations=1, trials=1)


def _settings(field):
    return lambda v: QemcSettings(**{**SETTINGS, field: v})


def _study(field):
    counts = dict(num_instances=1, gw_trials=1, gw_hyperplanes=1)
    return lambda v: multi_instance_study(num_nodes=4, degree=3,
                                          settings=QemcSettings(**SETTINGS), jobs=1,
                                          **{**counts, field: v})


def _grid(**kwargs):
    grid = GridSpec(layer_values=(1,), step_values=(0.5,), trials_per_cell=1,
                    iteration_budget=1)
    return grid_search(K4, grid, EncodingConfig.half(4), seed=0, **kwargs)


A21 = AnsatzConfig(2, 1)


# name -> (call with the count, minimum, a valid value, error class)
ENTRY_POINTS = {
    "OptimizerConfig.max_iterations": (lambda v: OptimizerConfig(0.5, v), 0, 0,
                                       ShapeMismatch),
    "OptimizerConfig.shots": (lambda v: OptimizerConfig(0.5, 1, shots=v), 1, 1,
                              ShapeMismatch),
    "AnsatzConfig.num_qubits": (lambda v: AnsatzConfig(v, 1), 1, 1, ShapeMismatch),
    "AnsatzConfig.num_layers": (lambda v: AnsatzConfig(2, v), 0, 0, ShapeMismatch),
    "num_qubits_for": (num_qubits_for, 1, 2, ShapeMismatch),
    "sample_histogram.shots": (lambda v: sample_histogram(np.ones(4), v, 0), 1, 1,
                               InvalidCount),
    "probability_jacobian.shots": (
        lambda v: probability_jacobian(AnsatzConfig(2, 1), np.zeros(6), shots=v, seed=0),
        1, 1, InvalidCount),
    "QemcSettings.iterations": (_settings("iterations"), 1, 1, InvalidCount),
    "QemcSettings.trials": (_settings("trials"), 1, 1, InvalidCount),
    "QemcSettings.layers": (_settings("layers"), 1, 1, InvalidCount),
    "GridSpec.trials_per_cell": (lambda v: GridSpec((1,), (0.5,), v, 1), 1, 1,
                                 InvalidCount),
    "grid_search.jobs": (lambda v: _grid(jobs=v), 1, 1, InvalidCount),
    "scaling_study.axis_values": (
        lambda v: scaling_study([K4], [3.0], "layers", QemcSettings(**SETTINGS),
                                axis_values=[v], jobs=1), 1, 1, InvalidCount),
    "multi_instance_study.num_instances": (_study("num_instances"), 1, 1, InvalidCount),
    "multi_instance_study.gw_trials": (_study("gw_trials"), 1, 1, InvalidCount),
    "multi_instance_study.gw_hyperplanes": (_study("gw_hyperplanes"), 1, 1,
                                            InvalidCount),
    "gw.trials": (lambda v: gw(K4, trials=v), 1, 1, InvalidCount),
    "gw.num_hyperplanes": (lambda v: gw(K4, trials=1, num_hyperplanes=v), 1, 1,
                           InvalidCount),
    "gw_solve.max_iterations": (lambda v: gw_solve(K4, max_iterations=v), 0, 0,
                                InvalidCount),
    "gw_round.num_hyperplanes": (
        lambda v: gw_round(gw_solve(K4, max_iterations=0).embedding, K4,
                           num_hyperplanes=v), 1, 1, InvalidCount),
    "random_star_cuts.trials": (lambda v: random_star_cuts(K4, v), 1, 1, InvalidCount),
    "Graph.num_nodes": (lambda v: Graph(v, [], [], []), 1, 1, InvalidCount),
    "EncodingConfig.num_nodes": (lambda v: EncodingConfig(1, v), 2, 2, InvalidBlueCount),
    "EncodingConfig.blue_count": (lambda v: EncodingConfig(v, 8), 1, 1, InvalidBlueCount),
    "random_star_partition.num_nodes": (lambda v: random_star_partition(v, 1, 0), 1, 1,
                                        InvalidCount),
    "random_star_partition.blue_count": (lambda v: random_star_partition(4, v, 0), 1, 1,
                                         InvalidBlueCount),
    "generate_regular.num_nodes": (lambda v: generate_regular(v, 1, 0), 2, 2,
                                   InvalidDegree),
    "generate_regular.degree": (lambda v: generate_regular(4, v, 0), 1, 3, InvalidDegree),
}


@pytest.fixture
def no_training(monkeypatch):
    def fail(*args):
        raise AssertionError("trained although a count is invalid")

    monkeypatch.setattr(core, "train", fail)


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_integers_returned(self, value):
        assert check_count("n", value) is value

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3), "3", None, True])
    def test_non_integral_rejected(self, value):
        with pytest.raises(InvalidCount, match=r"^n must be an integer, got "):
            check_count("n", value)

    def test_minimum(self):
        assert check_count("n", 0, 0) == 0
        with pytest.raises(InvalidCount, match=r"^n must be >= 0, got -1$"):
            check_count("n", -1, 0)

    def test_error_class(self):
        with pytest.raises(InvalidDegree, match=r"^degree must be >= 1, got 0$"):
            check_count("degree", 0, error=InvalidDegree)


class TestCheckFinite:
    @pytest.mark.parametrize("value", [0.0, -1e308, 3, np.float64(2.5), [1.0, 2.0],
                                       np.zeros(3)], ids=repr)
    def test_finite_returned(self, value):
        assert check_finite("x", value) is value

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, [1.0, np.nan], "1.0", None,
                                       10 ** 400, True, np.bool_(False),
                                       np.array([True, False]), [False], 1 + 1j,
                                       np.complex128(2.0), [1.0, 2j],
                                       np.zeros(2, dtype=complex)], ids=repr)
    def test_non_finite_rejected(self, value):
        with pytest.raises(ConfigError, match=r"^x must be finite, got "):
            check_finite("x", value)

    @pytest.mark.parametrize("call,error", [
        (lambda: OptimizerConfig(True, 1), ShapeMismatch),
        (lambda: core.cut_ratio(True, 2.0), ConfigError),
        (lambda: core.cut_ratio(1.0, np.bool_(True)), ConfigError),
        (lambda: core.rescaled_ratio(True, 1.0, 4), ConfigError),
        (lambda: core.rescaled_ratio(1.0, 1.0, True), ConfigError),
    ], ids=["step_size", "cut", "cut_star", "rescaled-cut", "num_edges"])
    def test_sites_reject_bools(self, call, error):
        with pytest.raises(error, match="must be finite, got (True|False)$"):
            call()

    # Each site checks the dtype before it casts to float64, which would drop
    # an imaginary part with only a ComplexWarning, or fail on text; a
    # histogram's shape and sum are checked with no numpy error or warning.
    @pytest.mark.parametrize("call,error", [
        (lambda: core.cut_ratio(1 + 1j, 2.0), ConfigError),
        (lambda: _grid(target=3 + 1j, jobs=1), ConfigError),
        (lambda: run_circuit(A21, np.full(6, 1j)), ConfigError),
        (lambda: probabilities(A21, np.full(6, 1j)), ConfigError),
        (lambda: probability_jacobian(A21, np.full(6, 1j)), ConfigError),
        (lambda: run_circuit(A21, ["0.5"] * 6), ConfigError),
        (lambda: probability_vjp(A21, np.zeros(6), np.full(4, 1j)), ConfigError),
        (lambda: sample_histogram(np.full(4, 1 + 0j), 3, 1), ConfigError),
        (lambda: Graph(2, [0], [1], [1 + 1j]), ConfigError),
        (lambda: Graph.from_edges(2, [(0, 1, 1 + 1j)]), ConfigError),
        (lambda: core.cost(np.full((2, 8), 1 / 16), K4, EncodingConfig.half(4)),
         ShapeMismatch),
        (lambda: core.cost_gradient_wrt_probs(np.full((2, 8), 1 / 16), K4,
                                              EncodingConfig.half(4)), ShapeMismatch),
        (lambda: sample_histogram([1e308, 1e308], 3, 1), ConfigError),
    ], ids=["cut", "grid-target", "run_circuit-params", "probabilities-params",
            "jacobian-params", "text-params", "vjp-weights", "histogram", "Graph-weights",
            "from_edges-weight", "cost-2-d", "gradient-2-d", "histogram-overflow"])
    def test_sites_refuse_bad_input(self, call, error, no_training):
        with pytest.raises(error):
            call()

    def test_error_class(self):
        with pytest.raises(ShapeMismatch, match=r"^step must be finite, got nan$"):
            check_finite("step", float("nan"), ShapeMismatch)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
class TestEveryCount:
    def test_non_integral_rejected(self, entry, no_training):
        call, minimum, _, error = ENTRY_POINTS[entry]
        with pytest.raises(error, match="must be an integer"):
            call(minimum + 0.5)

    def test_below_minimum_rejected(self, entry, no_training):
        call, minimum, _, error = ENTRY_POINTS[entry]
        with pytest.raises(error):
            call(minimum - 1)

    def test_numpy_integer_accepted(self, entry):
        call, _, valid, _ = ENTRY_POINTS[entry]
        call(np.int64(valid))
