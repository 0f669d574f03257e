"""The benchmark's workloads: inputs made from the seed, one operation, its checks.

Each workload is a closed loop driven by one process: the next operation
starts when the previous one has returned.  Pools are ``JOBS`` wide.  Why
each workload exists, and which end-to-end metric each layer metric should
move on it, is written down in NOTES.md.

Every program seed is derived from the workload seed, so one workload seed
gives the same graphs and trials on every run.  ``tiny`` shapes serve the
smoke test only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from qemc import baselines, core, graphs, harness, simulator

import checks

JOBS = 2

# first element of every derived-seed path
_INSTANCE, _WARMUP, _OP, _REPLAY = range(4)


def _seed(seed, *path) -> int:
    """A program seed derived from the workload seed and a path of ints."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


class OpResult(NamedTuple):
    iterations: int      # QEMC Adam iterations completed
    trials: int          # core.train calls the operation must have made
    ratios: list         # final best cut / reference, one per trial or study


class _Workload:
    """Shapes by size; ``window`` is how many leading operations give cut_ratio_mean.

    ``processes`` is how many processes an operation keeps busy.
    """

    SIZES: dict
    processes = JOBS

    def __init__(self, size, seed):
        self.p = self.SIZES[size]
        self.seed = seed
        self.window = self.p["window"]


def _warm_up(graph, ansatz, encoding, optimizer):
    """One call into the simulator, core, seeding and harness layers."""
    record = core.train(graph, ansatz, encoding, optimizer)
    harness.resource_estimate(record)


class Study256(_Workload):
    """Reduced A4 study: ``harness.multi_instance_study`` on 9-regular graphs."""

    SIZES = {
        "full": dict(instances=1, nodes=256, degree=9, layers=50, iterations=20,
                     trials=4, gw_trials=2, replay_iterations=3, window=2),
        "tiny": dict(instances=1, nodes=16, degree=3, layers=2, iterations=3,
                     trials=2, gw_trials=2, replay_iterations=2, window=1),
    }
    STEP = 0.14

    def setup(self):
        p = self.p
        self.graph = graphs.generate_regular(p["nodes"], p["degree"],
                                             _seed(self.seed, _INSTANCE))
        self.ansatz = simulator.AnsatzConfig(simulator.num_qubits_for(p["nodes"]),
                                             p["layers"])
        self.encoding = core.EncodingConfig.half(p["nodes"])
        baselines.gw(self.graph, trials=1, seed=_seed(self.seed, _WARMUP),
                     num_hyperplanes=1)
        _warm_up(self.graph, self.ansatz, self.encoding,
                 core.OptimizerConfig(self.STEP, 1, seed=_seed(self.seed, _WARMUP)))

    def op(self, k) -> OpResult:
        p = self.p
        settings = harness.QemcSettings(layers=p["layers"], step_size=self.STEP,
                                        iterations=p["iterations"], trials=p["trials"])
        result = harness.multi_instance_study(
            p["instances"], p["nodes"], p["degree"], settings,
            gw_trials=p["gw_trials"], seed=_seed(self.seed, _OP, k), jobs=JOBS)
        edges = p["nodes"] * p["degree"] / 2
        checks.check_cuts(result.qemc_final_cuts, edges, "QEMC final cuts")
        checks.check_cuts(result.gw_cuts, edges, "GW cuts")
        checks.check_nondecreasing(result.avg_qemc_curve, "mean best-so-far curve")
        checks.check_nondecreasing(result.max_qemc_curve, "max best-so-far curve")
        trials = p["instances"] * p["trials"]
        return OpResult(trials * p["iterations"], trials,
                        [float(result.qemc_final_cuts.mean() / result.avg_gw)])

    def replay(self):
        optimizer = core.OptimizerConfig(self.STEP, self.p["replay_iterations"],
                                         seed=_seed(self.seed, _REPLAY))
        checks.check_same_trial(core.train(self.graph, self.ansatz, self.encoding, optimizer),
                                core.train(self.graph, self.ansatz, self.encoding, optimizer))


class Grid16(_Workload):
    """A2/A3 campaign: exhaustive reference, then a layers x steps grid per graph."""

    SIZES = {
        "full": dict(nodes=(8, 12, 16), layers=(1, 3, 5), steps=(0.5, 0.7, 0.9),
                     trials=2, iterations=30, window=4),
        "tiny": dict(nodes=(8,), layers=(1, 2), steps=(0.5, 0.9), trials=1,
                     iterations=3, window=1),
    }
    DEGREE = 3

    def setup(self):
        p = self.p
        self.graphs = [graphs.generate_regular(n, self.DEGREE, _seed(self.seed, _INSTANCE, i))
                       for i, n in enumerate(p["nodes"])]
        self.optima = [graphs.exhaustive_maxcut(g)[0] for g in self.graphs]
        self.spec = harness.GridSpec(p["layers"], p["steps"], p["trials"], p["iterations"])
        graph = self.graphs[-1]
        self.replay_args = (graph,
                            simulator.AnsatzConfig(simulator.num_qubits_for(graph.num_nodes),
                                                   max(p["layers"])),
                            core.EncodingConfig.half(graph.num_nodes))
        _warm_up(*self.replay_args,
                 core.OptimizerConfig(p["steps"][0], 1, seed=_seed(self.seed, _WARMUP)))

    def op(self, k) -> OpResult:
        ratios = []
        for i, (graph, optimum) in enumerate(zip(self.graphs, self.optima)):
            result = harness.grid_search(graph, self.spec,
                                         core.EncodingConfig.half(graph.num_nodes),
                                         seed=_seed(self.seed, _OP, k, i), target=optimum,
                                         jobs=JOBS)
            checks.check_cuts(result.cuts, optimum, f"grid cuts on {graph.num_nodes} nodes")
            ratios.extend((result.cuts / optimum).ravel().tolist())
        trials = len(ratios)
        return OpResult(trials * self.spec.iteration_budget, trials, ratios)

    def replay(self):
        optimizer = core.OptimizerConfig(self.p["steps"][0], self.p["iterations"],
                                         seed=_seed(self.seed, _REPLAY))
        checks.check_same_trial(core.train(*self.replay_args, optimizer),
                                core.train(*self.replay_args, optimizer))


class Shots16(_Workload):
    """``qemc solve --shots 3n2``: sampled parameter-shift training, in-process.

    Operations cycle over several graphs so that cut_ratio_mean does not hang
    on the quirks of one 16-node instance.
    """

    SIZES = {
        "full": dict(nodes=16, graphs=8, layers=5, iterations=10, window=48),
        "tiny": dict(nodes=8, graphs=2, layers=1, iterations=2, window=2),
    }
    DEGREE = 3
    STEP = 0.7
    processes = 1

    def setup(self):
        n = self.p["nodes"]
        self.graphs = [graphs.generate_regular(n, self.DEGREE, _seed(self.seed, _INSTANCE, i))
                       for i in range(self.p["graphs"])]
        self.optima = [graphs.exhaustive_maxcut(g)[0] for g in self.graphs]
        self.ansatz = simulator.AnsatzConfig(simulator.num_qubits_for(n), self.p["layers"])
        self.encoding = core.EncodingConfig.half(n)
        _warm_up(self.graphs[0], self.ansatz, self.encoding, self._optimizer(1, _WARMUP))

    def _optimizer(self, iterations, *path):
        return core.OptimizerConfig(self.STEP, iterations,
                                    shots=core.default_shots(self.p["nodes"]),
                                    gradient_mode=simulator.PARAMETER_SHIFT,
                                    seed=_seed(self.seed, *path))

    def op(self, k) -> OpResult:
        i = k % len(self.graphs)
        record = core.train(self.graphs[i], self.ansatz, self.encoding,
                            self._optimizer(self.p["iterations"], _OP, k))
        checks.check_cuts([record.final_best_cut], self.optima[i], "sampled-training cut")
        return OpResult(record.iterations_executed, 1,
                        [record.final_best_cut / self.optima[i]])

    def replay(self):
        optimizer = self._optimizer(2, _REPLAY)
        args = (self.graphs[0], self.ansatz, self.encoding, optimizer)
        checks.check_same_trial(core.train(*args), core.train(*args))


WORKLOADS = {"study256": Study256, "grid16": Grid16, "shots16": Shots16}
