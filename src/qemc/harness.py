"""Experiment orchestration: grid searches, blue-set scans, studies, resource scaling.

Every experiment funnels its randomness through one master seed; per-trial
seeds are derived from (experiment, instance, trial) tag paths, so results are
independent of scheduling and replayable from the master seed alone.  QEMC
trials are embarrassingly parallel; ``jobs`` bounds the worker count for them
(default: available cores) and never changes results.  GW baselines run in the
calling process, whose BLAS threads spread each solve's dense products.

Every experiment arm is a checked :class:`QemcSettings`, and every trial, in
each experiment here and in ``qemc solve``, is built by ``_trial``: the one
place where the qubit count, the default blue count and the default gradient
mode are resolved.  Each experiment is a plan, a run and a reduction: its plan
function (``_grid_plan``, ``_scan_plan``, ``_scaling_plan``, ``_study_plan``)
checks every argument and lists every ``(tags, seed, args)`` item before any
trial runs, and the public function runs them through ``_map_jobs`` and
reduces the records.  A failing trial raises :class:`RuntimeFailure` naming
its tag path and seed, which replay it alone.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, core, simulator
from .core import EncodingConfig, OptimizerConfig, RunRecord
from .errors import ConfigError, InvalidCount, RuntimeFailure, check_count, check_finite
from .graphs import Graph, generate_regular
from .seeding import derive_seed
from .simulator import ANALYTIC, PARAMETER_SHIFT, AnsatzConfig

__all__ = [
    "QemcSettings",
    "GridSpec",
    "GridResult",
    "ScalingRow",
    "StudyResult",
    "ResourceEstimate",
    "grid_search",
    "scan_blue_sizes",
    "scaling_study",
    "multi_instance_study",
    "resource_estimate",
]


def _run_train(item):
    return core.train(*item[2])


def _run_gw(item):
    _, seed, (graph, trials, hyperplanes) = item
    return baselines.gw(graph, trials, seed, num_hyperplanes=hyperplanes)


def _name(item) -> str:
    tags, seed, _ = item
    return f"{'/'.join(map(str, tags))} (seed {seed})"


def _attempt(fn, item):
    try:
        return fn(item)
    except Exception as exc:
        raise RuntimeFailure(f"trial {_name(item)} failed: {exc!r}") from exc


def _map_jobs(fn, items, jobs):
    """``fn`` over ``(tags, seed, args)`` items, in order; failures name their trial."""
    if jobs is None:    # the CPUs this process may run on, where the OS tells
        affinity = getattr(os, "sched_getaffinity", None)
        jobs = len(affinity(0)) if affinity else max(1, os.cpu_count() or 1)
    run = functools.partial(_attempt, fn)
    if check_count("jobs", jobs) == 1 or len(items) <= 1:
        return [run(item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, item) for item in items]
        try:
            return [future.result() for future in futures]
        except BrokenExecutor as exc:
            # Workers take items in order, so each one before the item that
            # killed its worker has a result or ran beside it: the culprit is
            # among the first `workers` without one (+1 for a result in transit).
            lost = [item for item, future in zip(items, futures)
                    if future.exception() is not None][:workers + 1]
            raise RuntimeFailure(
                f"trial {' or '.join(map(_name, lost))}: a pool worker died while "
                f"running it: {exc!r}") from exc
        finally:    # after a failure, start no further trial
            for future in futures:
                future.cancel()


@dataclass(frozen=True)
class QemcSettings:
    """Hyperparameters held fixed across the trials of one experiment arm."""

    layers: int
    step_size: float
    iterations: int
    shots: int | None = None
    gradient_mode: str | None = None    # None: analytic exact / parameter-shift shots
    blue_count: int | None = None       # None: EncodingConfig.half
    trials: int = 10

    def __post_init__(self):
        for name in ("iterations", "trials", "layers"):
            check_count(name, getattr(self, name))


def _trial(graph: Graph, settings: QemcSettings, seed: int):
    """The ``core.train`` arguments ``(graph, ansatz, encoding, optimizer)`` of
    one trial of ``settings`` on ``graph``.

    Resolves every trial default: ceil(log2 N) qubits, ``EncodingConfig.half``
    when no blue count is set, and, when no gradient mode is set, parameter
    shift for sampled runs and the analytic gradient for exact ones.
    """
    ansatz = AnsatzConfig(simulator.num_qubits_for(graph.num_nodes), settings.layers)
    encoding = (EncodingConfig.half(graph.num_nodes) if settings.blue_count is None
                else EncodingConfig(settings.blue_count, graph.num_nodes))
    mode = settings.gradient_mode
    if mode is None:
        mode = PARAMETER_SHIFT if settings.shots is not None else ANALYTIC
    optimizer = OptimizerConfig(
        step_size=settings.step_size, max_iterations=settings.iterations,
        shots=settings.shots, gradient_mode=mode, seed=seed)
    return graph, ansatz, encoding, optimizer


def _distinct(name: str, values) -> tuple:
    """``values`` as a non-empty tuple of Python values, each at most once: a
    repeated value would rerun the same trials under the same tag paths and
    seeds and count them twice, and a numpy scalar would derive other seeds
    than the Python value it equals."""
    values = tuple(v.item() if isinstance(v, np.generic) else v for v in values)
    if not values:
        raise InvalidCount(f"{name} must be non-empty")
    if len(set(values)) != len(values):
        raise InvalidCount(f"{name} must not repeat a value, got {list(values)}")
    return values


def _plan(arms, master_seed):
    """The ``(tags, seed, args)`` items of ``(tags, graph, settings)`` arms, one
    per trial, trials innermost, the trial index ending each tag path: the only
    place a QEMC trial's seed is derived from its tag path."""
    items = []
    for tags, graph, settings in arms:
        for trial in range(settings.trials):
            seed = derive_seed(master_seed, *tags, trial)
            items.append(((*tags, trial), seed, _trial(graph, settings, seed)))
    return items


# -- grid search -----------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Layer/step-size grid with a trial count and iteration budget per cell."""

    layer_values: tuple[int, ...]
    step_values: tuple[float, ...]
    trials_per_cell: int
    iteration_budget: int

    def __post_init__(self):
        for name in ("layer_values", "step_values"):
            object.__setattr__(self, name, _distinct(name, getattr(self, name)))
        check_count("trials_per_cell", self.trials_per_cell)


@dataclass(frozen=True)
class GridResult:
    """Final best cuts per (layers, step_size, trial)."""

    spec: GridSpec
    cuts: np.ndarray            # shape (len(layers), len(steps), trials)
    target: float | None
    min_layers_to_target: int | None

    def cell_mean(self, layers: int, step_size: float) -> float:
        i = self.spec.layer_values.index(layers)
        j = self.spec.step_values.index(step_size)
        return float(self.cuts[i, j].mean())

    def mean_table(self) -> np.ndarray:
        return self.cuts.mean(axis=2)

    def best_cell(self) -> tuple[int, float]:
        """(layers, step_size) of the best cell.

        Selection: the minimum layer count attaining the maximal average cut,
        then the step-size attaining it at that layer count; ties in step-size
        go to the larger value.
        """
        means = self.mean_table()
        rows = np.flatnonzero(means.max(axis=1) >= means.max() - 1e-12)
        i = min(rows, key=lambda r: self.spec.layer_values[r])
        cells = np.flatnonzero(means[i] >= means[i].max() - 1e-12)
        j = max(cells, key=lambda c: self.spec.step_values[c])
        return self.spec.layer_values[i], self.spec.step_values[j]

    def to_csv_rows(self):
        for (i, j, t), cut in np.ndenumerate(self.cuts):
            yield (self.spec.layer_values[i], self.spec.step_values[j], t, float(cut))


def grid_search(graph: Graph, grid: GridSpec, encoding: EncodingConfig, seed=0,
                *, shots: int | None = None, target: float | None = None,
                jobs=None) -> GridResult:
    """Average final best cut per (layers, step-size) cell.

    Every cell takes its gradient mode from ``_trial``: parameter shift when
    ``shots`` is set, the analytic gradient otherwise.  ``min_layers_to_target``
    reports the smallest layer count whose best cell reaches ``target``.
    """
    items = _grid_plan(graph, grid, encoding, seed, shots, target)
    records = _map_jobs(_run_train, items, jobs)
    cuts = np.array([r.final_best_cut for r in records]).reshape(
        len(grid.layer_values), len(grid.step_values), grid.trials_per_cell)
    min_layers = None if target is None else min(
        (layers for layers, row in zip(grid.layer_values, cuts.mean(axis=2))
         if row.max() >= target), default=None)
    return GridResult(spec=grid, cuts=cuts, target=target,
                      min_layers_to_target=min_layers)


def _grid_plan(graph, grid, encoding, seed, shots, target):
    """A grid's items, cell by cell with layers outermost, trials innermost."""
    core._check_encoding(graph, encoding)
    if target is not None:
        check_finite("target", target)
    arms = [(("grid", layers, step), graph,
             QemcSettings(layers=layers, step_size=step, iterations=grid.iteration_budget,
                          shots=shots, blue_count=encoding.blue_count,
                          trials=grid.trials_per_cell))
            for layers in grid.layer_values for step in grid.step_values]
    return _plan(arms, seed)


# -- blue-set scan ----------------------------------------------------------------


def scan_blue_sizes(graph: Graph, settings: QemcSettings, seed=0, *,
                    jobs=None) -> RunRecord:
    """Train ``settings.trials`` trials at every blue-set size B = 1 .. N//2 and
    return the record with the largest best-so-far cut.

    ``settings.blue_count`` is ignored.  Ties go to the smaller B, whose larger
    threshold needs fewer shots in practice; the winner's B is
    ``record.encoding.blue_count``.
    """
    records = _map_jobs(_run_train, _scan_plan(graph, settings, seed), jobs)
    return max(records, key=lambda r: r.final_best_cut)


def _scan_plan(graph, settings, seed):
    """A scan's items, blue-set size B ascending; B = 1 is always tried, so a
    graph too small to encode fails in ``_trial``."""
    return _plan(((("scan_blue", blue), graph,
                   replace(settings, blue_count=blue))
                  for blue in range(1, max(1, graph.num_nodes // 2) + 1)), seed)


# -- resource scaling --------------------------------------------------------------


@dataclass(frozen=True)
class ScalingRow:
    num_nodes: int
    axis: str
    minimal_value: float | None
    reached: bool


def default_shot_ladder(num_nodes: int) -> tuple[int, ...]:
    """Shot budgets N, N^1.5, N^2, 2N^2, 3N^2 (deduplicated, ascending)."""
    n = num_nodes
    ladder = [n, round(n ** 1.5), n * n, 2 * n * n, core.default_shots(n)]
    return tuple(sorted(set(int(s) for s in ladder)))


DEFAULT_LAYER_LADDER = (1, 2, 3, 5, 8, 12, 20, 30, 50, 80, 120)


def scaling_study(graph_family, targets, resource_axis: str,
                  settings: QemcSettings, *, axis_values=None, seed=0,
                  jobs=None) -> list[ScalingRow]:
    """Minimal resource on one axis for the average best cut to reach a target.

    ``resource_axis`` is one of ``layers``, ``shots`` or ``iterations``; other
    hyperparameters stay at the supplied settings.  One target per graph.  The
    ``iterations`` axis reads every budget off one set of runs, so it takes no
    ``axis_values``.  An unreachable target gives a row with ``reached=False``.
    """
    return [_scan_axis(num_nodes, resource_axis, rungs, target, jobs)
            for num_nodes, target, rungs in _scaling_plan(
                graph_family, targets, resource_axis, settings, axis_values, seed)]


def _scaling_plan(graph_family, targets, axis, settings, values, seed):
    """Per graph: ``(num_nodes, target, rungs)``, ``(value, items)`` rungs ascending."""
    graph_family = list(graph_family)
    targets = list(targets)
    if len(targets) != len(graph_family):
        raise ConfigError("need exactly one target per graph")
    check_finite("every target", targets)
    if axis not in ("layers", "shots", "iterations"):
        raise ConfigError(f"unknown resource axis {axis!r}")
    if axis == "iterations" and values is not None:
        raise ConfigError("the iterations axis takes no axis_values: one set of "
                          "settings.iterations runs gives every smaller budget")
    if values is not None:
        values = _distinct("axis_values", values)
    plans = []
    for index, (graph, target) in enumerate(zip(graph_family, targets)):
        tags = ("scaling", axis, index)
        if axis == "iterations":
            rungs = [(None, _plan([(tags, graph, settings)], seed))]
        else:
            ladder = values or (DEFAULT_LAYER_LADDER if axis == "layers"
                                else default_shot_ladder(graph.num_nodes))
            rungs = [(value, _plan([((*tags, value), graph,
                                     replace(settings, **{axis: value}))], seed))
                     for value in sorted(ladder)]
        plans.append((graph.num_nodes, target, rungs))
    return plans


def _scan_axis(num_nodes, axis, rungs, target, jobs):
    """Run the rungs in order up to the first whose mean cut reaches ``target``;
    on the iterations axis, the first budget whose mean best-so-far cut does."""
    for value, items in rungs:
        records = _map_jobs(_run_train, items, jobs)
        if axis == "iterations":
            hits = np.flatnonzero(np.mean([r.best_cuts for r in records], axis=0) >= target)
            if hits.size:
                return ScalingRow(num_nodes, axis, float(hits[0] + 1), True)
        elif float(np.mean([r.final_best_cut for r in records])) >= target:
            return ScalingRow(num_nodes, axis, float(value), True)
    return ScalingRow(num_nodes, axis, None, False)


# -- multi-instance study ------------------------------------------------------------


@dataclass(frozen=True)
class StudyResult:
    """Iteration-indexed QEMC statistics over many instances, with GW levels.

    ``max_qemc_curve`` averages each instance's best trial; ``avg_qemc_curve``
    averages all trials.  ``max_gw``/``avg_gw`` are the matching GW statistics
    (mean of per-instance max; grand mean).
    """

    num_nodes: int
    degree: int
    num_instances: int
    qemc_trials: int
    gw_trials: int
    iterations: int
    max_qemc_curve: np.ndarray
    avg_qemc_curve: np.ndarray
    max_gw: float
    avg_gw: float
    qemc_final_cuts: np.ndarray     # (instances, qemc_trials)
    gw_cuts: np.ndarray             # (instances, gw_trials)

    def to_csv_rows(self):
        for it in range(self.iterations):
            yield (it + 1, "max_qemc", float(self.max_qemc_curve[it]))
            yield (it + 1, "avg_qemc", float(self.avg_qemc_curve[it]))
            yield (it + 1, "max_gw", self.max_gw)
            yield (it + 1, "avg_gw", self.avg_gw)


def multi_instance_study(num_instances: int, num_nodes: int, degree: int,
                         settings: QemcSettings, gw_trials: int = 10, seed=0,
                         *, gw_hyperplanes: int = 1, jobs=None) -> StudyResult:
    """Generate instances, run QEMC and GW trials on each, aggregate statistics.

    ``jobs`` bounds the workers for the QEMC trials.  GW runs in the calling
    process, one instance after another, because pool workers' BLAS threads
    would contend for the same cores.  Each instance's ``gw_trials`` are
    independent roundings of one relaxation solve (``baselines.gw``).  A GW
    trial is one hyperplane by default, so the max and average GW levels stay
    distinct trial statistics; raise ``gw_hyperplanes`` to steady each.
    """
    items = _study_plan(num_instances, num_nodes, degree, settings, gw_trials, seed,
                        gw_hyperplanes)
    records = _map_jobs(_run_train, items[:-num_instances], jobs)
    best_curves = np.array([r.best_cuts for r in records]).reshape(
        num_instances, settings.trials, settings.iterations)
    gw_cuts = np.array(_map_jobs(_run_gw, items[-num_instances:], 1))
    return StudyResult(
        num_nodes=num_nodes, degree=degree, num_instances=num_instances,
        qemc_trials=settings.trials, gw_trials=gw_trials, iterations=settings.iterations,
        max_qemc_curve=best_curves.max(axis=1).mean(axis=0),
        avg_qemc_curve=best_curves.mean(axis=(0, 1)),
        max_gw=float(gw_cuts.max(axis=1).mean()),
        avg_gw=float(gw_cuts.mean()),
        qemc_final_cuts=best_curves[:, :, -1],
        gw_cuts=gw_cuts)


def _study_plan(num_instances, num_nodes, degree, settings, gw_trials, seed, hyperplanes):
    """A study's QEMC items, instance by instance, then one GW item per instance."""
    check_count("num_instances", num_instances)
    check_count("gw_trials", gw_trials)
    check_count("gw_hyperplanes", hyperplanes)
    instances = [generate_regular(num_nodes, degree,
                                  derive_seed(seed, "study", "instance", i))
                 for i in range(num_instances)]
    return _plan(((("study", "qemc", i), graph, settings)
                  for i, graph in enumerate(instances)), seed) + [
        (("study", "gw", i), derive_seed(seed, "study", "gw", i),
         (graph, gw_trials, hyperplanes)) for i, graph in enumerate(instances)]


# -- resource accounting ---------------------------------------------------------------


@dataclass(frozen=True)
class ResourceEstimate:
    """Time-to-solution bookkeeping for one run: TTS = O[(T_C + T_Q) * P * I].

    ``classical_time_proxy`` is the per-evaluation edge count M;
    ``quantum_time_proxy`` is gates x shots (gates alone in exact mode).
    """

    num_parameters: int
    iterations: int
    shots: int | None
    layers: int
    gate_count: int
    circuit_executions: int
    expected_circuit_executions: int
    classical_time_proxy: float
    quantum_time_proxy: float
    tts_proxy: float


def resource_estimate(record: RunRecord) -> ResourceEstimate:
    """Derive the TTS decomposition from a run record and audit its counters.

    The expected execution count is 1 per iteration in analytic mode and
    1 + 2P per iteration under parameter shift.
    """
    p = record.ansatz.num_parameters
    gates = simulator.gate_count(record.ansatz)
    iterations = record.iterations_executed
    per_iteration = 1 if record.optimizer.gradient_mode == ANALYTIC else 1 + 2 * p
    shots = record.optimizer.shots
    t_c = float(record.graph_num_edges)
    t_q = float(gates * (shots if shots is not None else 1))
    return ResourceEstimate(
        num_parameters=p, iterations=iterations, shots=shots,
        layers=record.ansatz.num_layers, gate_count=gates,
        circuit_executions=record.counters.circuit_executions,
        expected_circuit_executions=per_iteration * iterations,
        classical_time_proxy=t_c, quantum_time_proxy=t_q,
        tts_proxy=(t_c + t_q) * p * iterations)
