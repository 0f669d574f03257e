"""The qubit-efficient MaxCut algorithm: threshold decoding, cost, training loop.

A graph on N nodes is optimized with ceil(log2 N) qubits.  The measured
probability p(k) of basis state |k> carries node k's color: blue when p(k)
exceeds the threshold 1/(2B), white otherwise, where B is the assumed size of
the blue set.  The cost drives every edge (j, k) toward one endpoint at
probability 0 and the other at 1/B:

    cost = sum over edges  w * [ (|p(j)-p(k)| - 1/B)^2 + (p(j)+p(k) - 1/B)^2 ]

The weight factor is an extension for weighted graphs; unit weights reproduce
the plain sum.  Minimizing with Adam over the circuit angles and decoding the
best histogram seen yields the returned cut.

``decode``, ``cost`` and ``cost_gradient_wrt_probs`` take the distribution as
a plain float64 array of length 2^n, as ``simulator.probabilities`` and
``simulator.sample_histogram`` return it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import simulator
from .errors import (
    DegenerateDenominator,
    HistogramTooShort,
    InvalidBlueCount,
    RuntimeFailure,
    ShapeMismatch,
    check_count,
    check_finite,
)
from .graphs import Graph, Partition, _crossing_weight
from .seeding import child_sequence
from .simulator import ANALYTIC, PARAMETER_SHIFT, AnsatzConfig

__all__ = [
    "EncodingConfig",
    "OptimizerConfig",
    "RunCounters",
    "RunRecord",
    "decode",
    "cost",
    "cost_gradient_wrt_probs",
    "cost_gradient_params",
    "train",
    "cut_ratio",
    "rescaled_ratio",
    "default_shots",
]


def default_shots(num_nodes: int) -> int:
    """Default shot budget 3*N^2 for an N-node graph."""
    return 3 * num_nodes * num_nodes


@dataclass(frozen=True)
class EncodingConfig:
    """Probability-threshold encoding: B assumed blue nodes, threshold 1/(2B)."""

    blue_count: int
    num_nodes: int

    def __post_init__(self):
        check_count("num_nodes", self.num_nodes, 2, InvalidBlueCount)
        check_count("blue_count", self.blue_count, error=InvalidBlueCount)
        if self.blue_count > self.num_nodes // 2:
            raise InvalidBlueCount(
                f"blue_count must be in [1, {self.num_nodes // 2}] "
                f"(the smaller set is blue), got {self.blue_count}")

    @property
    def threshold(self) -> float:
        return 1.0 / (2.0 * self.blue_count)

    @classmethod
    def half(cls, num_nodes: int) -> "EncodingConfig":
        """The B = N/2 default used when nothing is known about the optimum."""
        return cls(num_nodes // 2, num_nodes)


# Adam's moment decay rates and denominator guard, fixed for every run.
_BETA1, _BETA2, _EPSILON = 0.9, 0.99, 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam step size, budget and evaluation mode for one training run; Adam
    always uses beta1 = 0.9, beta2 = 0.99 and epsilon = 1e-8."""

    step_size: float
    max_iterations: int
    shots: int | None = None              # None = exact probabilities
    gradient_mode: str = ANALYTIC
    seed: int = 0

    def __post_init__(self):
        if (not isinstance(self.step_size, numbers.Real)
                or check_finite("step_size", self.step_size, ShapeMismatch) <= 0):
            raise ShapeMismatch(
                f"step_size must be positive and finite, got {self.step_size}")
        check_count("max_iterations", self.max_iterations, 0, ShapeMismatch)
        if self.shots is not None:
            check_count("shots", self.shots, error=ShapeMismatch)
        if self.gradient_mode not in (ANALYTIC, PARAMETER_SHIFT):
            raise ShapeMismatch(f"unknown gradient mode {self.gradient_mode!r}")


@dataclass
class RunCounters:
    """Quantum-side resource counters for one run.

    ``gate_applications`` counts gates in executed circuits (gate count per
    execution times executions); classical post-processing such as the
    reverse-sweep gradient is not an execution and does not add to it.
    """

    circuit_executions: int = 0
    shots_total: int = 0
    gate_applications: int = 0


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Per-iteration history and outcome of one training run."""

    costs: np.ndarray
    cuts: np.ndarray
    best_cuts: np.ndarray
    final_params: np.ndarray
    counters: RunCounters
    graph_num_edges: int
    ansatz: AnsatzConfig
    encoding: EncodingConfig
    optimizer: OptimizerConfig

    @property
    def seed(self) -> int:
        return self.optimizer.seed

    @property
    def iterations_executed(self) -> int:
        """``train`` stops early only by raising, so every run executes its budget."""
        return self.optimizer.max_iterations

    @property
    def final_best_cut(self) -> float:
        return float(self.best_cuts[-1]) if self.iterations_executed else 0.0

    def iterations_to_target(self, target_cut: float) -> int | None:
        """Smallest 1-based iteration whose best-so-far cut reaches the target."""
        hits = np.flatnonzero(self.best_cuts >= target_cut)
        return int(hits[0]) + 1 if hits.size else None

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "graph": {"num_nodes": self.encoding.num_nodes,
                          "num_edges": self.graph_num_edges},
                "ansatz": {"num_qubits": self.ansatz.num_qubits,
                           "num_layers": self.ansatz.num_layers,
                           "entangler_strides": list(self.ansatz.entangler_strides)},
                "encoding": {"blue_count": self.encoding.blue_count,
                             "num_nodes": self.encoding.num_nodes},
                "optimizer": {"step_size": self.optimizer.step_size,
                              "max_iterations": self.optimizer.max_iterations,
                              "shots": self.optimizer.shots,
                              "gradient_mode": self.optimizer.gradient_mode,
                              "beta1": _BETA1, "beta2": _BETA2,
                              "epsilon": _EPSILON},
            },
            "seed": self.seed,
            "iterations": [
                {"cost": float(c), "cut": float(k), "best_cut": float(b)}
                for c, k, b in zip(self.costs, self.cuts, self.best_cuts)
            ],
            "final_params": [float(x) for x in self.final_params],
            "counters": {
                "circuit_executions": self.counters.circuit_executions,
                "shots_total": self.counters.shots_total,
                "gate_applications": self.counters.gate_applications,
            },
        }


# -- encoding and cost -------------------------------------------------------------


def _check_probs(probs, num_nodes: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D histogram, got shape {probs.shape}")
    if probs.size < num_nodes:
        raise HistogramTooShort(
            f"histogram has {probs.size} entries, graph has {num_nodes} nodes")
    return probs


def decode(probs, encoding: EncodingConfig) -> Partition:
    """Color node k blue iff p(k) strictly exceeds the threshold 1/(2B).

    ``probs`` is the length-2^n distribution, exact or sampled.  Entries at
    indices >= num_nodes are zero padding for graphs whose size is not a
    power of two; they are ignored.
    """
    probs = _check_probs(check_finite("probabilities", probs), encoding.num_nodes)
    blue = probs[:encoding.num_nodes] > encoding.threshold
    return Partition(blue.astype(np.uint8))


def _cost_terms(probs, graph: Graph, inv_b: float) -> tuple:
    """``(cost, dC/dp)`` for 1/B = ``inv_b``, from one gather of the edge endpoints'
    probabilities; one ``np.bincount`` adds every ``u`` term, then every ``v``
    term, to its endpoint."""
    probs = _check_probs(probs, graph.num_nodes)
    ends = np.concatenate([graph.edge_u, graph.edge_v])
    pj, pk = probs[ends].reshape(2, -1)
    diff = pj - pk
    d = np.abs(diff) - inv_b
    s = pj + pk - inv_b
    value = float((graph.edge_w * (d ** 2 + s ** 2)).sum())
    d_term = 2.0 * d * np.sign(diff)
    s_term = 2.0 * s
    terms = np.concatenate([graph.edge_w * (d_term + s_term),
                            graph.edge_w * (s_term - d_term)])
    return value, np.bincount(ends, weights=terms, minlength=probs.size)


def _check_encoding(graph: Graph, encoding: EncodingConfig) -> None:
    if encoding.num_nodes != graph.num_nodes:
        raise ShapeMismatch("encoding and graph disagree on num_nodes")


def cost(probs, graph: Graph, encoding: EncodingConfig) -> float:
    """Edge-wise mean-squared-error cost; zero exactly when every edge pairs a
    probability-0 endpoint with a probability-1/B endpoint."""
    _check_encoding(graph, encoding)
    probs = check_finite("probabilities", probs)
    return _cost_terms(probs, graph, 1.0 / encoding.blue_count)[0]


def cost_gradient_wrt_probs(probs, graph: Graph,
                            encoding: EncodingConfig) -> np.ndarray:
    """dC/dp(j) for every entry of ``probs``; padded indices get 0.

    At the |p(j)-p(k)| kink the subgradient midpoint sign(0) = 0 is used, so
    symmetric configurations get a vanishing difference term instead of an
    arbitrary sign.
    """
    _check_encoding(graph, encoding)
    probs = check_finite("probabilities", probs)
    return _cost_terms(probs, graph, 1.0 / encoding.blue_count)[1]


@np.errstate(all="ignore")  # the gradient is checked before it is returned
def cost_gradient_params(graph: Graph, ansatz: AnsatzConfig,
                         encoding: EncodingConfig, params) -> np.ndarray:
    """Analytic chain-rule gradient dC/dtheta = (dC/dp) . (dp/dtheta) at the
    exact distribution of ``params``, simulating the circuit once.  Raises
    :class:`RuntimeFailure` when the gradient is not finite."""
    weights = cost_gradient_wrt_probs(simulator.probabilities(ansatz, params),
                                      graph, encoding)
    if not np.isfinite(weights).all():    # probability_vjp takes finite weights only
        raise RuntimeFailure("cost_gradient_params: the gradient is not finite")
    grad = simulator.probability_vjp(ansatz, params, weights)
    if not np.isfinite(grad).all():
        raise RuntimeFailure("cost_gradient_params: the gradient is not finite")
    return grad


# -- training ------------------------------------------------------------------------


@np.errstate(all="ignore")  # train checks each iteration's cost, cut and Adam state
def train(graph: Graph, ansatz: AnsatzConfig, encoding: EncodingConfig,
          optimizer: OptimizerConfig) -> RunRecord:
    """Optimize the circuit angles with Adam and record the per-iteration history.

    Each iteration evaluates the histogram at the current angles (exact or an
    S-shot sample), records its cost and decoded cut, and takes one Adam step
    from the chain-rule gradient.  Only distributions pass through here: the
    simulator keeps the state it simulated for the histogram and starts the
    gradient from it, so each iteration simulates the circuit once.  Sampled
    parameter shift draws its 2P shifted histograms from one sweep over the
    state and its P tangents; every other gradient is a VJP, so exact shift
    trains bit for bit as analytic does, with the counters of 1 + 2P
    executions a step.  Iteration indices count Adam steps starting at 1;
    the pre-initialization state is not recorded.  Deterministic for a fixed
    seed, whatever the BLAS thread count.  Raises :class:`RuntimeFailure`
    naming the iteration at which the cost, the cut, Adam's second moment or
    the angles stop being finite.
    """
    if ansatz.num_qubits != simulator.num_qubits_for(graph.num_nodes):
        raise ShapeMismatch(
            f"ansatz has {ansatz.num_qubits} qubits, graph needs "
            f"{simulator.num_qubits_for(graph.num_nodes)}")
    _check_encoding(graph, encoding)

    params = simulator.random_parameters(ansatz, optimizer.seed)
    num_params = ansatz.num_parameters
    num_nodes, threshold = graph.num_nodes, encoding.threshold
    inv_b = 1.0 / encoding.blue_count
    shift = optimizer.gradient_mode == PARAMETER_SHIFT
    # Every iteration executes the circuit once, plus 2P shifted copies for
    # parameter shift, each sampled with the shot budget if there is one.
    executions = optimizer.max_iterations * (1 + 2 * num_params if shift else 1)
    counters = RunCounters(
        circuit_executions=executions,
        shots_total=0 if optimizer.shots is None else executions * optimizer.shots,
        gate_applications=executions * simulator.gate_count(ansatz))

    costs = np.empty(optimizer.max_iterations)
    cuts = np.empty(optimizer.max_iterations)
    best_cuts = np.empty(optimizer.max_iterations)

    m = np.zeros(num_params)
    v = np.zeros(num_params)
    best = -np.inf

    for it in range(1, optimizer.max_iterations + 1):
        probs = simulator.probabilities(ansatz, params)
        if optimizer.shots is not None:
            probs = simulator.sample_histogram(
                probs, optimizer.shots, seed=child_sequence(optimizer.seed, "shots", it))

        costs[it - 1], weights = _cost_terms(probs, graph, inv_b)
        if not np.isfinite(weights).all():    # probability_vjp takes finite weights only
            raise RuntimeFailure(f"train: dC/dp is not finite at iteration {it}")
        if shift and optimizer.shots is not None:
            jac = simulator.probability_jacobian(
                ansatz, params, shots=optimizer.shots,
                seed=child_sequence(optimizer.seed, "shift", it))
            # einsum sums in its own loop: the bits do not depend on BLAS threads.
            grad = np.einsum("kp,k->p", jac, weights)
        else:
            grad = simulator.probability_vjp(ansatz, params, weights)

        # The cut of decode(probs, encoding), without building the Partition.
        cut = _crossing_weight(graph, probs[:num_nodes] > threshold)
        cuts[it - 1] = cut
        best = max(best, cut)
        best_cuts[it - 1] = best

        m = _BETA1 * m + (1.0 - _BETA1) * grad
        v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
        m_hat = m / (1.0 - _BETA1 ** it)
        v_hat = v / (1.0 - _BETA2 ** it)
        params = params - optimizer.step_size * m_hat / (np.sqrt(v_hat) + _EPSILON)
        # v @ params is non-finite if any entry of v or params is (0 * inf is NaN).
        if not math.isfinite(costs[it - 1] + cut + v @ params):
            raise RuntimeFailure(f"train: the cost, cut or Adam state is not finite "
                                 f"at iteration {it}")

    return RunRecord(
        costs=costs, cuts=cuts, best_cuts=best_cuts, final_params=params,
        counters=counters, graph_num_edges=graph.num_edges, ansatz=ansatz,
        encoding=encoding, optimizer=optimizer)


# -- quality metrics -----------------------------------------------------------------


def cut_ratio(cut: float, cut_star: float) -> float:
    """Cut divided by the optimal cut."""
    check_finite("cut", cut)
    if check_finite("cut_star", cut_star) <= 0:
        raise DegenerateDenominator("cut_star must be positive")
    return cut / cut_star


def rescaled_ratio(cut: float, cut_star: float, num_edges: int) -> float:
    """(M - 2*Cut) / (M - 2*Cut*): the cut ratio on the signed-energy scale,
    1 at the optimum and 0 for a half-cut."""
    check_finite("cut", cut)
    denom = check_finite("num_edges", num_edges) - 2.0 * check_finite("cut_star", cut_star)
    if denom == 0:
        raise DegenerateDenominator("num_edges equals twice cut_star")
    return (num_edges - 2.0 * cut) / denom
