"""Goemans-Williamson baseline via low-rank relaxation and hyperplane rounding.

The semidefinite relaxation  max sum_e w_e (1 - <v_u, v_v>) / 2  over unit
vectors is solved in factorized form: one unit-norm row per node, rank
ceil(sqrt(2N)) + 1 by default, which is generically high enough for the
factorized landscape to have no spurious local optima.  Projected gradient
ascent with a backtracking line search never decreases the objective.  Each
line-search probe makes one product W V (W the weighted adjacency matrix): it
gives the objective sum(w)/2 - <V, W V>/4, and once accepted it is -2x the next
euclidean gradient.  Hyperplane rounding then extracts cuts from the embedding.

The uniform random-partition baseline and the exhaustive oracle are exposed
here as well, so every reference method lives in one namespace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, sqrt

import numpy as np

from .errors import ConfigError, RuntimeFailure, SizeMismatch, check_count
from .graphs import Graph, Partition, cut_value, exhaustive_maxcut, random_star_partition
from .seeding import child_rng, derive_seed

__all__ = [
    "Embedding",
    "GwSolveResult",
    "default_rank",
    "gw_solve",
    "gw_round",
    "gw",
    "random_star_cuts",
    "exhaustive_maxcut",
]


#: gw_solve stops once the projected gradient's Frobenius norm is below this
_TOLERANCE = 1e-6


def default_rank(num_nodes: int) -> int:
    return ceil(sqrt(2 * num_nodes)) + 1


@dataclass(frozen=True)
class Embedding:
    """Unit-norm vector per node; rows are the factorized relaxation variable."""

    vectors: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        if vec.ndim != 2:
            raise ConfigError("vectors must be a 2-D array (nodes x rank)")
        norms = np.linalg.norm(vec, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ConfigError("every embedding row must have unit norm")
        vec.setflags(write=False)
        object.__setattr__(self, "vectors", vec)

    @property
    def num_nodes(self) -> int:
        return self.vectors.shape[0]

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class GwSolveResult:
    embedding: Embedding
    relaxation_value: float
    converged: bool
    iterations: int


def _normalize_rows(vectors):
    vectors /= np.sqrt(np.einsum("ij,ij->i", vectors, vectors))[:, None]
    return vectors


def _require_finite(value, what, iteration):
    if not isfinite(value):
        raise RuntimeFailure(f"gw_solve: the {what} is not finite at iteration {iteration}")


@np.errstate(all="ignore")  # overflow surfaces as a non-finite objective or gradient
def gw_solve(graph: Graph, rank: int | None = None, max_iterations: int = 5000,
             seed=0) -> GwSolveResult:
    """Maximize the relaxation by Riemannian gradient ascent on unit rows.

    Stops when the projected gradient's Frobenius norm drops below 1e-6 or
    after ``max_iterations``; a run that hits the iteration cap is returned
    as-is with ``converged=False`` rather than raised.  A non-finite objective
    or gradient raises ``RuntimeFailure`` naming the iterate (0 is the start).
    """
    check_count("max_iterations", max_iterations, 0)
    rank = default_rank(graph.num_nodes) if rank is None else check_count("rank", rank, 2)
    weight_matrix = graph.adjacency_matrix()
    half_weight = 0.5 * graph.total_weight
    rng = child_rng(seed, "gw_solve")
    vectors = _normalize_rows(rng.normal(size=(graph.num_nodes, rank)))
    product = weight_matrix @ vectors
    value = half_weight - 0.25 * float(np.vdot(vectors, product))
    _require_finite(value, "objective", 0)
    converged, iterations = False, 0
    prev_vectors = prev_grad = None
    for iterations in range(1, max_iterations + 1):
        grad = -0.5 * product
        grad -= np.einsum("ij,ij->i", grad, vectors)[:, None] * vectors
        grad_norm = sqrt(float(np.vdot(grad, grad)))
        _require_finite(grad_norm, "gradient norm", iterations - 1)
        if grad_norm < _TOLERANCE:
            converged = True
            iterations -= 1
            break
        # Backtracking line search, started from a Barzilai-Borwein guess once
        # curvature information exists; halving guarantees monotone ascent.
        step = 1.0
        if prev_grad is not None:
            dg = grad - prev_grad
            denom = float(np.vdot(dg, dg))
            if denom > 0.0:
                step = abs(float(np.vdot(vectors - prev_vectors, dg))) / denom
                step = min(max(step, 1e-9), 1e6)
        prev_vectors, prev_grad = vectors, grad
        while step > 1e-14:
            candidate = _normalize_rows(vectors + step * grad)
            cand_product = weight_matrix @ candidate
            cand_value = half_weight - 0.25 * float(np.vdot(candidate, cand_product))
            if cand_value >= value - 1e-12:
                break
            step *= 0.5
        else:
            break  # line search stalled; keep the best iterate, unconverged
        vectors, product, value = candidate, cand_product, cand_value
    _require_finite(value, "objective", iterations)
    return GwSolveResult(Embedding(vectors), value, converged, iterations)


def gw_round(embedding: Embedding, graph: Graph, num_hyperplanes: int = 100,
             seed=0) -> tuple[float, Partition]:
    """Best cut over random-hyperplane roundings of an embedding.

    Each hyperplane is a standard-normal vector r; node i is blue when
    <v_i, r> > 0 and white otherwise (ties to white).  Deterministic per seed.
    """
    check_count("num_hyperplanes", num_hyperplanes)
    if embedding.num_nodes != graph.num_nodes:
        raise SizeMismatch("embedding and graph disagree on node count")
    rng = child_rng(seed, "gw_round")
    normals = rng.normal(size=(num_hyperplanes, embedding.rank))
    sides = (embedding.vectors @ normals.T) > 0          # nodes x hyperplanes
    crossing = sides[graph.edge_u] != sides[graph.edge_v]
    cuts = graph.edge_w @ crossing
    best = int(np.argmax(cuts))
    partition = Partition(sides[:, best].astype(np.uint8))
    return float(cuts[best]), partition


def random_star_cuts(graph: Graph, trials: int, seed=0,
                     blue_count: int | None = None) -> list[float]:
    """Cuts of ``trials`` uniform random partitions with a fixed blue count.

    Defaults to blue_count = N // 2, the same balance assumption the solver
    makes, which beats naive uniform sampling whenever the optimum is roughly
    balanced.  Running maxima of the returned list give a best-so-far curve.
    """
    check_count("trials", trials)
    blue = blue_count if blue_count is not None else graph.num_nodes // 2
    return [cut_value(graph,
                      random_star_partition(graph.num_nodes, blue,
                                            derive_seed(seed, "random_star", trial)))
            for trial in range(trials)]


def gw(graph: Graph, trials: int = 10, seed=0, *,
       num_hyperplanes: int = 100) -> list[float]:
    """Per-trial best GW cuts; each trial is a fresh random-init ``gw_solve``
    at its default rank and iteration cap, then ``num_hyperplanes`` roundings."""
    check_count("trials", trials)
    check_count("num_hyperplanes", num_hyperplanes)
    cuts = []
    for trial in range(trials):
        solved = gw_solve(graph, seed=derive_seed(seed, "gw", trial, "solve"))
        best, _ = gw_round(solved.embedding, graph, num_hyperplanes=num_hyperplanes,
                           seed=derive_seed(seed, "gw", trial, "round"))
        cuts.append(best)
    return cuts
