"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the full pass takes on the order of ten minutes, dominated by the
256-node study (A4).
"""

import numpy as np
import pytest

from qemc import baselines, core, graphs, harness, simulator
from qemc.core import EncodingConfig, OptimizerConfig
from qemc.harness import QemcSettings
from qemc.seeding import derive_seed
from qemc.simulator import (
    ANALYTIC,
    PARAMETER_SHIFT,
    AnsatzConfig,
    num_qubits_for,
    probabilities,
    random_parameters,
    sample_histogram,
)

SEED = 20260808
JOBS = 2


def _verdict(name, ok, detail):
    line = f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _train_many(graph, layers, step_size, iterations, seeds):
    ansatz = AnsatzConfig(num_qubits_for(graph.num_nodes), layers)
    encoding = EncodingConfig(graph.num_nodes // 2, graph.num_nodes)
    items = [(("acceptance", seed), seed,
              (graph, ansatz, encoding,
               OptimizerConfig(step_size=step_size, max_iterations=iterations, seed=seed)))
             for seed in seeds]
    return harness._map_jobs(harness._run_train, items, jobs=JOBS)


def test_a1_k4_optimum():
    """A1: 10 exact-shot trials on K4 (1 layer, step 0.99) all reach cut 4."""
    k4 = graphs.complete_graph(4)
    records = _train_many(k4, layers=1, step_size=0.99, iterations=300,
                          seeds=range(10))
    finals = [r.final_best_cut for r in records]
    _verdict("A1", all(f == 4.0 for f in finals),
             f"10/10 trials reached 4 -> {finals}")


def _small_graph_campaign(tag, layers, step_size):
    exact_hits, total, ratios = 0, 0, []
    for num_nodes in (8, 12, 16):
        for instance in range(5):
            g = graphs.generate_regular(num_nodes, 3,
                                        derive_seed(SEED, tag, num_nodes, instance))
            cut_star, _ = graphs.exhaustive_maxcut(g)
            seeds = [derive_seed(SEED, tag, num_nodes, instance, t)
                     for t in range(10)]
            records = _train_many(g, layers, step_size, 300, seeds)
            finals = [r.final_best_cut for r in records]
            exact_hits += max(finals) == cut_star
            total += 1
            ratios.append(np.mean(finals) / cut_star)
    return exact_hits, total, float(np.mean(ratios))


def test_a2_small_graph_quality():
    """A2: L=5, step 0.7 on 3-regular N in {8,12,16}: best-of-10 hits the
    optimum on >= 80% of instances and the mean cut-ratio is >= 0.95."""
    exact_hits, total, mean_ratio = _small_graph_campaign("A2", 5, 0.7)
    ok = exact_hits >= 0.8 * total and mean_ratio >= 0.95
    _verdict("A2", ok,
             f"best-of-10 == optimum on {exact_hits}/{total} instances, "
             f"mean cut-ratio {mean_ratio:.4f} (needs >= 0.95)")


def test_a3_shallow_circuits():
    """A3: the same campaign at L=3 keeps a mean cut-ratio >= 0.93."""
    _, _, mean_ratio = _small_graph_campaign("A3", 3, 0.9)
    _verdict("A3", mean_ratio >= 0.93,
             f"mean cut-ratio {mean_ratio:.4f} at 3 layers (needs >= 0.93)")


def test_a4_beats_gw_at_256():
    """A4: 5 fresh 9-regular 256-node instances, L=50 step 0.14, 200
    iterations, 10 seeds: grand-mean QEMC cut >= 0.995 x grand-mean GW cut."""
    settings = QemcSettings(layers=50, step_size=0.14, iterations=200, trials=10)
    result = harness.multi_instance_study(5, 256, 9, settings, gw_trials=10,
                                          seed=SEED, gw_hyperplanes=1, jobs=JOBS)
    qemc_mean = float(result.avg_qemc_curve[-1])
    ratio = qemc_mean / result.avg_gw
    _verdict("A4", ratio >= 0.995,
             f"grand-mean QEMC {qemc_mean:.2f} vs grand-mean GW "
             f"{result.avg_gw:.2f} (ratio {ratio:.4f}, needs >= 0.995)")


def test_a5_gradient_correctness():
    """A5: analytic chain-rule gradients match central finite differences over
    100 kink-free random draws, and parameter-shift agrees to 1e-9."""
    rng = np.random.default_rng(SEED)
    checked = 0
    worst_fd = 0.0
    worst_modes = 0.0
    while checked < 100:
        num_nodes = int(rng.choice([4, 6, 8]))
        g = graphs.generate_regular(num_nodes, 3, int(rng.integers(1 << 30)))
        layers = int(rng.integers(1, 4))
        config = AnsatzConfig(num_qubits_for(num_nodes), layers)
        blue = int(rng.integers(1, num_nodes // 2 + 1))
        encoding = EncodingConfig(blue, num_nodes)
        params = rng.uniform(0, 2 * np.pi, config.num_parameters)
        probs = probabilities(config, params)
        if np.min(np.abs(probs[g.edge_u] - probs[g.edge_v])) < 1e-7:
            continue  # stay away from the |p(j)-p(k)| kink
        checked += 1

        grad = core.cost_gradient_params(g, config, encoding, params)
        h = 1e-5
        for i in range(config.num_parameters):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            fd = (core.cost(probabilities(config, up), g, encoding)
                  - core.cost(probabilities(config, down), g, encoding)) / (2 * h)
            # pass when |grad - fd| <= max(1e-4 * |fd|, 1e-8); track the margin
            worst_fd = max(worst_fd,
                           abs(grad[i] - fd) / max(1e-4 * abs(fd), 1e-8) * 1e-4)

        weights = core.cost_gradient_wrt_probs(probabilities(config, params),
                                               g, encoding)
        shifted = simulator.probability_jacobian(config, params).T @ weights
        worst_modes = max(worst_modes, float(np.abs(grad - shifted).max()))
    ok = worst_fd < 1e-4 and worst_modes < 1e-9
    _verdict("A5", ok,
             f"{checked} draws: worst FD relative error {worst_fd:.2e} "
             f"(< 1e-4), analytic vs shift {worst_modes:.2e} (< 1e-9)")


def test_a6_encoding_invariants():
    """A6: normalization to 1e-10 on 1000 random circuits; threshold boundary
    decodes white; padding stays uncolored; blue sets grow with B."""
    rng = np.random.default_rng(SEED + 6)
    worst_norm = 0.0
    for _ in range(1000):
        config = AnsatzConfig(int(rng.integers(1, 5)), int(rng.integers(0, 4)))
        params = rng.uniform(0, 2 * np.pi, config.num_parameters)
        norm = np.linalg.norm(simulator.run_circuit(config, params))
        worst_norm = max(worst_norm, abs(norm - 1.0))

    boundary = core.decode(np.full(4, 0.25), EncodingConfig(2, 4))
    boundary_white = boundary.blue_count == 0

    padding_ok = True
    monotone_ok = True
    for _ in range(200):
        probs = rng.dirichlet(np.ones(8))
        partition = core.decode(probs, EncodingConfig(2, 5))
        padding_ok &= partition.num_nodes == 5
        previous = set()
        for blue_count in range(1, 5):
            blue = set(core.decode(probs, EncodingConfig(blue_count, 8)).blue_nodes())
            monotone_ok &= previous <= blue
            previous = blue
    ok = worst_norm < 1e-10 and boundary_white and padding_ok and monotone_ok
    _verdict("A6", ok,
             f"worst norm error {worst_norm:.2e} (< 1e-10), boundary white: "
             f"{boundary_white}, padding ignored: {padding_ok}, "
             f"blue-set monotone in B: {monotone_ok}")


def test_a7_zero_cost_characterization():
    """A7: the ideal K_{3,3} histogram has cost < 1e-12 and decodes to the
    full cut of 9 edges, matching the exhaustive oracle."""
    k33 = graphs.complete_bipartite_graph(3, 3)
    cut_star, _ = graphs.exhaustive_maxcut(k33)
    encoding = EncodingConfig(3, 6)
    ideal = np.array([1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 0.0, 0.0, 0.0])
    value = core.cost(ideal, k33, encoding)
    cut = graphs.cut_value(k33, core.decode(ideal, encoding))
    ok = value < 1e-12 and cut == 9 == cut_star
    _verdict("A7", ok, f"cost {value:.2e} (< 1e-12), decoded cut {cut} "
                       f"== optimum {cut_star}")


def test_a8_gw_sanity():
    """A8: best-of-10 GW reaches 0.878 of the exhaustive optimum on >= 95% of
    20 random 3-regular instances; triangle relaxation equals 2.25."""
    hits = 0
    for instance in range(20):
        num_nodes = (8, 10, 12, 14, 16, 18, 20)[instance % 7]
        g = graphs.generate_regular(num_nodes, 3, derive_seed(SEED, "A8", instance))
        cut_star, _ = graphs.exhaustive_maxcut(g)
        cuts = baselines.gw(g, trials=10, seed=derive_seed(SEED, "A8gw", instance))
        hits += max(cuts) / cut_star >= 0.878
    triangle = graphs.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    relax = baselines.gw_solve(triangle, seed=SEED).relaxation_value
    triangle_ok = abs(relax - 2.25) <= 1e-4
    ok = hits >= 19 and triangle_ok
    _verdict("A8", ok, f"ratio >= 0.878 on {hits}/20 instances (needs >= 19), "
                       f"triangle relaxation {relax:.6f} (2.25 +- 1e-4)")


def test_a9_shot_estimator_consistency():
    """A9: median total-variation distance to the exact distribution shrinks
    by sqrt(10) per decade of shots, within a factor of 2."""
    config = AnsatzConfig(3, 2)
    params = random_parameters(config, seed=SEED)
    exact = probabilities(config, params)
    medians = []
    for shots in (10 ** 3, 10 ** 4, 10 ** 5):
        distances = []
        for trial in range(20):
            empirical = sample_histogram(exact, shots,
                                         seed=derive_seed(SEED, "A9", shots, trial))
            distances.append(0.5 * np.abs(empirical - exact).sum())
        medians.append(float(np.median(distances)))
    ratios = [medians[i] / medians[i + 1] for i in range(2)]
    root_ten = np.sqrt(10.0)
    ok = all(root_ten / 2 <= r <= root_ten * 2 for r in ratios)
    _verdict("A9", ok, f"median TV {medians} -> decade ratios "
                       f"{[f'{r:.2f}' for r in ratios]} (within [1.58, 6.32])")


def test_a10_monotone_best_and_bitwise_replay():
    """A10: best-so-far arrays are non-decreasing in every mode, and a fixed
    seed replays a bitwise-identical record."""
    k4 = graphs.complete_graph(4)
    g8 = graphs.generate_regular(8, 3, seed=1)
    runs = [
        (k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
         OptimizerConfig(step_size=0.9, max_iterations=50, seed=0)),
        (k4, AnsatzConfig(2, 1), EncodingConfig(2, 4),
         OptimizerConfig(step_size=0.9, max_iterations=30, shots=48,
                         gradient_mode=PARAMETER_SHIFT, seed=1)),
        (g8, AnsatzConfig(3, 2), EncodingConfig(4, 8),
         OptimizerConfig(step_size=0.7, max_iterations=50, seed=2)),
        (g8, AnsatzConfig(3, 2), EncodingConfig(4, 8),
         OptimizerConfig(step_size=0.7, max_iterations=20, shots=192,
                         gradient_mode=ANALYTIC, seed=3)),
    ]
    monotone = True
    replay = True
    for graph, ansatz, encoding, optimizer in runs:
        first = core.train(graph, ansatz, encoding, optimizer)
        second = core.train(graph, ansatz, encoding, optimizer)
        monotone &= bool(np.all(np.diff(first.best_cuts) >= 0))
        replay &= (np.array_equal(first.costs, second.costs)
                   and np.array_equal(first.cuts, second.cuts)
                   and np.array_equal(first.final_params, second.final_params)
                   and first.counters == second.counters)
    _verdict("A10", monotone and replay,
             f"monotone best-so-far: {monotone}, bitwise replay: {replay}")
