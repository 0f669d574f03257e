"""Golden seeded runs: short runs of every experiment, pinned in ``golden_runs.json``.

The README promises that results replay from the master seed alone.  This
corpus pins that promise across versions: ``test_golden.py`` reruns it and
compares cuts, best cuts, the seed of every planned trial, the first words of
a fixed set of derived seed streams and one sampled parameter-shift Jacobian
exactly, and costs and GW relaxation values to 1e-9 relative.  Runs stay at
30 iterations and at most 5 layers, where a float reassociation moves costs by
about 1e-12 and no cut, so only a change of seeds, tag paths or trial order
fails.

When a change alters seeded results on purpose, regenerate the file with

    PYTHONPATH=src python tests/golden.py

and say why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from qemc import baselines, core, harness
from qemc.core import EncodingConfig, OptimizerConfig
from qemc.graphs import Graph, generate_regular
from qemc.harness import GridSpec, QemcSettings
from qemc.seeding import child_sequence, derive_seed
from qemc.simulator import (ANALYTIC, PARAMETER_SHIFT, AnsatzConfig, probability_jacobian,
                            random_parameters)

GOLDEN = Path(__file__).with_name("golden_runs.json")
MASTER = 2718
ITERATIONS = 30

# Integer weights, with a zero and a negative one, keep every cut a sum of
# integers, exact in any summation order.
WEIGHTED = Graph.from_edges(6, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 0), (4, 5, 2),
                                (0, 5, -1), (0, 3, 1), (1, 4, 2)])


def _planned(items) -> list:
    """The ``[tags, seed]`` of every planned item."""
    return [[list(tags), seed] for tags, seed, _ in items]


def _record(record) -> dict:
    return {"seed": record.seed, "blue_count": record.encoding.blue_count,
            "costs": record.costs.tolist(), "cuts": record.cuts.tolist(),
            "best_cuts": record.best_cuts.tolist()}


def _seed_paths() -> list:
    """(seed, *tags) paths covering every kind of seed and tag ``child_sequence`` takes."""
    nested = child_sequence(MASTER, "shift", 3)
    return [(MASTER,), (MASTER, "shots", 1), (0,), (-1, "init"), (2**63, 2**64 - 1, 2**32),
            ("master", 0.5, True, None), (MASTER, np.int64(-7), np.uint64(2**64 - 1)),
            (np.random.SeedSequence(MASTER).spawn(2)[1], "a"), (nested, "shift"),
            (nested.spawn(1)[0], 0)]


def run_corpus() -> dict:
    """Every golden run, as plain JSON values keyed by run name."""
    runs = {"seeding": {
        "child_sequence": [child_sequence(*path).generate_state(4).tolist()
                           for path in _seed_paths()],
        "derive_seed": [derive_seed(*path) for path in _seed_paths()]}}
    config = AnsatzConfig(4, 2)
    jacobian = probability_jacobian(config, random_parameters(config, MASTER), shots=64,
                                    seed=MASTER)
    runs["probability_jacobian/sampled"] = {"jacobian": jacobian.tolist()}
    g8 = generate_regular(8, 3, seed=1)
    for mode in (ANALYTIC, PARAMETER_SHIFT):
        for shots in (None, 64):
            optimizer = OptimizerConfig(step_size=0.3, max_iterations=ITERATIONS,
                                        shots=shots, gradient_mode=mode, seed=MASTER)
            runs[f"train/{mode}/{shots or 'exact'}"] = _record(core.train(
                WEIGHTED, AnsatzConfig(3, 2), EncodingConfig(3, 6), optimizer))

    grid = GridSpec(layer_values=(2, 1), step_values=(0.5, 0.2), trials_per_cell=2,
                    iteration_budget=ITERATIONS)
    result = harness.grid_search(g8, grid, EncodingConfig(4, 8), seed=MASTER, target=9.0,
                                 jobs=1)
    plan = _planned(harness._grid_plan(g8, grid, EncodingConfig(4, 8), MASTER, None, 9.0))
    runs["grid_search"] = {"plan": plan, "cuts": result.cuts.tolist(),
                           "min_layers_to_target": result.min_layers_to_target}

    settings = QemcSettings(layers=2, step_size=0.4, iterations=ITERATIONS, trials=2)
    record = harness.scan_blue_sizes(WEIGHTED, settings, seed=MASTER)
    plan = _planned(harness._scan_plan(WEIGHTED, settings, MASTER))
    runs["scan_blue_sizes"] = {"plan": plan, **_record(record)}

    # One rung, so the run trains the whole plan.
    rows = harness.scaling_study([g8], [9.0], "layers", settings, axis_values=(5,),
                                 seed=MASTER, jobs=1)
    [(_, _, [(_, items)])] = harness._scaling_plan([g8], [9.0], "layers", settings, (5,),
                                                   MASTER)
    runs["scaling_study"] = {"plan": _planned(items), "rows": [
        [r.num_nodes, r.axis, r.minimal_value, r.reached] for r in rows]}

    study = harness.multi_instance_study(2, 8, 3, settings, gw_trials=2, seed=MASTER, jobs=2)
    plan = _planned(harness._study_plan(2, 8, 3, settings, 2, MASTER, 1))
    runs["multi_instance_study"] = {
        "plan": plan, "qemc_final_cuts": study.qemc_final_cuts.tolist(),
        "gw_cuts": study.gw_cuts.tolist(), "max_qemc_curve": study.max_qemc_curve.tolist(),
        "avg_qemc_curve": study.avg_qemc_curve.tolist()}

    # gw solves once, from trial 0's seed derive_seed(seed, "gw", 0, "solve"); the
    # relaxation values pin gw_solve from the first three trials' solve seeds.
    g12 = generate_regular(12, 3, seed=2)
    solves = [baselines.gw_solve(g12, seed=derive_seed(MASTER, "gw", trial, "solve"))
              for trial in range(3)]
    runs["gw"] = {"cuts": baselines.gw(g12, trials=3, seed=MASTER, num_hyperplanes=5),
                  "relaxation_values": [s.relaxation_value for s in solves]}
    return runs


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_corpus(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
