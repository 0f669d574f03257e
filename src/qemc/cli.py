"""Command-line front end binding graphs, solver, baselines and harness.

Exit codes: 0 success, 1 usage/configuration error, 2 runtime error.  Standard
output carries human-readable summaries only; machine-readable data goes to
the files named by ``--out``.  Output paths (``--out``, ``--svg``) are
checked before any work starts, so a missing or unwritable directory exits 1
at once rather than after a long run.  Every output file embeds the fully
resolved configuration and the tool version, so re-running it reproduces the
output.
The environment variable QEMC_SEED supplies a master seed when ``--seed`` is
omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, baselines, core, harness, svg
from .core import EncodingConfig
from .errors import ConfigError, QemcError, RuntimeFailure, UnwritableOutput
from .graphs import (
    exhaustive_maxcut,
    generate_regular,
    read_edge_list_file,
    write_edge_list_file,
)
from .harness import GridSpec, QemcSettings
from .simulator import ANALYTIC, PARAMETER_SHIFT

_USAGE_EXIT = 1
_RUNTIME_EXIT = 2
_GRADIENT_MODES = {None: None, "analytic": ANALYTIC, "shift": PARAMETER_SHIFT}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for runtime
    # failures, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    text = os.environ.get("QEMC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"QEMC_SEED must be an integer, got {text!r}") from None


def _parse_shots(token: str, num_nodes: int) -> int | None:
    if token == "exact":
        return None
    if token == "3n2":
        return core.default_shots(num_nodes)
    try:
        return int(token)
    except ValueError:
        raise ConfigError(f"shots must be 'exact', '3n2' or an integer, got {token!r}") \
            from None


def _number_list(text: str, kind, option: str) -> list:
    """Comma-separated numbers of type ``kind``; at least one is required."""
    try:
        values = [kind(x) for x in text.split(",") if x]
    except ValueError:
        raise ConfigError(f"{option} must be comma-separated numbers, got {text!r}") \
            from None
    if not values:
        raise ConfigError(f"{option} needs at least one value")
    return values


def _check_output(path: str) -> None:
    """Fail before any work if ``path`` cannot be written; create nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise UnwritableOutput(f"output path {path!r} is a directory")
    if not os.path.isdir(parent):
        raise UnwritableOutput(f"output directory {parent!r} does not exist")
    if not os.access(parent, os.W_OK | os.X_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        raise UnwritableOutput(f"output path {path!r} is not writable")


def _config_comments(payload: dict) -> list[str]:
    return [f"version: {__version__}",
            f"config: {json.dumps(payload, sort_keys=True)}"]


# -- subcommands ----------------------------------------------------------------


def _cmd_generate(args) -> int:
    graph = generate_regular(args.nodes, args.degree, args.seed)
    write_edge_list_file(graph, args.out)
    print(f"N={graph.num_nodes} M={graph.num_edges} -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    graph = read_edge_list_file(args.graph)
    settings = QemcSettings(layers=args.layers, step_size=args.step_size,
                            iterations=args.iters,
                            shots=_parse_shots(args.shots, graph.num_nodes),
                            gradient_mode=_GRADIENT_MODES[args.grad],
                            blue_count=args.blue, trials=args.scan_trials)
    if args.scan_blue:
        record = harness.scan_blue_sizes(graph, settings, seed=args.seed)
        print(f"scan selected blue_count={record.encoding.blue_count}")
    else:
        record = core.train(*harness._trial(graph, settings, args.seed))
    if args.verbose:
        for i, (c, k, b) in enumerate(zip(record.costs, record.cuts,
                                          record.best_cuts), start=1):
            print(f"iter {i}: cost {c:.6f} cut {k:g} best {b:g}")

    payload = record.to_json_dict()
    payload["version"] = __version__
    try:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise RuntimeFailure(f"run record is not finite: {exc}") from None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"final best cut: {record.final_best_cut:g}")
    if args.target is not None:
        hit = record.iterations_to_target(args.target)
        print(f"iterations to target {args.target:g}: "
              f"{hit if hit is not None else 'not reached'}")
    if args.svg:
        svg.write_line_chart(
            args.svg,
            [("best-so-far cut", range(1, record.iterations_executed + 1),
              record.best_cuts)],
            title="best-so-far cut", x_label="iteration", y_label="cut")
    return 0


def _cmd_exhaustive(args) -> int:
    graph = read_edge_list_file(args.graph)
    cut_star, partition = exhaustive_maxcut(graph, node_cap=args.cap)
    print(f"optimal cut: {cut_star:g}")
    print(f"blue nodes: {partition.blue_nodes()}")
    return 0


def _cmd_gw(args) -> int:
    graph = read_edge_list_file(args.graph)
    cuts = baselines.gw(graph, trials=args.trials, seed=args.seed,
                        num_hyperplanes=args.hyperplanes)
    payload = {"graph": args.graph, "trials": args.trials, "seed": args.seed,
               "num_hyperplanes": args.hyperplanes}
    harness.write_csv(args.out, ["trial", "cut"], list(enumerate(cuts)),
                      comments=_config_comments(payload))
    print(f"GW {args.trials} trials: mean {np.mean(cuts):g} max {max(cuts):g}"
          f" -> {args.out}")
    return 0


def _cmd_grid(args) -> int:
    graph = read_edge_list_file(args.graph)
    shots = _parse_shots(args.shots, graph.num_nodes)
    grid = GridSpec(layer_values=tuple(_number_list(args.layers, int, "--layers")),
                    step_values=tuple(_number_list(args.steps, float, "--steps")),
                    trials_per_cell=args.trials,
                    iteration_budget=args.iters)
    encoding = (EncodingConfig.half(graph.num_nodes) if args.blue is None
                else EncodingConfig(args.blue, graph.num_nodes))
    result = harness.grid_search(graph, grid, encoding, seed=args.seed,
                                 shots=shots, target=args.target, jobs=args.jobs)
    payload = {"graph": args.graph, "layers": list(grid.layer_values),
               "steps": list(grid.step_values), "trials": args.trials,
               "iters": args.iters, "seed": args.seed, "blue": encoding.blue_count,
               "shots": shots, "target": args.target}
    harness.write_csv(args.out, ["layers", "step_size", "trial", "final_best_cut"],
                      result.to_csv_rows(), comments=_config_comments(payload))
    best_layers, best_step = result.best_cell()
    print(f"best cell: layers={best_layers} step_size={best_step:g} "
          f"mean cut {result.cell_mean(best_layers, best_step):g} -> {args.out}")
    if args.target is not None:
        print(f"min layers to target {args.target:g}: "
              f"{result.min_layers_to_target if result.min_layers_to_target is not None else 'not reached'}")
    return 0


def _cmd_scaling(args) -> int:
    graph_paths = args.graph
    graphs_list = [read_edge_list_file(p) for p in graph_paths]
    sizes = sorted({g.num_nodes for g in graphs_list})
    if args.shots == "3n2" and args.axis != "shots" and len(sizes) > 1:
        raise ConfigError(f"--shots 3n2 gives each graph size its own budget, but "
                          f"one run needs one budget; graph sizes are {sizes}")
    settings = QemcSettings(layers=args.layers, step_size=args.step_size,
                            iterations=args.iters, trials=args.trials,
                            shots=_parse_shots(args.shots, sizes[0])
                            if args.axis != "shots" else None)
    axis_values = _number_list(args.values, int, "--values") if args.values else None
    rows = harness.scaling_study(graphs_list, args.target, args.axis, settings,
                                 axis_values=axis_values, seed=args.seed,
                                 jobs=args.jobs)
    payload = {"graphs": graph_paths, "targets": args.target, "axis": args.axis,
               "layers": args.layers, "step_size": args.step_size,
               "iters": args.iters, "trials": args.trials, "seed": args.seed,
               "shots": settings.shots, "values": axis_values}
    harness.write_csv(
        args.out, ["num_nodes", "axis", "minimal_value", "reached"],
        [(r.num_nodes, r.axis, "" if r.minimal_value is None else r.minimal_value,
          r.reached) for r in rows],
        comments=_config_comments(payload))
    for r in rows:
        status = f"{r.minimal_value:g}" if r.reached else "target unreachable"
        print(f"N={r.num_nodes} {r.axis}: {status}")
    return 0


def _cmd_study(args) -> int:
    settings = QemcSettings(layers=args.layers, step_size=args.step_size,
                            iterations=args.iters, trials=args.qemc_trials)
    result = harness.multi_instance_study(
        args.instances, args.nodes, args.degree, settings,
        gw_trials=args.gw_trials, seed=args.seed,
        gw_hyperplanes=args.gw_hyperplanes, jobs=args.jobs)
    payload = {"instances": args.instances, "nodes": args.nodes,
               "degree": args.degree, "layers": args.layers,
               "step_size": args.step_size, "iters": args.iters,
               "qemc_trials": args.qemc_trials, "gw_trials": args.gw_trials,
               "gw_hyperplanes": args.gw_hyperplanes, "seed": args.seed}
    harness.write_csv(args.out, ["iteration", "stat_name", "value"],
                      result.to_csv_rows(), comments=_config_comments(payload))
    print(f"max QEMC {result.max_qemc_curve[-1]:g} vs max GW {result.max_gw:g}")
    print(f"avg QEMC {result.avg_qemc_curve[-1]:g} vs avg GW {result.avg_gw:g}")
    if args.svg:
        iters = range(1, result.iterations + 1)
        svg.write_line_chart(
            args.svg,
            [("max QEMC", iters, result.max_qemc_curve),
             ("avg QEMC", iters, result.avg_qemc_curve),
             ("max GW", iters, [result.max_gw] * result.iterations),
             ("avg GW", iters, [result.avg_gw] * result.iterations)],
            title=f"{args.instances} instances, N={args.nodes}, d={args.degree}",
            x_label="iteration", y_label="cut")
    return 0


# -- parser ---------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qemc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qemc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_kwargs = dict(type=int, default=_default_seed(),
                       help="master seed (default: QEMC_SEED env var or 0)")

    p = sub.add_parser("generate", help="write a random regular graph edge list")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="run the variational MaxCut solver")
    p.add_argument("--graph", required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--step-size", type=float, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--shots", default="exact",
                   help="'exact', '3n2' (= 3*N^2) or an integer")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--blue", type=int, default=None,
                       help="assumed blue-set size (default N//2)")
    group.add_argument("--scan-blue", action="store_true",
                       help="scan blue-set sizes 1..N//2 and keep the best")
    p.add_argument("--scan-trials", type=int, default=1,
                   help="trials per blue-set size under --scan-blue")
    p.add_argument("--grad", choices=["analytic", "shift"], default=None,
                   help="gradient mode (default: shift with --shots, else analytic)")
    p.add_argument("--target", type=float, default=None,
                   help="report iterations needed to reach this cut")
    p.add_argument("--verbose", action="store_true",
                   help="print one log line per iteration")
    p.add_argument("--svg", default=None, help="also write a best-so-far chart")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exhaustive", help="optimal cut by enumeration")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", type=int, default=28, help="node-count cap")
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("gw", help="Goemans-Williamson baseline trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--hyperplanes", type=int, default=100,
                   help="roundings per trial (best cut kept)")
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gw)

    p = sub.add_parser("grid", help="layer / step-size grid search")
    p.add_argument("--graph", required=True)
    p.add_argument("--layers", required=True,
                   help="comma-separated layer counts")
    p.add_argument("--steps", required=True,
                   help="comma-separated step sizes")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--shots", default="exact")
    p.add_argument("--blue", type=int, default=None)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("scaling", help="minimal resource to reach per-graph targets")
    p.add_argument("--graph", action="append", required=True,
                   help="edge-list file (repeatable)")
    p.add_argument("--target", action="append", type=float, required=True,
                   help="target cut, one per graph")
    p.add_argument("--axis", choices=["layers", "shots", "iterations"],
                   required=True)
    p.add_argument("--values", default=None,
                   help="comma-separated axis values (defaults per axis)")
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--step-size", type=float, default=0.7)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--shots", default="exact")
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("study", help="multi-instance QEMC vs GW study")
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--step-size", type=float, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--qemc-trials", type=int, default=10)
    p.add_argument("--gw-trials", type=int, default=10)
    p.add_argument("--gw-hyperplanes", type=int, default=1)
    p.add_argument("--seed", **seed_kwargs)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_study)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for path in (getattr(args, "out", None), getattr(args, "svg", None)):
            if path is not None:
                _check_output(path)
        return args.func(args)
    except ConfigError as exc:
        print(f"qemc: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except QemcError as exc:
        print(f"qemc: error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT
    except OSError as exc:
        print(f"qemc: error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
