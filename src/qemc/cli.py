"""Command-line front end binding graphs, solver, baselines and harness.

Exit codes: 0 success, 1 usage/configuration error, 2 runtime error (running
out of memory included).  Standard output carries human-readable summaries
only; machine-readable data goes to the files named by ``--out``.  Output
paths (``--out``, ``--svg``) are checked before any work starts, so a missing
or unwritable directory, or an ``--svg`` naming the ``--out`` file, exits 1 at
once rather than after a long run.  Every output file embeds the fully
resolved configuration and the tool version, so re-running it reproduces the
output.  A CSV's ``# config:`` line holds every parsed option except
``--out``, ``--svg`` and ``--jobs``, with ``--shots 3n2`` and the default
``--blue`` resolved to numbers.
The environment variable QEMC_SEED supplies a master seed when a seeded
subcommand runs without ``--seed``; it is read only then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, baselines, core, harness, svg
from .core import EncodingConfig
from .errors import (ConfigError, QemcError, RuntimeFailure, UnwritableOutput, check_count,
                     check_finite)
from .graphs import (
    EXHAUSTIVE_NODE_CAP,
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


def _number_list(kind, option: str):
    """An argparse type: comma-separated numbers of type ``kind``, at least one.

    It raises ``ConfigError``, which argparse passes through to ``main``."""
    def parse(text: str) -> list:
        try:
            values = [kind(x) for x in text.split(",") if x]
        except ValueError:
            raise ConfigError(f"{option} must be comma-separated numbers, got {text!r}") \
                from None
        if not values:
            raise ConfigError(f"{option} needs at least one value")
        return values
    return parse


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


# Parsed arguments that do not shape a CSV's contents, so not in its config.
_NOT_CONFIG = {"command", "func", "out", "svg", "jobs"}


def _write_csv(args, header, rows, **resolved) -> None:
    """Write ``rows`` to ``args.out`` after a version and a ``# config:`` line.

    The config is every parsed argument outside ``_NOT_CONFIG``; ``resolved``
    replaces the values only known after parsing."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    config.update(resolved)
    harness.write_csv(args.out, header, rows,
                      comments=[f"version: {__version__}",
                                f"config: {json.dumps(config, sort_keys=True)}"])


# -- subcommands ----------------------------------------------------------------


def _cmd_generate(args) -> int:
    graph = generate_regular(args.nodes, args.degree, args.seed)
    write_edge_list_file(graph, args.out)
    print(f"N={graph.num_nodes} M={graph.num_edges} -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    if args.target is not None:
        check_finite("target", args.target)
    if args.jobs is not None:     # checked even where only --scan-blue would use it
        check_count("jobs", args.jobs)
    graph = read_edge_list_file(args.graph)
    settings = QemcSettings(layers=args.layers, step_size=args.step_size,
                            iterations=args.iters,
                            shots=_parse_shots(args.shots, graph.num_nodes),
                            gradient_mode=_GRADIENT_MODES[args.grad],
                            blue_count=args.blue, trials=args.scan_trials)
    if args.scan_blue:
        record = harness.scan_blue_sizes(graph, settings, seed=args.seed, jobs=args.jobs)
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
                        num_hyperplanes=args.num_hyperplanes)
    _write_csv(args, ["trial", "cut"], list(enumerate(cuts)))
    print(f"GW {args.trials} trials: mean {np.mean(cuts):g} max {max(cuts):g}"
          f" -> {args.out}")
    return 0


def _cmd_grid(args) -> int:
    graph = read_edge_list_file(args.graph)
    shots = _parse_shots(args.shots, graph.num_nodes)
    grid = GridSpec(layer_values=tuple(args.layers), step_values=tuple(args.steps),
                    trials_per_cell=args.trials, iteration_budget=args.iters)
    encoding = (EncodingConfig.half(graph.num_nodes) if args.blue is None
                else EncodingConfig(args.blue, graph.num_nodes))
    result = harness.grid_search(graph, grid, encoding, seed=args.seed,
                                 shots=shots, target=args.target, jobs=args.jobs)
    _write_csv(args, ["layers", "step_size", "trial", "final_best_cut"],
               result.to_csv_rows(), shots=shots, blue=encoding.blue_count)
    best_layers, best_step = result.best_cell()
    print(f"best cell: layers={best_layers} step_size={best_step:g} "
          f"mean cut {result.cell_mean(best_layers, best_step):g} -> {args.out}")
    if args.target is not None:
        print(f"min layers to target {args.target:g}: "
              f"{result.min_layers_to_target if result.min_layers_to_target is not None else 'not reached'}")
    return 0


def _cmd_scaling(args) -> int:
    graphs_list = [read_edge_list_file(p) for p in args.graphs]
    sizes = sorted({g.num_nodes for g in graphs_list})
    if args.shots == "3n2" and args.axis != "shots" and len(sizes) > 1:
        raise ConfigError(f"--shots 3n2 gives each graph size its own budget, but "
                          f"one run needs one budget; graph sizes are {sizes}")
    settings = QemcSettings(layers=args.layers, step_size=args.step_size,
                            iterations=args.iters, trials=args.trials,
                            shots=_parse_shots(args.shots, sizes[0])
                            if args.axis != "shots" else None)
    rows = harness.scaling_study(graphs_list, args.targets, args.axis, settings,
                                 axis_values=args.values, seed=args.seed,
                                 jobs=args.jobs)
    _write_csv(args, ["num_nodes", "axis", "minimal_value", "reached"],
               [(r.num_nodes, r.axis, "" if r.minimal_value is None else r.minimal_value,
                 r.reached) for r in rows],
               shots=settings.shots)
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
    _write_csv(args, ["iteration", "stat_name", "value"], result.to_csv_rows())
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


def _shared(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option that several subcommands declare."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _build_parser() -> _Parser:
    parser = _Parser(prog="qemc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qemc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    graph = _shared("--graph", required=True)
    seed = _shared("--seed", type=int, default=None,
                   help="master seed (default: QEMC_SEED env var or 0)")
    jobs = _shared("--jobs", type=int, default=None)
    out = _shared("--out", required=True)

    def add(name, summary, func, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = add("generate", "write a random regular graph edge list", _cmd_generate,
            seed, out)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)

    p = add("solve", "run the variational MaxCut solver", _cmd_solve, graph, seed,
            jobs, out)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--step-size", type=float, required=True)
    p.add_argument("--iters", type=int, required=True)
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

    p = add("exhaustive", "optimal cut by enumeration", _cmd_exhaustive, graph)
    p.add_argument("--cap", type=int, default=EXHAUSTIVE_NODE_CAP, help="node-count cap")

    p = add("gw", "Goemans-Williamson baseline trials", _cmd_gw, graph, seed, out)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--hyperplanes", dest="num_hyperplanes", metavar="HYPERPLANES",
                   type=int, default=100, help="roundings per trial (best cut kept)")

    p = add("grid", "layer / step-size grid search", _cmd_grid, graph, seed, jobs, out)
    p.add_argument("--layers", type=_number_list(int, "--layers"), required=True,
                   help="comma-separated layer counts")
    p.add_argument("--steps", type=_number_list(float, "--steps"), required=True,
                   help="comma-separated step sizes")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--shots", default="exact")
    p.add_argument("--blue", type=int, default=None)
    p.add_argument("--target", type=float, default=None)

    p = add("scaling", "minimal resource to reach per-graph targets", _cmd_scaling,
            seed, jobs, out)
    p.add_argument("--graph", dest="graphs", metavar="GRAPH", action="append",
                   required=True, help="edge-list file (repeatable)")
    p.add_argument("--target", dest="targets", metavar="TARGET", action="append",
                   type=float, required=True, help="target cut, one per graph")
    p.add_argument("--axis", choices=["layers", "shots", "iterations"], required=True)
    p.add_argument("--values", type=_number_list(int, "--values"), default=None,
                   help="comma-separated axis values (defaults per axis)")
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--step-size", type=float, default=0.7)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--shots", default="exact")

    p = add("study", "multi-instance QEMC vs GW study", _cmd_study, seed, jobs, out)
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--step-size", type=float, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--qemc-trials", type=int, default=10)
    p.add_argument("--gw-trials", type=int, default=10)
    p.add_argument("--gw-hyperplanes", type=int, default=1)
    p.add_argument("--svg", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:    # a seeded subcommand without --seed
            args.seed = _default_seed()
        outputs = [p for p in map(vars(args).get, ("out", "svg")) if p is not None]
        for path in outputs:
            _check_output(path)
        if len({os.path.realpath(path) for path in outputs}) < len(outputs):
            raise ConfigError(f"--svg and --out name the same file {args.out!r}")
        return args.func(args)
    except ConfigError as exc:
        print(f"qemc: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (QemcError, OSError) as exc:
        print(f"qemc: error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT
    except MemoryError as exc:    # numpy's message names the allocation that failed
        print(f"qemc: error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
