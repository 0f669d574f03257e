#!/usr/bin/env python3
"""qemc benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload study256 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from the checkout's ``src/``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` interleaves untraced and traced operations
and reports the per-layer metrics and the tracing overhead.  Human-readable
lines and a block of machine facts come first; the last line of standard
output is one JSON object.  The exit code is 0 when every check passed, 1
when a check failed and 2 when the program cannot be found.  Workloads,
metrics and their predictions are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("study256", "grid16", "shots16")
SETUP_SAMPLES = 5           # the main process's own set-up plus fresh ones
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop of operations runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shapes are for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "qemc" / "__init__.py").is_file():
        print(f"perfbench: no qemc sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy and qemc are imported here, inside the set-up time
    import hooks
    import qemc
    import tracing
    import workloads
    if Path(qemc.__file__).resolve().parent != SRC / "qemc":
        print(f"perfbench: imported qemc from {qemc.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    spool = tempfile.mkdtemp(prefix="spool-", dir=OUT)
    hk = hooks.Hooks(spool)
    hk.install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            hk.start_tracing(tracer)
            with tracer.span("bench.setup", "setup"):
                workload.setup()
            hk.stop_tracing()
        else:
            workload.setup()
        setup_s = perf_counter() - start
        import reference
        setup = (setup_s, reference.in_process())   # machine speed right after set-up
        if args.setup_probe:
            print(*map(repr, setup))
            return 0
        return measure(args, workload, hk, tracer, setup)
    finally:
        hk.uninstall()
        shutil.rmtree(spool, ignore_errors=True)


class Tally:
    """Operations attempted and failed; a failure prints its traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"perfbench: {label} failed", file=sys.stderr)
            traceback.print_exc()
            return None


def run_op(workload, hk, k, tracer):
    """One operation, traced when ``tracer`` is given: ``(wall_s, OpResult)``."""
    hk.checked = 0
    if tracer is not None:
        hk.start_tracing(tracer)
    t0 = perf_counter()
    try:
        if tracer is None:
            result = workload.op(k)
        else:
            with tracer.span("bench.op", f"op{k}"):
                result = workload.op(k)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            hk.stop_tracing()
        worker_checked, spans = hk.drain()
        if tracer is not None:
            tracer.spans.extend(spans)
    checked = hk.checked + worker_checked
    if checked != result.trials:
        import checks
        raise checks.CheckFailed(f"{checked} trials were checked, the operation "
                                 f"should have run {result.trials}")
    return wall, result


def measure(args, workload, hk, tracer, setup) -> int:
    import reference
    tally = Tally()
    walls, results, traced_walls, refs = [], [], [], []
    ref = reference.Reference(workload.processes) if tracer is None else None
    try:
        deadline = perf_counter() + args.seconds
        k = 0
        while perf_counter() < deadline or k < (1 if tracer else workload.window):
            if tracer is None:
                refs.append(ref.sample())
                done = tally.run(f"operation {k}", lambda: run_op(workload, hk, k, None))
                if done is not None:
                    walls.append(done[0])
                    results.append((k, done[1]))
            else:
                # untraced and traced runs of the same operation, alternating which goes first
                pair = {}
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    done = tally.run(f"operation {k} (traced={traced})",
                                     lambda: run_op(workload, hk, k,
                                                    tracer if traced else None))
                    if done is not None:
                        pair[traced] = done[0]
                if len(pair) == 2:
                    walls.append(pair[False])
                    traced_walls.append(pair[True])
            k += 1
        if ref is not None:
            refs.append(ref.sample())
        tally.run("bit-for-bit replay", workload.replay)
        # read while the reference helpers still run, so only reaped pool workers count
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    finally:
        if ref is not None:
            ref.close()

    if tracer is None:
        setups = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics, notes = end_to_end(workload, walls, results, refs, setups,
                                    usage / 1024.0, tally)
    else:
        metrics, notes = per_layer(args, tracer, walls, traced_walls)
    correct = tally.failed == 0

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} operations={k} shape={json.dumps(workload.p)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<8} {notes.get(name, '')}")
    print(json.dumps({"machine": machine_facts()}))
    reported = reported_names(args.trace)
    missing = reported - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json lists metrics this run did not "
                         f"produce: {sorted(missing)}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name in reported}}))
    return 0 if correct else 1


def reported_names(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def probe_setup(args):
    """``(set-up time, reference time after it)`` of the workload in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0", "--size", args.size],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return tuple(map(float, out.stdout.strip().splitlines()[-1].split()))


def tail_note(samples):
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q} {statistics.quantiles(samples, n=100)[q - 1]:.6g} s"
    return "no tail percentile (fewer than 20 samples)"


def local_reference(refs, k):
    """Reference time around operation ``k``: the median of the three samples
    taken before it and the three after (``refs[k]`` is the one just before)."""
    return statistics.median(refs[max(0, k - 2):k + 4])


def end_to_end(workload, walls, results, refs, setups, peak_rss_mb, tally):
    import checks
    import reference
    if not walls:
        raise SystemExit("perfbench: no operation completed")
    ratios = [r for k, result in results if k < workload.window for r in result.ratios]
    ratio = sum(ratios) / len(ratios) if ratios else float("nan")
    tally.run("cut ratio check", lambda: checks.check_ratio(ratio))
    # wall times at the reference speed (reference.py says why)
    adjusted = [wall * reference.NOMINAL_S / local_reference(refs, k)
                for wall, (k, _) in zip(walls, results)]
    setup_adjusted = [wall * reference.NOMINAL_S / ref for wall, ref in setups]
    metrics = {
        "setup_s": (statistics.median(setup_adjusted), "s"),
        "wall_s": (statistics.median(adjusted), "s"),
        "iters_per_s": (statistics.median(r.iterations / wall
                                          for wall, (_, r) in zip(adjusted, results)), "1/s"),
        "setup_clock_s": (statistics.median(wall for wall, _ in setups), "s"),
        "wall_clock_s": (statistics.median(walls), "s"),
        "iters_per_clock_s": (statistics.median(r.iterations / wall
                                                for wall, (_, r) in zip(walls, results)),
                              "1/s"),
        "reference_s": (statistics.median(refs), "s"),
        "cut_ratio_mean": (ratio, "ratio"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    at_nominal = f"at the reference speed ({reference.NOMINAL_S * 1e3:g} ms kernel)"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each in a fresh process, " + at_nominal,
        "wall_s": f"median of {len(walls)} operations, {at_nominal}; " + tail_note(adjusted),
        "iters_per_s": f"QEMC Adam iterations per second {at_nominal}, "
                       "median over operations",
        "setup_clock_s": "setup_s in wall-clock seconds",
        "wall_clock_s": "wall_s in wall-clock seconds; " + tail_note(walls),
        "iters_per_clock_s": "iters_per_s in wall-clock seconds",
        "reference_s": f"median of {len(refs)} reference samples, "
                       f"{workload.processes} process(es) at once",
        "cut_ratio_mean": f"mean of {len(ratios)} ratios from the first "
                          f"{workload.window} operation(s)",
        "error_rate": f"{tally.failed} failed of {tally.attempted} attempted",
        "peak_rss_mb": "main process peak plus the largest pool worker's peak",
    }
    return metrics, notes


def per_layer(args, tracer, walls, traced_walls):
    import tracing
    import workloads
    if not walls:
        raise SystemExit("perfbench: no untraced/traced pair completed")
    metrics = tracing.layer_metrics(tracer.spans, workloads.JOBS, tracer.names)
    metrics["trace.overhead_frac"] = (sum(traced_walls) / sum(walls) - 1.0, "fraction")
    path = OUT / f"trace-{args.workload}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "id": f"{s.sid[0]}:{s.sid[1]}",
                "parent": f"{s.parent[0]}:{s.parent[1]}" if s.parent else None,
                "name": s.name, "start": s.start, "end": s.end, "trial": s.trial,
                "counts": s.counts}) + "\n")
    notes = {"trace.overhead_frac": f"{len(walls)} untraced/traced pairs; "
                                    f"{len(tracer.spans)} spans in {path.name}"}
    return metrics, notes


# -- machine facts ------------------------------------------------------------------


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read (never set) through its API."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qemc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts():
    import multiprocessing

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {key: os.environ.get(key) for key in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "pool_start_method": multiprocessing.get_context().get_start_method(),
    }


if __name__ == "__main__":
    sys.exit(main())
