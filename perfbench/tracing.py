"""Spans around calls into qemc's layers, and the per-layer metrics they give.

A span is one call of one public function of a layer module: its name
(``layer.function``), start and end (``time.perf_counter``, which reads the
same clock in every process of the machine), the span that was open when it
started, a trial id, and counts read from the call's result.  Span ids are
``(pid, sequence)`` pairs, so spans recorded in pool workers never collide
with the main process's.  Spans stay in memory until the run ends.

The trial id names the unit of work a span belongs to.  The benchmark opens
``bench.setup`` and ``bench.op`` spans with ids ``setup`` and ``op<k>``;
``core.train`` and ``baselines.gw`` append their seed (``op3/train1234``),
and every other span inherits the id of the span that caused it.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

#: the layer modules, in the order their metrics are printed
LAYERS = ("simulator", "core", "graphs", "seeding", "baselines", "harness")

#: spans that do the harness's work; everything else inside a harness call is dispatch
WORK_SPANS = frozenset({"core.train", "baselines.gw"})

#: harness entry points that fan work out to a process pool
HARNESS_CALLS = frozenset({"harness.grid_search", "harness.multi_instance_study",
                           "harness.scaling_study"})

POOL_START = "harness.pool_start"


class Span(NamedTuple):
    sid: tuple
    parent: tuple | None
    name: str
    start: float
    end: float
    trial: str | None
    counts: dict | None


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _train_counts(record):
    counters = record.counters
    return {"iterations": record.iterations_executed,
            "circuit_executions": counters.circuit_executions,
            "gate_applications": counters.gate_applications,
            # computed, not measured: each executed gate rewrites the whole
            # complex128 statevector of 2^n amplitudes
            "bytes_computed": counters.gate_applications * record.ansatz.dim * 16}


def _gw_solve_counts(result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


_COUNTS_OF = {"core.train": _train_counts, "baselines.gw_solve": _gw_solve_counts}

_TRIAL_OF = {
    "core.train": lambda args, kwargs: f"train{_arg(args, kwargs, 3, 'optimizer').seed}",
    "baselines.gw": lambda args, kwargs: f"gw{_arg(args, kwargs, 2, 'seed')}",
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, parent=None, trial=None):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.names: set[str] = set()     # every name wrapped, called or not
        self._seq = itertools.count()
        self._stack = [(parent, trial)]

    def reset(self, parent=None, trial=None):
        """Start afresh in a forked worker; wrappers keep their references."""
        self.pid = os.getpid()
        self.spans = []
        self._seq = itertools.count()
        self._stack[:] = [(parent, trial)]

    def current(self):
        """``(span id, trial id)`` of the innermost open span."""
        return self._stack[-1]

    def wrap(self, name, fn):
        """``fn`` with a span recorded around every call that returns."""
        self.names.add(name)
        counts_of = _COUNTS_OF.get(name)
        trial_of = _TRIAL_OF.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, trial = stack[-1]
            if trial_of is not None:
                trial = f"{trial}/{trial_of(args, kwargs)}"
            sid = (self.pid, next(self._seq))
            stack.append((sid, trial))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, trial,
                                   counts_of(result) if counts_of else None))
            return result

        return traced

    @contextmanager
    def span(self, name, trial):
        """Open a span from the benchmark itself, such as ``bench.op``."""
        parent = self._stack[-1][0]
        sid = (self.pid, next(self._seq))
        self._stack.append((sid, trial))
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, trial, None))

    def mark(self, name):
        """Record a zero-length span, used to count events such as pool starts."""
        parent, trial = self._stack[-1]
        now = perf_counter()
        self.spans.append(Span((self.pid, next(self._seq)), parent, name, now, now,
                               trial, None))


# -- analysis -------------------------------------------------------------------


def _covered(lo, hi, children):
    """Length of [lo, hi] covered by the union of the children's intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted((c.start, c.end) for c in children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _roots(spans):
    """Name of the outermost ancestor of every span (``bench.setup``/``bench.op``)."""
    by_id = {s.sid: s for s in spans}
    root = {}
    for s in spans:
        path = []
        node = s
        while node.sid not in root:
            path.append(node.sid)
            parent = by_id.get(node.parent)
            if parent is None:
                root[node.sid] = node.name
                break
            node = parent
        top = root[node.sid]
        for sid in path:
            root[sid] = top
    return root


class _PhaseSums:
    """Sums kept apart for the set-up and the operations; read as set-up + mean op."""

    def __init__(self, root, num_ops):
        self._root = root
        self._num_ops = num_ops
        self._setup = defaultdict(float)
        self._ops = defaultdict(float)

    def add(self, span, key, value):
        phase = self._ops if self._root[span.sid] == "bench.op" else self._setup
        phase[key] += value

    def __getitem__(self, key):
        return self._setup.get(key, 0.0) + self._ops.get(key, 0.0) / self._num_ops


def layer_metrics(spans, jobs, names=()):
    """Per-layer metrics from a traced run's spans.

    Sums (calls, busy and self time, counts, dispatch time, pool starts) are
    the traced set-up plus the mean traced operation, so they do not depend on
    how many operations fit in the run.  ``first_call_s`` is the mean, over
    processes, of the first ``gw_solve`` call each made; the fractions are
    over the whole traced run.  Functions in ``names`` that were never
    called report zeros.
    """
    num_ops = sum(1 for s in spans if s.name == "bench.op")
    if num_ops == 0:
        raise ValueError("no traced operation in the run")
    sums = _PhaseSums(_roots(spans), num_ops)
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    for s in spans:
        duration = s.end - s.start
        sums.add(s, f"{s.name}.calls", 1)
        sums.add(s, f"{s.name}.busy_s", duration)
        sums.add(s, f"{s.name}.self_s",
                 duration - _covered(s.start, s.end, children[s.sid]))
        for key, value in (s.counts or {}).items():
            sums.add(s, f"{s.name}.{key}", value)

    harness_wall = work_busy = 0.0
    for s in spans:
        if s.name in HARNESS_CALLS:
            work = [c for c in children[s.sid] if c.name in WORK_SPANS]
            duration = s.end - s.start
            sums.add(s, "dispatch_s", duration - _covered(s.start, s.end, work))
            harness_wall += duration
            work_busy += sum(c.end - c.start for c in work)

    gw_solves = [s for s in spans if s.name == "baselines.gw_solve"]
    first_gw = {}
    for s in gw_solves:
        pid = s.sid[0]
        if pid not in first_gw or s.start < first_gw[pid].start:
            first_gw[pid] = s

    metrics = {}
    for name in sorted({s.name for s in spans} | set(names)):
        if name.split(".")[0] in LAYERS and name != POOL_START:
            metrics[f"{name}.calls"] = (sums[f"{name}.calls"], "count")
            metrics[f"{name}.busy_s"] = (sums[f"{name}.busy_s"], "s")
            metrics[f"{name}.self_s"] = (sums[f"{name}.self_s"], "s")
    for key in ("circuit_executions", "gate_applications", "bytes_computed"):
        metrics[f"simulator.{key}"] = (sums[f"core.train.{key}"],
                                       "bytes" if key.startswith("bytes") else "count")
    metrics["core.train.iterations"] = (sums["core.train.iterations"], "count")
    metrics["baselines.gw_solve.iterations"] = (sums["baselines.gw_solve.iterations"],
                                                "count")
    metrics["baselines.gw_solve.first_call_s"] = (
        sum(s.end - s.start for s in first_gw.values()) / len(first_gw)
        if first_gw else 0.0, "s")
    metrics["baselines.gw_solve.converged_frac"] = (
        sum(s.counts["converged"] for s in gw_solves) / len(gw_solves)
        if gw_solves else 0.0, "fraction")
    metrics["harness.dispatch_s"] = (sums["dispatch_s"], "s")
    metrics["harness.worker_busy_frac"] = (
        work_busy / (harness_wall * jobs) if harness_wall else 0.0, "fraction")
    metrics["harness.pool_starts"] = (sums[f"{POOL_START}.calls"], "count")
    return metrics
