"""A fixed reference kernel, timed next to the workload to gauge machine speed.

On a shared virtual machine the speed of the same code moves by a third
within seconds and drifts over minutes, so wall time in seconds says as much
about the neighbours as about qemc.  The benchmark therefore times this
kernel right after each set-up and before and after every operation, and
reports times at the reference speed: wall time x ``NOMINAL_S`` / the
kernel's time measured alongside, i.e. the seconds the same work would take
on a machine where the kernel takes ``NOMINAL_S``.  The kernel does the kind
of work qemc does at these sizes (small numpy calls on a complex state
vector and plain Python loops) and never calls into qemc, so a change to
the program moves the adjusted time while a change in machine speed mostly
cancels out of it.

Around operations it runs where the operation's work runs: in the main
process for an in-process workload, and for a pool workload in as many
helper processes at once as the pool is wide, so it sees the share of the
cores the workers saw.  Each helper is pinned to its own core, as busy pool
workers end up; left to the scheduler, a 20 ms burst often starts with two
helpers on one core.  The helpers are forked once, wait on a pipe between
samples, and are stopped by ``close``.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
from time import perf_counter

import numpy as np

REPEATS = 150           # 16-29 ms on the 2-vCPU VM this was written on
SIZE = 64               # a 64 x 64 = 4096-amplitude state
NOMINAL_S = 0.02        # the kernel time that adjusted seconds are quoted at
IN_PROCESS_SAMPLES = 5
JOIN_TIMEOUT_S = 10


def kernel() -> float:
    """Seconds one run of the fixed work takes."""
    state = np.random.default_rng(0).random(SIZE * SIZE) + 0j
    start = perf_counter()
    total = 0.0
    for _ in range(REPEATS):
        phased = state * np.exp(1j * state.real)
        moved = phased.reshape(SIZE, SIZE).T.copy().ravel()
        total += float(np.abs(moved).sum()) + sum(i * i for i in range(200))
    return perf_counter() - start


def in_process() -> float:
    """Median kernel time in this process; the first sample also warms it up."""
    return statistics.median(kernel() for _ in range(IN_PROCESS_SAMPLES))


def _serve(conn, cpu):
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(kernel())


class Reference:
    """``sample()`` is the mean kernel time in seconds of ``processes`` processes:
    this one when ``processes`` is 1, else as many helpers."""

    def __init__(self, processes: int):
        ctx = multiprocessing.get_context("fork")
        cpus = sorted(os.sched_getaffinity(0))
        self._conns, self._procs = [], []
        try:
            for i in range(processes if processes > 1 else 0):
                ours, theirs = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(theirs, cpus[i % len(cpus)]),
                                   daemon=True)
                proc.start()
                theirs.close()
                self._conns.append(ours)
                self._procs.append(proc)
            self.sample()                   # warm-up, not kept
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        if not self._conns:
            return kernel()
        for conn in self._conns:
            conn.send(True)
        return sum(conn.recv() for conn in self._conns) / len(self._conns)

    def close(self):
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass
        for proc in self._procs:
            proc.join(JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()
        self._conns, self._procs = [], []
