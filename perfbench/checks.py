"""Correctness checks on qemc's outputs.  A failed check raises CheckFailed."""

from __future__ import annotations

import numpy as np
from qemc.harness import resource_estimate


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_record(record) -> None:
    """One training trial: finite costs, a best-so-far curve that is the running
    maximum of the cuts, and as many circuit executions as the resource audit
    expects."""
    where = f"trial with seed {record.seed}"
    n = record.iterations_executed
    for field in ("costs", "cuts", "best_cuts"):
        if getattr(record, field).shape != (n,):
            raise CheckFailed(f"{where}: {field} does not have {n} entries")
    if not np.all(np.isfinite(record.costs)):
        raise CheckFailed(f"{where}: non-finite cost")
    if np.any(np.diff(record.best_cuts) < 0):
        raise CheckFailed(f"{where}: best-so-far cut decreases")
    if not np.array_equal(record.best_cuts, np.maximum.accumulate(record.cuts)):
        raise CheckFailed(f"{where}: best-so-far cut is not the running maximum")
    expected = resource_estimate(record).expected_circuit_executions
    if record.counters.circuit_executions != expected:
        raise CheckFailed(f"{where}: {record.counters.circuit_executions} circuit "
                          f"executions counted, {expected} expected")


def check_same_trial(first, second) -> None:
    """Two runs of one seeded trial agree bit for bit."""
    for field in ("costs", "cuts", "best_cuts", "final_params"):
        a, b = getattr(first, field), getattr(second, field)
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            raise CheckFailed(f"replay of seed {first.seed}: {field} differs")
    if first.counters != second.counters:
        raise CheckFailed(f"replay of seed {first.seed}: counters differ")


def check_cuts(cuts, upper: float, what: str) -> None:
    """Cut values are finite, positive and no larger than ``upper``."""
    cuts = np.asarray(cuts, dtype=np.float64)
    if cuts.size == 0 or not np.all(np.isfinite(cuts)):
        raise CheckFailed(f"{what}: missing or non-finite values")
    if np.any(cuts <= 0) or np.any(cuts > upper + 1e-9):
        raise CheckFailed(f"{what}: values outside (0, {upper}]: "
                          f"{cuts.min()}..{cuts.max()}")


def check_nondecreasing(curve, what: str) -> None:
    curve = np.asarray(curve, dtype=np.float64)
    if not np.all(np.isfinite(curve)) or np.any(np.diff(curve) < 0):
        raise CheckFailed(f"{what}: not a finite non-decreasing curve")


def check_ratio(value: float) -> None:
    if not (np.isfinite(value) and value > 0):
        raise CheckFailed(f"cut_ratio_mean is {value}, expected finite and > 0")
