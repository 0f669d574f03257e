"""What the benchmark swaps into qemc, from outside the package.

* ``core.train`` is wrapped by :func:`checks.check_record`, which checks every
  trial and counts it, in the main process and in pool workers alike.
* ``harness.ProcessPoolExecutor`` becomes a subclass whose worker initializer
  resets the worker's count and spans and, when the worker exits, writes them
  to a spool directory.  The main process drains the spool after each
  operation, so a trial that escaped the checks, or a worker that died,
  shows as a mismatch.
* While tracing, every public function (``__all__``) of every layer module is
  wrapped by a :class:`tracing.Tracer`.

Functions are swapped by identity in every loaded ``qemc`` module, so a name
imported into another module (``core.cut_value``, ``simulator.child_sequence``)
is swapped too, and every swap is undone by ``uninstall``.  Workers started by
fork inherit the swaps; under spawn or forkserver the initializer installs
them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util
from pathlib import Path

import checks
import tracing

#: the Hooks installed in this process; pool-worker initializers look it up here
_ACTIVE = None


def _swap(replacements):
    """Replace functions by identity in every loaded qemc module.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``;
    returns the ``(module, attribute, original)`` list that undoes the swap.
    """
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "qemc" and not modname.startswith("qemc."):
            continue
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                undo.append((module, attr, value))
    return undo


def _restore(undo):
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


class Hooks:
    """The checker, the pool hook and, while tracing, the span wrappers."""

    def __init__(self, spool):
        self.spool = Path(spool)
        self.checked = 0            # trials checked in this process
        self.tracer = None
        self._undo = []
        self._trace_undo = []

    def install(self):
        global _ACTIVE
        core = importlib.import_module("qemc.core")
        harness = importlib.import_module("qemc.harness")
        train = core.train

        @functools.wraps(train)
        def checked_train(*args, **kwargs):
            record = train(*args, **kwargs)
            checks.check_record(record)
            self.checked += 1
            return record

        self._undo = _swap({id(train): (train, checked_train)})
        self._undo.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
        harness.ProcessPoolExecutor = _Pool
        _ACTIVE = self

    def start_tracing(self, tracer):
        replacements = {}
        for layer in tracing.LAYERS:
            module = importlib.import_module(f"qemc.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replacements[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
        self._trace_undo = _swap(replacements)
        self.tracer = tracer

    def stop_tracing(self):
        _restore(self._trace_undo)
        self._trace_undo = []
        self.tracer = None

    def uninstall(self):
        global _ACTIVE
        self.stop_tracing()
        _restore(self._undo)
        self._undo = []
        _ACTIVE = None

    def drain(self):
        """``(trials checked, spans)`` written by pool workers since the last drain."""
        checked, spans = 0, []
        for path in sorted(self.spool.glob("*.pkl")):
            with open(path, "rb") as fh:
                payload = pickle.load(fh)   # written by this benchmark's workers
            path.unlink()
            checked += payload["checked"]
            spans.extend(payload["spans"])
        return checked, spans

    def _dump(self):
        payload = {"checked": self.checked,
                   "spans": self.tracer.spans if self.tracer else []}
        path = self.spool / f"{os.getpid()}-{time.monotonic_ns()}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


class _Pool(ProcessPoolExecutor):
    def __init__(self, max_workers=None, mp_context=None, **kwargs):
        if "initializer" in kwargs:
            raise TypeError("perfbench's pool hook cannot chain a worker initializer")
        hooks = _ACTIVE
        tracer = hooks.tracer
        parent, trial = (None, None)
        if tracer is not None:
            tracer.mark(tracing.POOL_START)
            parent, trial = tracer.current()
        super().__init__(max_workers, mp_context, initializer=_worker_init,
                         initargs=(str(hooks.spool), tracer is not None, parent, trial),
                         **kwargs)


def _worker_init(spool, tracing_on, parent, trial):
    hooks = _ACTIVE
    if hooks is None:                  # spawn or forkserver: nothing swapped yet
        hooks = Hooks(spool)
        hooks.install()
    hooks.checked = 0
    if tracing_on:
        if hooks.tracer is None:
            hooks.start_tracing(tracing.Tracer(parent, trial))
        else:                          # forked: the main process's tracer
            hooks.tracer.reset(parent, trial)
    mp_util.Finalize(None, hooks._dump, exitpriority=100)
