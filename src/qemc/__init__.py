"""Qubit-efficient variational MaxCut heuristic (QEMC) on a built-in
statevector simulator, with Goemans-Williamson, exhaustive-search and random
baselines plus an experiment harness for grid searches, convergence curves and
resource-scaling studies.

The package re-exports each layer module's ``__all__``; a public name is
written once, in its module.
"""

__version__ = "0.1.0"

from . import baselines, core, errors, graphs, harness, simulator
from .baselines import *  # noqa: F403
from .core import *  # noqa: F403
from .graphs import *  # noqa: F403
from .harness import *  # noqa: F403
from .simulator import *  # noqa: F403

# dict.fromkeys drops the repeat of exhaustive_maxcut, which baselines re-exports.
__all__ = list(dict.fromkeys(
    ["__version__", "errors"]
    + [name for module in (graphs, simulator, core, baselines, harness)
       for name in module.__all__]))
