"""Fuzz every subcommand of the command line in process.

Whatever the argument vector, ``cli.main`` must end with exit code 0, 1 or 2
and nothing else, let no ``RuntimeWarning`` out, write only standard JSON
(no NaN or Infinity), and leave no ``--out`` or ``--svg`` file behind when it
fails.  Every size that sets the work is tiny (nodes <= 16, iterations <= 3,
layers <= 2, trials <= 2, instances <= 2) and the only valid ``--jobs`` is 1,
so no worker pool starts; examples are derandomized, so the module runs in a
few seconds and draws the same examples on every run.
"""

import json
import os
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qemc.cli import main

_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _choice(good, bad=None):
    """An option's ``(good, bad)`` value strategies; ``bad`` None has no bad value."""
    return st.sampled_from(good), bad and st.sampled_from(bad)


def _count(*good):
    return _choice([str(g) for g in good], ["0", "-1", "1.5", "two", "", "1e3"])


_BAD_FLOATS = ["nan", "inf", "-inf", "1e308", "-0.0", "fast"]
_FLOAT = _choice(["0.5", "0.9", "1", "2"], _BAD_FLOATS)
_TARGET = _choice(["2", "3.7", "0", "-1", "-0.0", "1e308"], _BAD_FLOATS)
_SEED = _choice(["0", "1", "7"], ["-1", "x", "1.5", str(2 ** 64)])
_JOBS = _choice(["1"], ["0", "-1", "1.5", "x", ""])
_SHOTS = _choice(["exact", "3n2", "16", "1"], ["0", "-4", "lots", "1.5", ""])
_STEPS = (st.lists(_FLOAT[0], min_size=1, max_size=2, unique=True).map(",".join),
          st.lists(st.one_of(*_FLOAT), max_size=2).map(",".join))
_LAYER_LIST = _choice(["1", "1,2", "2,1"], ["1,1", "", ",", "1,x", "0", "-1", "1.5"])
_OUT = _choice(["r.out"], ["missing/r.out", ""])
_SVG = _choice(["c.svg", "r.out"], ["missing/c.svg"])  # r.out: the --out file
_FLAG = (st.just(True), None)

# Edge-list file contents; None leaves the file missing.
_GOOD_GRAPHS = [b"0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",                   # K4
                b"N 8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n",  # 8-cycle
                b"# isolated nodes\nN 6\n0 1\n1 2\n2 3\n3 0 2.5\n",
                b"0 1 -0.0\n1 2 -0.0\n0 2 1\n2 3\n"]
_EDGE_LINES = st.one_of(
    st.builds("{} {}{}".format, st.integers(0, 15), st.integers(0, 15),
              st.sampled_from(["", " 1", " 2.5", " nan", " 1e308", " -0.0", " inf",
                               " -1"])),
    st.sampled_from(["0 x", "1", "# comment", "N 16", "N 0", "1 2 3 4", "-1 2"]))
_BAD_GRAPHS = st.one_of(
    st.sampled_from([b"0 1 1e308\n1 2 1e308\n0 2 1e308\n", b"0 1\n1 2 \xff\n",
                     b"0 1 nan\n1 2\n", b"N 1\n", b"", None]),
    st.lists(_EDGE_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode()))
_GRAPH = (st.sampled_from(_GOOD_GRAPHS), _BAD_GRAPHS)

# Each subcommand's required and optional options, as (good, bad) strategies.
_COMMANDS = {
    "generate": ({"--nodes": _count(2, 4, 8, 16), "--degree": _count(1, 2, 3),
                  "--out": _OUT},
                 {"--seed": _SEED}),
    "solve": ({"--graph": _GRAPH, "--layers": _count(1, 2), "--step-size": _FLOAT,
               "--iters": _count(1, 2, 3), "--jobs": _JOBS, "--out": _OUT},
              {"--seed": _SEED, "--shots": _SHOTS, "--blue": _count(1, 2, 3),
               "--scan-blue": _FLAG, "--scan-trials": _count(1, 2),
               "--grad": _choice(["analytic", "shift"], ["fast"]), "--target": _TARGET,
               "--verbose": _FLAG, "--svg": _SVG}),
    "exhaustive": ({"--graph": _GRAPH}, {"--cap": _count(2, 4, 16)}),
    "gw": ({"--graph": _GRAPH, "--trials": _count(1, 2), "--hyperplanes": _count(1, 2),
            "--out": _OUT},
           {"--seed": _SEED}),
    "grid": ({"--graph": _GRAPH, "--layers": _LAYER_LIST, "--steps": _STEPS,
              "--trials": _count(1, 2), "--iters": _count(1, 2, 3), "--jobs": _JOBS,
              "--out": _OUT},
             {"--shots": _SHOTS, "--blue": _count(1, 2, 3), "--target": _TARGET,
              "--seed": _SEED}),
    "scaling": ({"--layers": _count(1, 2), "--step-size": _FLOAT,
                 "--iters": _count(1, 2, 3), "--trials": _count(1, 2), "--jobs": _JOBS,
                 "--out": _OUT},
                {"--shots": _SHOTS, "--seed": _SEED}),
    "study": ({"--instances": _count(1, 2), "--nodes": _count(4, 8, 16),
               "--degree": _count(2, 3), "--layers": _count(1, 2), "--step-size": _FLOAT,
               "--iters": _count(1, 2, 3), "--qemc-trials": _count(1, 2),
               "--gw-trials": _count(1, 2), "--gw-hyperplanes": _count(1, 2),
               "--jobs": _JOBS, "--out": _OUT},
              {"--seed": _SEED, "--svg": _SVG}),
}


def _scaling_options(draw):
    """``scaling``'s graphs, targets, axis and values, which depend on each other."""
    graphs = draw(st.integers(1, 2))
    axis = draw(st.sampled_from(["layers", "shots", "iterations"]))
    options = {"--graph": (st.lists(_GRAPH[0], min_size=graphs, max_size=graphs),
                           st.lists(st.one_of(*_GRAPH), min_size=1, max_size=2)),
               "--target": (st.lists(_TARGET[0], min_size=graphs, max_size=graphs),
                            st.lists(st.one_of(*_TARGET), max_size=2)),
               "--axis": _choice([axis], ["depth"])}
    # The layers axis always gets --values, since its default ladder reaches L=120.
    if axis == "layers":
        options["--values"] = _LAYER_LIST
    elif axis == "shots" and draw(st.booleans()):
        options["--values"] = _choice(["4", "16,4"], ["4,4", "0", "x"])
    elif draw(st.integers(0, 3)) == 0:
        options["--values"] = _choice(["1"])      # the iterations axis rejects it
    return options


@st.composite
def _invocation(draw, command):
    """Option values by flag: every required option and some optional ones, with
    at most two of them drawn bad.  A list value repeats its flag."""
    required, optional = _COMMANDS[command]
    chosen = {**required, **{flag: spec for flag, spec in optional.items()
                             if draw(st.booleans())}}
    if command == "scaling":
        chosen.update(_scaling_options(draw))
    broken = draw(st.permutations(sorted(chosen)))[:draw(st.integers(0, 2))]
    return {flag: draw(bad if flag in broken and bad is not None else good)
            for flag, (good, bad) in chosen.items()}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _argv(command, options, tmp):
    """The argument vector; edge-list contents go to files, paths into ``tmp``."""
    argv = [command]
    for flag, values in options.items():
        for index, value in enumerate(values if isinstance(values, list) else [values]):
            if flag == "--graph":
                path = os.path.join(tmp, f"g{index}.txt")
                if value is not None:
                    with open(path, "wb") as fh:
                        fh.write(value)
                value = path
            elif flag in ("--out", "--svg"):
                value = os.path.join(tmp, value)
            argv.append(flag if value is True else f"{flag}={value}")
    return argv


def _main(argv):
    """``main``'s exit code and the ``RuntimeWarning``s it let out."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@_SETTINGS
@given(data=st.data())
def test_main_exits_cleanly(command, data):
    options = data.draw(_invocation(command))
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(command, options, tmp)
        code, runtime_warnings = _main(argv)
        assert code in (0, 1, 2), argv
        assert not runtime_warnings, (argv, runtime_warnings)
        for flag in ("--out", "--svg"):
            path = os.path.join(tmp, options.get(flag, "-"))
            if code != 0:
                assert not os.path.isfile(path), (argv, code, flag)
            elif flag == "--out" and command == "solve":
                with open(path, encoding="utf-8") as fh:
                    _strict_json(fh.read())
            elif flag == "--out" and command not in ("generate", "exhaustive"):
                with open(path, encoding="utf-8") as fh:
                    config = [line for line in fh if line.startswith("# config: ")]
                assert len(config) == 1, argv
                _strict_json(config[0][len("# config: "):])
