"""The golden seeded runs of ``golden.py`` still give the results pinned in
``golden_runs.json``."""

import json

import pytest

from golden import GOLDEN, run_corpus

# Costs and GW relaxation values come out of float arithmetic whose order a
# change may alter; every other value (cuts, best cuts, seeds, tag paths,
# counts) must match exactly.
APPROX = {"costs", "relaxation_values"}
PINNED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs():
    return json.loads(json.dumps(run_corpus()))    # tuples become lists, as in the file


def test_same_runs(runs):
    assert sorted(runs) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_run(runs, name):
    got, want = runs[name], PINNED[name]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if key in APPROX:
            assert got[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert got[key] == value, key
