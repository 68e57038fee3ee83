"""``tools/layers.py``: in-process layer timings of two checkouts."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from .conftest import FIXTURES

ROOT = FIXTURES.parent


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repo_against_itself_times_every_layer(layers, capsys):
    assert layers.main([str(ROOT), str(ROOT), "--rounds", "3", "--inputs", "chain/40", "random/30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "best of 3 rounds, in ms"
    rows = [line.split() for line in lines[2:]]
    assert [row[:3] for row in rows] == [
        [key, reading, layer]
        for key in ("chain/40", "random/30")
        for reading in layers.READINGS
        for layer in layers.LAYERS
    ]
    for row in rows:
        parent, change, ratio = map(float, row[3:])
        assert parent > 0 and change > 0 and ratio > 0, row
    # both copies are gone from the process again
    assert not [name for name in sys.modules if name.startswith(("ddmr_parent", "ddmr_change"))]


def test_the_memory_columns_hold_a_peak_and_a_state_per_side(layers, capsys):
    argv = [str(ROOT), str(ROOT), "--rounds", "1", "--inputs", "chain/40", "random/30", "--memory"]
    assert layers.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("tracemalloc, in KB: the peak of prepare, and the state after run per rule")
    assert at == 2 + 2 * 2 * len(layers.LAYERS)  # after the timing rows
    assert lines[at + 1].split() == ["input", "reading", "figure", "parent", "change", "ratio"]
    rows = [line.split() for line in lines[at + 2 :]]
    assert [row[:3] for row in rows] == [
        [key, reading, figure]
        for key in ("chain/40", "random/30")
        for reading in layers.READINGS
        for figure in layers.MEMORY
    ]
    for row in rows:
        parent, change, ratio = map(float, row[3:])
        assert parent > 0 and change > 0, row
        assert 0.9 < ratio < 1.1, row  # one tree on both sides
