"""Time the layers of two ddmr checkouts side by side in one process.

    python tools/layers.py PARENT_ROOT CHANGE_ROOT [--rounds N] [--inputs FAMILY/SIZE ...]
                           [--memory]

Each root's ``src/ddmr`` is copied to a temporary directory under a
package name of its own (``ddmr_parent``, ``ddmr_change``), so both
import into this one process.  Per input (default: chain/3000, team/3000,
meta-chain/1500 and random/3000, generator seed 0) each side builds the
theory with its own ``generate_theory``.  Per reading and round it then
times on each side ``validate``, ``build_conflict_index`` (as ``prepare``
calls it), the rest of ``prepare``, and ``run``, the side that goes first
alternating from round to round, with a collection before each side.
Prints per input, reading and layer the best time of each side in ms and
the change/parent ratio.  With ``--memory`` it then measures, once per
input, reading and side, with ``tracemalloc``: the peak of ``prepare``,
conflict index included, in KB (1024 bytes) above what was held before
it, and what the state holds after ``run``, in KB per rule of the
numbering.  Both roots must have ``validate`` leave a
``numbering`` on its report and ``EngineState.prepare`` take it.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import sys
import tempfile
import time
import tracemalloc

SIDES = ("parent", "change")
LAYERS = ("validate", "index", "prepare-rest", "run")
MEMORY = ("prepare-peak-kb", "state-kb/rule")
READINGS = ("simple", "cautious")
DEFAULT_INPUTS = ("chain/3000", "team/3000", "meta-chain/1500", "random/3000")


def load(root: str, side: str, into: str):
    """Copy ``root``'s ddmr to ``into`` as ``ddmr_<side>`` and import it;
    the package stays usable once the copy is gone."""
    name = f"ddmr_{side}"
    shutil.copytree(
        os.path.join(root, "src", "ddmr"),
        os.path.join(into, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    sys.path.insert(0, into)
    try:
        package = importlib.import_module(name)
        for module in ("conflicts", "engine", "generate", "model"):
            importlib.import_module(f"{name}.{module}")
    finally:
        sys.path.remove(into)
    return package


def _timed(D) -> dict:
    """Wrap ``build_conflict_index`` as the engine calls it, adding its
    time to the dict returned."""
    spent = {"index": 0.0}
    build = D.engine.build_conflict_index

    def timed_build(*args, **kwargs):
        start = time.perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            spent["index"] += time.perf_counter() - start

    D.engine.build_conflict_index = timed_build
    return spent


def measure(D, spent: dict, theory, reading: str) -> dict:
    """One pass of the four layers on one side, in seconds."""
    clock = time.perf_counter
    gc.collect()
    spent["index"] = 0.0
    start = clock()
    report = D.model.validate(theory)
    validated = clock()
    state = D.engine.EngineState(theory, D.conflicts.Variant(reading))
    state.prepare(report.numbering)
    prepared = clock()
    state.run()
    done = clock()
    index = spent["index"]
    return {
        "validate": validated - start,
        "index": index,
        "prepare-rest": prepared - validated - index,
        "run": done - prepared,
    }


def footprint(D, theory, reading: str) -> dict:
    """The two figures of ``MEMORY`` on one side, in KB."""
    report = D.model.validate(theory)
    gc.collect()
    tracemalloc.start()  # counts only what is allocated from here on
    try:
        state = D.engine.EngineState(theory, D.conflicts.Variant(reading))
        state.prepare(report.numbering)
        peak = tracemalloc.get_traced_memory()[1]
        state.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return {"prepare-peak-kb": peak / 1024, "state-kb/rule": held / 1024 / len(state.labels)}


def compare(
    parent: str, change: str, inputs=DEFAULT_INPUTS, rounds: int = 21, memory: bool = False
) -> tuple:
    """Rows (input, reading, layer, parent best s, change best s), and,
    with ``memory``, rows (input, reading, figure, parent KB, change KB)."""
    with tempfile.TemporaryDirectory() as into:
        packages = {side: load(root, side, into) for side, root in zip(SIDES, (parent, change))}
    try:
        spent = {side: _timed(D) for side, D in packages.items()}
        rows, kept = [], []
        for key in inputs:
            family, size = key.split("/")
            theories = {
                side: D.generate.generate_theory(family, int(size)) for side, D in packages.items()
            }
            for reading in READINGS:
                best = {side: dict.fromkeys(LAYERS, float("inf")) for side in SIDES}
                for n in range(rounds):
                    for side in SIDES if n % 2 == 0 else SIDES[::-1]:
                        times = measure(packages[side], spent[side], theories[side], reading)
                        for layer, seconds in times.items():
                            best[side][layer] = min(best[side][layer], seconds)
                rows += [
                    (key, reading, layer, best["parent"][layer], best["change"][layer])
                    for layer in LAYERS
                ]
                if memory:
                    old, new = (footprint(packages[s], theories[s], reading) for s in SIDES)
                    kept += [(key, reading, f, old[f], new[f]) for f in MEMORY]
        return rows, kept
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in {f"ddmr_{s}" for s in SIDES}]:
            del sys.modules[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--inputs", nargs="+", default=list(DEFAULT_INPUTS), metavar="FAMILY/SIZE")
    parser.add_argument("--memory", action="store_true", help="also measure with tracemalloc")
    args = parser.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    rows, kept = compare(parent, change, args.inputs, args.rounds, args.memory)
    print(f"best of {args.rounds} rounds, in ms")
    _table("layer", [(*row[:3], row[3] * 1e3, row[4] * 1e3) for row in rows])
    if args.memory:
        print("tracemalloc, in KB: the peak of prepare, and the state after run per rule")
        _table("figure", kept)
    return 0


def _table(column: str, rows) -> None:
    print(f"{'input':<16} {'reading':<9} {column:<15} {'parent':>9} {'change':>9} {'ratio':>6}")
    for key, reading, name, old, new in rows:
        ratio = new / old if old else float("nan")
        print(f"{key:<16} {reading:<9} {name:<15} {old:9.3f} {new:9.3f} {ratio:6.2f}")


if __name__ == "__main__":
    sys.exit(main())
