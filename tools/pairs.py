"""Run the benchmark in alternating parent/change pairs and summarize them.

    python tools/pairs.py PARENT_ROOT CHANGE_ROOT --seed S --pairs N --out BENCH_<n>.json
    python tools/pairs.py --summarize BENCH_<n>.json

The first form runs ``perfbench/run.py`` (the ``command`` of
``BENCHMARK.json``) for its ``run_seconds`` once per side and pair, each
in a process of its own with that root as the working directory, untraced,
for every workload of ``BENCHMARK.json``: the parent first in odd pairs, the change first in
even ones.  It writes every run to ``--out`` as ``change``, ``command``,
``machine``, ``protocol`` and ``runs``, the shape of the committed
``BENCH_*.json`` files, then prints the summary.  The second form prints
the summary of such a file.

The summary has one line per workload and end-to-end metric of
``BENCHMARK.json``, over the untraced runs: the parent's and the change's
median and quartiles, the change in the medians, the pairs in which the
change did better, and whether the change stays within the metric's
bound (the largest relative loss of the median that ``BENCHMARK.json``
allows).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(root: str, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in ``root``: the JSON object of its last line."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv + ["--trace", "0"], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        command_line = " ".join(argv)
        raise SystemExit(f"{root}: {command_line} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_pairs(parent: str, change: str, seed: int, pairs: int, bench: dict):
    """Every run, as the ``runs`` entries of a BENCH file."""
    command, seconds = bench["command"], bench["run_seconds"]
    runs = []
    for workload in (w["name"] for w in bench["workloads"]):
        for pair in range(1, pairs + 1):
            sides = [("parent", parent), ("change", change)]
            for side, root in sides if pair % 2 else sides[::-1]:
                result = run_once(root, command, workload, seed, seconds)
                runs.append(
                    {"side": side, "pair": pair, "workload": workload, "seed": seed,
                     "trace": 0, "result": result}
                )
                value = result["metrics"].get("latency_p50_ms", {}).get("value")
                print(f"{workload} pair {pair} {side}: latency_p50_ms {value}", file=sys.stderr)
    return runs


def _values(runs, workload: str, metric: str, side: str) -> dict:
    """pair -> value of ``metric`` on the untraced runs of one side."""
    return {
        run["pair"]: run["result"]["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and run["side"] == side and not run["trace"]
        and metric in run["result"]["metrics"]
    }


def _spread(values) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarize(runs, bench: dict) -> list:
    """One row per workload and end-to-end metric that the runs hold."""
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = _values(runs, workload, name, "parent")
            change = _values(runs, workload, name, "change")
            if not parent or not change:
                continue
            p, c = _spread(list(parent.values())), _spread(list(change.values()))
            paired = [pair for pair in parent if pair in change]
            won = sum(
                (change[k] < parent[k]) if lower else (change[k] > parent[k]) for k in paired
            )
            relative = (c[0] - p[0]) / p[0] if p[0] else 0.0
            loss = relative if lower else -relative
            rows.append(
                {"workload": workload, "metric": name, "parent": p, "change": c,
                 "relative": relative, "won": won, "pairs": len(paired),
                 "within_bound": loss <= metric["bound"]}
            )
    return rows


def print_summary(rows) -> None:
    for row in rows:
        (pm, p1, p3), (cm, c1, c3) = row["parent"], row["change"]
        print(
            f"{row['workload']:<13} {row['metric']:<15} "
            f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"{100 * row['relative']:+.1f} %  better in {row['won']}/{row['pairs']}  "
            f"{'within' if row['within_bound'] else 'OUTSIDE'} bound"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", help="the BENCH file to write")
    parser.add_argument("--note", default="", help="the file's change text")
    parser.add_argument("--summarize", metavar="FILE", help="summarize a BENCH file and exit")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.summarize:
        with open(args.summarize, encoding="utf-8") as handle:
            print_summary(summarize(json.load(handle)["runs"], bench))
        return 0
    if not (args.parent and args.change and args.seed is not None and args.out):
        parser.error("PARENT, CHANGE, --seed and --out are required unless --summarize")
    runs = run_pairs(
        os.path.abspath(args.parent), os.path.abspath(args.change), args.seed, args.pairs, bench
    )
    record = {
        "change": args.note,
        "command": " ".join(bench["command"])
        + f" --workload WORKLOAD --seed {args.seed} --seconds {bench['run_seconds']:g} --trace 0",
        "machine": f"{platform.system()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}",
        "protocol": "parent and change run alternately, one process each, from separate "
        "checkouts; the parent runs first in odd pairs; "
        f"{args.pairs} untraced pairs per workload on seed {args.seed}",
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print_summary(summarize(runs, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
