"""The ddmr benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 35 --trace 0

Workloads (see README.md for why each exists):

* ``deep``          -- ``ddmr extension --format json`` in process, over
                       chain and meta-chain theories plus the priority probe;
* ``wide``          -- library ``compute_extension`` over team and random
                       theories held in memory;
* ``oracle-small``  -- ``ddmr extension --oracle`` over small random
                       theories and the fixtures.

Setup imports ddmr from ``src``, generates every input, renders it and
checks it against ``pins.json``; ``setup_s`` is the time from the first
line of this file to the first timed request.  Every time is scaled to a
reference machine speed by a calibration kernel (see calibrate.py) timed
between requests and during setup; the raw wall times are printed above
the JSON line.  The loop then
runs pass after pass over the inputs, each in a seeded shuffled order,
until ``--seconds`` are up.  Every output is checked: fixtures byte
for byte against ``fixtures/golden``, everything else against its pinned
extension digest, and ``--oracle`` runs against the oracle as well.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead, after checking that traced outputs hash the same as
untraced ones.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import time

# setup_s counts from here, the first line to run, to the first request.
START = time.perf_counter()

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass

import calibrate
import inputs
from spans import Tracer

ROOT = os.path.dirname(inputs.HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("deep", "wide", "oracle-small")
# The highest percentile that keeps at least 10 samples beyond it at the
# sample counts these workloads reach in 35 s.  It is fixed per workload,
# so that a few samples more or less do not move the tail onto another
# input; the loop runs past ``--seconds`` if it must to keep the 10.
TAIL_PERCENTILE = {"deep": 75, "wide": 75, "oracle-small": 95}
TAIL_BEYOND = 10


@dataclass
class Sample:
    """One attempt at one request."""

    req: inputs.Request
    seconds: float
    error: str  # exit code or exception name; None when the request completed
    ok: bool  # completed with the expected output
    digest: str  # sha256 of the JSON output
    traced: bool
    scale: float  # wall time to reference-speed time, from the kernel

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ddmr benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    calibrator = calibrate.Calibrator()
    calibrator.tick(force=True)
    tracer = Tracer() if args.trace else None
    try:
        D = inputs.load_ddmr(ROOT)
    except ImportError as exc:
        print(f"cannot import ddmr from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    generate = D.generate.generate_theory
    if tracer:
        tracer.request = "setup"
        generate = tracer.wrap("generate.generate_theory", generate)
    requests = inputs.setup(
        D, args.workload, args.seed, ROOT, workdir, generate, calibrator.tick
    )
    calibrator.tick(force=True)
    if tracer:
        tracer.request = None

    execute = _executor(D, args.workload, tracer)
    if tracer:
        tracer.install(D)
    samples = []
    pct = TAIL_PERCENTILE[args.workload]

    def enough(passes: int) -> bool:
        if tracer:
            return passes >= 2  # one untraced and one traced pass
        n = sum(1 for s in samples if not s.req.probe)
        return n - math.ceil(n * pct / 100) >= TAIL_BEYOND

    # Each pass runs every request once, in an order shuffled from the seed,
    # so the pass that the deadline cuts short is an unbiased sample.  A
    # workload with a probe runs whole passes only, so that the probe's
    # share of the requests, and with it success_ratio, does not depend on
    # where the deadline falls.
    order = random.Random(f"order:{args.workload}:{args.seed}")
    whole_passes = any(req.probe for req in requests)
    # Each request is scaled by the mean of the kernel times just before
    # and just after it.
    kernel_before = calibrate.kernel_seconds()
    start = time.perf_counter()
    setup_wall = start - START - calibrator.spent
    setup_s = setup_wall * calibrator.scale()
    passes = 0
    while not enough(passes) or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and passes % 2 == 1
        batch = list(requests)
        order.shuffle(batch)
        for req in batch:
            if (
                not whole_passes
                and enough(passes)
                and time.perf_counter() - start >= args.seconds
            ):
                break
            if traced and not req.probe:
                tracer.request = len(samples)
            try:
                seconds, error, output = execute(req)
            finally:
                if tracer:
                    tracer.request = None
            kernel_after = calibrate.kernel_seconds()
            scale = 2 * calibrate.REFERENCE_S / (kernel_before + kernel_after)
            kernel_before = kernel_after
            ok, digest = _check(D, req, error, output)
            samples.append(Sample(req, seconds, error, ok, digest, traced, scale))
        passes += 1
    if tracer:
        tracer.uninstall()

    report = Report(args.workload, samples, passes)
    report.print_rows()
    if tracer:
        metrics = layer_metrics(tracer, samples, calibrator.scale())
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = report.end_to_end(setup_s, setup_wall)
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": len(samples),
                "failed": report.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _executor(D, workload: str, tracer):
    """A function running one request: returns (seconds, error, output).

    ``error`` is None on success, else the exit code or exception name;
    ``output`` is the JSON text the CLI printed, or the library's Extension.
    """
    if workload == "wide":
        compute = D.engine.compute_extension
        if tracer:
            compute = tracer.wrap("engine.compute_extension", compute)
        variants = {v.value: v for v in D.conflicts.Variant}

        def library(req):
            variant = variants[req.variant]
            start = time.perf_counter()
            try:
                ext, error = compute(req.theory, variant), None
            except Exception as exc:  # a crashing request is a failed request
                ext, error = None, type(exc).__name__
            return time.perf_counter() - start, error, ext

        return library

    cli_main = D.cli.main
    if tracer:
        cli_main = tracer.wrap("cli.main", cli_main)
    extra = ["--oracle"] if workload == "oracle-small" else []

    def command(req):
        argv = ["extension", req.path, "--variant", req.variant, "--format", "json"] + extra
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing request is a failed request
                code = type(exc).__name__
            seconds = time.perf_counter() - start
        error = None if code == 0 else f"exit {code}" if isinstance(code, int) else code
        return seconds, error, out.getvalue()

    return command


def _check(D, req, error, output):
    """(ok, digest of the JSON output) against the golden file or the pin."""
    if error is not None:
        return False, ""
    text = output if isinstance(output, str) else D.text.render_extension(output, "json")
    digest = inputs.sha256(text)
    ok = text == req.golden if req.golden is not None else digest == req.expected
    return ok, digest


class Report:
    """Per-input rows, failure accounting and end-to-end metrics."""

    def __init__(self, workload: str, samples: list, passes: int):
        self.workload = workload
        self.samples = samples
        self.passes = passes
        self.failed = sum(1 for s in samples if not s.ok)
        # Wrong outputs: completed with unexpected bytes, or differing between
        # passes (traced against untraced).
        first = {}
        wrong = sum(1 for s in samples if s.error is None and not s.ok)
        wrong += sum(1 for s in samples if first.setdefault(s.req.name, s.digest) != s.digest)
        unexpected = sum(1 for s in samples if not s.ok and not s.req.probe)
        self.correct = wrong == 0 and unexpected == 0
        self.timed = [s for s in samples if not s.req.probe and not s.traced]

    def print_rows(self) -> None:
        print(f"workload={self.workload} passes={self.passes} requests={len(self.samples)}")
        rows = {}
        for s in self.samples:
            rows.setdefault(s.req.name, []).append(s)
        for group in rows.values():
            req = group[0].req
            times = [s.ref_seconds for s in group if not s.traced]
            wall = [s.seconds for s in group if not s.traced]
            failed = [s for s in group if not s.ok]
            note = f" error={failed[0].error or 'wrong-output'}" if failed else ""
            note += " probe=excluded-from-latency" if req.probe else ""
            print(
                f"row family={req.family} size={req.size} variant={req.variant} "
                f"median_ms={statistics.median(times) * 1000:.3f} "
                f"wall_median_ms={statistics.median(wall) * 1000:.3f} runs={len(times)} "
                f"failed={len(failed)}{note}"
            )
        print(f"failed_ratio: {self.failed}/{len(self.samples)} = {self.failed / len(self.samples):.4f}")

    def end_to_end(self, setup_s: float, setup_wall: float) -> dict:
        times = sorted(s.ref_seconds for s in self.timed)
        wall = sorted(s.seconds for s in self.timed)
        pct = TAIL_PERCENTILE[self.workload]
        rank = math.ceil(len(times) * pct / 100)
        print(f"latency_tail_ms: p{pct} of {len(times)} samples, {len(times) - rank} beyond")
        size = sum(s.req.size for s in self.timed if s.ok)
        attempted = len(self.samples)
        print(
            f"wall (unscaled): latency_p50_ms={statistics.median(wall) * 1000:.3f} "
            f"latency_tail_ms={wall[rank - 1] * 1000:.3f} "
            f"size_per_s={size / sum(wall):.1f} setup_s={setup_wall:.3f}"
        )
        return {
            "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
            "latency_tail_ms": (times[rank - 1] * 1000, "ms"),
            "size_per_s": (size / sum(times), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_ratio": ((attempted - self.failed) / attempted, "ratio"),
        }


def layer_metrics(tracer: Tracer, samples: list, setup_scale: float) -> dict:
    """Per-layer metrics per traced request (generation: for the setup).

    Times are scaled like the end-to-end ones: each span by the factor of
    its request, generation by that of the setup.
    """
    calls, busy, own = tracer.totals(
        lambda req: samples[req].scale if isinstance(req, int) else None
    )
    _, setup_busy, _ = tracer.totals(lambda req: setup_scale if isinstance(req, str) else None)
    c = tracer.counters
    traced = [s.ref_seconds for s in samples if s.traced and not s.req.probe]
    plain = [s.ref_seconds for s in samples if not s.traced and not s.req.probe]

    def per(value):
        return value / len(traced)

    return {
        "engine.run.busy_s": (per(busy["engine.run"]), "s"),
        "engine.run.iterations": (per(c["iterations"]), "count"),
        "engine.decisions": (per(c["decisions"]), "count"),
        "engine.decisions_per_iteration": (c["decisions"] / max(1, c["iterations"]), "count"),
        "engine.rules_dead": (per(c["rules_dead"]), "count"),
        "engine.undetermined": (per(c["undetermined"]), "count"),
        "engine.prepare.self_s": (per(own["engine.prepare"]), "s"),
        "engine.extension.busy_s": (per(busy["engine.extension"]), "s"),
        "model.validate.busy_s": (per(busy["model.validate"]), "s"),
        "model.validate.calls_per_request": (per(calls["model.validate"]), "count"),
        "model.extended_superiority.busy_s": (per(busy["model.extended_superiority"]), "s"),
        "model.herbrand_base.busy_s": (per(busy["model.herbrand_base"]), "s"),
        "conflicts.build_conflict_index.busy_s": (per(busy["conflicts.build_conflict_index"]), "s"),
        "conflicts.conflict_edges": (per(c["conflict_edges"]), "count"),
        "oracle.oracle_extension.busy_s": (per(busy["oracle.oracle_extension"]), "s"),
        "oracle.step.calls": (per(calls["oracle.step"]), "count"),
        "oracle.step.busy_s": (per(busy["oracle.step"]), "s"),
        "text.parse_theory.busy_s": (per(busy["text.parse_theory"]), "s"),
        "text.parse_theory.mb_per_s": (
            c["parse_bytes"] / 1e6 / busy["text.parse_theory"] if busy["text.parse_theory"] else 0.0,
            "MB/s",
        ),
        "text.render_extension.busy_s": (per(busy["text.render_extension"]), "s"),
        "cli.main.self_s": (per(own["cli.main"]), "s"),
        "generate.generate_theory.busy_s": (setup_busy["generate.generate_theory"], "s"),
        "runtime.gc.pause_s": (per(busy["runtime.gc"]), "s"),
        "runtime.gc.collections": (per(calls["runtime.gc"]), "count"),
        "trace.overhead_ms": ((statistics.mean(traced) - statistics.mean(plain)) * 1000, "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())
