"""Per-layer tracing from outside the program.

The tracer replaces module-level names that ddmr looks up at call time
(and three ``EngineState`` methods) with wrappers that record a span:
name, start, end, parent span and request id.  A ``gc.callbacks`` hook
records collector pauses as spans of their own.  Spans stay in memory
and are written out once, after the run.  Nothing is recorded outside a
traced request, so setup and output checks leave no spans unless they
are opened explicitly.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.request = None  # id of the traced request in progress
        self.requests = 0
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recorded as span ``name``; ``on_call(args, result)`` counts."""

        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_call=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call))

    def _gc(self, phase: str, info: dict) -> None:
        if self.request is None:
            return
        if phase == "start":
            self._open("runtime.gc")
        elif self._stack and self.spans[self._stack[-1]][0] == "runtime.gc":
            self._close(self.spans[self._stack[-1]])

    def install(self, D) -> None:
        """Wrap the layer boundaries of a freshly imported ddmr."""
        cli, engine, model, oracle = D.cli, D.engine, D.model, D.oracle
        count = self.counters

        def parsed(args, theory):
            count["parse_bytes"] += len(args[0].encode("utf-8"))

        def indexed(args, index):
            count["conflict_edges"] += sum(map(len, index.conflicting.values())) / 2

        def ran(args, state):
            count["iterations"] += state.iterations
            count["decisions"] += len(state.lit_tags) + len(state.rule_tags)
            count["rules_dead"] += len(state.dead)
            count["undetermined"] += len(state.mhb)

        for owner, attr, name, on_call in (
            (cli, "validate", "model.validate", None),
            (cli, "compute_extension", "engine.compute_extension", None),
            (cli, "parse_theory", "text.parse_theory", parsed),
            (cli, "render_extension", "text.render_extension", None),
            (cli, "check_equivalence", "oracle.check_equivalence", None),
            (engine, "validate", "model.validate", None),
            (engine, "build_conflict_index", "conflicts.build_conflict_index", indexed),
            (engine, "herbrand_base", "model.herbrand_base", None),
            (engine, "run_engine", "engine.run_engine", ran),
            (model, "extended_superiority", "model.extended_superiority", None),
            (oracle, "oracle_extension", "oracle.oracle_extension", None),
            (oracle, "step", "oracle.step", None),
            (oracle, "herbrand_base", "model.herbrand_base", None),
            (engine.EngineState, "prepare", "engine.prepare", None),
            (engine.EngineState, "run", "engine.run", None),
            (engine.EngineState, "extension", "engine.extension", None),
        ):
            self.patch(owner, attr, name, on_call)
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    # ------------------------------------------------------------ reporting

    def totals(self, weight):
        """Per span name: (calls, busy seconds, self seconds).

        ``weight(request id)`` is the factor each span's times are
        multiplied by, or None to leave the span out.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, parent, req) in enumerate(self.spans):
            factor = weight(req)
            if factor is None:
                continue
            calls[name] += 1
            busy[name] += (end - start) * factor
            own[name] += (end - start - child_time[i]) * factor
        return calls, busy, own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, req in self.spans:
                handle.write(json.dumps([name, start, end, parent, req]) + "\n")
