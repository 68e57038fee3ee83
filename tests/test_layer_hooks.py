"""The benchmark's tracer wraps ddmr's layer boundaries from outside.

``perfbench/spans.py`` replaces module-level names that ddmr looks up at
call time.  This test keeps those names in place, and looked up at call
time, so that ``perfbench/run.py --trace 1`` resolves every layer.
"""

from __future__ import annotations

import itertools
import sys

import ddmr
import ddmr.cli
from ddmr.conflicts import Variant, conflicts
from ddmr.model import RuleExpression, herbrand_base

from .conftest import FIXTURES, load_fixture

LAYERS = {
    "text.parse_theory",
    "model.validate",
    "model.extended_superiority",
    "model.herbrand_base",
    "conflicts.build_conflict_index",
    "engine.compute_extension",
    "engine.run_engine",
    "engine.prepare",
    "engine.run",
    "engine.extension",
    "oracle.check_equivalence",
    "oracle.oracle_extension",
    "oracle.step",
    "text.render_extension",
}


def test_tracer_wraps_every_layer_and_restores_it(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    original = ddmr.engine.EngineState.extension
    tracer = spans.Tracer()
    tracer.install(ddmr)
    try:
        tracer.request = 0
        argv = [
            "extension",
            str(FIXTURES / "execution2.ddl"),
            "--variant",
            "cautious",
            "--oracle",
            "--format",
            "json",
        ]
        assert ddmr.cli.main(argv) == 0
    finally:
        tracer.request = None
        tracer.uninstall()
    assert LAYERS <= {span[0] for span in tracer.spans}
    assert ddmr.engine.EngineState.extension is original
    # the counters read the engine state: every run decides or leaves
    # undetermined each pair of the modal base (``--oracle`` reuses the run)
    runs = sum(span[0] == "engine.run_engine" for span in tracer.spans)
    assert runs == 1
    count = tracer.counters
    theory = load_fixture("execution2")
    base = 3 * len(herbrand_base(theory))
    assert count["decisions"] + count["undetermined"] == runs * base
    assert count["iterations"] >= runs
    # the index counter is the number of clashing pairs of rule references
    refs = [
        RuleExpression(rule, positive)
        for rule in theory.rules_by_label().values()
        for positive in (True, False)
    ]
    clashing = sum(
        conflicts(x, y, Variant.CAUTIOUS) for x, y in itertools.combinations(refs, 2)
    )
    assert count["conflict_edges"] == clashing
