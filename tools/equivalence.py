"""Compare what two ddmr checkouts compute on the benchmark inputs.

    python tools/equivalence.py PARENT_ROOT CHANGE_ROOT

Each root's ddmr runs in a subprocess of its own over the fixtures, every
pool member of the ``deep``, ``wide`` and ``oracle-small`` workloads,
found through that root's ``perfbench/inputs.py``, and the ``clash`` and
``reparation`` theories of ``SMALL_SIZES``, which no workload holds; the
CLI workloads' theories go through ``render_theory`` and ``parse_theory``
as the benchmark's ``.ddl`` files do.  Per input and variant it digests the
engine's decision log (iteration, subject id, sign); the store as the
fixpoint first finds it (``settled``: the tag bytes at the first
``_decide`` call, or at the end when there is none), and each rule's
frontier and cut then (``rules``), so a settle that moves rule state
without moving a tag shows; the log from iteration 1 on (``fixpoint``);
``iterations``, dead rules and JSON extension; and for ``oracle-small``,
the fixtures and the small families at size 60 the ``oracle_extension``
JSON.  Per input it also digests the rows of ``diff_variants``
(``diff``), and ``validate``'s report (``validate``): its errors, its
warnings and its ``numbering``, whose rules it writes with ``str``.  So
a log that differs only in the verdicts settled before the fixpoint
shows as ``log`` alone.  Prints every result that differs with the parts
that do (log, settled, fixpoint, iterations, dead, json, oracle, diff,
validate, rules), then a count per part and a count of differing
results; exits 1 if any result differs.  Last it prints each side's
total ``iterations`` and ``_decide`` calls over the engine results and
its total oracle ``step`` rounds over the oracle results, then each
side's ``_decide`` calls per family (``FAMILIES``); these totals are not
compared.  A change to the fixpoint's scheduling alone moves
``log``, ``fixpoint`` and ``iterations`` and nothing else.
Standard library only.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

VARIANTS = ("simple", "cautious")
PARTS = ("log", "settled", "fixpoint", "iterations", "dead", "json", "oracle", "diff", "validate", "rules")
TOTALS = ("iterations", "_decide calls", "oracle step rounds")
SMALL_FAMILIES, SMALL_SIZES = ("clash", "reparation"), (60, 300)
FAMILIES = ("chain", "meta-chain", "team", "random", "priority", "fixture") + SMALL_FAMILIES


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _inputs(root: str, inputs, D):
    """(name, theory, whether the oracle runs on it) for every input."""
    for workload in ("deep", "wide", "oracle-small"):
        for key in dict.fromkeys(inputs.pool(workload)):
            theory = inputs.build_theory(D, key)
            if workload != "wide":
                theory = D.text.parse_theory(D.text.render_theory(theory))
            yield key, theory, workload == "oracle-small"
    for name in inputs.FIXTURES:
        path = os.path.join(root, "fixtures", f"{name}.ddl")
        with open(path, encoding="utf-8") as handle:
            yield f"fixture/{name}", D.text.parse_theory(handle.read()), True
    for family in SMALL_FAMILIES:
        for size in SMALL_SIZES:
            yield f"{family}/{size}", D.generate.generate_theory(family, size), size <= 60


def _digests(root: str) -> dict:
    sys.path.insert(0, os.path.join(root, "perfbench"))
    inputs = importlib.import_module("inputs")
    D = inputs.load_ddmr(root)

    class Recording(D.engine.EngineState):
        def _decide(self, s: int):
            if self.settled is None:
                self.settled, self.fronts_cuts = bytes(self.tag), (self.front[:], self.cut[:])
            self.decided += 1
            return super()._decide(s)

        def _apply(self, s: int, positive: bool) -> None:
            self.log.append((self.iterations, s, positive))
            super()._apply(s, positive)

    out, totals = {}, dict.fromkeys(TOTALS + FAMILIES, 0)
    step = D.oracle.step

    def counted_step(*args):
        totals["oracle step rounds"] += 1
        return step(*args)

    D.oracle.step = counted_step  # oracle_extension looks it up per round
    for key, theory, oracle in _inputs(root, inputs, D):
        out[f"{key}/diff"] = {"diff": _digest(D.engine.diff_variants(theory))}
        report = D.model.validate(theory)
        numbering = report.numbering and report.numbering._replace(
            rules=list(map(str, report.numbering.rules))
        )
        out[f"{key}/validate"] = {"validate": _digest(report.errors, report.warnings, numbering)}
        for name in VARIANTS:
            variant = D.conflicts.Variant(name)
            state = Recording(theory, variant)
            state.log, state.decided, state.settled = [], 0, None
            state.prepare()
            state.run()
            if state.settled is None:
                state.settled, state.fronts_cuts = bytes(state.tag), (state.front, state.cut)
            fixpoint = [entry for entry in state.log if entry[0]]
            ext = D.text.render_extension(state.extension(), "json")
            parts = (state.log, state.settled, fixpoint, state.iterations, sorted(state.dead), ext)
            out[f"{key}/{name}"] = dict(zip(PARTS, map(_digest, parts)))
            out[f"{key}/{name}"]["rules"] = _digest(state.fronts_cuts)
            totals["iterations"] += state.iterations
            totals["_decide calls"] += state.decided
            totals[key.split("/")[0]] += state.decided
            if oracle:
                ext = D.oracle.oracle_extension(theory, variant, budget=None)
                out[f"{key}/{name}/oracle"] = {"oracle": _digest(D.text.render_extension(ext, "json"))}
    return {"results": out, "totals": totals}


def _run(root: str) -> dict:
    args = [sys.executable, os.path.abspath(__file__), "--digests", root]
    done = subprocess.run(args, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{root}: worker failed\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--digests":
        json.dump(_digests(os.path.abspath(argv[1])), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with ThreadPoolExecutor(2) as pool:
        sides = list(pool.map(_run, [os.path.abspath(root) for root in argv]))
    parent, change = (side["results"] for side in sides)
    names = sorted(parent.keys() | change.keys())
    differ = [name for name in names if parent.get(name) != change.get(name)]
    counts = dict.fromkeys(PARTS, 0)
    for name in differ:
        old, new = parent.get(name, {}), change.get(name, {})
        parts = [part for part in PARTS if old.get(part) != new.get(part)]
        for part in parts:
            counts[part] += 1
        print(f"differs: {name} ({', '.join(parts)})")
    print("differing parts: " + ", ".join(f"{part} {n}" for part, n in counts.items()))
    oracle = sum(name.endswith("/oracle") for name in names)
    diff = sum(name.endswith("/diff") for name in names)
    checked = sum(name.endswith("/validate") for name in names)
    engine = len(names) - oracle - diff - checked
    print(
        f"{len(differ)} of {len(names)} results differ "
        f"({engine} engine, {oracle} oracle, {diff} diff, {checked} validate)"
    )
    for total in TOTALS:
        old, new = (side["totals"][total] for side in sides)
        results = "oracle" if total.startswith("oracle") else "engine"
        print(f"total {total} over the {results} results: parent {old}, change {new}")
    for family in FAMILIES:
        old, new = (side["totals"][family] for side in sides)
        print(f"_decide calls on {family}: parent {old}, change {new}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
