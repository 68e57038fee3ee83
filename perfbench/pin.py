"""Regenerate ``pins.json``: digests of every pool input and its extensions.

Run from the repository root:

    python3 perfbench/pin.py

For each pool entry it records the sha256 of the rendered ``.ddl`` and of
the JSON extension under both variants.  The priority probe's extension is
computed with ``EngineState`` directly, since ``validate`` cannot yet cope
with its superiority chain.  It then runs the unbudgeted oracle on
the ``deep`` and ``wide`` pool members of each family, smallest first, until
one takes longer than a minute (and on a 200-rule priority theory), and
records which variants agreed.  Earlier confirmations whose digests still
match are kept and not run again.  ``oracle-small`` needs none: every
request there runs ``--oracle``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import inputs

ROOT = os.path.dirname(inputs.HERE)
# A family is confirmed upwards in size until one member takes longer.
REACH_SECONDS = 60


def extension_json(D, theory, variant: str, bypass_validate: bool) -> str:
    v = D.conflicts.Variant(variant)
    if bypass_validate:
        state = D.engine.EngineState(theory, v)
        state.prepare()
        state.run()
        ext = state.extension()
    else:
        ext = D.engine.compute_extension(theory, v)
    return D.text.render_extension(ext, "json")


def confirm_groups():
    """Large pool keys per family, smallest first, plus a small priority theory."""
    groups = {"priority": [inputs.pool_key("priority", 200, 0)]}
    for workload in ("deep", "wide"):
        for key in inputs.pool(workload):
            family, size, _ = key.split("/")
            if family != "priority" and key not in groups.setdefault(family, []):
                groups[family].append(key)
    for keys in groups.values():
        keys.sort(key=lambda k: int(k.split("/")[1]))
    return groups


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    D = inputs.load_ddmr(ROOT)

    previous = {}
    if os.path.exists(inputs.PINS):
        with open(inputs.PINS, encoding="utf-8") as handle:
            previous = json.load(handle)

    keys = []
    for workload in ("deep", "wide", "oracle-small"):
        keys += [k for k in inputs.pool(workload) if k not in keys]
    pins = {}
    for key in keys:
        theory = inputs.build_theory(D, key)
        entry = {"ddl": inputs.sha256(D.text.render_theory(theory))}
        for variant in inputs.VARIANTS:
            text = extension_json(D, theory, variant, key.startswith("priority/"))
            entry[variant] = inputs.sha256(text)
        pins[key] = entry
        print(key, file=sys.stderr)
    for name in inputs.FIXTURES:
        with open(os.path.join(ROOT, "fixtures", f"{name}.ddl"), encoding="utf-8") as handle:
            pins[f"fixture/{name}"] = {"ddl": inputs.sha256(handle.read())}

    groups = confirm_groups()
    confirmed = {
        key: record
        for key, record in previous.get("oracle_confirmed", {}).items()
        if key in groups["priority"] or previous.get("inputs", {}).get(key) == pins.get(key)
    }
    for group in groups.values():
        for key in group:
            if key not in confirmed:
                start = time.perf_counter()
                agreed = _confirm(D, key)
                seconds = round(time.perf_counter() - start, 1)
                confirmed[key] = {"agree": agreed, "seconds": seconds}
                print(f"{key}: {confirmed[key]}", file=sys.stderr)
            if confirmed[key]["seconds"] > REACH_SECONDS:
                break  # larger members of this family are out of reach

    with open(inputs.PINS, "w", encoding="utf-8") as handle:
        json.dump({"inputs": pins, "oracle_confirmed": confirmed}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


def _confirm(D, key: str) -> list:
    """Variants on which the engine equals the unbudgeted oracle."""
    theory = inputs.build_theory(D, key)
    agreed = []
    for variant in inputs.VARIANTS:
        v = D.conflicts.Variant(variant)
        if key.startswith("priority/"):
            engine = extension_json(D, theory, variant, bypass_validate=True)
            oracle = D.oracle.oracle_extension(theory, v, budget=None)
            agree = engine == D.text.render_extension(oracle, "json")
        else:
            agree = not D.oracle.check_equivalence(theory, v, budget=None)
        if agree:
            agreed.append(variant)
    return agreed


if __name__ == "__main__":
    sys.exit(main())
