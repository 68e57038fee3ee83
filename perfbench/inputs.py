"""Workload inputs: pinned pools, seeded selection, generation and digests.

Every input comes from a pool entry (family, size target, generator seed)
whose rendered ``.ddl`` and expected JSON extensions are pinned in
``pins.json``.  A workload is a list of slots; the run seed picks one
alternative per slot, so different seeds give different theories of the
same shape while every byte the program sees stays pinned.  ``pin.py`` regenerates ``pins.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
VARIANTS = ("simple", "cautious")

# Seedless families get their alternatives from size offsets of up to 2 %,
# small enough to keep the run-to-run spread of the latencies low.
_SIZE_FACTORS = (0.98, 0.99, 1.0, 1.01, 1.02)
_GEN_SEEDS = (0, 1, 2, 3, 4)

# Each slot runs one variant (alternating) and the sizes form dense
# geometric grids, so the median and tail sit among many inputs rather than
# on one or two, which keeps them steady from run to run.
#
# deep: long derivation chains through the CLI.  meta-chain stops lower
# than chain because its generator and ``validate`` are quadratic.
DEEP_SLOTS = [("chain", round(1000 * 5 ** (i / 7))) for i in range(8)] + [
    ("meta-chain", round(1000 * 2.2 ** (i / 5))) for i in range(6)
]
# wide: few fixpoint iterations, many attackers per subject.  The cost of
# team and random theories varies by up to 2x between generator seeds at
# one size, so the grid is denser than deep's: with 16 slots the p75
# latency spread 0.13 over ten seeds, a simulation of 24 gives 0.09.
WIDE_SLOTS = [("team", round(1000 * 5 ** (i / 14))) for i in range(15)] + [
    ("random", round(1000 * 5 ** (i / 8))) for i in range(9)
]
# oracle-small: the shape of acceptance criterion 10, inside the default
# oracle budget of 200.
SMALL_SLOTS = [("random", round(25 + 155 * j / 199)) for j in range(200)]
SMALL_GEN_SEEDS = (0, 1, 2, 3)

# Lex-posterior priority probe: rule r(i+1) beats r(i) along one chain of
# superiority pairs.  The recursive cycle check in ``validate`` overflows
# the stack when its depth-first search starts far enough up the chain;
# where it starts depends on set order, i.e. on the hash seed.  At 1200
# rules most hash seeds escape the overflow; at 6000 a run escapes with
# probability below 1e-5.
PROBE_RULES = 6000

FIXTURES = (
    "example1",
    "example3",
    "example4",
    "example6",
    "example8",
    "execution1",
    "execution2",
    "loop",
    "nometa",
)


@dataclass
class Request:
    """One unit of work for the closed loop."""

    key: str  # pool key, e.g. "chain/1800/0", or "fixture/loop"
    family: str
    size: int  # theory_size of the input
    variant: str
    expected: str = None  # sha256 of the JSON extension
    golden: str = None  # exact expected JSON text (fixtures)
    path: str = None  # .ddl file, for CLI requests
    theory: object = None  # in-memory theory, for library requests
    probe: bool = False  # known-defect probe, kept out of latency metrics

    @property
    def name(self) -> str:
        return f"{self.key}/{self.variant}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_ddmr(root: str) -> SimpleNamespace:
    """Import ddmr from ``root/src``, refusing any other copy."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    ddmr = importlib.import_module("ddmr")
    origin = os.path.dirname(os.path.abspath(ddmr.__file__))
    if origin != os.path.join(src, "ddmr"):
        raise SystemExit(f"ddmr imported from {origin}, expected {src}/ddmr")
    mods = {
        name: importlib.import_module(f"ddmr.{name}")
        for name in ("cli", "conflicts", "engine", "generate", "model", "oracle", "text")
    }
    return SimpleNamespace(**mods)


def pool_key(family: str, size: int, gen_seed: int) -> str:
    return f"{family}/{size}/{gen_seed}"


def alternatives(family: str, nominal: int, gen_seeds=_GEN_SEEDS):
    """Pool keys a slot can draw from."""
    if family in ("chain", "meta-chain"):
        return [pool_key(family, round(nominal * f), 0) for f in _SIZE_FACTORS]
    return [pool_key(family, nominal, s) for s in gen_seeds]


def pool(workload: str):
    """Every pool key of a workload, in slot order."""
    if workload == "deep":
        keys = [k for fam, n in DEEP_SLOTS for k in alternatives(fam, n)]
        return keys + [pool_key("priority", PROBE_RULES, 0)]
    if workload == "wide":
        return [k for fam, n in WIDE_SLOTS for k in alternatives(fam, n)]
    if workload == "oracle-small":
        return [k for fam, n in SMALL_SLOTS for k in alternatives(fam, n, SMALL_GEN_SEEDS)]
    raise ValueError(f"unknown workload {workload!r}")


def priority_theory(D, rules: int):
    """Lex posterior: r(2k) concludes p(k), r(2k+1) concludes ~p(k), and
    each rule beats the one before it, so every ~p(k) wins."""
    m = D.model
    body = [
        m.Rule(
            f"r{i}",
            frozenset(),
            m.Arrow.DEFEASIBLE,
            m.Mode.C,
            (m.Literal(f"p{i // 2}", i % 2 == 0),),
        )
        for i in range(rules)
    ]
    sup = [(f"r{i + 1}", f"r{i}") for i in range(rules - 1)]
    return m.Theory.build((), body, sup)


def build_theory(D, key: str, generate=None):
    family, size, gen_seed = key.split("/")
    if family == "priority":
        return priority_theory(D, int(size))
    generate = generate or D.generate.generate_theory
    return generate(family, int(size), int(gen_seed))


def choose(workload: str, seed: int):
    """(pool key, variant) pairs for one run, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    slots = {"deep": DEEP_SLOTS, "wide": WIDE_SLOTS, "oracle-small": SMALL_SLOTS}[workload]
    seeds = SMALL_GEN_SEEDS if workload == "oracle-small" else _GEN_SEEDS
    return [
        (rng.choice(alternatives(fam, n, seeds)), VARIANTS[j % 2])
        for j, (fam, n) in enumerate(slots)
    ]


def setup(D, workload: str, seed: int, root: str, workdir: str, generate, tick):
    """Generate, render and pin-check every input of a run; return Requests.

    CLI workloads get their theories written as ``.ddl`` files under
    ``workdir``; ``wide`` keeps them in memory.  Exits with an error on any
    byte that differs from ``pins.json``.  ``tick()`` is called before each
    input is built.
    """
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)["inputs"]
    requests = []
    theories = {}
    for key, variant in choose(workload, seed):
        if key not in theories:
            tick()
            theory = build_theory(D, key, generate)
            ddl = D.text.render_theory(theory)
            _check_pin(pins, key, "ddl", sha256(ddl))
            theories[key] = (theory, ddl)
        theory, ddl = theories[key]
        req = Request(
            key,
            key.split("/")[0],
            D.model.theory_size(theory),
            variant,
            expected=pins[key][variant],
        )
        if workload == "wide":
            req.theory = theory
        else:
            req.path = _write(workdir, key, ddl)
        requests.append(req)
    if workload == "deep":
        tick()
        key = pool_key("priority", PROBE_RULES, 0)
        theory = build_theory(D, key)
        ddl = D.text.render_theory(theory)
        _check_pin(pins, key, "ddl", sha256(ddl))
        requests.append(
            Request(
                key,
                "priority",
                D.model.theory_size(theory),
                "cautious",
                expected=pins[key]["cautious"],
                path=_write(workdir, key, ddl),
                probe=True,
            )
        )
    if workload == "oracle-small":
        for name in FIXTURES:
            tick()
            path = os.path.join(root, "fixtures", f"{name}.ddl")
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            key = f"fixture/{name}"
            _check_pin(pins, key, "ddl", sha256(source))
            size = D.model.theory_size(D.text.parse_theory(source))
            for variant in VARIANTS:
                golden = os.path.join(root, "fixtures", "golden", f"{name}.{variant}.json")
                with open(golden, encoding="utf-8") as handle:
                    requests.append(
                        Request(key, "fixture", size, variant, golden=handle.read(), path=path)
                    )
    return requests


def _check_pin(pins, key, field_name, digest):
    pinned = pins.get(key, {}).get(field_name)
    if pinned != digest:
        raise SystemExit(f"pinned input changed: {key} {field_name} {digest} != {pinned}")


def _write(workdir: str, key: str, text: str) -> str:
    path = os.path.join(workdir, key.replace("/", "_") + ".ddl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path
