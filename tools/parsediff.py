"""Compare how two ddmr checkouts parse fuzzed and corrupted sources.

    python tools/parsediff.py PARENT_ROOT CHANGE_ROOT [--sources N] [--seed S]

Builds ``N`` sources (120 000 by default) from seed ``S``: windows of the
benchmark's pool members (the ``deep``, ``wide`` and ``oracle-small``
pools of ``PARENT_ROOT/perfbench/inputs.py``, rendered by the parent) and
of the fixtures, with characters inserted, deleted, replaced or swapped,
cut off, or with their whitespace swapped for other whitespace and
comments; and random strings of tokens and of characters.  Each root's
ddmr parses every source in a subprocess of its own and reports, per
source, the rendered theory or the ``TheorySyntaxError`` errors as (line,
column, message, snippet).  Prints the sources whose outcomes differ and
a summary; exits 1 if any differs or a round trip fails.

Each subprocess also checks that ``render_theory`` round-trips every pool
member of its own root: parsing the rendered member gives the member back,
and rendering that gives the same text.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

WORKLOADS = ("deep", "wide", "oracle-small")
# Window of a base source that an edit starts from, in lines.
WINDOW_LINES = 12
EDIT_CHARS = " \t\n\r#~()[],.*:>=_aObPxC9?-é\x0c\x85 "
PIECES = [
    "fact", "a", "r1", "x_0", "O", "P", "C", ":", "=>", "~>", "~", "(", ")", "[",
    "]", ".", ",", "*", ">", "=", "#", "# c?\n", " ", "\t", "\n", "\r", "\r\n",
    "?", "é", "\x0c",
]
SPACES = [" ", "  ", "\t", "\n", "\r\n", " # c\n", "\n\n  "]


def _load(root: str):
    sys.path.insert(0, os.path.join(root, "perfbench"))
    inputs = importlib.import_module("inputs")
    return inputs, inputs.load_ddmr(root)


def _pool_keys(inputs) -> list:
    return list(dict.fromkeys(k for w in WORKLOADS for k in inputs.pool(w)))


def _window(rng: random.Random, text: str) -> str:
    lines = text.splitlines(keepends=True)
    start = rng.randrange(max(1, len(lines) - WINDOW_LINES + 1))
    return "".join(lines[start : start + rng.randint(1, WINDOW_LINES)])


def _edit(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0 and i < len(text):
            text = text[:i] + text[i + 1 :]
        elif op == 1 and i < len(text):
            text = text[:i] + rng.choice(EDIT_CHARS) + text[i + 1 :]
        elif op == 2 and i + 1 < len(text):
            text = text[:i] + text[i + 1] + text[i] + text[i + 2 :]
        else:
            text = text[:i] + rng.choice(EDIT_CHARS) + text[i:]
    return text


def _respace(rng: random.Random, text: str) -> str:
    return "".join(rng.choice(SPACES) if ch == " " and rng.random() < 0.3 else ch for ch in text)


def _source(rng: random.Random, bases: list) -> str:
    kind = rng.randrange(10)
    if kind == 8:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 40)))
    if kind == 9:
        return "".join(rng.choice(EDIT_CHARS + "abcOPC") for _ in range(rng.randint(0, 60)))
    text = _window(rng, rng.choice(bases))
    if kind < 5:
        return _edit(rng, text)
    if kind < 7:
        return text[: rng.randrange(len(text) + 1)]
    return _respace(rng, text)


def write_corpus(parent: str, count: int, seed: int, path: str) -> None:
    inputs, D = _load(parent)
    bases = [D.text.render_theory(inputs.build_theory(D, key)) for key in _pool_keys(inputs)]
    for name in inputs.FIXTURES:
        with open(os.path.join(parent, "fixtures", f"{name}.ddl"), encoding="utf-8") as handle:
            bases.append(handle.read())
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as out:
        for _ in range(count):
            out.write(json.dumps(_source(rng, bases)) + "\n")


def _outcome(D, source: str) -> str:
    try:
        theory = D.text.parse_theory(source)
    except D.text.TheorySyntaxError as exc:
        errors = [(e.line, e.column, e.message, e.snippet) for e in exc.errors]
        return "error " + hashlib.sha256(repr(errors).encode("utf-8")).hexdigest()[:20]
    rendered = D.text.render_theory(theory)
    return "theory " + hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:20]


def worker(root: str, corpus: str) -> None:
    """One line per source, then the round trip count as the last line."""
    inputs, D = _load(root)
    with open(corpus, encoding="utf-8") as handle:
        for line in handle:
            print(_outcome(D, json.loads(line)))
    keys = _pool_keys(inputs)
    kept = 0
    for key in keys:
        theory = inputs.build_theory(D, key)
        text = D.text.render_theory(theory)
        back = D.text.parse_theory(text)
        kept += back == theory and D.text.render_theory(back) == text
    print(json.dumps({"round_trips": kept, "members": len(keys)}))


def _run(root: str, corpus: str) -> list:
    args = [sys.executable, os.path.abspath(__file__), "--worker", root, corpus]
    done = subprocess.run(args, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{root}: worker failed\n{done.stderr}")
    return done.stdout.splitlines()


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        worker(os.path.abspath(argv[1]), argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--sources", type=int, default=120_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    roots = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "sources.jsonl")
        write_corpus(roots[0], args.sources, args.seed, corpus)
        with ThreadPoolExecutor(2) as pool:
            parent, change = pool.map(_run, roots, [corpus] * 2)
        with open(corpus, encoding="utf-8") as handle:
            differ = [
                (i, json.loads(line))
                for i, (line, old, new) in enumerate(zip(handle, parent, change))
                if old != new
            ]
    for i, source in differ[:20]:
        print(f"differs: source {i}: {source[:200]!r}")
    outcomes = parent[:-1]
    parsed = sum(o.startswith("theory") for o in outcomes)
    trips = [json.loads(side[-1]) for side in (parent, change)]
    print(
        f"{len(differ)} of {len(outcomes)} sources differ "
        f"({parsed} parse to a theory, {len(outcomes) - parsed} to errors, at the parent)"
    )
    for side, trip in zip(("parent", "change"), trips):
        print(f"round trips at the {side}: {trip['round_trips']} of {trip['members']} pool members")
    failed = any(t["round_trips"] != t["members"] for t in trips)
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
