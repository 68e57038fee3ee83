from __future__ import annotations

import argparse
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmr.bench import loglog_slope, run_benchmarks, to_csv
from ddmr.cli import EXIT_INTERNAL, MAX_PARSE_ERRORS, main
from ddmr.conflicts import Variant
from ddmr.engine import compute_extension, run_engine
from ddmr.generate import (
    FAMILIES,
    SizeOutOfReach,
    _closes_cycle,
    _RandomBuilder,
    generate_theory,
    random_theory,
)
from ddmr.model import (
    Arrow,
    Literal,
    Mode,
    Rule,
    Theory,
    extended_superiority,
    theory_size,
    validate,
)
from ddmr.model import _has_cycle
from ddmr.text import TheorySyntaxError, parse_theory, render_theory

from .conftest import FIXTURES
from .strategies import COMMANDS, cli_argvs, junk


def test_generators_deterministic():
    for family in FAMILIES:
        a = render_theory(generate_theory(family, 1000, 42))
        b = render_theory(generate_theory(family, 1000, 42))
        assert a == b, family


def test_chain_size_zero_is_empty():
    assert generate_theory("chain", 0, 7) == Theory.build()


def test_sizes_within_ten_percent():
    for family in FAMILIES:
        for size in (30, 100, 400):
            for seed in (0, 3):
                achieved = theory_size(generate_theory(family, size, seed))
                assert 0.9 * size <= achieved <= 1.1 * size, (family, size, achieved)


def test_clash_family_shape():
    assert render_theory(generate_theory("clash", 22, 0)) == (
        "fact a.\nfact b.\n"
        "m_0: a => C (r_0: b => C x).\nn_0: a => C (s_0: b => C ~x).\n"
        "m_1: a => C (r_1: b => C x).\nn_1: a => C (s_1: b => C ~x).\n"
    )


def test_team_family_shape():
    theory = generate_theory("team", 21, 5)
    ext = compute_extension(theory, Variant.CAUTIOUS)
    contested = {
        lit for lit in ext.positive(Mode.C) if lit.atom.startswith("l") and lit.positive
    }
    assert contested  # the supporting team wins each block
    assert any(
        lit.complement() in ext.negative(Mode.C) for lit in contested
    )
    assert theory.superiority


def test_random_theories_validate_cleanly():
    for seed in range(30):
        report = validate(random_theory(seed, 60))
        assert report.ok, report.errors


def test_random_acyclic_keeps_extended_superiority_acyclic():
    for seed in range(20):
        theory = random_theory(seed, 60, acyclic=True)
        assert not _has_cycle(extended_superiority(theory))


class _RebuildingBuilder(_RandomBuilder):
    """Reference for ``superiority``: rebuild the theory and re-check the
    whole extended relation for every candidate pair (quadratic)."""

    def superiority(self, facts, rules, budget: int) -> set:
        labels = sorted(Theory.build(facts, rules).rules_by_label())
        pairs: set = set()
        attempts = 0
        while len(pairs) < budget and attempts < budget * 8 + 8 and len(labels) > 1:
            attempts += 1
            a, b = self.rng.sample(labels, 2)
            if self.acyclic and labels.index(a) >= labels.index(b):
                a, b = b, a
            candidate = pairs | {(a, b)}
            if self.acyclic and _has_cycle(
                extended_superiority(Theory.build(facts, rules, candidate))
            ):
                continue
            pairs = candidate
        return pairs


def test_incremental_superiority_matches_rebuilding_reference():
    inherited = 0
    for size in (30, 120, 600):
        for seed in range(30):
            for acyclic in (True, False):
                theory = random_theory(seed, size, acyclic=acyclic)
                reference = _RebuildingBuilder(random.Random(seed), size, acyclic).build()
                assert render_theory(theory) == render_theory(reference), (size, seed, acyclic)
                inherited += acyclic and extended_superiority(theory) != theory.superiority
    assert inherited  # some acyclic theories inherit pairs, so the check is exercised


def test_closes_cycle_through_old_and_new_edges():
    graph = {"a": {"b"}, "b": {"c"}}
    assert _closes_cycle(graph, {("c", "a")})
    assert not _closes_cycle(graph, {("a", "c"), ("d", "a")})
    # the cycle needs two of the new edges
    assert _closes_cycle(graph, {("c", "d"), ("d", "a")})
    assert _closes_cycle({}, {("x", "y"), ("y", "x")})
    assert graph == {"a": {"b"}, "b": {"c"}}


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        generate_theory("nope", 10, 0)


@pytest.mark.parametrize(
    "family, size", [("team", 45), ("chain", 3), ("meta-chain", 9), ("random", 3)]
)
def test_a_size_out_of_reach_is_a_value_error(family, size):
    with pytest.raises(SizeOutOfReach, match=f"{family}: size {size} is out of reach"):
        generate_theory(family, size, 0)


def test_bench_records_and_csv():
    records = run_benchmarks(["chain"], [30, 60], seed=1)
    assert [(r.family, r.variant) for r in records] == [
        ("chain", "simple"),
        ("chain", "cautious"),
        ("chain", "simple"),
        ("chain", "cautious"),
    ]
    text = to_csv(records)
    lines = text.strip().splitlines()
    assert lines[0] == "family,size,variant,wall_time_ms,decided,undetermined"
    assert len(lines) == 5


# ``ddmr bench``'s decided and undetermined columns per family and reading
# at one size, as recorded when the tag sets were still built on the clock;
# the reparation and clash rows were recorded when those families were
# added, by the engine of the commit before, on the same theories.
BENCH_COUNTS = {
    ("chain", "simple"): (601, 2406, 0),
    ("chain", "cautious"): (601, 2406, 0),
    ("team", "simple"): (540, 1458, 0),
    ("team", "cautious"): (540, 1458, 0),
    ("meta-chain", "simple"): (541, 1950, 0),
    ("meta-chain", "cautious"): (541, 1950, 0),
    ("random", "simple"): (659, 1601, 1),
    ("random", "cautious"): (659, 1601, 1),
    ("reparation", "simple"): (600, 1806, 0),
    ("reparation", "cautious"): (600, 1806, 0),
    ("clash", "simple"): (602, 1458, 0),
    ("clash", "cautious"): (602, 1458, 0),
}


def test_bench_decided_and_undetermined_are_unchanged_on_every_family():
    records = run_benchmarks(FAMILIES, [600], seed=5)
    counts = {(r.family, r.variant): (r.size, r.decided, r.undetermined) for r in records}
    assert counts == BENCH_COUNTS
    for r in records:  # and they count the engine's store
        tag = run_engine(generate_theory(r.family, 600, 5), Variant(r.variant)).tag
        assert (r.decided, r.undetermined) == (len(tag) - tag.count(0), tag.count(0))


def test_bench_empty_sizes_gives_header_only():
    assert to_csv(run_benchmarks(["chain"], [], seed=1)).strip() == (
        "family,size,variant,wall_time_ms,decided,undetermined"
    )


def test_loglog_slope():
    assert loglog_slope([(10, 10.0), (100, 100.0)]) == pytest.approx(1.0)
    assert loglog_slope([(10, 5.0)]) == 0.0


# -- command line -------------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_extension_json(capsys):
    code = run_cli(
        "extension",
        str(FIXTURES / "execution1.ddl"),
        "--variant",
        "simple",
        "--format",
        "json",
    )
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert "c" in data["-dO"]


def test_cli_extension_matches_golden():
    for golden in sorted((FIXTURES / "golden").glob("*.json")):
        name, variant, _ = golden.name.split(".")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ddmr.cli",
                "extension",
                str(FIXTURES / f"{name}.ddl"),
                "--variant",
                variant,
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden.read_text(), golden.name


def test_cli_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("extension", "no-such-file.ddl")
    assert exc.value.code == 2


def test_cli_non_utf8_file_is_unreadable_input(tmp_path, capsys):
    bad = tmp_path / "bad.ddl"
    bad.write_bytes(b"fact a\xff.\n")
    for argv in (
        ["extension", str(bad)],
        ["query", str(bad), "+dC a"],
        ["validate", str(bad)],
        ["diff", str(bad)],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        [line] = captured.err.splitlines()
        assert line.startswith(f"cannot read {bad}: ") and "utf-8" in line, argv


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ddl"
    bad.write_text("alpha: a => Q l.")
    with pytest.raises(SystemExit) as exc:
        run_cli("extension", str(bad))
    assert exc.value.code == 2
    assert "unknown mode" in capsys.readouterr().err


def test_cli_parse_errors_are_capped(tmp_path, capsys):
    bad = tmp_path / "bad.ddl"
    bad.write_text("?" * 50_000)
    with pytest.raises(SystemExit) as exc:
        run_cli("extension", str(bad))
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) <= 2 * MAX_PARSE_ERRORS + 1
    assert lines[-1] == f"{bad}: {50_000 - MAX_PARSE_ERRORS} more errors"


def test_cli_prints_up_to_the_cap_in_full(tmp_path, capsys):
    for count in (1, MAX_PARSE_ERRORS):
        bad = tmp_path / f"bad{count}.ddl"
        bad.write_text("?" * count)
        with pytest.raises(TheorySyntaxError) as parsed:
            parse_theory(bad.read_text())
        assert len(parsed.value.errors) == count
        with pytest.raises(SystemExit) as exc:
            run_cli("extension", str(bad))
        assert exc.value.code == 2
        expected = "".join(f"{bad}:{error}\n" for error in parsed.value.errors)
        assert capsys.readouterr().err == expected


def _nested(depth: int) -> str:
    """A rule whose antecedent nests rule expressions ``depth`` deep."""
    body = "x => C y"
    for i in range(depth):
        body = f"(a{i}: {body}) => C z{i}"
    return f"r: {body}.\n"


def test_cli_deep_nesting_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.ddl"
    deep.write_text(_nested(3000))
    with pytest.raises(SystemExit) as exc:
        run_cli("extension", str(deep))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "nested deeper than" in err and "internal error" not in err
    assert len([line for line in err.splitlines() if line.startswith(str(deep))]) == 1
    # shallow nesting parses and fails validation as before
    shallow = tmp_path / "shallow.ddl"
    shallow.write_text(_nested(2))
    with pytest.raises(SystemExit) as exc:
        run_cli("extension", str(shallow))
    assert exc.value.code == 1
    assert "itself a meta-rule" in capsys.readouterr().err


def test_cli_extension_on_a_long_superiority_chain(tmp_path, capsys):
    # lex posterior: r(2k) concludes p(k), r(2k+1) concludes ~p(k), and each
    # rule beats the one before it along one chain of 6000 rules
    rules = [
        Rule(f"r{i}", frozenset(), Arrow.DEFEASIBLE, Mode.C, (Literal(f"p{i // 2}", i % 2 == 0),))
        for i in range(6000)
    ]
    sup = [(f"r{i + 1}", f"r{i}") for i in range(5999)]
    path = tmp_path / "priority.ddl"
    path.write_text(render_theory(Theory.build((), rules, sup)))
    assert run_cli("extension", str(path), "--format", "json") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    assert data["+dC"] == sorted(f"~p{k}" for k in range(3000))
    assert data["-dC"] == sorted(f"p{k}" for k in range(3000))


def test_cli_validation_error(tmp_path, capsys):
    bad = tmp_path / "dup.ddl"
    bad.write_text("r: a => C b. r: a => C c.")
    with pytest.raises(SystemExit) as exc:
        run_cli("extension", str(bad))
    assert exc.value.code == 1


def test_cli_loop_has_undetermined(capsys):
    code = run_cli("extension", str(FIXTURES / "loop.ddl"), "--format", "json")
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["undetermined"] == [{"mode": "C", "subject": "x"}]


def test_cli_query_exit_codes(capsys):
    assert run_cli("query", str(FIXTURES / "execution1.ddl"), "+dO a") == 0
    assert run_cli("query", str(FIXTURES / "execution1.ddl"), "+dmC nu") == 3
    assert run_cli("query", str(FIXTURES / "loop.ddl"), "+dC x") == 4
    assert run_cli("query", str(FIXTURES / "loop.ddl"), "+dC ghost") == 6
    out = capsys.readouterr().out
    assert "Proved" in out and "UnknownSubject" in out


def test_cli_validate(capsys):
    assert run_cli("validate", str(FIXTURES / "example8.ddl")) == 0
    out = capsys.readouterr().out
    assert "cyclic extended superiority" in out
    assert run_cli("validate", str(FIXTURES / "example1.ddl")) == 0


def test_cli_diff(capsys):
    assert run_cli("diff", str(FIXTURES / "execution2.ddl")) == 0
    out = capsys.readouterr().out
    assert "~zeta" in out
    assert run_cli("diff", str(FIXTURES / "nometa.ddl")) == 0
    assert "no differences" in capsys.readouterr().out


def test_cli_oracle_cross_check(capsys):
    assert (
        run_cli(
            "extension",
            str(FIXTURES / "execution2.ddl"),
            "--oracle",
            "--format",
            "json",
        )
        == 0
    )


def test_cli_oracle_budget_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DDMR_ORACLE_BUDGET", "1")
    with pytest.raises(SystemExit) as exc:
        run_cli("extension", str(FIXTURES / "execution1.ddl"), "--oracle")
    assert exc.value.code == 1
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("DDMR_ORACLE_BUDGET", "x")
    path = str(FIXTURES / "example1.ddl")
    for args in (("extension", path), ("query", path, "+dO a")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--oracle")
        assert exc.value.code == 2, args
        err = capsys.readouterr().err
        assert err.splitlines() == ["DDMR_ORACLE_BUDGET must be an integer, got 'x'"]


@pytest.mark.parametrize("command", [("extension",), ("query", "+dO a")], ids=["extension", "query"])
def test_cli_oracle_refuses_an_over_budget_theory_before_the_engine(monkeypatch, capsys, command):
    def never(*args, **kwargs):
        raise AssertionError("the engine ran on a theory above the oracle budget")

    monkeypatch.setattr("ddmr.cli.compute_extension", never)
    monkeypatch.setenv("DDMR_ORACLE_BUDGET", "1")
    path = FIXTURES / "example1.ddl"
    size = theory_size(parse_theory(path.read_text()))
    verb, *rest = command
    assert _exit_code(verb, str(path), *rest, "--oracle") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"oracle: theory size {size} exceeds the oracle budget 1"]


def test_cli_validates_once_per_request(monkeypatch, capsys):
    calls = []

    def counting(theory):
        calls.append(theory)
        return validate(theory)

    monkeypatch.setattr("ddmr.cli.validate", counting)
    monkeypatch.setattr("ddmr.engine.validate", counting)
    path = str(FIXTURES / "execution1.ddl")
    for args, expected in (
        (("extension", path), 1),
        (("query", path, "+dO a"), 1),
        (("diff", path), 1),
        (("extension", path, "--oracle"), 1),  # the cross-check reuses the engine's run
        (("query", path, "+dO a", "--oracle"), 1),
    ):
        calls.clear()
        assert run_cli(*args) == 0, args
        assert len(calls) == expected, args


def test_cli_internal_error_is_one_line_and_exit_7(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("planted defect")

    monkeypatch.setattr("ddmr.cli.compute_extension", broken)
    code = run_cli("extension", str(FIXTURES / "execution1.ddl"))
    err = capsys.readouterr().err
    assert code == EXIT_INTERNAL == 7
    assert err.splitlines() == ["internal error: RuntimeError: planted defect"]
    assert "Traceback" not in err


def test_cli_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(
        "bench",
        "--family",
        "chain",
        "--sizes",
        "30,60",
        "--seed",
        "2",
        "--variant",
        "cautious",
        "--out",
        str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("family,size")
    assert [line.split(",")[2] for line in lines[1:]] == ["cautious", "cautious"]
    # without --variant both readings run; a repeated one runs once
    for argv, variants in (((), {"simple", "cautious"}), (("--variant", "simple") * 2, {"simple"})):
        assert run_cli("bench", "--family", "chain", "--sizes", "30", *argv, "--out", str(out)) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert sorted(row.split(",")[2] for row in rows) == sorted(variants)


def _exit_code(*argv):
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("sizes", ["x", "3,", "-5"])
def test_cli_bench_bad_sizes_exit_2(sizes, capsys):
    assert _exit_code("bench", "--family", "chain", "--sizes", sizes) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sizes" in captured.err
    assert "internal error" not in captured.err


def test_cli_bench_size_out_of_reach_exits_2(capsys):
    assert _exit_code("bench", "--family", "team", "--sizes", "45") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["bench: team: size 45 is out of reach, made 50"]


def test_cli_bench_size_out_of_reach_keeps_out_and_runs_nothing(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("benchmarks ran for a size out of reach")

    monkeypatch.setattr("ddmr.cli.run_benchmarks", never)
    out = tmp_path / "x.csv"
    out.write_text("family,size\nkept\n")
    argv = ("bench", "--family", "team", "--sizes", "30,45", "--out", str(out))
    assert _exit_code(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "bench: team: size 45 is out of reach, made 50"
    ]
    assert out.read_text() == "family,size\nkept\n"


def test_cli_bench_generates_each_theory_once(monkeypatch, capsys):
    calls = []

    def counting(family, size, seed=0):
        calls.append((family, size))
        return generate_theory(family, size, seed)

    monkeypatch.setattr("ddmr.cli.generate_theory", counting)
    monkeypatch.setattr("ddmr.bench.generate_theory", counting)
    argv = ("bench", "--family", "chain", "--family", "team", "--sizes", "30,60")
    assert _exit_code(*argv) == 0
    assert sorted(calls) == [("chain", 30), ("chain", 60), ("team", 30), ("team", 60)]
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 2 * 2


def test_cli_bench_out_is_replaced_not_appended_to(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("old\n" * 10)
    assert _exit_code("bench", "--family", "chain", "--sizes", "30", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,size") and len(lines) == 3


@pytest.mark.parametrize("target", ["ddmr.bench.compute_extension", "ddmr.generate._team"])
def test_cli_bench_value_error_of_a_defect_is_internal(target, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("invalid theory")

    monkeypatch.setattr(target, broken)
    assert _exit_code("bench", "--family", "team", "--sizes", "30") == EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() == ["internal error: ValueError: invalid theory"]


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    """Theory paths that load, fail to parse or validate, are missing, are a
    directory, are not UTF-8 or are named by bytes that are not UTF-8; and
    ``bench --out`` targets that can and cannot be written."""
    root = tmp_path_factory.mktemp("argv")
    (root / "latin1.ddl").write_bytes(b"fact caf\xe9.\n")
    (root / "broken.ddl").write_text("r: => X a.\n")
    (root / "invalid.ddl").write_text("r: => C a.\nr: => C b.\n")
    paths = [str(path) for path in sorted(FIXTURES.glob("*.ddl"))]
    paths += [str(root / name) for name in ("latin1.ddl", "broken.ddl", "invalid.ddl", "none.ddl")]
    paths += [str(root), "\udcff.ddl"]
    outs = [str(root / "bench.csv"), str(root), str(root / "none" / "bench.csv")]
    return root, paths, outs


@pytest.mark.parametrize("command", [*COMMANDS, None])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_no_argv_is_an_internal_error(argv_paths, command, data):
    root, paths, outs = argv_paths
    argv = data.draw(cli_argvs(command, paths, outs), label="argv")
    budget = data.draw(st.none() | st.sampled_from(["0", "1", "200", "-3"]) | junk, label="budget")
    saved = os.environ.pop("DDMR_ORACLE_BUDGET", None)
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(root)  # a junk --out is a file name relative to it
        if budget is not None:
            os.environ["DDMR_ORACLE_BUDGET"] = budget
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        os.chdir(cwd)
        os.environ.pop("DDMR_ORACLE_BUDGET", None)
        if saved is not None:
            os.environ["DDMR_ORACLE_BUDGET"] = saved
    assert 0 <= code <= 6, (code, err.getvalue())
    assert "internal error" not in err.getvalue()


def test_cli_bench_unwritable_out_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("benchmarks ran before --out was opened")

    monkeypatch.setattr("ddmr.cli.run_benchmarks", never)
    out = tmp_path / "missing" / "x.csv"
    assert _exit_code("bench", "--family", "chain", "--sizes", "3", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"cannot write {out}: ")


def test_cli_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    build = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        build(self, *args, **kwargs)

    path = str(FIXTURES / "example1.ddl")
    assert run_cli("validate", path) == 0
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli("validate", path) == 0
    assert run_cli("extension", path, "--variant", "simple") == 0
    assert _exit_code("bench", "--sizes", "x") == 2
    assert built == []
    capsys.readouterr()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ddmr.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "extension" in proc.stdout
