"""The numbering that ``validate`` hands through ``run_engine`` to ``prepare``.

``model.number`` is checked against the definitions it replaces in the
compile: the sorted labels of ``rules_by_label``, the sorted ``atoms`` and
content groups that follow ``Rule.content``.  ``prepare`` must compile the
same tables from a report's numbering as from its own, and must leave the
numbering as it found it.  ``validate``'s warnings are checked against a
reference that runs both cycle checks unconditionally.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from ddmr.conflicts import Variant
from ddmr.engine import EngineState, diff_variants
from ddmr.generate import FAMILIES, generate_theory, random_theory
from ddmr.model import (
    Arrow,
    Literal,
    Mode,
    Rule,
    RuleExpression,
    Theory,
    ValidationReport,
    _has_cycle,
    atoms,
    extended_superiority,
    number,
    validate,
)
from ddmr.text import parse_theory

from .conftest import FIXTURES
from .strategies import loose_theories, model_theories


def _pool() -> list:
    """(name, theory): the fixtures, every family at two sizes and seeded
    random theories, acyclic or not."""
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [
        (f"{family}/{size}", generate_theory(family, size, 3))
        for family in FAMILIES
        for size in (60, 600)
    ]
    return theories + [
        (f"random/{seed}/{acyclic}", random_theory(seed, 80, acyclic))
        for seed in range(10)
        for acyclic in (False, True)
    ]


POOL = _pool()


def _assert_numbers(theory, where) -> None:
    numbering = validate(theory).numbering
    by_label = theory.rules_by_label()
    assert numbering == number(theory), where
    assert numbering.labels == sorted(by_label), where
    assert numbering.rules == [by_label[label] for label in numbering.labels], where
    assert numbering.atoms == sorted(atoms(theory)), where
    assert len(numbering.groups) == len(numbering.rules), where
    for (x, gx), (y, gy) in itertools.combinations(zip(numbering.rules, numbering.groups), 2):
        assert (gx == gy) == (x.content == y.content), (where, x.label, y.label)


def _tables(state) -> tuple:
    shared = (state.tag, state.watch, state.supports, state.live, state.cut)
    if state.variant is Variant.SIMPLE:
        return shared + (state.opposite,)
    return shared + (state.clashes,)


def _assert_prepares_alike(theory, where) -> None:
    numbering = validate(theory).numbering
    for variant in Variant:
        given_numbering = EngineState(theory, variant)
        given_numbering.prepare(numbering)
        own = EngineState(theory, variant)
        own.prepare()
        assert _tables(given_numbering) == _tables(own), (where, variant)


def _copy(numbering) -> tuple:
    return tuple(map(list, numbering))


@pytest.mark.parametrize("where, theory", POOL, ids=[name for name, _ in POOL])
def test_the_numbering_matches_the_definitions_it_replaces(where, theory):
    assert validate(theory).ok, where
    _assert_numbers(theory, where)


@pytest.mark.parametrize("where, theory", POOL, ids=[name for name, _ in POOL])
def test_prepare_compiles_the_same_tables_from_a_reports_numbering(where, theory):
    _assert_prepares_alike(theory, where)


@given(model_theories())
@settings(max_examples=200, deadline=None)
def test_numbering_and_prepare_on_theories_that_validate(theory):
    report = validate(theory)
    if not report.ok:
        assert report.numbering is None
        return
    _assert_numbers(theory, str(theory))
    _assert_prepares_alike(theory, str(theory))


def test_diff_variants_leaves_the_shared_numbering_unchanged():
    for where, theory in POOL:
        report = validate(theory)
        before = _copy(report.numbering)
        diff_variants(theory, report)
        assert _copy(report.numbering) == before, where


def test_the_numbering_takes_no_part_in_comparing_or_printing_a_report():
    for where, theory in POOL:
        report = validate(theory)
        bare = ValidationReport(list(report.errors), list(report.warnings))
        assert report.numbering is not None and bare.numbering is None
        assert report == bare, where
        assert repr(report) == repr(bare), where


def _unhashable(label: str, chain=(Literal("a"),)) -> Rule:
    return Rule([label], frozenset(), Arrow.DEFEASIBLE, Mode.C, chain)


def test_validate_reports_a_top_level_label_that_does_not_hash():
    report = validate(Theory.build([], [_unhashable("r"), _unhashable("r", (Literal("b"),))]))
    assert report.errors == [
        "label ['r'] is used for two rules with different content",
        "rule label ['r'] is not a word over [A-Za-z0-9_]",
    ]
    assert report.numbering is None


def test_validate_reports_a_nested_label_that_does_not_hash():
    # the concluded rule is also given, so its label is met twice
    inner = _unhashable("r")
    meta = Rule("m", frozenset(), Arrow.DEFEASIBLE, Mode.C, (RuleExpression(inner, False),))
    report = validate(Theory.build([Literal("a")], [meta, inner]))
    assert report.errors == ["rule label ['r'] is not a word over [A-Za-z0-9_]"]
    assert report.numbering is None


def _cycle_warnings(theory, report) -> list:
    """The cycle warning that both checks, run unconditionally, give: the
    plain relation over the pairs of known labels first, then, on a theory
    without errors, the extended relation."""
    known = set()
    for rule in theory.all_rules():
        try:
            known.add(rule.label)
        except TypeError:  # a label that does not hash names no pair
            pass
    plain = {
        e
        for e in theory.superiority
        if isinstance(e, tuple) and len(e) == 2 and e[0] in known and e[1] in known
    }
    if _has_cycle(plain):
        return ["cyclic superiority relation"]
    if not report.errors and _has_cycle(extended_superiority(theory)):
        return ["cyclic extended superiority relation"]
    return []


def _assert_warnings(theory, where) -> None:
    report = validate(theory)
    others = [w for w in report.warnings if not w.startswith("cyclic")]
    assert report.warnings == others + _cycle_warnings(theory, report), where


def test_validate_warns_as_both_cycle_checks_do():
    warned = set()
    for where, theory in POOL:
        _assert_warnings(theory, where)
        warned.update(validate(theory).warnings)
    # the pool reaches both warnings, the extended one through pairs it adds
    assert {"cyclic superiority relation", "cyclic extended superiority relation"} <= warned


@given(model_theories())
@settings(max_examples=200, deadline=None)
def test_validate_warns_as_both_cycle_checks_do_on_model_theories(theory):
    _assert_warnings(theory, str(theory))


def _reference_facts_warnings(theory) -> list:
    """The contradictory-facts warning as every fact's complement, looked up
    among the facts, gives it; raises ``TypeError`` where a clashing fact
    writes no string."""
    facts = {fact for fact in theory.facts if isinstance(fact, Literal)}
    clashing = sorted(str(f) for f in facts if f.complement() in facts and f.positive)
    return ["contradictory facts: " + ", ".join(clashing)] if clashing else []


def _reference_chain_errors(theory) -> list:
    """The duplicate-chain errors as hashing every chain whole gives them."""
    errors = []
    for rule in theory.all_rules():
        chain = rule.consequent
        try:
            distinct = len(set(chain))
        except TypeError:  # an unhashable element
            distinct = sum(elem not in chain[:i] for i, elem in enumerate(chain))
        if distinct != len(chain):
            errors.append(f"rule {rule.label}: duplicate chain elements")
    return errors


def _assert_fact_and_chain_checks(theory, where) -> None:
    report = validate(theory)
    try:
        facts = _reference_facts_warnings(theory)
    except TypeError:  # validate writes the atoms with str, and returns
        facts = [w for w in report.warnings if w.startswith("contradictory facts: ")]
    assert [w for w in report.warnings if not w.startswith("cyclic")] == facts, where
    chains = [e for e in report.errors if e.endswith(": duplicate chain elements")]
    assert chains == _reference_chain_errors(theory), where


def _rule(label, chain) -> Rule:
    return Rule(label, frozenset(), Arrow.DEFEASIBLE, Mode.O, tuple(chain))


# Facts of polarities that are not bools, one of them equal to False, and
# chains with a repeated literal, rule expression or unhashable literal.
_FACTS_AND_CHAINS = [
    ("truthy polarities", Theory.build([Literal("a"), Literal("a", "yes"), Literal("a", 0)])),
    ("None is not False", Theory.build([Literal("a"), Literal("a", None), Literal("b", 0)])),
    (
        "chains",
        Theory.build(
            [],
            [
                _rule("r", [Literal("a"), Literal("b"), Literal("a")]),
                _rule("s", [RuleExpression(_rule("n", [Literal("a")]))] * 2),
                _rule("u", [Literal(["a"]), Literal("b"), Literal(["a"])]),
                _rule("v", [Literal(["a"]), Literal("b")]),
            ],
        ),
    ),
]


def test_validate_checks_facts_and_chains_as_the_references_do():
    warned = set()
    for where, theory in POOL + _FACTS_AND_CHAINS:
        _assert_fact_and_chain_checks(theory, where)
        warned.update(w.split(":")[0] for w in validate(theory).warnings)
    assert "contradictory facts" in warned
    assert validate(_FACTS_AND_CHAINS[0][1]).warnings == ["contradictory facts: a, a"]
    assert len(_reference_chain_errors(_FACTS_AND_CHAINS[2][1])) == 3


@given(model_theories())
@settings(max_examples=200, deadline=None)
def test_validate_checks_facts_and_chains_as_the_references_do_on_model_theories(theory):
    _assert_fact_and_chain_checks(theory, str(theory))


@given(loose_theories())
@settings(max_examples=200, deadline=None)
def test_validate_checks_facts_and_chains_as_the_references_do_on_loose_theories(theory):
    _assert_fact_and_chain_checks(theory, str(theory))
