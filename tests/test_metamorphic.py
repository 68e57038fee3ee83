"""Metamorphic properties: names, declaration order, unrelated rules and
the text round trip do not matter.

The engine numbers literals by atom and rules by label, in sorted order, so
renaming atoms and labels permutes its ids and reordering the theory
changes the order it meets rules and facts in.  Neither may change the
extension, beyond mapping it through the renaming.  Nor may a rule over
names the theory does not use change any existing tag.  These properties
are checked on the engine and on the oracle.  Rendering a theory and
parsing it back must give the same extension; that one is checked on the
engine at size 10^3, beyond the oracle's budget.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ddmr.conflicts import Variant
from ddmr.engine import compute_extension
from ddmr.extension import Extension
from ddmr.generate import FAMILIES, generate_theory, random_theory
from ddmr.model import (
    Arrow,
    DeonticRuleExpression,
    Literal,
    ModalLiteral,
    Mode,
    Rule,
    RuleExpression,
    RuleRef,
    Theory,
    atoms,
)
from ddmr.oracle import oracle_extension
from ddmr.text import parse_theory, render_theory

EVALUATORS = (compute_extension, oracle_extension)

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=5, max_value=60)


def _reversing(names) -> dict:
    """Rename so that the sorted order of the names is reversed."""
    ordered = sorted(names)
    width = len(str(len(ordered)))
    return {name: f"n{len(ordered) - i:0{width}d}" for i, name in enumerate(ordered)}


class _Renaming:
    def __init__(self, atom: dict, label: dict):
        self.atom, self.label = atom, label

    def literal(self, lit: Literal) -> Literal:
        return Literal(self.atom[lit.atom], lit.positive)

    def rule(self, rule: Rule) -> Rule:
        return Rule(
            self.label[rule.label],
            frozenset(map(self.item, rule.antecedent)),
            rule.arrow,
            rule.mode,
            tuple(map(self.item, rule.consequent)),
        )

    def item(self, item):
        """An antecedent item or chain element."""
        if isinstance(item, Literal):
            return self.literal(item)
        if isinstance(item, ModalLiteral):
            return ModalLiteral(item.mode, self.literal(item.inner), item.negated)
        if isinstance(item, RuleExpression):
            return RuleExpression(self.rule(item.rule), item.positive)
        return DeonticRuleExpression(item.mode, self.item(item.expr), item.negated)

    def theory(self, t: Theory) -> Theory:
        return Theory.build(
            map(self.literal, t.facts),
            map(self.rule, t.rules),
            {(self.label[a], self.label[b]) for a, b in t.superiority},
        )

    def subject(self, subject):
        if isinstance(subject, Literal):
            return self.literal(subject)
        return RuleRef(self.label[subject.label], subject.positive)

    def extension(self, ext: Extension) -> tuple:
        """The extension's sets (``_sets``) with every subject renamed."""
        return (
            {key: set(map(self.subject, s)) for key, s in ext.literals.items()},
            {key: set(map(self.subject, s)) for key, s in ext.rules.items()},
            {(mode, self.subject(s)) for mode, s in ext.undetermined},
        )


def _sets(ext: Extension) -> tuple:
    return ext.literals, ext.rules, ext.undetermined


@given(seeds, sizes)
@settings(max_examples=30, deadline=None)
def test_renaming_maps_the_extension_through_the_renaming(seed, size):
    theory = random_theory(seed, size)
    renaming = _Renaming(_reversing(atoms(theory)), _reversing(theory.rules_by_label()))
    renamed = renaming.theory(theory)
    for evaluate in EVALUATORS:
        for variant in Variant:
            expected = renaming.extension(evaluate(theory, variant))
            assert _sets(evaluate(renamed, variant)) == expected, (evaluate.__name__, variant)


@given(seeds, sizes, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_reordering_rules_and_facts_leaves_the_extension_unchanged(seed, size, rng):
    theory = random_theory(seed, size)
    rules, facts = list(theory.rules), list(theory.facts)
    rng.shuffle(rules)
    rng.shuffle(facts)
    shuffled = Theory.build(facts, rules, theory.superiority)
    for evaluate in EVALUATORS:
        for variant in Variant:
            assert evaluate(shuffled, variant) == evaluate(theory, variant), (
                evaluate.__name__,
                variant,
            )


def _without(ext: Extension, atoms_: set, label: str) -> tuple:
    """The extension's sets (``_sets``) less every subject over the given
    atoms or label."""

    def kept(subject) -> bool:
        if isinstance(subject, Literal):
            return subject.atom not in atoms_
        return subject.label != label

    return (
        {key: set(filter(kept, s)) for key, s in ext.literals.items()},
        {key: set(filter(kept, s)) for key, s in ext.rules.items()},
        {(mode, s) for mode, s in ext.undetermined if kept(s)},
    )


@given(seeds, sizes, st.sampled_from(list(Mode)), st.sampled_from(list(Arrow)), st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_rule_over_fresh_names_leaves_every_existing_tag_unchanged(
    seed, size, mode, arrow, fired
):
    theory = random_theory(seed, size)
    label, body, head = "fresh", Literal("fresh_a"), Literal("fresh_b", False)
    assert label not in theory.rules_by_label()
    assert not {body.atom, head.atom} & atoms(theory)
    facts = theory.facts | {body} if fired else theory.facts
    rule = Rule(label, frozenset({body}), arrow, mode, (head,))
    grown = Theory.build(facts, theory.rules + (rule,), theory.superiority)
    for evaluate in EVALUATORS:
        for variant in Variant:
            ext = evaluate(grown, variant)
            assert RuleRef(label) in ext.positive_rules(Mode.C)
            after = _without(ext, {body.atom, head.atom}, label)
            assert after == _sets(evaluate(theory, variant)), (evaluate.__name__, variant)


def test_render_then_parse_gives_the_same_extension_at_size_1000():
    for family in FAMILIES:
        theory = generate_theory(family, 1000, 0)
        reparsed = parse_theory(render_theory(theory))
        for variant in Variant:
            assert compute_extension(reparsed, variant) == compute_extension(theory, variant), (
                family,
                variant,
            )
