"""Metamorphic properties: names and declaration order do not matter.

The engine numbers literals by atom and rules by label, in sorted order, so
renaming atoms and labels permutes its ids and reordering the theory
changes the order it meets rules and facts in.  Neither may change the
extension, beyond mapping it through the renaming.  Each property is
checked on the engine and on the oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ddmr.conflicts import Variant
from ddmr.engine import compute_extension
from ddmr.generate import random_theory
from ddmr.model import (
    DeonticRuleExpression,
    Extension,
    Literal,
    ModalLiteral,
    Rule,
    RuleExpression,
    RuleRef,
    Theory,
    atoms,
)
from ddmr.oracle import oracle_extension

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

    def extension(self, ext: Extension) -> Extension:
        return Extension(
            {key: set(map(self.subject, s)) for key, s in ext.literals.items()},
            {key: set(map(self.subject, s)) for key, s in ext.rules.items()},
            {(mode, self.subject(s)) for mode, s in ext.undetermined},
        )


@given(seeds, sizes)
@settings(max_examples=30, deadline=None)
def test_renaming_maps_the_extension_through_the_renaming(seed, size):
    theory = random_theory(seed, size)
    renaming = _Renaming(_reversing(atoms(theory)), _reversing(theory.rules_by_label()))
    renamed = renaming.theory(theory)
    for evaluate in EVALUATORS:
        for variant in Variant:
            expected = renaming.extension(evaluate(theory, variant))
            assert evaluate(renamed, variant) == expected, (evaluate.__name__, variant)


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
