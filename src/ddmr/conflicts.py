"""Conflict relations between rules and the conflict index built from them.

Two rules can clash in two senses:

* **simple** -- one concludes, or is, the negation of a rule with exactly
  the other's content (labels are free), recursively through the reparation
  chains of meta-rules;
* **cautious** -- additionally, rules with the same antecedent whose
  conclusions are incompatible: complementary heads under one mode, an
  obligation against a permission of the complement, and obligation chains
  that disagree at some position or where one is a proper prefix of the
  other.

Every simple conflict is a cautious conflict.  Both relations are symmetric
and irreflexive; a rule never conflicts with a content-identical copy of
itself of the same polarity.

``build_conflict_index`` precomputes, for every rule appearing in a theory,
the conflict relation under one variant and who concludes each rule
expression.  The index is immutable once built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .model import (
    Arrow,
    Literal,
    Mode,
    Rule,
    RuleExpression,
    RuleRef,
    Theory,
    content_key,
    element_key,
    item_key,
)


class Variant(enum.Enum):
    SIMPLE = "simple"
    CAUTIOUS = "cautious"

    __hash__ = object.__hash__  # identity, as for the model's enums

    def __str__(self) -> str:
        return self.value


def _as_expr(x) -> RuleExpression:
    if isinstance(x, Rule):
        return RuleExpression(x, True)
    return x


def _antecedent_key(rule: Rule) -> frozenset:
    return frozenset(map(item_key, rule.antecedent))


def conflicts(a, b, variant: Variant) -> bool:
    """Whether two rules or rule expressions clash under ``variant``.

    Opposite polarities clash exactly when the rules share their content
    (labels are free); two negated expressions never clash.  Two positive
    rules clash, under the cautious variant, when their antecedents are
    equal and their conclusions incompatible (``_content_clash``), and,
    under either variant, when they are meta-rules some of whose chain
    elements clash, at any pair of positions.
    """
    ea, eb = _as_expr(a), _as_expr(b)
    if ea.positive != eb.positive:
        return content_key(ea.rule) == content_key(eb.rule)
    if not ea.positive:
        return False
    x, y = ea.rule, eb.rule
    if (
        variant is Variant.CAUTIOUS
        and _content_clash(x, y)
        and _antecedent_key(x) == _antecedent_key(y)
    ):
        return True
    return _recursive_chain_clash(x, y, variant)


def simply_conflicts(a, b) -> bool:
    """``conflicts`` under the simple variant."""
    return conflicts(a, b, Variant.SIMPLE)


def cautiously_conflicts(a, b) -> bool:
    """``conflicts`` under the cautious variant."""
    return conflicts(a, b, Variant.CAUTIOUS)


def _recursive_chain_clash(x: Rule, y: Rule, variant: Variant) -> bool:
    """Meta-rules clash when some chain elements of theirs do, at any indices."""
    return any(
        conflicts(ex, ey, variant)
        for ex in x.consequent
        if isinstance(ex, RuleExpression)
        for ey in y.consequent
        if isinstance(ey, RuleExpression)
    )


def _elements_complementary(x, y) -> bool:
    if isinstance(x, Literal) and isinstance(y, Literal):
        return x == y.complement()
    if isinstance(x, RuleExpression) and isinstance(y, RuleExpression):
        return x.positive != y.positive and content_key(x.rule) == content_key(y.rule)
    return False


def _content_clash(x: Rule, y: Rule) -> bool:
    """Cautious clash of two positive rules, antecedent equality aside.

    Under one arrow: complementary single conclusions under one mode or
    under O against P, or -- for defeasible obligation rules -- chains
    equal up to a position where the elements are complementary, or one
    chain a proper prefix of the other.  Never true of content-equal rules.
    """
    if x.arrow is not y.arrow:
        return False
    cx, cy = x.consequent, y.consequent
    if (
        len(cx) == 1
        and len(cy) == 1
        and (x.mode is y.mode or {x.mode, y.mode} == {Mode.O, Mode.P})
        and _elements_complementary(cx[0], cy[0])
    ):
        return True
    if not (x.mode is Mode.O and y.mode is Mode.O and x.arrow is Arrow.DEFEASIBLE):
        return False
    for i in range(min(len(cx), len(cy))):
        if _elements_complementary(cx[i], cy[i]):
            return True
        if element_key(cx[i]) != element_key(cy[i]):
            return False
    return len(cx) != len(cy)


@dataclass
class ConflictIndex:
    """A theory's conflict relation over signed rule labels, plus lookups.

    ``conflicting`` maps each RuleRef (a rule label with a polarity) to the
    set of RuleRefs it clashes with under the chosen variant; the relation
    is symmetric.  ``producers`` maps a RuleRef to the (meta-)rules that
    conclude it, with the 1-based position it occupies in the producer's
    chain.  ``by_content`` supports the simple variant's defence lookup:
    rules concluding an element with a given content and polarity.
    ``content_keys`` holds the ``content_key`` of every rule, by label.
    """

    variant: Variant
    conflicting: dict = field(default_factory=dict)  # RuleRef -> set[RuleRef]
    producers: dict = field(default_factory=dict)  # RuleRef -> set[(label, index)]
    by_content: dict = field(default_factory=dict)  # (ckey, positive) -> [(label, elem_label, index)]
    content_keys: dict = field(default_factory=dict)  # label -> content_key

    def rule_level(self, label: str) -> set:
        """Labels of rules conflicting with the positive rule ``label``."""
        return {
            ref.label for ref in self.conflicting.get(RuleRef(label), ()) if ref.positive
        }


def build_conflict_index(theory: Theory, variant: Variant) -> ConflictIndex:
    """Precompute the conflict relation and conclusion lookups for a theory.

    Pair generation is bucketed so only candidate pairs ever reach the full
    predicates.  Negation clashes are bucketed by content.  Content clashes
    are bucketed by antecedent, arrow and head: every shape of
    ``_content_clash`` needs one arrow and first chain elements that are
    equal or complementary, so the head key is the atom of a literal and
    the content of a rule expression (polarity and label aside).  Meta-rule
    chain clashes are joined through the element pairs found first.  The
    outcome matches the pairwise predicates exactly.
    """
    index = ConflictIndex(variant)
    by_label = theory.rules_by_label()
    labels = sorted(by_label)
    ckeys = index.content_keys = {label: content_key(by_label[label]) for label in labels}

    for label in labels:
        index.conflicting[RuleRef(label, True)] = set()
        index.conflicting[RuleRef(label, False)] = set()
        index.producers.setdefault(RuleRef(label, True), set())
        index.producers.setdefault(RuleRef(label, False), set())

    for label in labels:
        rule = by_label[label]
        for pos, elem in enumerate(rule.consequent, start=1):
            if isinstance(elem, RuleExpression):
                index.producers[elem.ref].add((label, pos))
                key = (ckeys[elem.rule.label], elem.positive)
                index.by_content.setdefault(key, []).append(
                    (label, elem.rule.label, pos)
                )

    def connect(a: RuleRef, b: RuleRef) -> None:
        index.conflicting[a].add(b)
        index.conflicting[b].add(a)

    # Negation clashes: same content, opposite polarity.
    content_groups: dict = {}
    for label in labels:
        content_groups.setdefault(ckeys[label], []).append(label)
    for group in content_groups.values():
        for u in group:
            for v in group:
                connect(RuleRef(u, True), RuleRef(v, False))

    # Cautious content clashes need equal antecedents, one arrow and first
    # elements that are equal or complementary, so bucket on those.
    if variant is Variant.CAUTIOUS:
        clash_groups: dict = {}
        for label in labels:
            rule = by_label[label]
            head = rule.consequent[0]
            head_key = (
                (head.atom,) if isinstance(head, Literal) else ckeys[head.rule.label]
            )
            key = (_antecedent_key(rule), rule.arrow, head_key)
            clash_groups.setdefault(key, []).append(label)
        for group in clash_groups.values():
            for i, u in enumerate(group):
                for v in group[i + 1 :]:
                    if _content_clash(by_label[u], by_label[v]):
                        connect(RuleRef(u, True), RuleRef(v, True))

    # Meta-rule chains clash when elements of theirs do, at any positions.
    element_pairs = [
        (a, b)
        for a, others in index.conflicting.items()
        if index.producers[a]
        for b in others
        if index.producers[b]
    ]
    for a, b in element_pairs:
        for meta_a, _ in index.producers[a]:
            for meta_b, _ in index.producers[b]:
                connect(RuleRef(meta_a, True), RuleRef(meta_b, True))

    return index

