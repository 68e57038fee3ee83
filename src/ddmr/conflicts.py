"""Conflict relations between rules, and their compile to rule ids.

Two rules can clash in two senses:

* **simple** -- one concludes, or is, the negation of a rule with exactly
  the other's content (``Rule.content``: its own label is free, those of
  the rules it mentions are not), recursively through the reparation
  chains of meta-rules;
* **cautious** -- additionally, rules with the same antecedent whose
  conclusions are incompatible: complementary heads under one mode, an
  obligation against a permission of the complement, and obligation chains
  that disagree at some position or where one is a proper prefix of the
  other.

Every simple conflict is a cautious conflict.  Both relations are
symmetric.  A rule clashes with no rule of its own content and polarity,
itself included, but for one shape: a meta-rule whose chain holds two
elements that clash, as in ``r: a => O (s: b => C c) * ~(s: b => C c)``.

The predicates take rules and rule expressions and serve the oracle, as
does ``chain_clash_keys``, which files meta-rules so that two whose chains
clash share a key.
``build_conflict_index`` compiles, for every rule appearing in a theory
(the engine's rule list), the conflict relation under one variant and
who concludes each rule expression, over the integer ids the engine runs
on.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .model import Arrow, Literal, Mode, Numbering, Rule, RuleExpression


class Variant(enum.Enum):
    SIMPLE = "simple"
    CAUTIOUS = "cautious"

    __hash__ = object.__hash__  # identity, as for the model's enums

    def __str__(self) -> str:
        return self.value


def conflicts(a, b, variant: Variant) -> bool:
    """Whether two rules or rule expressions clash under ``variant``.

    Opposite polarities clash exactly when the rules share their content
    (labels are free); two negated expressions never clash.  Two positive
    rules clash, under the cautious variant, when their antecedents are
    equal and their conclusions incompatible (``_content_clash``), and,
    under either variant, when they are meta-rules some of whose chain
    elements clash, at any pair of positions.  A rule stands for its
    positive expression.
    """
    x, positive = (a.rule, a.positive) if isinstance(a, RuleExpression) else (a, True)
    y, other = (b.rule, b.positive) if isinstance(b, RuleExpression) else (b, True)
    if positive != other:
        return x.content == y.content
    if not positive:
        return False
    if (
        variant is Variant.CAUTIOUS
        and _content_clash(x, y)
        and x.antecedent == y.antecedent
    ):
        return True
    return _recursive_chain_clash(x, y, variant)


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
        return x.positive != y.positive and x.rule.content == y.rule.content
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
        if cx[i] != cy[i]:
            return False
    return len(cx) != len(cy)


def chain_clash_keys(rule: Rule, variant: Variant) -> set:
    """Keys of ``rule``'s chain elements such that two positive rules whose
    chains clash under ``variant`` (``_recursive_chain_clash``) share one.

    Elements of opposite polarity clash only with equal content, so each
    element gives its rule's content.  Two positive ones clash under the
    cautious variant only with equal antecedents, one arrow and first chain
    elements that are equal or complementary (``_content_clash``), so each
    positive element gives those, the first element as its atom or the
    content of its rule; and they clash through their own chains only when
    both rules conclude rule expressions, so a positive element whose rule
    does gives the key "meta".  A rule that concludes no rule expression
    has no keys.
    """
    keys = set()
    for elem in rule.consequent:
        if not isinstance(elem, RuleExpression):
            continue
        inner = elem.rule
        keys.add(inner.content)
        if elem.positive:
            if variant is Variant.CAUTIOUS:
                first = inner.consequent[0]
                head = first.atom if isinstance(first, Literal) else first.rule.content
                keys.add((inner.antecedent, inner.arrow, head))
            if any(isinstance(e, RuleExpression) for e in inner.consequent):
                keys.add("meta")
    return keys


class ConflictTables(NamedTuple):
    """A theory's conflict relation over reference ids; see ``build_conflict_index``."""

    conflicting: dict  # reference id -> set of reference ids
    producers: list  # reference id -> [(rule id, position)], or the shared () when none


def build_conflict_index(numbering: Numbering, variant: Variant, rule_ids: dict) -> ConflictTables:
    """Compile the conflict relation and conclusion lookups of a theory to ids.

    ``numbering`` is the theory's ``model.number``, as the engine compiles
    from it: every rule appearing in the theory, nested ones included, once
    each and in id order, with its content group, so the index walks no
    theory, sorts no rules and hashes no content; ``rule_ids`` numbers the
    rules by label from 0.  The reference to rule ``r`` has the
    reference id ``2r`` when positive and ``2r + 1`` when negated.
    ``conflicting`` maps a reference id to the set of reference ids it
    clashes with under ``variant``; the relation is symmetric, and every
    reference clashes with its own negation.
    ``producers[k]`` lists the (rule id, 1-based position) pairs at which
    chains conclude the reference ``k``, in id order; the references no
    chain concludes share one empty tuple.

    Pair generation is bucketed so only candidate pairs ever reach the full
    predicates.  Negation clashes are bucketed by content.  Content clashes
    are bucketed by antecedent, arrow and head: every shape of
    ``_content_clash`` needs one arrow and first chain elements that are
    equal or complementary, so the head key is the atom of a literal and
    the content of a rule expression (polarity and label aside).  Meta-rule
    chain clashes are joined through the element pairs found first.  The
    outcome matches the pairwise predicates exactly.
    """
    rules, content_group = numbering.rules, numbering.groups
    producers = [()] * (2 * len(rules))  # only meta-rules conclude references
    for r, rule in enumerate(rules):
        if rule.depth:
            for pos, elem in enumerate(rule.consequent, start=1):
                if type(elem) is RuleExpression:
                    k = 2 * rule_ids[elem.rule.label] + (not elem.positive)
                    if producers[k]:
                        producers[k].append((r, pos))
                    else:
                        producers[k] = [(r, pos)]

    # Negation clashes: same content, opposite polarity; every reference
    # clashes with its own negation, and content twins with each other's.
    conflicting = {k: {k ^ 1} for k in range(2 * len(rules))}

    def connect(a: int, b: int) -> None:
        conflicting[a].add(b)
        conflicting[b].add(a)

    if content_group and max(content_group) + 1 < len(rules):  # some group has twins
        first, members = {}, {}  # group -> its first rule; -> its rules, when more
        for r, g in enumerate(content_group):
            if first.setdefault(g, r) != r:
                members.setdefault(g, [first[g]]).append(r)
        for group in members.values():
            for u in group:
                for v in group:
                    connect(2 * u, 2 * v + 1)

    # Cautious content clashes need equal antecedents, one arrow and first
    # elements that are equal or complementary, so bucket on those; the head
    # key is an atom (a string) or a content group (an int), which never
    # meet.  Most keys hold one rule, so a member list is made only when a
    # key repeats, as for the content groups.
    if variant is Variant.CAUTIOUS:
        first, members = {}, {}  # key -> its first rule; -> its rules, when more
        for r, rule in enumerate(rules):
            head = rule.consequent[0]
            key = (
                rule.antecedent,
                rule.arrow,
                head.atom if type(head) is Literal else content_group[rule_ids[head.rule.label]],
            )
            if first.setdefault(key, r) != r:
                members.setdefault(key, [first[key]]).append(r)
        for group in members.values():
            for i, u in enumerate(group):
                for v in group[i + 1 :]:
                    if _content_clash(rules[u], rules[v]):
                        connect(2 * u, 2 * v)

    # Meta-rule chains clash when elements of theirs do, at any positions.
    element_pairs = [
        (a, b)
        for a, others in conflicting.items()
        if producers[a]
        for b in others
        if producers[b]
    ]
    for a, b in element_pairs:
        for meta_a, _ in producers[a]:
            for meta_b, _ in producers[b]:
                connect(2 * meta_a, 2 * meta_b)

    return ConflictTables(conflicting, producers)
