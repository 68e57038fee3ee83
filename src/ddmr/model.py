"""Object language for defeasible deontic theories with meta-rules.

A theory is a triple (facts, rules, superiority).  Facts are plain literals.
Rules are labelled conditionals carrying one of three modes -- constitutive
(C), obligation (O), permission (P) -- and one of two arrows: defeasible
rules can establish their conclusion, defeaters can only block the opposite
conclusion.  An obligation rule may conclude a reparation chain ``c1 * c2 *
...`` whose later elements come in force only when the earlier obligations
are violated.

A *meta-rule* is a rule that mentions other rules: rule expressions (a rule
or its negation) may occur among a rule's antecedents or conclusion
elements.  Only one level of nesting is allowed -- a meta-rule never occurs
inside another rule; validation reports deeper nesting, and ``Rule``
refuses rule expressions nested more than ``MAX_NESTING`` deep, so no
walk over a rule recurses further than that.

This module holds the immutable data types plus the structural helpers the
rest of the package is built on: complements, label-insensitive content
comparison (``Rule.content``: the frozen classes compare class, then
fields, so a rule's fields bar its label are its content), the conditions
of applying a rule at each chain position (``conditions``, the one list
the oracle reads and the engine's compile is tested against), Herbrand
bases, the size metric, the extended superiority relation, validation and
``number``.  Everything here is pure; values can be shared freely between threads.

The frozen value classes (``Literal``, ``ModalLiteral``, ``RuleExpression``,
``DeonticRuleExpression``, ``Rule``, ``Theory``, ``RuleRef`` and
``TaggedFormula``) are slotted: an instance has no ``__dict__``, which
keeps the many small objects of a large theory compact.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple, Union


class Mode(enum.Enum):
    """Derivation mode: constitutive, obligation or permission."""

    C = "C"
    O = "O"
    P = "P"

    # Members are singletons compared by identity; the identity hash runs in
    # C, where Enum's own hashes the member name in Python.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


DEONTIC_MODES = (Mode.O, Mode.P)

# Who may attack and who may defend a conclusion of each mode.  Obligations
# are attacked by obligations and permissions but reinstated only by
# obligations; permissions are attacked by obligations and defended by
# either deontic mode.  The one exception: under the cautious reading a
# permission over a rule is attacked by permissions as well.
ATTACK_MODES = {Mode.C: (Mode.C,), Mode.O: (Mode.O, Mode.P), Mode.P: (Mode.O,)}
DEFEND_MODES = {Mode.C: (Mode.C,), Mode.O: (Mode.O,), Mode.P: (Mode.O, Mode.P)}
CAUTIOUS_RULE_ATTACK_MODES = {**ATTACK_MODES, Mode.P: (Mode.O, Mode.P)}


class Arrow(enum.Enum):
    DEFEASIBLE = "=>"
    DEFEATER = "~>"

    __hash__ = object.__hash__  # see Mode

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Literal:
    """A propositional atom or its negation."""

    atom: str
    positive: bool = True

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else "~" + self.atom


@dataclass(frozen=True, slots=True)
class ModalLiteral:
    """O(l) / P(l), possibly under outer negation: ~O(l), ~P(l).

    The mode is never C; constitutive statements are bare literals.
    """

    mode: Mode
    inner: Literal
    negated: bool = False

    def __post_init__(self) -> None:
        if self.mode not in DEONTIC_MODES or not isinstance(self.inner, Literal):
            raise ValueError("modal literals take mode O or P and a literal")

    def complement(self) -> "ModalLiteral":
        return ModalLiteral(self.mode, self.inner, not self.negated)

    def __str__(self) -> str:
        neg = "~" if self.negated else ""
        return f"{neg}{self.mode}({self.inner})"


@dataclass(frozen=True, slots=True)
class RuleExpression:
    """A rule or its negation.

    ``~alpha`` asserts that the rule named alpha (with that exact content) is
    absent from, or removed from, the rule system.
    """

    rule: "Rule"
    positive: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.rule, Rule):
            raise ValueError(f"rule expressions take a rule, not {self.rule!r}")

    def complement(self) -> "RuleExpression":
        return RuleExpression(self.rule, not self.positive)

    @property
    def label(self) -> str:
        return self.rule.label

    @property
    def ref(self) -> "RuleRef":
        """The expression by name, as a derivation subject."""
        return RuleRef(self.rule.label, self.positive)

    def __str__(self) -> str:
        neg = "" if self.positive else "~"
        return f"{neg}({self.rule})"


@dataclass(frozen=True, slots=True)
class DeonticRuleExpression:
    """O[...] / P[...] over a rule expression, possibly negated outside."""

    mode: Mode
    expr: RuleExpression
    negated: bool = False

    def __post_init__(self) -> None:
        if self.mode not in DEONTIC_MODES or not isinstance(self.expr, RuleExpression):
            raise ValueError("deontic rule expressions take mode O or P and a rule expression")

    def complement(self) -> "DeonticRuleExpression":
        return DeonticRuleExpression(self.mode, self.expr, not self.negated)

    def __str__(self) -> str:
        neg = "~" if self.negated else ""
        return f"{neg}{self.mode}[{self.expr}]"


# Antecedent items without a rule inside.
_FLAT_ITEMS = (Literal, ModalLiteral)
_DEFEASIBLE = Arrow.DEFEASIBLE  # read once: an enum member read off its class is slow

# Deepest nesting of rule expressions inside a rule, which is also the most
# the parser reads.  Nesting two deep already puts a meta-rule inside a rule
# expression, which validation rejects; the bound keeps every recursive
# walk over a rule (hashing, comparing, writing it out) far from the
# interpreter's recursion limit.
MAX_NESTING = 64


@dataclass(frozen=True, slots=True, init=False)
class Rule:
    """A labelled conditional ``label: antecedent arrow_mode consequent``.

    The consequent is stored as a non-empty tuple of chain elements; it has
    length one except for defeasible obligation rules, which may carry a
    reparation chain.  Chain elements are plain literals or rule
    expressions, never modal literals.  Antecedent items are literals,
    modal literals, rule expressions or deontic rule expressions, held in a
    frozenset.  Parts of other types are refused with a ``ValueError``.

    ``depth`` is how deep rule expressions nest in the rule: 0 when it
    mentions no rule, else one more than the deepest rule it mentions.  It
    takes no part in comparing, hashing or printing a rule.
    """

    label: str
    antecedent: frozenset
    arrow: Arrow
    mode: Mode
    consequent: tuple
    depth: int = field(init=False, compare=False, repr=False)

    def __init__(self, label, antecedent, arrow, mode, consequent) -> None:
        # The checks read the arguments; the fields are set once they pass.
        if not (isinstance(antecedent, frozenset) and isinstance(consequent, tuple)):
            raise ValueError(f"rule {label}: antecedents are frozensets, consequents tuples")
        if not (isinstance(arrow, Arrow) and isinstance(mode, Mode)):
            raise ValueError(f"rule {label}: not an arrow and a mode: {arrow!r}, {mode!r}")
        if len(consequent) != 1:
            if not consequent:
                raise ValueError(f"rule {label}: empty consequent")
            if arrow is Arrow.DEFEATER or mode is not Mode.O:
                raise ValueError(
                    f"rule {label}: chains are restricted to defeasible obligation rules"
                )
        depth = 0
        for item in antecedent:
            if not isinstance(item, _FLAT_ITEMS):
                if isinstance(item, RuleExpression):
                    depth = max(depth, item.rule.depth + 1)
                elif isinstance(item, DeonticRuleExpression):
                    depth = max(depth, item.expr.rule.depth + 1)
                else:
                    raise ValueError(f"rule {label}: not an antecedent item: {item!r}")
        for elem in consequent:
            if not isinstance(elem, Literal):
                if not isinstance(elem, RuleExpression):
                    raise ValueError(f"rule {label}: not a chain element: {elem!r}")
                depth = max(depth, elem.rule.depth + 1)
        if depth > MAX_NESTING:
            raise ValueError(f"rule {label}: rule expressions nested deeper than {MAX_NESTING}")
        put = object.__setattr__  # the class is frozen
        put(self, "label", label)
        put(self, "antecedent", antecedent)
        put(self, "arrow", arrow)
        put(self, "mode", mode)
        put(self, "consequent", consequent)
        put(self, "depth", depth)

    @property
    def content(self) -> tuple:
        """The rule bar its own label: ``(antecedent, arrow, mode, consequent)``.
        Nested rules keep theirs, so lookalikes of them are other content."""
        return (self.antecedent, self.arrow, self.mode, self.consequent)

    @property
    def is_defeasible(self) -> bool:
        return self.arrow is _DEFEASIBLE

    def is_meta(self) -> bool:
        """True when some antecedent item or conclusion element mentions a rule."""
        return self.depth > 0

    def nested_rules(self) -> Iterator["Rule"]:
        for item in self.antecedent:
            if isinstance(item, RuleExpression):
                yield item.rule
            elif isinstance(item, DeonticRuleExpression):
                yield item.expr.rule
        for elem in self.consequent:
            if isinstance(elem, RuleExpression):
                yield elem.rule

    def __str__(self) -> str:
        """The rule in ``.ddl`` form, antecedent items sorted, without the
        closing full stop: ``r: O(b), a => C x``, ``s: => C y``."""
        body = ", ".join(sorted(map(str, self.antecedent)))
        head = " * ".join(map(str, self.consequent))
        lead = f"{self.label}: {body}" if body else f"{self.label}:"
        return f"{lead} {self.arrow} {self.mode} {head}"


def conditions(rule: Rule) -> list:
    """Each condition of applying ``rule``, once, as (first position, mode,
    subject, sign): met once the subject is decided under the mode with the
    sign (True for +), refuted by the other sign.  From position 1: the
    rule constitutively held, and each antecedent item.  From position
    j + 1: chain element j in force (obligatory) and violated, a literal by
    its complement holding and a rule by being refuted.  The rule is
    applicable at a position when every condition from that position or
    before is met, and discarded there when one of them is refuted.  The
    oracle reads this list; the engine's ``prepare`` files the same conditions,
    but a given rule's held one, from the rule's parts, held to this list by
    ``test_engine``'s ``test_compiled_tables_match_model_conditions``."""
    out = [(1, Mode.C, RuleRef(rule.label, True), True)]
    for item in rule.antecedent:
        if isinstance(item, Literal):
            out.append((1, Mode.C, item, True))
        elif isinstance(item, ModalLiteral):
            out.append((1, item.mode, item.inner, not item.negated))
        elif isinstance(item, RuleExpression):
            out.append((1, Mode.C, item.ref, True))
        else:
            out.append((1, item.mode, item.expr.ref, not item.negated))
    for first, elem in enumerate(rule.consequent[:-1], start=2):
        if isinstance(elem, Literal):
            out += [(first, Mode.O, elem, True), (first, Mode.C, elem.complement(), True)]
        else:
            out += [(first, Mode.O, elem.ref, True), (first, Mode.C, elem.ref, False)]
    return out


@dataclass(frozen=True, slots=True)
class Theory:
    """Facts, rules and a superiority relation over rule labels.

    A theory takes only ``Rule`` objects as rules; its facts and labels
    are checked by ``validate``."""

    facts: frozenset
    rules: tuple
    superiority: frozenset = frozenset()

    def __post_init__(self) -> None:
        for rule in self.rules:
            if not isinstance(rule, Rule):
                raise ValueError(f"theories take rules, not {rule!r}")

    @staticmethod
    def build(facts=(), rules=(), superiority=()) -> "Theory":
        return Theory(frozenset(facts), tuple(rules), frozenset(superiority))

    def rules_by_label(self) -> dict:
        """Every rule appearing in the theory, nested ones included, by label."""
        out: dict = {}
        for rule in self.all_rules():
            out.setdefault(rule.label, rule)
        return out

    def all_rules(self) -> Iterator[Rule]:
        """Top-level rules first, then the rules nested inside them."""
        yield from self.rules
        for rule in self.rules:
            if rule.depth:  # only a meta-rule nests rules
                yield from rule.nested_rules()

    def top_labels(self) -> set:
        return {r.label for r in self.rules}


def _literal_occurrences(rule: Rule) -> Iterator[Literal]:
    """Every literal occurring in the rule and the rules nested in it, in no set order."""
    for item in rule.antecedent:
        if isinstance(item, Literal):
            yield item
        elif isinstance(item, ModalLiteral):
            yield item.inner
    yield from (elem for elem in rule.consequent if isinstance(elem, Literal))
    for nested in rule.nested_rules():
        yield from _literal_occurrences(nested)


def _rule_occurrences(rule: Rule) -> int:
    n = 1
    for nested in rule.nested_rules():
        n += _rule_occurrences(nested)
    return n


def rule_size(rule: Rule) -> int:
    """A top-level rule's share of ``theory_size``: its literal and rule occurrences."""
    return sum(1 for _ in _literal_occurrences(rule)) + _rule_occurrences(rule)


def theory_size(t: Theory) -> int:
    """Occurrences of literals, plus occurrences of rules, plus 2 per superiority pair."""
    return len(t.facts) + sum(map(rule_size, t.rules)) + 2 * len(t.superiority)


def atoms(t: Theory) -> set:
    """The atoms of every literal occurring anywhere in the theory."""
    out = {fact.atom for fact in t.facts}
    for rule in t.rules:
        out.update(lit.atom for lit in _literal_occurrences(rule))
    return out


def herbrand_base(t: Theory):
    """All literals and rule expressions the theory can speak about.

    Closed under complement: contains l and ~l for every literal occurring
    anywhere, and both polarities of every rule appearing in the theory.
    """
    lit_base = {Literal(atom, positive) for atom in atoms(t) for positive in (True, False)}
    rule_base = set()
    for rule in t.all_rules():
        expr = RuleExpression(rule, True)
        rule_base.add(expr)
        rule_base.add(expr.complement())
    return lit_base | rule_base


def concluders(by_label: dict) -> dict:
    """Label -> labels of the rules concluding it (under negation too), from
    every rule of a theory by label (``Theory.rules_by_label``)."""
    out: dict = {}
    for rule in by_label.values():
        for e in rule.consequent:
            if isinstance(e, RuleExpression):
                out.setdefault(e.rule.label, set()).add(rule.label)
    return out


def inherited_pairs(by_concluded: dict, u: str, v: str) -> set:
    """The pairs the rules concluding ``u`` and ``v`` inherit from ``u`` > ``v``.

    ``by_concluded`` is ``concluders`` of the theory.
    """
    winners, losers = by_concluded.get(u, ()), by_concluded.get(v, ())
    return {(a, b) for a in winners for b in losers if a != b}


def extended_superiority(t: Theory, by_label: dict = None):
    """The superiority relation plus pairs inherited from concluded rules.

    When two rules conclude rule expressions whose embedded labels are
    ordered by the superiority relation, the concluding rules inherit that
    ordering.  Inheritance is one step from ``t.superiority``: inherited
    pairs are not inherited again.  On a theory that validates this is the
    whole closure, since a concluded rule is never a meta-rule and so never
    takes part in an inherited pair.

    Rules are indexed by the labels they conclude (``concluders`` of
    ``by_label``, ``t.rules_by_label()`` when not given), so the cost is
    linear in the theory plus the pairs added; with no pair, no rule is read,
    and with no rule concluded, no pair.
    """
    sup = set(t.superiority)
    if sup:
        by_concluded = concluders(t.rules_by_label() if by_label is None else by_label)
        for u, v in t.superiority if by_concluded else ():
            if u in by_concluded and v in by_concluded:
                sup |= inherited_pairs(by_concluded, u, v)
    return sup


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    __hash__ = object.__hash__  # see Mode

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class RuleRef:
    """A rule expression by name: a label, or its negation, as a derivation subject."""

    label: str
    positive: bool = True

    def complement(self) -> "RuleRef":
        return RuleRef(self.label, not self.positive)

    def __str__(self) -> str:
        return self.label if self.positive else "~" + self.label


@dataclass(frozen=True, slots=True)
class TaggedFormula:
    """±mode over a literal, or ±mode over a rule reference (the meta level)."""

    sign: Sign
    mode: Mode
    subject: Union[Literal, RuleRef]

    @property
    def meta(self) -> bool:
        return isinstance(self.subject, RuleRef)

    def __str__(self) -> str:
        level = "m" if self.meta else ""
        return f"{self.sign}d{level}{self.mode} {self.subject}"


def _has_cycle(pairs) -> bool:
    """Whether the directed graph with these (from, to) edges has a cycle.

    Kahn's algorithm, on the edges between nodes that both leave and enter
    one (only such nodes lie on a cycle): repeatedly remove a node no
    remaining edge enters, with its edges; the edges left over lie on a
    cycle or are reached from one.  ``pairs`` is read twice, so it is a
    collection.  It takes no stack depth, however long the chains are.
    """
    inner = {a for a, _ in pairs}.intersection(map(_TARGET, pairs))
    pairs = [(a, b) for a, b in pairs if a in inner and b in inner] if inner else ()
    succs: dict = {}
    for a, b in pairs:
        succs.setdefault(a, []).append(b)
    indegree = dict(Counter(map(_TARGET, pairs)))
    ready = [a for a in succs if a not in indegree]
    left = len(pairs)
    while ready:
        for b in succs.get(ready.pop(), ()):
            left -= 1
            indegree[b] -= 1
            if not indegree[b]:
                ready.append(b)
    return left > 0


_WORD = re.compile(r"[A-Za-z0-9_]*")
_ATOM, _POSITIVE, _TARGET = attrgetter("atom"), attrgetter("positive"), itemgetter(1)


def _bad_names(names) -> list:
    """The names that are not non-empty words over [A-Za-z0-9_], sorted.

    All names are checked at once, joined; they are scanned one by one only
    when that check fails.
    """
    try:
        if _WORD.fullmatch("".join(names)) and "" not in names:
            return []
    except TypeError:  # some name is not a string
        pass
    return sorted(
        (name for name in names if not (isinstance(name, str) and name and _WORD.fullmatch(name))),
        key=repr,
    )


class Numbering(NamedTuple):
    """A theory numbered for the engine: the labels, sorted; the rules in that
    order, nested ones included, once each; the atoms, sorted; and per rule a
    content group, shared exactly by the rules of equal ``Rule.content`` and
    numbered from 0 in the order the rules first show it."""

    labels: list
    rules: list
    atoms: list
    groups: list


def number(t: Theory, by_label: dict = None, atom_names=None) -> Numbering:
    """The ``Numbering`` of a theory, from ``t.rules_by_label()`` and
    ``atoms(t)``, or from ``by_label`` and ``atom_names`` when ``validate``'s
    walk has gathered them."""
    if by_label is None:
        by_label, atom_names = t.rules_by_label(), atoms(t)
    labels = sorted(by_label)
    rules = list(map(by_label.__getitem__, labels))
    groups: dict = {}  # content -> group number
    content_groups = [groups.setdefault(rule.content, len(groups)) for rule in rules]
    return Numbering(labels, rules, sorted(atom_names), content_groups)


@dataclass
class ValidationReport:
    """The errors and warnings of ``validate``, and on a theory without errors
    its ``Numbering``, which takes no part in comparing or printing a report."""

    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    numbering: Numbering = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(t: Theory) -> ValidationReport:
    """Structural checks.  Never raises; malformed theories come back as errors.

    Errors make a theory unusable for the reasoner, or unwritable as ``.ddl``
    (atoms and labels must be words over [A-Za-z0-9_]); warnings flag shapes the
    reasoner accepts but that signal an inconsistent rule corpus (clashing
    facts, cycles in the plain or extended superiority relation).  A report
    without errors carries the theory's ``number``, from the labels and
    atoms this one walk over the rules gathers.

    Per rule the walk costs a label lookup, a walk over its parts, and a
    hash of its chain only when that has two elements or more.  Facts clash
    by atom: each fact of a truthy polarity whose atom a fact of polarity
    False (or 0, which equals it) holds.  One cycle check runs: with errors,
    on the plain relation's pairs of known labels; without, on the extended
    relation, which holds the plain one, and only once that finds a cycle,
    on the plain relation, to say which of the two has it.
    """
    report = ValidationReport()
    by_label: dict = {}
    unhashable: dict = {}  # the rules whose label does not hash, by its repr
    facts = [fact for fact in t.facts if isinstance(fact, Literal)]
    literals = facts.copy()
    add = literals.append
    for rule in t.all_rules():
        try:
            known = by_label.get(rule.label, rule)
            by_label[rule.label] = rule
        except TypeError:  # a label that does not hash: told apart by repr
            known = unhashable.get(repr(rule.label), rule)
            unhashable[repr(rule.label)] = rule
        if known is not rule and known.content != rule.content:
            report.errors.append(f"label {rule.label} is used for two rules with different content")
        chain = rule.consequent
        try:
            distinct = len(set(chain)) if len(chain) > 1 else 1  # one element: nothing to hash
        except TypeError:  # an unhashable atom, reported below
            distinct = sum(elem not in chain[:i] for i, elem in enumerate(chain))
        if distinct != len(chain):
            report.errors.append(f"rule {rule.label}: duplicate chain elements")
        for elem in chain:
            if isinstance(elem, Literal):
                add(elem)
        for item in rule.antecedent:
            if isinstance(item, Literal):
                add(item)
            elif isinstance(item, ModalLiteral):
                add(item.inner)
        # a rule nests a meta-rule exactly when it is two or more deep
        for nested in rule.nested_rules() if rule.depth > 1 else ():
            if nested.is_meta():
                report.errors.append(
                    f"rule {nested.label} nested inside {rule.label} is itself a meta-rule"
                )
    report.errors += sorted(
        f"fact {f} is not a plain literal" for f in t.facts if not isinstance(f, Literal)
    )
    try:
        atom_names = set(map(_ATOM, literals))
    except TypeError:  # an unhashable atom: tell the atoms apart by repr
        atom_names = list({repr(lit.atom): lit.atom for lit in literals}.values())
    if not set(map(type, map(_POSITIVE, literals))) <= {bool}:
        report.errors += sorted(
            {
                f"literal over atom {lit.atom!r} has polarity {lit.positive!r}, not a bool"
                for lit in literals
                if type(lit.positive) is not bool
            }
        )
    labels = [*by_label, *(r.label for r in unhashable.values())] if unhashable else by_label
    for kind, group in (("atom", atom_names), ("rule label", labels)):
        for name in _bad_names(group):
            report.errors.append(f"{kind} {name!r} is not a word over [A-Za-z0-9_]")
    bad = [
        e
        for e in t.superiority
        if not (isinstance(e, tuple) and len(e) == 2 and e[0] in by_label and e[1] in by_label)
    ]
    for entry in sorted(bad, key=repr):
        if not (isinstance(entry, tuple) and len(entry) == 2):
            report.errors.append(f"superiority entry {entry!r} is not a pair of rule labels")
        else:
            report.errors += [
                f"superiority names unknown rule label {x}" for x in entry if x not in by_label
            ]
    negated = {f.atom for f in facts if f.positive == False}  # not "is": 0 counts, as in a set
    clashing = sorted(str(f.atom) for f in facts if f.positive and f.atom in negated)
    if clashing:
        report.warnings.append("contradictory facts: " + ", ".join(clashing))
    sup = t.superiority.difference(bad) if report.errors else extended_superiority(t, by_label)
    if _has_cycle(sup):
        plain = report.errors or len(sup) == len(t.superiority) or _has_cycle(t.superiority)
        report.warnings.append(f"cyclic {'' if plain else 'extended '}superiority relation")
    if not report.errors:
        report.numbering = number(t, by_label, atom_names)
    return report
