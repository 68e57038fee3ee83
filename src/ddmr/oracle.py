"""Literal-minded evaluator of the proof conditions, used as ground truth.

Where the engine compiles the theory and simplifies it as it goes, this
module evaluates the paper's proof conditions as written.  The tag store
is a plain dict from (mode, subject) to True for + and False for -.  One
``step`` adds every tagged conclusion whose full proof condition the store
satisfies; saturating to a fixpoint yields the extension.  Tags never
derived stay undetermined.  The final store is written out as one byte
column per mode over the sorted base and made, with the base's atom and
label names, into an ``Extension``, as the engine's store is.

A rule at a chain position is applicable when every one of its
conditions holds and discarded when one is refuted.  ``model.conditions``
lists them once, each with the first position it applies to: the rule
held and each antecedent item from position 1, each chain element
obligatory and violated from the position after it.

One condition decides every subject.  Its supporters form teams, each
team faces attackers, and each attacker faces defenders that may beat it.
A subject is proved when some team has an applicable defeasible member and
every attacker of it is discarded or beaten by an applicable defender.  It
is refuted when, in every team, each defeasible member not discarded meets
an applicable attacker that every defender is discarded for or fails to
beat.  For literals and, under the simple reading, for rule subjects, all
supporters form one team and beating is superiority.  Under the cautious
reading each supporter of a rule subject is a team alone, attacked by the
rules that clash with it and defended against an attacker by the rules
that clash with that attacker; a defender beats an attacker it is superior
to or, unless the attacker is superior to it, one whose concluded rules
its own concluded rules are superior to.

The static domains -- which rules support a subject, which attack it,
which defend it, which rules clash -- do not depend on the tag store, and
neither does what applying a rule at a position takes.  Each is found
once per saturation and kept until it ends.  When the evaluator is built,
one pass over every rule's conclusions groups them by (mode, subject) and
each rule expression among them by the content of the rule it names:
supporters are a lookup, and the simple reading's attackers and defenders
filter one content group.  Which rules clash is asked of ``conflicts``,
but only of candidates: two positive rules clash only when they share
antecedent and arrow or conclude rule expressions that share a key of
``conflicts.chain_clash_keys``, and a rule clashes with a negated expression only when
they share content, so one pass files the rules, and one the given rules,
under those keys.  A rule's condition list at a position is filtered from
``model.conditions`` the first time it is asked for.  Whether a rule is
applicable or discarded, and whether a subject is proved or refuted, is
evaluated in full against the store on every step.

The derivation route is deliberately independent of the engine: no table
is shared with it, no antecedent stripping, no rule deletion, only the
conflict predicates and the data model are common.  Slow by design -- use
the size budget -- and meant for cross-checking the engine at desk scale.
"""

from __future__ import annotations

from functools import partial

from .conflicts import Variant, chain_clash_keys, conflicts
from .extension import TAG_PROVED, TAG_REFUTED, TAG_UNDECIDED, Extension
from .model import (
    ATTACK_MODES,
    CAUTIOUS_RULE_ATTACK_MODES,
    DEFEND_MODES,
    Literal,
    Mode,
    Rule,
    RuleExpression,
    RuleRef,
    Theory,
    conditions,
    herbrand_base,
    theory_size,
)

DEFAULT_BUDGET = 200

_MODES = tuple(Mode)

# A store's value, or its absence, as a byte of an ``Extension``'s columns.
_TAG_BYTE = {None: TAG_UNDECIDED, True: TAG_PROVED, False: TAG_REFUTED}


class OracleBudgetError(ValueError):
    """Theory too large for exhaustive proof-condition evaluation."""


def _subject(x):
    """A literal, or a rule expression by name, as a derivation subject."""
    return x.ref if isinstance(x, RuleExpression) else x


def _conditions(rule: Rule, index: int) -> list:
    """What applying ``rule`` at chain position ``index`` takes, as (mode,
    subject, sign) triples: the conditions of ``model.conditions`` whose
    first position is at most the index."""
    if index > 1 and rule.mode is not Mode.O:
        raise ValueError("chain index on a non-obligation rule")
    return [condition[1:] for condition in conditions(rule) if condition[0] <= index]


def _met(store: dict, conds) -> bool:
    """Every (mode, subject, sign) condition holds in the store."""
    for mode, subject, sign in conds:
        if store.get((mode, subject)) is not sign:
            return False
    return True


def _refuted(store: dict, conds) -> bool:
    """Some (mode, subject, sign) condition is decided the other way."""
    for mode, subject, sign in conds:
        if store.get((mode, subject)) is (not sign):
            return True
    return False


def applicable(store: dict, rule: Rule, index: int = 1) -> bool:
    """Every condition of the rule at the index holds."""
    return _met(store, _conditions(rule, index))


def discarded(store: dict, rule: Rule, index: int = 1) -> bool:
    """The strong-negation dual of applicability: some condition refuted."""
    return _refuted(store, _conditions(rule, index))


def _subject_order(subject):
    """Literals, then rule references, by name, the positive one first."""
    if isinstance(subject, Literal):
        return (0, subject.atom, not subject.positive)
    return (1, subject.label, not subject.positive)


def _memo(table: dict, scan, *args):
    """``scan(*args)``, found on the first call with these arguments and kept
    in ``table`` under them."""
    try:
        return table[args]
    except KeyError:
        found = table[args] = scan(*args)
        return found


class _Evaluator:
    """The proof conditions over one theory, for one saturation.

    The static domains come from one grouping pass over every rule's
    conclusions, made when the evaluator is built, and from ``conflicts``
    on the candidates that a grouping pass over the rules files, each found
    the first time it is asked for, as is each rule's condition list at a
    position.  Nothing is shared with the engine.
    """

    def __init__(self, theory: Theory, variant: Variant):
        self.theory = theory
        self.variant = variant
        self.by_label = theory.rules_by_label()
        self.rules = sorted(self.by_label.values(), key=lambda r: r.label)
        self.top = theory.top_labels()
        self.sup = theory.superiority
        self.base = sorted(map(_subject, herbrand_base(theory)), key=_subject_order)
        self._by_subject, self._by_content = self._scan_supporters()
        self._condition_lists = {}
        self._candidates = {}
        self._literal_domains = {}
        self._cautious_attackers = {}
        self._clashing = {}
        self._clashes_given = {}

    # -- static domains, each found once ------------------------------------

    def condition_list(self, rule: Rule, index: int) -> list:
        """``_conditions(rule, index)``, built on the first call for the rule
        and index and kept."""
        key = (rule.label, index)
        try:
            return self._condition_lists[key]
        except KeyError:
            found = self._condition_lists[key] = _conditions(rule, index)
            return found

    def applicable(self, store: dict, rule: Rule, index: int) -> bool:
        return _met(store, self.condition_list(rule, index))

    def discarded(self, store: dict, rule: Rule, index: int) -> bool:
        return _refuted(store, self.condition_list(rule, index))

    def _scan_supporters(self):
        """Every conclusion, in label and position order: (rule, position) by
        (mode, subject), and (rule, position, expression) of each rule
        expression by the content of the rule it names."""
        by_subject, by_content = {}, {}
        for rule in self.rules:
            for pos, elem in enumerate(rule.consequent, start=1):
                if isinstance(elem, RuleExpression):
                    by_content.setdefault(elem.rule.content, []).append((rule, pos, elem))
                    elem = elem.ref
                by_subject.setdefault((rule.mode, elem), []).append((rule, pos))
        return by_subject, by_content

    def supporters(self, mode: Mode, subject):
        return self._by_subject.get((mode, subject), [])

    def _same_content(self, ref: RuleRef):
        """(rule, position, expression) of each conclusion naming a rule with
        the content of ``ref``'s."""
        return self._by_content.get(self.by_label[ref.label].content, ())

    def literal_domain(self, mode: Mode, lit: Literal):
        """The supporters, attackers and defenders of ``mode`` ``lit``."""
        return _memo(self._literal_domains, self._scan_literal_domain, mode, lit)

    def _scan_literal_domain(self, mode: Mode, lit: Literal):
        comp = lit.complement()
        attackers = [e for am in ATTACK_MODES[mode] for e in self.supporters(am, comp)]
        defenders = [e for dm in DEFEND_MODES[mode] for e in self.supporters(dm, lit)]
        return self.supporters(mode, lit), attackers, defenders

    def simple_attackers(self, mode: Mode, ref: RuleRef):
        """(rule, position) of each rule concluding, at that position, an
        expression with the content of ``ref`` and the other polarity."""
        modes = ATTACK_MODES[mode]
        return [
            (rule, pos)
            for rule, pos, elem in self._same_content(ref)
            if rule.mode in modes and elem.positive != ref.positive
        ]

    def simple_defenders(self, mode: Mode, ref: RuleRef, attacker: Rule, j: int):
        """(rule, position) of each conclusion with the content and polarity
        of ``ref`` naming its rule or the one ``attacker`` concludes at ``j``."""
        labels = (ref.label, attacker.consequent[j - 1].label)
        return [
            (rule, pos)
            for rule, pos, elem in self._same_content(ref)
            if rule.mode in DEFEND_MODES[mode]
            and elem.positive == ref.positive
            and elem.rule.label in labels
        ]

    def cautious_attackers(self, mode: Mode, team):
        """(rule, position) of each rule expression concluded by a rule that
        clashes with the team's one member and may attack a ``mode`` rule."""
        ((anchor, _),) = team
        return _memo(self._cautious_attackers, self._scan_cautious_attackers, mode, anchor.label)

    def _scan_cautious_attackers(self, mode: Mode, label: str):
        modes = CAUTIOUS_RULE_ATTACK_MODES[mode]
        return [
            (rule, j)
            for rule in self.clashing(self.by_label[label])
            if rule.mode in modes
            for j in self.expr_positions(rule)
        ]

    def cautious_defenders(self, mode: Mode, attacker: Rule, j: int):
        """(rule, position) of each rule expression concluded by a rule that
        clashes with ``attacker`` (at any position) and may defend a ``mode``
        rule."""
        return [
            (rule, k)
            for rule in self.clashing(attacker)
            if rule.mode in DEFEND_MODES[mode]
            for k in self.expr_positions(rule)
        ]

    def _scan_candidates(self, given: bool):
        """The positions in ``rules`` (label order) of every rule, or of every
        given rule when ``given``: by (antecedent, arrow), by content when
        ``given``, and the meta-rules, those concluding a rule expression,
        by each ``chain_clash_keys`` key of theirs.  Two positive rules conflict
        only when they share antecedent and arrow (a content clash) or are
        meta-rules sharing a chain key (a chain clash); a rule and a
        negated expression only when they share content."""
        by_head, by_content, by_chain_key = {}, {}, {}
        for i, rule in enumerate(self.rules):
            if given and rule.label not in self.top:
                continue
            by_head.setdefault((rule.antecedent, rule.arrow), []).append(i)
            if given:
                by_content.setdefault(rule.content, []).append(i)
            for key in chain_clash_keys(rule, Variant.CAUTIOUS):
                by_chain_key.setdefault(key, []).append(i)
        return by_head, by_content, by_chain_key

    def _positive_candidates(self, rule: Rule, given: bool, variant: Variant):
        """The positions, in label order, of the rules (the given ones when
        ``given``) that may conflict with ``rule``'s positive reference
        under ``variant``."""
        by_head, _, by_chain_key = _memo(self._candidates, self._scan_candidates, given)
        cautious = variant is Variant.CAUTIOUS
        same = by_head.get((rule.antecedent, rule.arrow), ()) if cautious else ()
        keys = chain_clash_keys(rule, variant)
        if not keys:
            return same
        return sorted({*same, *(i for key in keys for i in by_chain_key.get(key, ()))})

    def clashing(self, anchor: Rule):
        """The rules that cautiously conflict with ``anchor``, in label order."""
        return _memo(self._clashing, self._scan_clashing, anchor.label)

    def _scan_clashing(self, label: str):
        anchor, rules = self.by_label[label], self.rules
        candidates = self._positive_candidates(anchor, False, Variant.CAUTIOUS)
        return [rules[i] for i in candidates if conflicts(rules[i], anchor, Variant.CAUTIOUS)]

    def clashes_given(self, ref: RuleRef) -> bool:
        """Whether the rule expression ``ref`` conflicts with a given rule."""
        return _memo(self._clashes_given, self._scan_clashes_given, ref)

    def _scan_clashes_given(self, ref: RuleRef) -> bool:
        rule = self.by_label[ref.label]
        expr = RuleExpression(rule, ref.positive)
        if ref.positive:
            candidates = self._positive_candidates(rule, True, self.variant)
        else:
            by_content = _memo(self._candidates, self._scan_candidates, True)[1]
            candidates = by_content.get(rule.content, ())
        return any(conflicts(self.rules[i], expr, self.variant) for i in candidates)

    def expr_positions(self, rule: Rule):
        return [
            pos
            for pos, e in enumerate(rule.consequent, start=1)
            if isinstance(e, RuleExpression)
        ]

    def stronger(self, a: Rule, b: Rule) -> bool:
        return (a.label, b.label) in self.sup

    def overrules(self, a: Rule, b: Rule) -> bool:
        """``a`` is superior to ``b`` or, unless ``b`` is superior to ``a``,
        some rule ``a`` concludes is superior to some rule ``b`` concludes."""
        if self.stronger(a, b):
            return True
        if self.stronger(b, a):
            return False
        for ea in a.consequent:
            if not isinstance(ea, RuleExpression):
                continue
            for eb in b.consequent:
                if isinstance(eb, RuleExpression) and (
                    (ea.rule.label, eb.rule.label) in self.sup
                ):
                    return True
        return False

    # -- proof conditions ---------------------------------------------------

    def decide_literal(self, store: dict, mode: Mode, lit: Literal):
        if mode is Mode.C:
            if lit in self.theory.facts:
                return True
            if lit.complement() in self.theory.facts:
                return False
        sup, attackers, defenders = self.literal_domain(mode, lit)
        return self._decide(
            store, mode, lit, [sup], lambda _: attackers, lambda g, j: defenders, self.stronger
        )

    def decide_rule(self, store: dict, mode: Mode, ref: RuleRef):
        if mode is Mode.C:
            if ref.positive and ref.label in self.top:
                return True
            if self.clashes_given(ref):
                return False
        sup = self.supporters(mode, ref)
        if self.variant is Variant.SIMPLE:
            attackers = self.simple_attackers(mode, ref)
            defenders = partial(self.simple_defenders, mode, ref)
            return self._decide(
                store, mode, ref, [sup], lambda _: attackers, defenders, self.stronger
            )
        attackers = partial(self.cautious_attackers, mode)
        defenders = partial(self.cautious_defenders, mode)
        teams = [[entry] for entry in sup]
        return self._decide(store, mode, ref, teams, attackers, defenders, self.overrules)

    def _decide(self, store, mode, subject, teams, attackers, defenders, beats):
        """The verdict on ``mode`` ``subject``, None while undecided: the
        (rule, position) conclusions ``attackers(team)`` attack a team of
        supporters, ``defenders(g, j)`` defend against ``g`` at ``j``."""
        if mode is Mode.P and store.get((Mode.O, subject)) is True:
            return True
        applicable, discarded = self.applicable, self.discarded
        if any(
            any(b.is_defeasible and applicable(store, b, i) for b, i in team)
            and all(
                discarded(store, g, j)
                or any(
                    applicable(store, z, k) and beats(z, g) for z, k in defenders(g, j)
                )
                for g, j in attackers(team)
            )
            for team in teams
        ):
            return True
        if mode is Mode.P and store.get((Mode.O, subject)) is not False:
            return None
        if all(
            all(not b.is_defeasible or discarded(store, b, i) for b, i in team)
            or any(
                applicable(store, g, j)
                and all(
                    discarded(store, z, k) or not beats(z, g) for z, k in defenders(g, j)
                )
                for g, j in attackers(team)
            )
            for team in teams
        ):
            return False
        return None


def step(theory: Theory, store: dict, variant: Variant, ev: _Evaluator = None) -> dict:
    """One saturation round: add every tag whose condition now holds.

    ``ev`` is the evaluator of ``theory`` under ``variant`` that earlier
    rounds of the same saturation used; a fresh one is built without it.
    """
    if ev is None:
        ev = _Evaluator(theory, variant)
    out = dict(store)
    for subject in ev.base:
        decide = ev.decide_literal if isinstance(subject, Literal) else ev.decide_rule
        for mode in _MODES:
            key = (mode, subject)
            if key not in store:
                verdict = decide(store, mode, subject)
                if verdict is not None:
                    out[key] = verdict
    return out


def check_budget(theory: Theory, budget: int) -> None:
    """Raise ``OracleBudgetError`` when ``theory`` is larger than ``budget``;
    a budget of None admits every theory."""
    size = theory_size(theory)
    if budget is not None and size > budget:
        raise OracleBudgetError(f"theory size {size} exceeds the oracle budget {budget}")


def oracle_extension(
    theory: Theory, variant: Variant, budget: int = DEFAULT_BUDGET
) -> Extension:
    """Least fixpoint of ``step``; subjects never decided are undetermined."""
    check_budget(theory, budget)
    ev = _Evaluator(theory, variant)
    store = {}
    while True:
        nxt = step(theory, store, variant, ev)
        if len(nxt) == len(store):
            break
        store = nxt
    n_lits = sum(isinstance(subject, Literal) for subject in ev.base)  # literals come first
    atoms = [lit.atom for lit in ev.base[:n_lits:2]]
    labels = [ref.label for ref in ev.base[n_lits::2]]
    columns = [bytes([_TAG_BYTE[store.get((mode, s))] for s in ev.base]) for mode in _MODES]
    return Extension(atoms, labels, columns)


def check_equivalence(
    theory: Theory,
    variant: Variant,
    budget: int = DEFAULT_BUDGET,
    engine_ext: Extension = None,
) -> dict:
    """Symmetric differences between the engine and oracle extensions.

    Empty dict on agreement; otherwise maps a set name to the pair of
    subject sets (engine only, oracle only).  ``engine_ext`` is the
    engine's extension of the theory when the caller already holds it; it
    is computed here otherwise.
    """
    if engine_ext is None:
        from .engine import compute_extension

        engine_ext = compute_extension(theory, variant)
    oracle_ext = oracle_extension(theory, variant, budget)
    if engine_ext == oracle_ext:  # two stores compare byte by byte
        return {}
    diffs: dict = {}
    for (name, a), (_, b) in zip(engine_ext.tag_sets(), oracle_ext.tag_sets()):
        if a != b:
            diffs[name] = (a - b, b - a)
    if engine_ext.undetermined != oracle_ext.undetermined:
        diffs["undetermined"] = (
            engine_ext.undetermined - oracle_ext.undetermined,
            oracle_ext.undetermined - engine_ext.undetermined,
        )
    return diffs
