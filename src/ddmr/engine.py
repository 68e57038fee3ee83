"""Worklist engine computing the extension of a defeasible deontic theory.

The computation follows a forward-chaining fixpoint.  Seeding establishes
facts as constitutive conclusions and the given rules as constitutively
held, and rejects rule expressions the given rules clash with.  The main
loop then repeatedly picks subjects from the modal Herbrand base whose
evidence changed and decides them -- positively when an applicable
defeasible supporter survives every live opposer (team defeat: any
applicable supporter may beat an opposer), negatively when every defeasible
supporter is discarded or outgunned by some applicable opposer that no
live defender overrules.

Every decision simplifies the theory in place: proved items vanish from
antecedents, rules whose antecedents turned false are deleted together
with their entries in all indexes, and obligation chains record, per
position, whether the obligation is in force and whether it was violated,
which is what lets a chain hand over to its reparation.  Each antecedent
item is filed under the (mode, subject) whose decision settles it, with
the sign that satisfies it, so a decision finds the items it settles in
one lookup.

A subject never decided by the fixpoint is reported as undetermined; loops
such as ``x => C x`` are the typical cause.  The engine never decides a
subject twice, so the result is coherent by construction, and decisions
depend only on established evidence, making the outcome independent of
iteration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .conflicts import ConflictIndex, Variant, build_conflict_index
from .model import (
    Extension,
    Literal,
    ModalLiteral,
    Mode,
    RuleExpression,
    RuleRef,
    Sign,
    TaggedFormula,
    Theory,
    concluded_labels,
    herbrand_base,
    validate,
)

_MODE_ORDER = {Mode.C: 0, Mode.O: 1, Mode.P: 2}

# Who may attack / defend a conclusion of each mode.  Obligations are
# attacked by obligations and permissions but reinstated only by
# obligations; permissions are attacked by obligations (and, for rule
# subjects under the cautious variant, by permissions as well) and
# defended by either deontic mode.
_ATTACK_MODES = {Mode.C: (Mode.C,), Mode.O: (Mode.O, Mode.P), Mode.P: (Mode.O,)}
_DEFEND_MODES = {Mode.C: (Mode.C,), Mode.O: (Mode.O,), Mode.P: (Mode.O, Mode.P)}


def _subject_sort_key(entry):
    mode, subject = entry
    if isinstance(subject, Literal):
        return (0, subject.atom, not subject.positive, _MODE_ORDER[mode])
    return (1, subject.label, not subject.positive, _MODE_ORDER[mode])


class IncoherenceError(AssertionError):
    """Both signs derived for one subject; indicates an engine defect."""


@dataclass
class EngineState:
    """Mutable run state: remaining subjects, live rules and their indexes.

    ``supports[(mode, subject)]`` holds (label, position) pairs for the
    rules that can still conclude the subject; entries disappear when a
    rule dies or its chain is blocked before the position.  ``matrix``
    keeps, per obligation rule, the in-force and violated verdicts for
    each chain position (None until decided).  ``lit_tags``/``rule_tags``
    collect the decisions; ``mhb`` shrinks in lock step with them.
    ``live_ants`` counts each rule's antecedent items not yet satisfied:
    in a valid theory the items of one rule have distinct ``_watch_key``s
    and every subject is decided once, so no item is counted off twice.
    """

    theory: Theory
    variant: Variant
    index: ConflictIndex = None
    by_label: dict = field(default_factory=dict)
    top: set = field(default_factory=set)
    sup: frozenset = frozenset()
    facts: frozenset = frozenset()
    mhb: set = field(default_factory=set)
    lit_tags: dict = field(default_factory=dict)
    rule_tags: dict = field(default_factory=dict)
    live_ants: dict = field(default_factory=dict)  # label -> unsatisfied item count
    watch: dict = field(default_factory=dict)  # (mode, subject) -> [(label, satisfying sign)]
    dead: set = field(default_factory=set)
    effective: set = field(default_factory=set)
    supports: dict = field(default_factory=dict)
    matrix: dict = field(default_factory=dict)
    blocked_c: set = field(default_factory=set)
    expr_positions: dict = field(default_factory=dict)
    deps: dict = field(default_factory=dict)  # label -> subjects that consulted it
    dirty: set = field(default_factory=set)
    iterations: int = 0
    order_seed: int = None  # shuffle scan order instead of sorting, for testing
    _touched: set = field(default_factory=set)

    # ------------------------------------------------------------------ setup

    def prepare(self) -> None:
        t = self.theory
        self.index = build_conflict_index(t, self.variant)
        self.by_label = t.rules_by_label()
        self.top = t.top_labels()
        self.sup = t.superiority
        self.facts = t.facts

        for subject in map(_normalize, herbrand_base(t)):
            for mode in Mode:
                self.mhb.add((mode, subject))

        for label, rule in self.by_label.items():
            self.live_ants[label] = len(rule.antecedent)
            for item in rule.antecedent:
                decision, positive = _watch_key(item)
                self.watch.setdefault(decision, []).append((label, positive))
            if rule.mode is Mode.O:
                n = len(rule.consequent)
                self.matrix[label] = [[None] * n, [None] * n]
            self.expr_positions[label] = [
                pos
                for pos, e in enumerate(rule.consequent, start=1)
                if isinstance(e, RuleExpression)
            ]

        produced = {ref.label for ref, who in self.index.producers.items() if who and ref.positive}
        for label, rule in self.by_label.items():
            if label not in self.top and label not in produced:
                continue  # appears only inside antecedents; can never take effect
            for pos, elem in enumerate(rule.consequent, start=1):
                subject = _normalize(elem)
                self.supports.setdefault((rule.mode, subject), set()).add((label, pos))

        top_refs = {RuleRef(lab, True) for lab in self.top}
        for ref in self.index.conflicting:
            if self.index.conflicting[ref] & top_refs:
                self.blocked_c.add(ref)

        self.dirty = set(self.mhb)

    # ------------------------------------------------------------------- run

    def run(self) -> None:
        while self.dirty:
            self.iterations += 1
            batch = sorted(self.dirty & self.mhb, key=_subject_sort_key)
            if self.order_seed is not None:
                random.Random(self.order_seed + self.iterations).shuffle(batch)
            self.dirty.clear()
            for mode, subject in batch:
                if (mode, subject) not in self.mhb:
                    continue
                self._touched = set()
                verdict = self._decide(mode, subject)
                if verdict is not None:
                    self._apply(mode, subject, verdict)
                else:
                    # undecided: re-examine when any consulted rule moves
                    for label in self._touched:
                        self.deps.setdefault(label, set()).add((mode, subject))

    def extension(self) -> Extension:
        return Extension.from_tags(self.lit_tags, self.rule_tags, self.mhb)

    # ------------------------------------------------------------ rule state

    def _alive(self, label: str) -> bool:
        return label not in self.dead

    def _prefix_open(self, label: str, pos: int) -> bool:
        """No chain cell before ``pos`` has been decided against the rule."""
        cells = self.matrix.get(label)
        if cells is None or pos <= 1:
            return True
        row1, row2 = cells
        return all(
            row1[j] is not False and row2[j] is not False for j in range(pos - 1)
        )

    def _applicable(self, label: str, pos: int) -> bool:
        if label in self.dead or label not in self.effective:
            return False
        if self.live_ants[label]:
            return False
        cells = self.matrix.get(label)
        if cells is None or pos <= 1:
            return True
        row1, row2 = cells
        return all(row1[j] is True and row2[j] is True for j in range(pos - 1))

    def _not_discarded(self, label: str, pos: int) -> bool:
        return self._alive(label) and self._prefix_open(label, pos)

    def _stronger(self, a: str, b: str) -> bool:
        return (a, b) in self.sup

    def _fallback_stronger(self, a: str, b: str) -> bool:
        """Superiority inherited from the rules two meta-rules conclude."""
        for u in concluded_labels(self.by_label[a]):
            for v in concluded_labels(self.by_label[b]):
                if (u, v) in self.sup:
                    return True
        return False

    # -------------------------------------------------------------- decisions

    def _decide(self, mode: Mode, subject):
        if isinstance(subject, Literal):
            return self._decide_literal(mode, subject)
        return self._decide_rule(mode, subject)

    def _decide_literal(self, mode: Mode, lit: Literal):
        comp = lit.complement()
        if mode is Mode.C:
            if lit in self.facts:
                return True
            if comp in self.facts:
                return False
            supporters = self._entries(Mode.C, lit)
            if self._provable_literal(mode, lit, supporters):
                return True
            if self._refutable_literal(mode, lit, supporters):
                return False
            return None
        if mode is Mode.P and self.lit_tags.get((Mode.O, lit)) is True:
            return True
        supporters = self._entries(mode, lit)
        if self._provable_literal(mode, lit, supporters):
            return True
        if mode is Mode.P and self.lit_tags.get((Mode.O, lit)) is not False:
            return None  # a permission cannot be rejected before the obligation is
        if self._refutable_literal(mode, lit, supporters):
            return False
        return None

    def _entries(self, mode: Mode, subject) -> tuple:
        entries = tuple(self.supports.get((mode, subject), ()))
        self._touched.update(label for label, _ in entries)
        return entries

    def _attack_entries(self, mode: Mode, subject) -> list:
        comp = subject.complement()
        out = []
        for amode in _ATTACK_MODES[mode]:
            out.extend(self._entries(amode, comp))
        return out

    def _defend_entries(self, mode: Mode, subject) -> list:
        out = []
        for dmode in _DEFEND_MODES[mode]:
            out.extend(self._entries(dmode, subject))
        return out

    def _provable_literal(self, mode: Mode, lit: Literal, supporters) -> bool:
        witness = any(
            self.by_label[label].is_defeasible and self._applicable(label, pos)
            for label, pos in supporters
        )
        if not witness:
            return False
        defenders = self._defend_entries(mode, lit)
        for glabel, gpos in self._attack_entries(mode, lit):
            if not any(
                self._applicable(zlabel, zpos) and self._stronger(zlabel, glabel)
                for zlabel, zpos in defenders
            ):
                return False
        return True

    def _refutable_literal(self, mode: Mode, lit: Literal, supporters) -> bool:
        attackers = [
            (g, gp)
            for g, gp in self._attack_entries(mode, lit)
            if self._applicable(g, gp)
        ]
        defenders = self._defend_entries(mode, lit)
        for blabel, bpos in supporters:
            if not self.by_label[blabel].is_defeasible:
                continue
            if not any(
                all(
                    not self._stronger(zlabel, glabel)
                    for zlabel, zpos in defenders
                )
                for glabel, gpos in attackers
            ):
                return False
        return True

    # Rule subjects ---------------------------------------------------------

    def _decide_rule(self, mode: Mode, ref: RuleRef):
        if mode is Mode.C and ref.positive and ref.label in self.top:
            return True
        if mode is Mode.P and self.rule_tags.get((Mode.O, ref)) is True:
            return True
        supporters = self._entries(mode, ref)
        if mode is Mode.C and ref in self.blocked_c:
            return False
        if self._provable_rule(mode, ref, supporters):
            return True
        if mode is Mode.P and self.rule_tags.get((Mode.O, ref)) is not False:
            return None
        if self._refutable_rule(mode, ref, supporters):
            return False
        return None

    def _rule_attack_modes(self, mode: Mode):
        if self.variant is Variant.CAUTIOUS and mode is Mode.P:
            return (Mode.O, Mode.P)
        return _ATTACK_MODES[mode]

    def _provable_rule(self, mode: Mode, ref: RuleRef, supporters) -> bool:
        witnesses = [
            (label, pos)
            for label, pos in supporters
            if self.by_label[label].is_defeasible and self._applicable(label, pos)
        ]
        if not witnesses:
            return False
        if self.variant is Variant.SIMPLE:
            return all(
                self._defeated_simple(mode, ref, glabel, gref)
                for glabel, gref, gpos in self._rule_attackers_simple(mode, ref)
                if self._not_discarded(glabel, gpos)
            )
        return any(
            all(
                self._defeated_cautious(mode, glabel)
                for glabel in self._rule_attackers_cautious(mode, wlabel)
                if self._attacker_alive(glabel)
            )
            for wlabel, wpos in witnesses
        )

    def _refutable_rule(self, mode: Mode, ref: RuleRef, supporters) -> bool:
        if self.variant is Variant.SIMPLE:
            attackers = [
                (glabel, gref)
                for glabel, gref, gpos in self._rule_attackers_simple(mode, ref)
                if self._applicable(glabel, gpos)
            ]
            for blabel, bpos in supporters:
                if not self.by_label[blabel].is_defeasible:
                    continue
                if not any(
                    self._unblocked_simple(mode, ref, glabel, gref)
                    for glabel, gref in attackers
                ):
                    return False
            return True
        for blabel, bpos in supporters:
            if not self.by_label[blabel].is_defeasible:
                continue
            if not any(
                self._unblocked_cautious(mode, glabel)
                for glabel in self._rule_attackers_cautious(mode, blabel)
                if self._attacker_applicable(glabel)
            ):
                return False
        return True

    def _rule_attackers_simple(self, mode: Mode, ref: RuleRef):
        """Rules concluding an expression that clashes with the subject."""
        out = []
        for other in self.index.conflicting.get(ref, ()):
            for glabel, gpos in self.index.producers.get(other, ()):
                if self.by_label[glabel].mode in self._rule_attack_modes(mode):
                    out.append((glabel, other, gpos))
        self._touched.update(e[0] for e in out)
        return sorted(out, key=lambda e: (e[0], e[2]))

    def _rule_attackers_cautious(self, mode: Mode, anchor_label: str):
        """Rules clashing, as whole rules, with the supporter under attack."""
        out = sorted(
            g
            for g in self.index.rule_level(anchor_label)
            if self.by_label[g].mode in self._rule_attack_modes(mode)
        )
        self._touched.update(out)
        return out

    def _attacker_alive(self, label: str) -> bool:
        return self._alive(label) and any(
            self._prefix_open(label, pos) for pos in self.expr_positions[label]
        )

    def _attacker_applicable(self, label: str) -> bool:
        return any(self._applicable(label, pos) for pos in self.expr_positions[label])

    def _simple_defenders(self, mode: Mode, ref: RuleRef, attacked_label: str):
        """Conclusions with the subject's content and polarity, named after
        the subject or after the attacking expression."""
        key = (self.index.content_keys[ref.label], ref.positive)
        for zlabel, elem_label, zpos in self.index.by_content.get(key, ()):
            if elem_label in (ref.label, attacked_label) and self.by_label[
                zlabel
            ].mode in _DEFEND_MODES[mode]:
                self._touched.add(zlabel)
                yield zlabel, zpos

    def _defeated_simple(self, mode: Mode, ref: RuleRef, glabel: str, gref: RuleRef) -> bool:
        return any(
            self._applicable(zlabel, zpos) and self._stronger(zlabel, glabel)
            for zlabel, zpos in self._simple_defenders(mode, ref, gref.label)
        )

    def _unblocked_simple(self, mode: Mode, ref: RuleRef, glabel: str, gref: RuleRef) -> bool:
        return not any(
            self._not_discarded(zlabel, zpos) and self._stronger(zlabel, glabel)
            for zlabel, zpos in self._simple_defenders(mode, ref, gref.label)
        )

    def _cautious_defenders(self, mode: Mode, glabel: str):
        for zlabel in self._rule_attackers_cautious_any(glabel):
            if self.by_label[zlabel].mode in _DEFEND_MODES[mode]:
                for zpos in self.expr_positions[zlabel]:
                    yield zlabel, zpos

    def _rule_attackers_cautious_any(self, label: str):
        out = sorted(self.index.rule_level(label))
        self._touched.update(out)
        return out

    def _overrules(self, zlabel: str, glabel: str) -> bool:
        if self._stronger(zlabel, glabel):
            return True
        return not self._stronger(glabel, zlabel) and self._fallback_stronger(
            zlabel, glabel
        )

    def _defeated_cautious(self, mode: Mode, glabel: str) -> bool:
        return any(
            self._applicable(zlabel, zpos) and self._overrules(zlabel, glabel)
            for zlabel, zpos in self._cautious_defenders(mode, glabel)
        )

    def _unblocked_cautious(self, mode: Mode, glabel: str) -> bool:
        return not any(
            self._not_discarded(zlabel, zpos) and self._overrules(zlabel, glabel)
            for zlabel, zpos in self._cautious_defenders(mode, glabel)
        )

    # ------------------------------------------------------------ mutation

    def _apply(self, mode: Mode, subject, positive: bool) -> None:
        key = (mode, subject)
        if key not in self.mhb:
            raise IncoherenceError(f"double decision on {mode} {subject}")
        self.mhb.discard(key)
        if isinstance(subject, Literal):
            self.lit_tags[key] = positive
        else:
            self.rule_tags[key] = positive
        if mode is Mode.O:
            self.dirty.add((Mode.P, subject))

        for label, satisfied_by in self.watch.get(key, ()):
            if satisfied_by != positive:
                self._kill(label)
            else:
                self.live_ants[label] -= 1
                if not self.live_ants[label]:
                    self._mark_rule(label)

        if isinstance(subject, RuleRef) and subject.positive and mode is Mode.C:
            if positive:
                self.effective.add(subject.label)
                self._mark_rule(subject.label)
            else:
                self._kill(subject.label)

        self._update_matrices(mode, subject, positive)

    def _mark_rule(self, label: str) -> None:
        self.dirty.update(self.deps.pop(label, ()))

    def _kill(self, label: str) -> None:
        if label in self.dead:
            return
        self.dead.add(label)
        rule = self.by_label[label]
        for pos, elem in enumerate(rule.consequent, start=1):
            self.supports.get((rule.mode, _normalize(elem)), set()).discard(
                (label, pos)
            )
        self._mark_rule(label)

    def _update_matrices(self, mode: Mode, subject, positive: bool) -> None:
        """Record per-chain verdicts for every obligation rule carrying the
        subject: row one tracks the obligation being in force, row two the
        violation evidence.  A rule element is violated by being refuted
        from the rule system, a literal element by its complement holding.
        """
        if isinstance(subject, Literal):
            if mode is Mode.O:
                self._set_cells(Mode.O, subject, 0, positive)
            elif mode is Mode.C:
                self._set_cells(Mode.O, subject.complement(), 1, positive)
        else:
            if mode is Mode.O:
                self._set_cells(Mode.O, subject, 0, positive)
            elif mode is Mode.C:
                self._set_cells(Mode.O, subject, 1, not positive)

    def _set_cells(self, mode: Mode, subject, row: int, value: bool) -> None:
        for label, pos in tuple(self.supports.get((mode, subject), ())):
            cells = self.matrix.get(label)
            if cells is None or cells[row][pos - 1] is not None:
                continue
            cells[row][pos - 1] = value
            if value is False:
                self._block_after(label, pos)
            self._mark_rule(label)

    def _block_after(self, label: str, pos: int) -> None:
        rule = self.by_label[label]
        for k in range(pos + 1, len(rule.consequent) + 1):
            elem = rule.consequent[k - 1]
            self.supports.get((rule.mode, _normalize(elem)), set()).discard(
                (label, k)
            )
        self._mark_rule(label)


def _watch_key(item):
    """The decision that settles an antecedent item, and the sign satisfying it.

    Returns ((mode, subject), positive): the item holds once the subject is
    decided with that sign under that mode, and fails on the other sign.
    """
    if isinstance(item, Literal):
        return (Mode.C, item), True
    if isinstance(item, ModalLiteral):
        return (item.mode, item.inner), not item.negated
    if isinstance(item, RuleExpression):
        return (Mode.C, item.ref), True
    return (item.mode, item.expr.ref), not item.negated


def run_engine(
    theory: Theory, variant: Variant = Variant.CAUTIOUS, order_seed: int = None
) -> EngineState:
    """Validate, run the fixpoint, and return the final engine state."""
    report = validate(theory)
    if not report.ok:
        raise ValueError("invalid theory: " + "; ".join(report.errors))
    state = EngineState(theory, variant, order_seed=order_seed)
    state.prepare()
    state.run()
    return state


def compute_extension(theory: Theory, variant: Variant = Variant.CAUTIOUS) -> Extension:
    """Run the fixpoint and return the twelve tag sets plus the residue."""
    return run_engine(theory, variant).extension()


PROVED = "Proved"
REFUTED = "Refuted"
UNDETERMINED = "Undetermined"
UNKNOWN_SUBJECT = "UnknownSubject"


def query(theory: Theory, variant: Variant, formula: TaggedFormula, extension: Extension = None) -> str:
    """Answer one tagged query against a theory's extension.

    Proved means the queried tag (sign included) is established, Refuted
    that the opposite sign is, Undetermined that the fixpoint settled
    neither.  Subjects the theory never mentions are flagged apart.
    """
    if extension is None:
        extension = compute_extension(theory, variant)
    subject = formula.subject
    known = {_normalize(s) for s in herbrand_base(theory)}
    if _normalize(subject) not in known:
        return UNKNOWN_SUBJECT
    table = extension.rules if formula.meta else extension.literals
    same = table[(formula.sign, formula.mode)]
    flip = Sign.MINUS if formula.sign is Sign.PLUS else Sign.PLUS
    other = table[(flip, formula.mode)]
    if subject in same:
        return PROVED
    if subject in other:
        return REFUTED
    return UNDETERMINED


def _normalize(subject):
    """A literal or rule expression as a derivation subject."""
    if isinstance(subject, RuleExpression):
        return subject.ref
    return subject


def diff_variants(theory: Theory) -> list:
    """Subjects decided differently under the two conflict readings.

    Returns (mode, meta, subject, simple outcome, cautious outcome) tuples,
    sorted; outcomes are Proved/Refuted/Undetermined.
    """
    simple = compute_extension(theory, Variant.SIMPLE)
    cautious = compute_extension(theory, Variant.CAUTIOUS)

    def outcomes(ext: Extension):
        out = {}
        for (sign, mode), subjects in list(ext.literals.items()) + list(
            ext.rules.items()
        ):
            for subject in subjects:
                out[(mode, subject)] = PROVED if sign is Sign.PLUS else REFUTED
        for mode, subject in ext.undetermined:
            out[(mode, subject)] = UNDETERMINED
        return out

    left, right = outcomes(simple), outcomes(cautious)
    rows = []
    for key in set(left) | set(right):
        a, b = left.get(key), right.get(key)
        if a != b:
            mode, subject = key
            rows.append((mode, isinstance(subject, RuleRef), subject, a, b))
    rows.sort(key=lambda r: (r[1], str(r[2]), _MODE_ORDER[r[0]]))
    return rows
