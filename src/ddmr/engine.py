"""Worklist engine computing the extension of a defeasible deontic theory.

The computation follows a forward-chaining fixpoint.  Seeding establishes
facts as constitutive conclusions and the given rules as constitutively
held, and rejects rule expressions the given rules clash with.  The main
loop then repeatedly picks subjects from the modal Herbrand base whose
evidence changed and decides them.

Every subject is decided by one schema.  Its supporters form teams, each
team faces attackers, and each attacker faces the subject's defenders.  The
subject is proved when some team has an applicable defeasible member and an
applicable defender beats every live (not discarded) attacker of the team,
and refuted when every team with a defeasible member meets an applicable
attacker that no live defender beats.  For a literal, and for a rule
subject under the simple reading, all supporters form one team (team
defeat) and beating is superiority; the attackers support a concluded
subject with the content of the subject's complement (for a literal, the
complement), and the defenders the subject or the attacked complement
(``_attackers``).  A concluded rule is never a meta-rule, so it clashes
simply with exactly its content under the other polarity.  Under the
cautious reading each supporter of a rule subject is a team of its own,
attacked by the rules clashing with it as whole rules and defended by
those clashing with the attacker; a defender also beats an attacker whose
concluded rules its own are superior to, unless the attacker is superior
to it.  ``model.ATTACK_MODES``, ``model.DEFEND_MODES`` and
``model.CAUTIOUS_RULE_ATTACK_MODES`` say which modes attack and defend.
An examination builds each team's attacker list at most once and walks it
for proof and, failing that, for refutation (``_unbeaten``): the same test
with the frontier and the cut in swapped roles.

A rule's conditions are one list, ``model.conditions``: the rule held and
each antecedent item from chain position 1, and each chain element in
force and violated from the position after it.  ``prepare`` files every
condition under the subject whose decision settles it, with the sign that
meets it, so a decision finds the conditions it settles in one lookup, and
counts per rule and position the conditions first applying there and not
yet met.  A condition met is counted off at its first position alone, and
the rule's frontier, the first position whose count is not 0, moves past
the positions whose count is 0; a refuted condition discards the rule
from its first position on, and those positions leave the support index.
A rule is applicable at the positions below its frontier, and discarded
at those from its cut on, so each condition is settled in constant time
plus the frontier's moves, which cross each position once.  The subjects
that consulted a rule are examined again only when its applicability or
discarding moves.

``prepare`` also writes into the store, in bulk, the verdicts that need
no evidence: the seeded ones, and a refutation for each C or O subject
that no defeasible rule supports and for each unsupported P subject
whose obligation is refuted that way.  Proving needs an applicable
defeasible supporter, and refuting only asks that every defeasible
supporter be beaten, so the proof conditions would refute these too;
supports only shrink during the run, so an unsupported subject never
gains a supporter.  An unsupported P whose obligation is supported goes
through the proof conditions, which wait for the obligation (O implies
P).  The store starts refuted everywhere; the walk over the rules clears
each id a defeasible supporter concludes and the P id after each such O;
the seeded verdicts (all on C ids) are written over that last.  ``run``
takes the bytes of ids that no condition watches as they stand; only
the watched ones can move a rule, so they alone go through ``_apply``,
in id order.

``prepare`` compiles the theory to integer ids and the fixpoint runs on
those alone.  It starts from the theory's ``model.number`` (the sorted
labels and atoms, the rules in label order and their content groups),
which ``validate`` gathers in its own walk and ``run_engine`` hands on;
``build_conflict_index`` reads it too.  Then one walk over the rules in
id order files each rule's chain, conditions and supports, with each
subject id computed in place, and opens the store at the ids a
defeasible supporter concludes.  The literal over atom ``a`` (numbered
in sorted order, as rule labels are) has the base index ``2a`` when
positive and ``2a + 1`` when negated.  The reference to rule ``r`` has
the reference id ``k = 2r + (not positive)``, the numbering in which
``build_conflict_index`` writes the conflict relation, and the base
index ``n_lits + k``.  So the base runs literals before rule
references, then by atom or label, the positive one first;
complementing a base index is ``b ^ 1``.  Both numberings are keyed on
strings, so the compile hashes no literal or rule objects.  The
(mode, subject) pair with base index ``b`` has the subject id ``3b + m``,
with ``m`` 0, 1, 2 for C, O, P, so ids sort exactly as the pairs do:
literals before rules, then name, positive first, then C/O/P.

The run keeps its decisions in one ``bytearray``, ``tag``, indexed by
subject id: 0 undecided, 1 proved, 2 refuted.  Past the verdicts that
``prepare`` wrote, every id left undecided is due for examination, so
the first iteration examines those ids in order, picked out of the store
with ``itertools.compress``; later iterations examine the sorted
undecided ids whose evidence moved (``dirty``).  ``extension`` makes
the ``Extension`` from the store at the end, as the oracle does: from
the sorted atoms and labels, and each mode's column of the store
(``tag[m::3]``, one byte per base index).  The extension keeps those and
nothing of the state; it writes its output from them, and builds the
tag sets only when they are read.  ``prepare`` makes no literal or rule
reference per base index either: ``base``, which ``pair`` reads, is made
on first use.  ``diff_variants`` compares the stores of the two readings
id by id, since the ids depend only on the atoms and labels.

A subject never decided by the fixpoint is reported as undetermined; loops
such as ``x => C x`` are the typical cause.  The engine never decides a
subject twice, so the result is coherent by construction, and decisions
depend only on established evidence, making the outcome independent of
iteration order.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import compress, count

from .conflicts import Variant, build_conflict_index
from .extension import (
    TAG_IS as _IS,
    TAG_PROVED as _PROVED,
    TAG_REFUTED as _REFUTED,
    TAG_UNDECIDED as _UNDECIDED,
    Extension,
    base_subjects,
)
from .model import (
    ATTACK_MODES,
    CAUTIOUS_RULE_ATTACK_MODES,
    DEFEND_MODES,
    Literal,
    Mode,
    Numbering,
    Sign,
    TaggedFormula,
    Theory,
    ValidationReport,
    conditions,
    herbrand_base,  # noqa: F401 -- not called here; perfbench/spans.py wraps this name
    number,
    validate,
)

# A mode's offset in a subject id.
C, O, P = 0, 1, 2
_MODES = (Mode.C, Mode.O, Mode.P)
_MODE_ORDER = {mode: m for m, mode in enumerate(_MODES)}


def _offsets(table: dict) -> tuple:
    """A table of modes per mode, as offsets indexed by the mode's offset."""
    return tuple(tuple(_MODE_ORDER[m] for m in table[mode]) for mode in _MODES)


# Who may attack and defend, from ``model``.
_ATTACK, _DEFEND = _offsets(ATTACK_MODES), _offsets(DEFEND_MODES)
_RULE_ATTACK = _offsets(CAUTIOUS_RULE_ATTACK_MODES)


def complement_id(s: int) -> int:
    """The subject id of the same mode over the complementary subject."""
    return 3 * ((s // 3) ^ 1) + s % 3


class IncoherenceError(AssertionError):
    """Both signs derived for one subject; indicates an engine defect."""


class EngineState:
    """Mutable run state over the compiled theory.

    ``supports[s]`` holds (rule, position) pairs for the rules that can
    still conclude subject ``s``; an entry disappears when its rule is
    discarded at its position, so every entry is live.  ``tag[s]`` is the
    decision on subject ``s``: 0 undecided, 1 proved, 2 refuted.
    ``watch[s]`` lists (rule, first position, sign meeting it) for each
    condition that deciding ``s`` settles.  ``live[r][p]`` counts the
    conditions of rule ``r`` whose first position is ``p + 1`` and that are
    not yet met; every subject is decided once, so no condition is counted
    off twice.  ``front[r]`` is
    the first position whose count is not 0, or one past the chain, so the
    rule is applicable below it; it starts at 1, where the rule-held
    condition is.  ``cut[r]`` is the first position at which the rule is
    discarded, one past its chain while it is not.
    ``opposite[k]`` (simple reading) lists, by base index, the concluded
    references with reference ``k``'s content and the other polarity.
    ``_touched`` holds the rules the examination in progress consulted:
    the supporters, the attackers and team defenders as their lists are
    built, and cautious defenders as they are walked.  ``deps[r]`` lists
    the subject ids left undecided after consulting rule ``r``, to examine
    again when its applicability or discarding moves.
    ``prepare`` leaves in ``tag`` the verdicts that need no evidence, and
    ``run`` starts from them.  ``dead`` (the rules cut at 1), ``lit_tags`` and
    ``rule_tags`` (decided literal and rule subject ids to their sign) and
    ``mhb`` (the undecided ids) are views computed from ``cut`` or ``tag``
    on each read; the run itself never builds them.
    """

    def __init__(self, theory: Theory, variant: Variant, order_seed: int = None):
        self.theory = theory
        self.variant = variant
        self.order_seed = order_seed  # shuffle scan order instead of sorting, for testing
        self.iterations = 0
        self.tag = bytearray()
        self.dirty: set = set()
        self.watch: dict = {}  # subject id -> [(rule, first position, satisfying sign)]
        self.supports: dict = {}
        self.deps: dict = {}  # rule -> [subject ids that consulted it]
        self._touched: set = set()

    # ------------------------------------------------------------------ setup

    def prepare(self, numbering: Numbering = None) -> None:
        """Compile the theory to ids (see the module docstring) and seed the run.

        ``numbering`` is the theory's ``model.number``, as ``validate``
        leaves it on its report; it is computed here when not given, and
        only read, so both readings can share one.  Per rule id: its mode
        offset, whether it is defeasible, the subject ids its chain
        concludes, its rule-expression positions, its unmet conditions per
        position, the rules it concludes and, under the cautious variant,
        the rules it clashes with as a whole rule; per reference id, under
        the simple variant, the concluded references with its content and
        the other polarity; and the superiority pairs as pairs of rule ids.
        """
        t = self.theory
        if numbering is None:
            numbering = number(t)
        self.labels, rules, self.atoms, group = numbering
        self.rule_ids = rid = dict(zip(self.labels, count()))
        self.atom_ids = aid = dict(zip(self.atoms, count()))
        self.n_lits = n_lits = 2 * len(aid)
        self.n_lit_ids = 3 * n_lits
        conflicting, producers = build_conflict_index(numbering, self.variant, rid)

        top = {rid[rule.label] for rule in t.rules}
        watch, supports = self.watch, self.supports
        # the verdicts that need no evidence: refuted unless a defeasible
        # rule concludes the id or, for a P id, its O (O implies P)
        self.tag = tag = bytearray((_REFUTED,)) * (3 * (n_lits + 2 * len(rules)))
        self.rule_mode, self.defeasible, self.concludes = [], [], []
        self.expr_positions, self.concluded, self.live, self.cut = [], [], [], []
        for r, rule in enumerate(rules):
            mode, chain, defeasible = rule.mode, rule.consequent, rule.is_defeasible
            m = _MODE_ORDER[mode]
            # subject ids are computed in place: 3 * (base index) + mode offset
            ends = []
            for x in chain:
                b = 2 * aid[x.atom] if type(x) is Literal else n_lits + 2 * rid[x.label]
                ends.append(3 * (b + (not x.positive)) + m)
            concludes = tuple(ends)
            live = [0] * len(chain)
            for first, cmode, x, sign in conditions(rule):
                live[first - 1] += 1
                b = 2 * aid[x.atom] if type(x) is Literal else n_lits + 2 * rid[x.label]
                s = 3 * (b + (not x.positive)) + _MODE_ORDER[cmode]
                watch.setdefault(s, []).append((r, first, sign))
            # most chains hold no rule expression: one shared () spares the collector a list
            positions = [i for i, e in enumerate(chain, start=1) if type(e) is not Literal] or ()
            self.rule_mode.append(m)
            self.defeasible.append(defeasible)
            self.concludes.append(concludes)
            self.expr_positions.append(positions)
            self.concluded.append([rid[chain[i - 1].rule.label] for i in positions] or ())
            self.live.append(live)
            self.cut.append(len(live) + 1)
            if r in top or producers[2 * r]:  # given, or concluded by some chain
                for pos, s in enumerate(concludes, start=1):
                    supports.setdefault(s, []).append((r, pos))
                    if defeasible:
                        tag[s] = _UNDECIDED
                        if mode is Mode.O:
                            tag[s + 1] = _UNDECIDED
        self.front = [1] * len(rules)  # position 1 holds the rule-held condition
        self.sup = {(rid[a], rid[b]) for a, b in t.superiority if a in rid and b in rid}

        refs = range(len(producers))  # reference ids
        if self.variant is Variant.SIMPLE:
            concluded: dict = {}  # (content group, polarity) -> base indices
            for x, made in enumerate(producers):
                if made:
                    concluded.setdefault((group[x >> 1], x & 1), []).append(n_lits + x)
            self.opposite = (
                [concluded.get((group[k >> 1], (k & 1) ^ 1), ()) for k in refs]
                if concluded
                else [()] * len(refs)
            )
        else:
            # most rules clash positively with nothing, and only the others are sorted
            self.clashes = [
                sorted(found) if (found := [x >> 1 for x in conflicting[k] if not x & 1]) else ()
                for k in refs[::2]
            ]

        # seeded over that, all C subjects: facts and the given rules hold,
        # the complements of facts fail, and so do expressions clashing with
        # a given rule; where both apply (contradictory facts, clashing
        # given rules), holding wins
        facts = [3 * (2 * aid[f.atom] + (not f.positive)) for f in t.facts]
        for s in map(complement_id, facts):
            tag[s] = _REFUTED
        for r in top:
            for x in conflicting[2 * r]:
                tag[3 * (n_lits + x)] = _REFUTED
        for s in facts:
            tag[s] = _PROVED
        for r in top:
            tag[3 * (n_lits + 2 * r)] = _PROVED

    @cached_property
    def base(self) -> list:
        """The literal or rule reference each base index stands for, made
        on first use (``extension.base_subjects``)."""
        return base_subjects(self.atoms, self.labels)

    def pair(self, s: int):
        """The (mode, subject) pair a subject id stands for."""
        return _MODES[s % 3], self.base[s // 3]

    @property
    def lit_tags(self) -> dict:
        """Decided literal subject ids -> sign (True for +)."""
        return self._signs(0, self.n_lit_ids)

    @property
    def rule_tags(self) -> dict:
        """Decided rule subject ids -> sign (True for +)."""
        return self._signs(self.n_lit_ids, len(self.tag))

    @property
    def dead(self) -> set:
        """The rules discarded from chain position 1 on."""
        return {r for r, first in enumerate(self.cut) if first == 1}

    @property
    def mhb(self) -> set:
        """The undecided subject ids."""
        return set(compress(count(), self.tag.translate(_IS[_UNDECIDED])))

    def _signs(self, start: int, stop: int) -> dict:
        tag = self.tag
        return {s: tag[s] == _PROVED for s in range(start, stop) if tag[s]}

    # ------------------------------------------------------------------- run

    def run(self) -> None:
        tag, dirty, touched, deps = self.tag, self.dirty, self._touched, self.deps
        decide, apply = self._decide, self._apply
        # ``prepare`` left the verdicts that need no evidence in the store; a
        # verdict moves rules only through ``watch``, so the other ids keep
        # their byte as it is and the watched ones go through ``_apply``
        watched = sorted(s for s in self.watch if tag[s])
        verdicts = [tag[s] == _PROVED for s in watched]
        for s in watched:
            tag[s] = _UNDECIDED
        for s, verdict in zip(watched, verdicts):
            apply(s, verdict)
        dirty.clear()
        # first: every id left undecided
        batch = compress(count(), tag.translate(_IS[_UNDECIDED])) if tag else None
        while batch is not None:
            self.iterations += 1
            if self.order_seed is not None:
                batch = list(batch)
                random.Random(self.order_seed + self.iterations).shuffle(batch)
            for s in batch:
                if tag[s]:
                    continue
                touched.clear()
                verdict = decide(s)
                if verdict is not None:
                    apply(s, verdict)
                else:
                    # undecided: re-examine when any consulted rule moves
                    for r in touched:
                        deps.setdefault(r, []).append(s)
            batch = sorted(dirty) if dirty else None
            dirty.clear()

    def extension(self) -> Extension:
        """Decode the tag store into the twelve tag sets and the residue."""
        return Extension(self.atoms, self.labels, [self.tag[m::3] for m in (C, O, P)])

    # -------------------------------------------------------------- decisions

    def _decide(self, s: int):
        mode = s % 3
        if mode == P and self.tag[s - 1] == _PROVED:
            return True
        team = self.supports.get(s, ())
        add = self._touched.add
        for r, _ in team:
            add(r)
        if s >= self.n_lit_ids and self.variant is Variant.CAUTIOUS:
            return self._decide_cautious(s, team)
        # proved: some defeasible supporter is applicable and no live attacker
        # escapes the applicable defenders; refuted: some supporter is
        # defeasible and an applicable attacker escapes the live ones
        defeasible, front, cut = self.defeasible, self.front, self.cut
        groups = None
        for r, pos in team:
            if defeasible[r] and pos < front[r]:
                groups = self._attackers(s)
                if not (groups and self._unbeaten(groups, cut, front)):
                    return True
                break
        if mode == P and self.tag[s - 1] != _REFUTED:
            return None  # a permission cannot be rejected before the obligation is
        for r, _ in team:
            if defeasible[r]:
                break
        else:
            return False
        if groups is None:
            groups = self._attackers(s)
        return False if groups and self._unbeaten(groups, front, cut) else None

    def _unbeaten(self, groups, attacking: list, defending: list) -> bool:
        """Some attacker at a position below ``attacking[g]`` that no
        defender of its group at a position below ``defending[z]`` is
        superior to.  With the cut and the frontier: a live attacker
        escapes the applicable defenders; with the frontier and the cut: an
        applicable attacker escapes the live ones."""
        sup = self.sup
        for attackers, defenders in groups:
            for g, gpos in attackers:
                if gpos < attacking[g]:
                    for z, zpos in defenders:
                        if zpos < defending[z] and (z, g) in sup:
                            break
                    else:
                        return True
        return False

    def _attackers(self, s: int) -> list:
        """Team defeat: per concluded subject with the content of the
        subject's complement (for a literal, the complement itself) that has
        supporters in an attacking mode, those and the supporters, in a
        defending mode, of the subject and of the attacked subject's
        complement.  Supports hold only live entries."""
        mode, b = s % 3, s // 3
        get, add = self.supports.get, self._touched.add
        defend = _DEFEND[mode]
        # plain loops: a comprehension costs a frame of its own
        own = []
        for m in defend:
            for e in get(3 * b + m, ()):
                own.append(e)
                add(e[0])
        groups = []
        for x in (b ^ 1,) if s < self.n_lit_ids else self.opposite[b - self.n_lits]:
            attackers = []
            for m in _ATTACK[mode]:
                for e in get(3 * x + m, ()):
                    attackers.append(e)
                    add(e[0])
            if attackers:
                defenders = own
                if x ^ 1 != b:  # the attacked expression names another rule
                    defenders = own[:]
                    for m in defend:
                        for e in get(3 * (x ^ 1) + m, ()):
                            defenders.append(e)
                            add(e[0])
                groups.append((attackers, defenders))
        return groups

    def _decide_cautious(self, s: int, team):
        """``_decide`` for a rule subject under the cautious reading, where
        each supporter is a team of its own."""
        mode = s % 3
        defeasible, front, cut = self.defeasible, self.front, self.cut
        built = {}
        for e in team:
            if defeasible[e[0]] and e[1] < front[e[0]]:
                built[e] = attackers = self._cautious_attackers(s, (e,))
                if not self._cautious_unbeaten(mode, attackers, cut, front):
                    return True
        if mode == P and self.tag[s - 1] != _REFUTED:
            return None
        for e in team:
            if defeasible[e[0]]:
                attackers = built[e] if e in built else self._cautious_attackers(s, (e,))
                if not self._cautious_unbeaten(mode, attackers, front, cut):
                    return None
        return False

    def _cautious_unbeaten(self, mode: int, attackers, attacking: list, defending: list) -> bool:
        """``_unbeaten`` for the attackers of one cautious team, each with
        the rules clashing with it as defenders, and overruling for
        superiority."""
        for g, gpos in attackers:
            if gpos < attacking[g]:
                for z, zpos in self._cautious_defenders(mode, g):
                    if zpos < defending[z] and self._overrules(z, g):
                        break
                else:
                    return True
        return False

    def _cautious_attackers(self, s: int, team) -> list:
        """(rule, position) for the live positions of the rules clashing,
        as whole rules, with the team's one member."""
        ((r, _),) = team
        modes, rule_mode = _RULE_ATTACK[s % 3], self.rule_mode
        out = [g for g in self.clashes[r] if rule_mode[g] in modes]
        self._touched.update(out)
        cut = self.cut
        return [(g, gpos) for g in out for gpos in self.expr_positions[g] if gpos < cut[g]]

    def _cautious_defenders(self, mode: int, g: int):
        """(rule, position) for the rules clashing with attacker ``g`` in a
        defending mode, consulted as walked; each walk takes a new call."""
        clashes = self.clashes[g]
        self._touched.update(clashes)
        for z in clashes:
            if self.rule_mode[z] in _DEFEND[mode]:
                for zpos in self.expr_positions[z]:
                    yield z, zpos

    def _overrules(self, z: int, g: int) -> bool:
        """Superiority, or else superiority inherited from the rules the two
        rules conclude."""
        sup = self.sup
        if (z, g) in sup:
            return True
        return (g, z) not in sup and any(
            (u, v) in sup for u in self.concluded[z] for v in self.concluded[g]
        )

    # ------------------------------------------------------------ mutation

    def _apply(self, s: int, positive: bool) -> None:
        """Record a decision and settle the rule conditions it decides.  A
        condition met is counted off at its first position, and the rule's
        frontier moves past the positions whose count is then 0; a refuted
        one discards the rule from its first position on and takes those
        positions out of ``supports``.  Only a rule whose applicability or
        discarding moved is marked: its dependants become dirty.
        """
        tag = self.tag
        if tag[s]:
            mode, subject = self.pair(s)
            raise IncoherenceError(f"double decision on {mode} {subject}")
        tag[s] = _PROVED if positive else _REFUTED
        dirty, deps = self.dirty, self.deps
        if s % 3 == O:
            dirty.add(s + 1)
        front, cut = self.front, self.cut
        for r, first, sign in self.watch.get(s, ()):
            if sign == positive:
                live = self.live[r]
                live[first - 1] -= 1
                if first == front[r] and not live[first - 1]:
                    end = first + 1
                    while end <= len(live) and not live[end - 1]:
                        end += 1
                    front[r] = end
                    dirty.update(deps.pop(r, ()))
            elif first < cut[r]:
                end, cut[r] = cut[r], first
                chain, supports = self.concludes[r], self.supports
                for pos in range(first, end):
                    entries = supports.get(chain[pos - 1], ())
                    if (r, pos) in entries:
                        entries.remove((r, pos))
                dirty.update(deps.pop(r, ()))


def run_engine(
    theory: Theory,
    variant: Variant = Variant.CAUTIOUS,
    order_seed: int = None,
    report: ValidationReport = None,
) -> EngineState:
    """Validate, run the fixpoint, and return the final engine state.

    ``report`` is the theory's ``validate`` result when the caller already
    holds it; the theory is validated here otherwise.
    """
    if report is None:
        report = validate(theory)
    if not report.ok:
        raise ValueError("invalid theory: " + "; ".join(report.errors))
    state = EngineState(theory, variant, order_seed=order_seed)
    state.prepare(report.numbering)
    state.run()
    return state


def compute_extension(
    theory: Theory, variant: Variant = Variant.CAUTIOUS, report: ValidationReport = None
) -> Extension:
    """Run the fixpoint and return the twelve tag sets plus the residue.

    ``report`` is as for ``run_engine``.
    """
    return run_engine(theory, variant, report=report).extension()


PROVED = "Proved"
REFUTED = "Refuted"
UNDETERMINED = "Undetermined"
UNKNOWN_SUBJECT = "UnknownSubject"


def query(theory: Theory, variant: Variant, formula: TaggedFormula, extension: Extension = None) -> str:
    """Answer one tagged query against a theory's extension.

    Proved means the queried tag (sign included) is established, Refuted
    that the opposite sign is, Undetermined that the fixpoint settled
    neither.  Subjects the theory never mentions are flagged apart: decided
    and undetermined subjects partition the modal Herbrand base, so those
    are the subjects in none of the extension's sets for the mode.
    """
    if extension is None:
        extension = compute_extension(theory, variant)
    subject = formula.subject
    table = extension.rules if formula.meta else extension.literals
    flip = Sign.MINUS if formula.sign is Sign.PLUS else Sign.PLUS
    if subject in table[(formula.sign, formula.mode)]:
        return PROVED
    if subject in table[(flip, formula.mode)]:
        return REFUTED
    if (formula.mode, subject) in extension.undetermined:
        return UNDETERMINED
    return UNKNOWN_SUBJECT


def diff_variants(theory: Theory, report: ValidationReport = None) -> list:
    """Subjects decided differently under the two conflict readings.

    Returns (mode, meta, subject, simple outcome, cautious outcome) tuples,
    sorted; outcomes are Proved/Refuted/Undetermined.  ``report`` is as for
    ``run_engine``.
    """
    if report is None:
        report = validate(theory)
    # ids depend only on the atoms and labels, so both runs number one base
    simple = run_engine(theory, Variant.SIMPLE, report=report)
    cautious = run_engine(theory, Variant.CAUTIOUS, report=report)
    outcome = {_UNDECIDED: UNDETERMINED, _PROVED: PROVED, _REFUTED: REFUTED}
    rows = []
    for s, (a, b) in enumerate(zip(simple.tag, cautious.tag)):
        if a != b:
            mode, subject = simple.pair(s)
            rows.append((mode, s >= simple.n_lit_ids, subject, outcome[a], outcome[b]))
    rows.sort(key=lambda r: (r[1], str(r[2]), _MODE_ORDER[r[0]]))
    return rows
