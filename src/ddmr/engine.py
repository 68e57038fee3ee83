"""Worklist engine computing the extension of a defeasible deontic theory.

The computation follows a forward-chaining fixpoint.  Seeding establishes
facts as constitutive conclusions and the given rules as constitutively
held, and rejects rule expressions the given rules clash with.  One pass
over a worklist then decides the subjects of the modal Herbrand base,
examining a subject again only when its evidence moves.

Every subject is decided by one schema (``_decide``).  Its supporters
form teams, each team faces groups of attackers, and each attacker faces
the defenders of its group.  The subject is proved when some team has an
applicable defeasible member and an applicable defender beats every live
(not discarded) attacker of the team, and refuted when every team with a
defeasible member meets an applicable attacker that no live defender
beats.  For a literal, and for a rule subject under the simple reading,
all supporters form one team (team defeat) and beating is superiority
(``sup``); a group attacks with the supporters of a concluded subject
with the content of the subject's complement (for a literal, the
complement) and defends with those of the subject or the attacked
complement.  A concluded rule is never a meta-rule, so it clashes simply
with exactly its content under the other polarity.  Under the cautious
reading each supporter of a rule subject is a team of its own, each rule
clashing with it as a whole rule attacks in a group of its own, defended
by the rules clashing with it, and beating is ``overrules``.  The mode
tables of ``model`` say which modes attack and defend.  An examination
builds each team's groups at most once and walks them for proof and for
refutation (``_unbeaten``): the same test with the frontier and the cut
in swapped roles.

A rule's conditions are those of ``model.conditions``, the reference the
compile is tested against: the rule held and each antecedent item from
chain position 1, and each chain element in force and violated from the
position after it.  ``prepare`` files every condition but a given rule's
held one, which seeding proves, straight from the rule's parts, under the
subject whose decision settles it, with the sign that meets it, so a
decision finds the conditions it settles in one lookup, and counts per
rule and position the conditions first applying there and not yet met.
A condition met is counted off at its first position alone, and the
rule's frontier, the first position whose count is not 0, moves past the
positions whose count is 0; a refuted condition discards the rule from
its first position on, and those positions leave the support index.  A
rule is applicable at the positions below its frontier, and discarded at
those from its cut on, so each condition is settled in constant time plus
the frontier's moves, which cross each position once.  When a defeasible
rule's frontier or cut moves, the subjects it concludes at the positions
crossed are examined again, and so are the subjects that consulted it as
an attacker or a defender.

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
settles the conditions these verdicts decide in one bulk pass
(``_settle``): it counts the met ones off and cuts, then sets each
frontier once, and wakes nothing, since it queues every id left
undecided; ``_apply`` serves the fixpoint's decisions alone.

``prepare`` compiles the theory to integer ids and the fixpoint runs on
those alone.  It starts from the theory's ``model.number`` (the sorted
labels and atoms, the rules in label order and their content groups),
which ``validate`` gathers in its own walk and ``run_engine`` hands on;
``build_conflict_index`` reads it too.  Then one walk over the rules in
id order files each rule's chain, conditions (by the type of each part)
and supports, with each subject id computed in place, and opens the store
at the ids a defeasible supporter concludes.  The literal over atom ``a``
(numbered in sorted order, as rule labels are) has the base index ``2a``
when positive and ``2a + 1`` when negated.  The reference to rule ``r``
has the reference id ``k = 2r + (not positive)``, the numbering in which
``build_conflict_index`` lists the producers and reads out the clashes,
and the base index ``n_lits + k``.  So the base runs literals before rule
references, then by atom or label, the positive one first; complementing
a base index is ``b ^ 1``.  Both numberings are keyed on strings, so the
compile hashes no literal or rule objects.  The (mode, subject) pair with
base index ``b`` has the subject id ``3b + m``, with ``m`` 0, 1, 2 for C,
O, P, so ids sort exactly as the pairs do: literals before rules, then
name, positive first, then C/O/P.

The run keeps its decisions in one ``bytearray``, ``tag``, indexed by
subject id: 0 undecided, 1 proved, 2 refuted.  Past the verdicts that
``prepare`` wrote, every id left undecided is due for examination, so
the worklist starts with those ids in order, picked out of the store
with ``itertools.compress``, and is worked through first in, first out.
Each decision appends the undecided ids it woke that are not queued
already; the pass ends when the queue does.  A subject that cannot be
decided yet waits for a wake: the frontier or cut of a rule concluding
it, the rules it consulted, or for a P its O.  A subject that has no
applicable defeasible supporter and no attacker consults no rule, so it
waits on its supporters alone, at no cost.  This is the event-driven
shape of Maher's linear algorithm (M. J. Maher, "Propositional
defeasible logic has linear complexity", TPLP 1(6), 2001).  ``extension``
makes the ``Extension`` from the store at the end, as the oracle does: from
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
the order of examination.
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
    Arrow,
    Literal,
    ModalLiteral,
    Mode,
    Numbering,
    RuleExpression,
    Sign,
    TaggedFormula,
    Theory,
    ValidationReport,
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
# read once: an enum member read off its class is slow
_SIMPLE, _DEFEASIBLE = Variant.SIMPLE, Arrow.DEFEASIBLE


def complement_id(s: int) -> int:
    """The subject id of the same mode over the complementary subject."""
    return 3 * ((s // 3) ^ 1) + s % 3


class _Clashing:
    """The cautious defenders of a group: the rule-expression entries of the
    rules clashing with attacker ``g`` in one of ``modes``, made for every
    attacker but read, and recorded in ``_touched``, by each walk reaching it."""

    __slots__ = ("state", "g", "modes")

    def __init__(self, state, g: int, modes: tuple):
        self.state, self.g, self.modes = state, g, modes

    def __iter__(self):
        state, modes = self.state, self.modes
        clashes, rule_mode = state.clashes[self.g], state.rule_mode
        state._touched.update(clashes)
        for z in clashes:
            if rule_mode[z] in modes:
                yield from state.expr_positions[z]


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
    rule is applicable below it; it is 1 until ``run`` settles ``prepare``'s
    verdicts.  ``cut[r]`` is the first position at which the rule is
    discarded, one past its chain while it is not.
    ``opposite[k]`` (simple reading) lists, by base index, the concluded
    references with reference ``k``'s content and the other polarity.
    ``overrules`` (cautious reading) holds the pairs of rule ids that beat:
    superiority, and the pairs inherited from concluded rules (``prepare``).
    ``_touched`` holds the rules the examination in progress consulted as
    an attacker or a defender: the attackers as their groups are built,
    with the team defenders once an attack is found, and cautious
    defenders as a walk reaches them (``_Clashing``); supporters are not
    recorded, since a defeasible rule wakes the subjects it concludes
    through ``concludes``.
    ``deps[r]`` lists the subject ids left undecided after consulting rule
    ``r``, to examine again when its applicability or discarding moves.
    ``dirty`` lists the subject ids the last decision woke, which ``run``
    queues.  ``iterations`` counts the passes: 1 for a run over a
    non-empty store, 0 otherwise.
    ``prepare`` leaves in ``tag`` the verdicts that need no evidence, and
    ``run`` settles the conditions they decide (``_settle``) before its
    pass.  ``dead`` (the rules cut at 1), ``lit_tags`` and ``rule_tags``
    (decided literal and rule subject ids to their sign) and ``mhb`` (the
    undecided ids) are views computed from ``cut`` or ``tag`` on each read;
    the run itself never builds them.
    """

    def __init__(self, theory: Theory, variant: Variant, order_seed: int = None):
        self.theory = theory
        self.variant = variant
        self.order_seed = order_seed  # shuffle the queue and each set of woken ids, for testing
        self.iterations = 0
        self.tag = bytearray()
        self.dirty: list = []  # subject ids the last decision woke
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
        concludes, its rule-expression entries as (rule, position), its
        unmet conditions per position and, under the cautious variant, the
        rules it clashes with as a whole rule, if any; per reference id,
        under the simple variant, the concluded references with its content
        and the other polarity; and the superiority pairs, and ``overrules``.
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
        held = 3 * n_lits  # held + 6r: the C id of rule r's positive reference, rule r held
        self.watch = watch = {}
        get, supports = watch.get, self.supports
        # the verdicts that need no evidence: refuted unless a defeasible
        # rule concludes the id or, for a P id, its O (O implies P)
        self.tag = tag = bytearray((_REFUTED,)) * (3 * (n_lits + 2 * len(rules)))
        self.rule_mode, self.defeasible, self.concludes = modes, defeasibles, ends_of = [], [], []
        self.expr_positions, self.live = positions_of, lives = [], []
        for r, rule in enumerate(rules):
            chain, antecedent, m = rule.consequent, rule.antecedent, _MODE_ORDER[rule.mode]
            # ``model.conditions``: the rule held, unless given (seeding proves it),
            # and each item from 1
            met, given = (r, 1, True), r in top
            if not given:
                watch.setdefault(held + 6 * r, []).append(met)
            for x in antecedent:
                kind = type(x)
                if kind is Literal:
                    s, e = 3 * (2 * aid[x.atom] + (not x.positive)), met
                elif kind is ModalLiteral:
                    y, e = x.inner, (r, 1, False) if x.negated else met
                    s = 3 * (2 * aid[y.atom] + (not y.positive)) + _MODE_ORDER[x.mode]
                elif kind is RuleExpression:
                    s, e = held + 3 * (2 * rid[x.rule.label] + (not x.positive)), met
                else:  # a deontic rule expression
                    y, e = x.expr, (r, 1, False) if x.negated else met
                    s = held + 3 * (2 * rid[y.rule.label] + (not y.positive)) + _MODE_ORDER[x.mode]
                found = get(s)
                if found is None:
                    watch[s] = [e]
                else:
                    found.append(e)
            if len(chain) == 1:  # almost every rule
                x, positions = chain[0], ()
                if type(x) is Literal:
                    b = 2 * aid[x.atom]
                else:
                    b, positions = n_lits + 2 * rid[x.rule.label], [(r, 1)]
                ends = (3 * (b + (not x.positive)) + m,)
                live = [len(antecedent) + (not given)]
            else:
                ends, positions = [], []
                for pos, x in enumerate(chain, start=1):
                    if type(x) is Literal:
                        b = 2 * aid[x.atom] + (not x.positive)
                        violated, sign = 3 * (b ^ 1), True  # its complement holds
                    else:
                        b = n_lits + 2 * rid[x.rule.label] + (not x.positive)
                        violated, sign = 3 * b, False  # it is refuted
                        positions.append((r, pos))
                    ends.append(3 * b + m)
                    if pos < len(chain):  # in force (O) and violated (C) from pos + 1 on
                        for s, meets in ((3 * b + O, True), (violated, sign)):
                            found = get(s)
                            if found is None:
                                watch[s] = [(r, pos + 1, meets)]
                            else:
                                found.append((r, pos + 1, meets))
                ends, positions = tuple(ends), positions or ()
                live = [len(antecedent) + (not given)] + [2] * (len(chain) - 1)
            defeasible = rule.arrow is _DEFEASIBLE
            modes.append(m)
            defeasibles.append(defeasible)
            ends_of.append(ends)
            positions_of.append(positions)
            lives.append(live)
            if given or producers[2 * r]:  # given, or concluded by some chain
                for pos, s in enumerate(ends, start=1):
                    supports.setdefault(s, []).append((r, pos))
                    if defeasible:
                        tag[s] = _UNDECIDED
                        if m == O:
                            tag[s + 1] = _UNDECIDED
        self.cut = [len(ends) + 1 for ends in ends_of]
        self.front = [1] * len(rules)  # ``run`` settles it
        self.sup = sup = {(rid[a], rid[b]) for a, b in t.superiority if a in rid and b in rid}

        if self.variant is Variant.SIMPLE:
            concluded: dict = {}  # (content group, polarity) -> base indices
            for x, made in enumerate(producers):
                if made:
                    concluded.setdefault((group[x >> 1], x & 1), []).append(n_lits + x)
            self.opposite = (
                [concluded.get((group[k >> 1], (k & 1) ^ 1), ()) for k in range(len(producers))]
                if concluded
                else [()] * len(producers)
            )
        else:
            self.clashes = {r: sorted(found) for r, found in conflicting.positive.items()}
            # the rules concluding u and v, under either polarity, inherit u > v
            # unless the reverse is superior; (z, z) counts, as a rule can clash with itself
            inherited = {
                (z, g)
                for u, v in sup
                for z, _ in [*producers[2 * u], *producers[2 * u + 1]]
                for g, _ in [*producers[2 * v], *producers[2 * v + 1]]
                if (g, z) not in sup
            }
            self.overrules = sup | inherited if inherited else sup

        # seeded over that, all C subjects: facts and the given rules hold,
        # the complements of facts fail, and so do expressions clashing with
        # a given rule; where both apply (contradictory facts, clashing
        # given rules), holding wins
        facts = [3 * (2 * aid[f.atom] + (not f.positive)) for f in t.facts]
        for s in map(complement_id, facts):
            tag[s] = _REFUTED
        twins, positive = conflicting.twins, conflicting.positive
        shared = {group[r] for r in top}.intersection(twins) if twins else ()
        for v in top.union(*map(twins.get, shared)) if shared else top:
            tag[3 * (n_lits + 2 * v + 1)] = _REFUTED
        for r in top.intersection(positive):
            for v in positive[r]:
                tag[3 * (n_lits + 2 * v)] = _REFUTED
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
        self._settle()
        tag, dirty, touched, deps = self.tag, self.dirty, self._touched, self.deps
        decide, apply = self._decide, self._apply
        if not tag:
            return
        self.iterations = 1  # one pass
        # the queue starts with every id left undecided, and ``pending``
        # marks the ids in it; a decision appends the undecided ids it woke
        pending = tag.translate(_IS[_UNDECIDED])
        queue = list(compress(count(), pending))
        shuffle = None
        if self.order_seed is not None:
            shuffle = random.Random(self.order_seed).shuffle
            shuffle(queue)
        for s in queue:  # the loop reaches the ids appended as it goes
            pending[s] = 0
            verdict = decide(s)
            if touched:  # if undecided, examine again when a consulted rule moves
                if verdict is None:
                    for r in touched:
                        deps.setdefault(r, []).append(s)
                touched.clear()
            if verdict is None:
                continue
            apply(s, verdict)
            if dirty:
                if shuffle is not None:
                    shuffle(dirty)
                for x in dirty:
                    if not (pending[x] or tag[x]):
                        pending[x] = 1
                        queue.append(x)
                dirty.clear()

    def _settle(self) -> None:
        """Settle the conditions that ``prepare``'s verdicts decide, as
        ``_apply`` on each would, but in bulk: a refuted one cuts at once and
        each rule whose count at position 1 is 0 gets its frontier last."""
        tag, lives, cut, supports = self.tag, self.live, self.cut, self.supports
        for s, conditions in self.watch.items():
            if tag[s]:
                positive = tag[s] == _PROVED
                for r, first, sign in conditions:
                    if sign == positive:
                        lives[r][first - 1] -= 1
                    elif first < cut[r]:
                        end, cut[r] = cut[r], first
                        for pos in range(first, end):
                            entries = supports.get(self.concludes[r][pos - 1], ())
                            if (r, pos) in entries:
                                entries.remove((r, pos))
        front = self.front
        for r, live in enumerate(lives):
            if not live[0]:
                end = 2
                while end <= len(live) and not live[end - 1]:
                    end += 1
                front[r] = end

    def extension(self) -> Extension:
        """Decode the tag store into the twelve tag sets and the residue."""
        return Extension(self.atoms, self.labels, [self.tag[m::3] for m in (C, O, P)])

    # -------------------------------------------------------------- decisions

    def _decide(self, s: int):
        mode, refuting = s % 3, True
        if mode == P:  # O implies P, and a P is refuted only once its O is
            if self.tag[s - 1] == _PROVED:
                return True
            refuting = self.tag[s - 1] == _REFUTED
        team = self.supports.get(s)
        if not team:  # no team: nothing proves the subject
            return False if refuting else None
        if s < self.n_lit_ids or self.variant is _SIMPLE:
            teams, beats = (team,), self.sup
        else:  # each supporter of a rule subject is a team of its own
            teams, beats = [(e,) for e in team], self.overrules
        # one walk tests proof and refutation, stopping refutation at the first team that escapes it
        defeasible, front = self.defeasible, self.front
        for t in teams:
            groups, due = None, False
            for r, pos in t:
                if defeasible[r]:
                    due = True
                    if pos < front[r]:
                        groups = self._attackers(s, t)
                        if not (groups and self._unbeaten(groups, self.cut, front, beats)):
                            return True
                        break
            if due and refuting:
                if groups is None:
                    groups = self._attackers(s, t)
                refuting = groups and self._unbeaten(groups, front, self.cut, beats)
        return False if refuting else None

    def _unbeaten(self, groups, attacking: list, defending: list, beats: set) -> bool:
        """Some attacker at a position below ``attacking[g]`` that no
        defender of its group at a position below ``defending[z]`` beats,
        ``(z, g)`` being in ``beats``.  With the cut and the frontier: a
        live attacker escapes the applicable defenders; with the frontier
        and the cut: an applicable attacker escapes the live ones."""
        for attackers, defenders in groups:
            for g, gpos in attackers:
                if gpos < attacking[g]:
                    for z, zpos in defenders:
                        if zpos < defending[z] and (z, g) in beats:
                            break
                    else:
                        return True
        return False

    def _attackers(self, s: int, team) -> list:
        """The (attackers, defenders) groups ``team`` faces.  Under team
        defeat: per concluded subject with the content of the subject's
        complement (for a literal, the complement itself) that has
        supporters in an attacking mode, those, and the supporters in a
        defending mode of the subject and of the attacked subject's
        complement.  Supports hold only live entries."""
        if s >= self.n_lit_ids and self.variant is not _SIMPLE:
            return self._cautious_attackers(s, team)  # a team of one
        mode, b = s % 3, s // 3
        supports = self.supports
        own = None  # the subject's defenders, gathered at the first attack
        groups = []
        for x in (b ^ 1,) if s < self.n_lit_ids else self.opposite[b - self.n_lits]:
            attackers = []
            for m in _ATTACK[mode]:
                attackers += supports.get(3 * x + m, ())
            if attackers:
                if own is None:
                    own, defend = [], _DEFEND[mode]
                    for m in defend:
                        own += supports.get(3 * b + m, ())
                defenders = own
                if x ^ 1 != b:  # the attacked expression names another rule
                    defenders = own[:]
                    for m in defend:
                        defenders += supports.get(3 * (x ^ 1) + m, ())
                add = self._touched.add
                for r, _ in attackers + defenders:
                    add(r)
                groups.append((attackers, defenders))
        return groups

    def _cautious_attackers(self, s: int, team) -> list:
        """The groups a team of one supporter of a rule subject faces: per
        rule clashing with it as a whole rule in an attacking mode, that
        rule's rule-expression entries and its defenders (``_Clashing``)."""
        ((r, _),) = team
        mode = s % 3
        attack, defend = _RULE_ATTACK[mode], _DEFEND[mode]
        rule_mode, entries, add = self.rule_mode, self.expr_positions, self._touched.add
        groups = []
        for g in self.clashes.get(r, ()):
            if rule_mode[g] in attack:
                add(g)
                groups.append((entries[g], _Clashing(self, g, defend)))
        return groups

    # ------------------------------------------------------------ mutation

    def _apply(self, s: int, positive: bool) -> None:
        """Record a decision and settle the rule conditions it decides.  A
        condition met is counted off at its first position, and the rule's
        frontier moves past the positions whose count is then 0; a refuted
        one discards the rule from its first position on and takes those
        positions out of ``supports``.  A decision on an O wakes the P over
        the same subject.  A rule whose frontier or cut moved wakes the
        subjects that consulted it (``deps``) and, when it is defeasible,
        the subjects it concludes at the positions that moved: those that
        gained an applicable supporter or lost a live one.
        """
        tag = self.tag
        if tag[s]:
            mode, subject = self.pair(s)
            raise IncoherenceError(f"double decision on {mode} {subject}")
        tag[s] = _PROVED if positive else _REFUTED
        dirty, deps = self.dirty, self.deps
        if s % 3 == O:
            dirty.append(s + 1)
        front, cut, defeasible = self.front, self.cut, self.defeasible
        for r, first, sign in self.watch.get(s, ()):
            if sign == positive:
                live = self.live[r]
                live[first - 1] -= 1
                if first == front[r] and not live[first - 1]:
                    end = first + 1
                    while end <= len(live) and not live[end - 1]:
                        end += 1
                    front[r] = end
                    dirty += deps.pop(r, ())
                    if defeasible[r]:
                        dirty += self.concludes[r][first - 1 : end - 1]
            elif first < cut[r]:
                end, cut[r] = cut[r], first
                chain, supports = self.concludes[r], self.supports
                for pos in range(first, end):
                    entries = supports.get(chain[pos - 1], ())
                    if (r, pos) in entries:
                        entries.remove((r, pos))
                dirty += deps.pop(r, ())
                if defeasible[r]:
                    dirty += chain[first - 1 : end - 1]


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
