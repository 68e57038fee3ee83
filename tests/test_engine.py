from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmr.conflicts import Variant, build_conflict_index, conflicts
from ddmr.engine import (
    P,
    PROVED,
    REFUTED,
    UNDETERMINED,
    UNKNOWN_SUBJECT,
    EngineState,
    complement_id,
    compute_extension,
    diff_variants,
    query,
    run_engine,
)
from ddmr.generate import FAMILIES, generate_theory, random_theory
from ddmr.oracle import applicable, check_equivalence, discarded, oracle_extension
from ddmr.model import (
    Literal,
    ModalLiteral,
    Mode,
    RuleExpression,
    RuleRef,
    Sign,
    Theory,
    conditions,
    herbrand_base,
    number,
    validate,
)
from ddmr.text import parse_tagged_formula, parse_theory

from .conftest import FIXTURES
from .strategies import model_theories

L = Literal


def lits(ext, sign, mode):
    table = ext.positive(mode) if sign == "+" else ext.negative(mode)
    return {str(x) for x in table}


def rules_(ext, sign, mode):
    table = ext.positive_rules(mode) if sign == "+" else ext.negative_rules(mode)
    return {str(x) for x in table}


def test_empty_theory_has_empty_extension():
    ext = compute_extension(Theory.build(), Variant.CAUTIOUS)
    assert all(not s for s in ext.literals.values())
    assert all(not s for s in ext.rules.values())
    assert not ext.undetermined


def test_example1_team_defeat(load):
    for variant in Variant:
        ext = compute_extension(load("example1"), variant)
        assert lits(ext, "+", Mode.C) == {"a", "b", "c", "d", "e", "l"}
        assert "~l" in lits(ext, "-", Mode.C)
        assert "g" in lits(ext, "-", Mode.C)


def test_example1_needs_a_defeasible_witness():
    # supporters turned into defeaters: the attackers are still beaten, but
    # nothing defeasible remains to establish the conclusion
    source = """
    fact a. fact b. fact d. fact e.
    alpha: a ~> C l.
    beta: b ~> C l.
    phi: d => C ~l.
    psi: e => C ~l.
    alpha > phi.
    beta > psi.
    """
    ext = compute_extension(parse_theory(source), Variant.CAUTIOUS)
    assert "l" not in lits(ext, "+", Mode.C)
    # with no defeasible supporter left, the refutation holds vacuously
    assert "l" in lits(ext, "-", Mode.C)
    assert "~l" in lits(ext, "-", Mode.C)
    # adding one applicable defeasible supporter restores the conclusion
    ext2 = compute_extension(
        parse_theory(source + "fact c. gamma: c => C l."), Variant.CAUTIOUS
    )
    assert "l" in lits(ext2, "+", Mode.C)


def test_example3_deontic_extension(load):
    ext = compute_extension(load("example3"), Variant.CAUTIOUS)
    assert lits(ext, "+", Mode.C) == {"a", "b", "c", "d", "e", "l", "q"}
    assert lits(ext, "+", Mode.O) == {"~l", "p"}
    assert lits(ext, "+", Mode.P) == {"~l", "p"}
    assert {"l", "~p", "q", "~q"} <= lits(ext, "-", Mode.P)


def test_execution1_trace(load):
    for variant in Variant:
        ext = compute_extension(load("execution1"), variant)
        assert {"alpha", "beta", "zeta", "theta", "mu", "gamma"} <= rules_(
            ext, "+", Mode.C
        )
        assert {"nu", "kappa"} <= rules_(ext, "-", Mode.C)
        assert {"f1", "f2", "~a", "b"} <= lits(ext, "+", Mode.C)
        assert {"a", "b"} == lits(ext, "+", Mode.O)
        assert "c" in lits(ext, "-", Mode.O)


def test_execution2_cautious_and_simple(load):
    cautious = compute_extension(load("execution2"), Variant.CAUTIOUS)
    assert {"eta", "~zeta", "kappa"} <= rules_(cautious, "+", Mode.O)
    assert "theta" in rules_(cautious, "-", Mode.O)
    assert "theta" in rules_(cautious, "-", Mode.P)
    assert "mu" in rules_(cautious, "-", Mode.O)
    assert "~c" in lits(cautious, "+", Mode.C)
    assert "c" in lits(cautious, "+", Mode.O)
    simple = compute_extension(load("execution2"), Variant.SIMPLE)
    assert "~zeta" in rules_(simple, "-", Mode.O)


def test_example4_defeater_reinstates(load):
    ext = compute_extension(load("example4"), Variant.SIMPLE)
    assert "alpha" in rules_(ext, "+", Mode.C)
    assert "~eta" in rules_(ext, "-", Mode.C)
    assert "b" in lits(ext, "+", Mode.C)
    assert "~epsilon" in rules_(ext, "-", Mode.C)


def test_example4_label_mismatch_cannot_reinstate():
    # the reinstating conclusion names sigma, not alpha or epsilon, so the
    # simple variant cannot use it on alpha's behalf
    source = """
    fact a.
    beta: => C (alpha: a => C b).
    eta: => C c.
    gamma: c => C ~(epsilon: a => C b).
    nu: => C ~(sigma: a => C b).
    nu > gamma.
    """
    ext = compute_extension(parse_theory(source), Variant.SIMPLE)
    assert "alpha" in rules_(ext, "-", Mode.C)


def test_example4_cautious_reinstates_across_labels():
    # under the cautious reading any rule clashing with the attacker's
    # conclusion can defend, whatever label it concludes
    source = """
    fact a.
    beta: => C (alpha: a => C b).
    eta: => C c.
    lam: ~> C (sigma: a => C b).
    gamma: c => C ~(epsilon: a => C b).
    lam > gamma.
    """
    simple = compute_extension(parse_theory(source), Variant.SIMPLE)
    cautious = compute_extension(parse_theory(source), Variant.CAUTIOUS)
    assert "alpha" in rules_(simple, "-", Mode.C)
    assert "alpha" in rules_(cautious, "+", Mode.C)


def test_example6_simple_twin_permissions(load):
    ext = compute_extension(load("example6"), Variant.SIMPLE)
    assert {"alpha", "~alpha"} == rules_(ext, "+", Mode.P)
    assert {"alpha", "~alpha"} <= rules_(ext, "-", Mode.C)


def test_example8_both_conflicting_rules_proved(load):
    ext = compute_extension(load("example8"), Variant.CAUTIOUS)
    assert {"gamma", "zeta"} <= rules_(ext, "+", Mode.C)


def test_loop_is_undetermined(load):
    ext = compute_extension(load("loop"), Variant.CAUTIOUS)
    assert ext.undetermined == {(Mode.C, L("x"))}
    assert "x" in lits(ext, "-", Mode.O)
    assert "x" in lits(ext, "-", Mode.P)


def test_compensation_chain_fires_on_violation():
    source = """
    fact a.
    duty: a => O b * c.
    breach: a => C ~b.
    """
    ext = compute_extension(parse_theory(source), Variant.CAUTIOUS)
    assert {"b", "c"} <= lits(ext, "+", Mode.O)
    # complying instead stops the chain before the reparation
    ext2 = compute_extension(
        parse_theory("fact a. duty: a => O b * c. comply: a => C b."),
        Variant.CAUTIOUS,
    )
    assert "b" in lits(ext2, "+", Mode.O)
    assert "c" in lits(ext2, "-", Mode.O)


def test_obligation_of_rule_steps_chain_when_rule_absent(load):
    # the first chain element is an obliged rule that never enters the
    # system, which violates the obligation and activates the next element
    ext = compute_extension(load("execution2"), Variant.CAUTIOUS)
    assert "eta" in rules_(ext, "+", Mode.O)
    assert "eta" in rules_(ext, "-", Mode.C)
    assert "c" in lits(ext, "+", Mode.O)


# mu's chain waits on a violation that a loop leaves open; g's is complied
# with, so g's second position cannot attack z's conclusion
OPEN_AND_COMPLIED = """
fact f.
mu: f => O a * b.
loop: ~a => C ~a.
g: => O x * ~(r: => C y).
z: => O (r: => C y).
"""


def test_a_chain_position_waits_for_violation_and_falls_with_compliance():
    for variant in Variant:
        ext = compute_extension(parse_theory(OPEN_AND_COMPLIED), variant)
        assert {"a", "x"} <= lits(ext, "+", Mode.O), variant
        assert (Mode.O, L("b")) in ext.undetermined, variant
        assert "r" in rules_(ext, "+", Mode.O), variant
        # violating both obligations hands both chains over
        violated = parse_theory(OPEN_AND_COMPLIED + "fact ~a. fact ~x.")
        ext = compute_extension(violated, variant)
        assert "b" in lits(ext, "+", Mode.O), variant
        assert "r" in rules_(ext, "-", Mode.O), variant


# z defends r against w from its second position, which x's compliance
# takes out of force; r is examined again once O x is proved
COMPLIED_DEFENDER = """
s: => O (r: => C y).
w: => O ~(r: => C y).
z: => O x * (r: => C y).
z > w.
"""


def test_a_complied_chain_position_does_not_defend():
    for variant in Variant:
        ext = compute_extension(parse_theory(COMPLIED_DEFENDER), variant)
        assert "x" in lits(ext, "+", Mode.O), variant
        assert "r" in rules_(ext, "-", Mode.O), variant
        violated = parse_theory(COMPLIED_DEFENDER + "fact ~x.")
        assert "r" in rules_(compute_extension(violated, variant), "+", Mode.O), variant


def test_invalid_theory_is_rejected():
    theory = parse_theory("r: a => C b. r: a => C c.")
    with pytest.raises(ValueError, match="invalid theory"):
        compute_extension(theory, Variant.CAUTIOUS)


def test_query_outcomes(load):
    theory = load("execution1")
    assert query(theory, Variant.SIMPLE, parse_tagged_formula("+dO a")) == PROVED
    assert query(theory, Variant.SIMPLE, parse_tagged_formula("+dO c")) == REFUTED
    assert query(theory, Variant.SIMPLE, parse_tagged_formula("-dO c")) == PROVED
    assert query(theory, Variant.SIMPLE, parse_tagged_formula("+dmC nu")) == REFUTED
    assert (
        query(load("loop"), Variant.SIMPLE, parse_tagged_formula("+dC x"))
        == UNDETERMINED
    )
    assert (
        query(theory, Variant.SIMPLE, parse_tagged_formula("+dC ghost"))
        == UNKNOWN_SUBJECT
    )


def test_diff_variants_execution2(load):
    rows = diff_variants(load("execution2"))
    flagged = {(str(mode), str(subject)) for mode, _, subject, _, _ in rows}
    assert ("O", "~zeta") in flagged
    by_key = {(str(m), str(s)): (a, b) for m, _, s, a, b in rows}
    assert by_key[("O", "~zeta")] == (REFUTED, PROVED)


def test_diff_variants_empty_without_meta_rules(load):
    assert diff_variants(load("nometa")) == []


def test_diff_variants_twin_permissions(load):
    # permitting a rule and permitting its absence is fine in the simple
    # reading but a conflict in the cautious one, so the two permission
    # verdicts flip between the variants
    rows = diff_variants(load("example6"))
    by_key = {(str(m), str(s)): (a, b) for m, _, s, a, b in rows}
    assert by_key[("P", "alpha")] == (PROVED, REFUTED)
    assert by_key[("P", "~alpha")] == (PROVED, REFUTED)


def test_facts_and_top_rules_are_seeded(load):
    theory = load("execution2")
    for variant in Variant:
        ext = compute_extension(theory, variant)
        for fact in theory.facts:
            assert fact in ext.positive(Mode.C)
        for rule in theory.rules:
            assert RuleRef(rule.label) in ext.positive_rules(Mode.C)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_obligation_implies_permission(seed):
    theory = random_theory(seed, 50)
    for variant in Variant:
        ext = compute_extension(theory, variant)
        assert ext.positive(Mode.O) <= ext.positive(Mode.P)
        assert ext.positive_rules(Mode.O) <= ext.positive_rules(Mode.P)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_scan_order_does_not_change_the_extension(seed):
    theory = random_theory(seed, 45)
    baseline = compute_extension(theory, Variant.CAUTIOUS)
    for shuffle_seed in (1, 2):
        shuffled = run_engine(theory, Variant.CAUTIOUS, order_seed=shuffle_seed)
        assert shuffled.extension() == baseline


def test_iteration_count_is_bounded(load):
    # one pass decides everything; its work is bounded by the examinations
    for name in ("example3", "execution1", "execution2"):
        for variant in Variant:
            state = _Counted(load(name), variant)
            state.prepare()
            state.run()
            assert state.undecided and state.calls <= 2 * state.undecided, (name, variant)


def test_decided_and_undetermined_partition_the_base(load):
    theory = load("execution2")
    ext = compute_extension(theory, Variant.CAUTIOUS)
    decided = sum(len(s) for s in ext.literals.values()) + sum(
        len(s) for s in ext.rules.values()
    )
    assert decided + len(ext.undetermined) == 3 * len(herbrand_base(theory))


def _modal_base(theory) -> set:
    """The (mode, subject) pairs of the modal Herbrand base."""
    return {(mode, subject) for mode in Mode for subject in herbrand_base(theory)}


def _pair_order(pair):
    """Literals before rules, then name, positive first, then C/O/P."""
    mode, subject = pair
    meta = isinstance(subject, RuleRef)
    name = subject.label if meta else subject.atom
    return (meta, name, not subject.positive, "COP".index(str(mode)))


def _subject_id(state, mode, subject) -> int:
    """The id ``prepare`` gives a (mode, literal, rule expression or rule
    reference) pair, as the engine's module docstring defines it."""
    if isinstance(subject, Literal):
        b = 2 * state.atom_ids[subject.atom]
    else:
        b = state.n_lits + 2 * state.rule_ids[subject.label]
    return 3 * (b + (not subject.positive)) + "COP".index(str(mode))


def test_compile_numbers_the_modal_base_in_order():
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [(f"random/{seed}", random_theory(seed, 80)) for seed in range(20)]
    for name, theory in theories:
        for variant in Variant:
            state = EngineState(theory, variant)
            state.prepare()
            ids = {}
            for mode, subject in _modal_base(theory):
                pair = (mode, subject.ref if isinstance(subject, RuleExpression) else subject)
                ids[pair] = _subject_id(state, mode, subject)
            assert sorted(ids.values()) == list(range(len(ids))), name
            assert len(state.tag) == len(ids), name  # one byte per id
            for (mode, subject), s in ids.items():
                assert state.pair(s) == (mode, subject), name
                assert state.pair(complement_id(s)) == (mode, subject.complement()), name
            ordered = [state.pair(s) for s in sorted(ids.values())]
            assert ordered == sorted(ids, key=_pair_order), name


def test_concluded_expressions_clash_simply_with_their_content_negated():
    """The simple reading's attackers rest on this: in a valid theory every
    expression some chain concludes clashes, under ``conflicts``, with
    exactly the references of its content and the other polarity, and the
    engine's ``opposite`` lists the concluded ones among them, in id order."""
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [(f"random/{seed}", random_theory(seed, 80)) for seed in range(20)]
    for name, theory in theories:
        assert validate(theory).ok, name
        rules = [rule for _, rule in sorted(theory.rules_by_label().items())]
        exprs = [RuleExpression(rule, positive) for rule in rules for positive in (True, False)]
        concluded = {e for rule in rules for e in rule.consequent if isinstance(e, RuleExpression)}
        state = EngineState(theory, Variant.SIMPLE)
        state.prepare()
        for e in concluded:
            clashing = [x for x in exprs if conflicts(e, x, Variant.SIMPLE)]
            assert clashing == [
                x for x in exprs if x.positive != e.positive and x.rule.content == e.rule.content
            ], (name, e)
            k = _subject_id(state, Mode.C, e) // 3 - state.n_lits
            assert [state.base[x] for x in state.opposite[k]] == [
                x.ref for x in clashing if x in concluded
            ], (name, e)


# One meta-rule whose chain concludes a rule and its negation, so it
# clashes with itself (``conflicts``); it validates.
SELF_CLASHING = "fact a. fact b. r: a => O (s: b => C c) * ~(s: b => C c)."


def test_a_self_clashing_rule_keeps_its_self_edge_and_agrees_with_the_oracle():
    theory = parse_theory(SELF_CLASHING)
    assert validate(theory).ok
    r = theory.rules_by_label()["r"]
    for variant in Variant:
        assert conflicts(r, r, variant), variant
        conflicting, _ = build_conflict_index(number(theory), variant, {"r": 0, "s": 1})
        assert conflicting[0] == {0, 1}, variant  # r clashes with itself and its negation
        assert check_equivalence(theory, variant) == {}, variant


def _reference_tables(state) -> dict:
    """The tables ``prepare`` compiles, read off ``model.conditions`` and the
    rule chains: each condition filed under its subject id as (rule, first
    position, sign), per rule and position the conditions first applying
    there, the chain's subject ids and its rule-expression positions, and
    the supports of the given and concluded rules."""
    by_label = state.theory.rules_by_label()
    rules = [by_label[label] for label in state.labels]
    given = {rule.label for rule in state.theory.rules}
    concluded = {
        e.label
        for rule in rules
        for e in rule.consequent
        if isinstance(e, RuleExpression) and e.positive
    }
    out = {name: [] for name in ("live", "concludes", "expr_positions")}
    watch, supports = {}, {}
    for r, rule in enumerate(rules):
        elements = rule.consequent
        live = [0] * len(elements)
        for first, mode, subject, sign in conditions(rule):
            live[first - 1] += 1
            watch.setdefault(_subject_id(state, mode, subject), []).append((r, first, sign))
        chain = [_subject_id(state, rule.mode, e) for e in elements]
        out["live"].append(live)
        out["concludes"].append(tuple(chain))
        exprs = [(r, i) for i, e in enumerate(elements, 1) if isinstance(e, RuleExpression)]
        out["expr_positions"].append(exprs or ())
        if rule.label in given or rule.label in concluded:
            for pos, s in enumerate(chain, start=1):
                supports.setdefault(s, []).append((r, pos))
    return {**out, "watch": watch, "supports": supports}


def _assert_compiled_as_conditions_say(name, theory):
    for variant in Variant:
        state = EngineState(theory, variant)
        state.prepare()
        for table, expected in _reference_tables(state).items():
            assert getattr(state, table) == expected, (name, variant, table)


def test_compiled_tables_match_model_conditions():
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [(f"{family}/60", generate_theory(family, 60)) for family in FAMILIES]
    theories += [(f"random/{seed}", random_theory(seed, 60)) for seed in range(20)]
    theories.append(("self-clashing", parse_theory(SELF_CLASHING)))
    for name, theory in theories:
        _assert_compiled_as_conditions_say(name, theory)


@given(model_theories())
@settings(max_examples=200, deadline=None)
def test_compiled_tables_match_model_conditions_on_drawn_theories(theory):
    if validate(theory).ok:
        _assert_compiled_as_conditions_say("drawn", theory)


class _Recording(EngineState):
    """Logs each decision with the iteration that makes it (0 for the
    verdicts settled before the fixpoint) and each subject ``_decide`` is
    asked about, and keeps the store as the fixpoint first finds it."""

    def prepare(self) -> None:
        super().prepare()
        self.log = []
        self.asked = set()
        self.settled = None

    def run(self) -> None:
        super().run()
        if self.settled is None:  # the fixpoint had nothing to decide
            self.settled = bytes(self.tag)

    def _decide(self, s: int):
        if self.settled is None:  # the first question comes before any answer
            self.settled = bytes(self.tag)
        self.asked.add(s)
        return super()._decide(s)

    def _apply(self, s: int, positive: bool) -> None:
        self.log.append((self.iterations, s, positive))
        super()._apply(s, positive)


# P b has only a defeater and O b never settles, so P b is not settled
# before the fixpoint: it consults the defeater and waits for O b.
DEFEATER_ONLY = """
r0: => C c.
r1: c ~> P b.
r2: d => O b.
x: d => C d.
"""


def _settled_by_the_theory(theory, variant):
    """The verdicts due before any evidence, read from the theory alone, as
    (seeded, settled) dicts from (mode, subject) to the sign.  Seeded, all
    under C: facts and the given rules hold; the complements of facts and
    the expressions that clash with a given rule fail; holding wins where
    both apply.  Settled, besides: every pair that no defeasible supporter
    concludes fails, a P pair only when its O has none either.  A supporter
    is a rule that is given or whose positive expression some chain
    concludes."""
    by_label = theory.rules_by_label()
    given = {rule.label for rule in theory.rules}
    concluded = {
        e.rule.label
        for rule in by_label.values()
        for e in rule.consequent
        if isinstance(e, RuleExpression) and e.positive
    }
    supported = {
        (rule.mode, e.ref if isinstance(e, RuleExpression) else e)
        for rule in by_label.values()
        if rule.is_defeasible and (rule.label in given or rule.label in concluded)
        for e in rule.consequent
    }
    seeded = {(Mode.C, fact.complement()): False for fact in theory.facts}
    for rule in by_label.values():
        for positive in (True, False):
            expr = RuleExpression(rule, positive)
            if any(conflicts(g, expr, variant) for g in theory.rules):
                seeded[(Mode.C, expr.ref)] = False
    seeded.update({(Mode.C, fact): True for fact in theory.facts})
    seeded.update({(Mode.C, RuleRef(label)): True for label in given})
    settled = {}
    for mode, subject in _modal_base(theory):
        pair = (mode, subject.ref if isinstance(subject, RuleExpression) else subject)
        if pair not in supported and (mode is not Mode.P or (Mode.O, pair[1]) not in supported):
            settled[pair] = False
    settled.update(seeded)
    return seeded, settled


def _pool() -> list:
    """(name, theory): the fixtures, ``random_theory(seed, 80)`` for seeds
    0-19 and ``DEFEATER_ONLY``."""
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [(f"random/{seed}", random_theory(seed, 80)) for seed in range(20)]
    return theories + [("defeater-only", parse_theory(DEFEATER_ONLY))]


def _settled_runs(engine=None):
    """Per theory of ``_pool`` and variant: the run of ``engine``
    (``_Recording`` when None), its store as the first ``_decide`` call
    finds it, by pair, and the verdicts the theory seeds and settles."""
    for name, theory in _pool():
        for variant in Variant:
            state = (engine or _Recording)(theory, variant)
            state.prepare()
            state.run()
            store = {state.pair(s): byte == 1 for s, byte in enumerate(state.settled) if byte}
            yield (name, variant), state, store, *_settled_by_the_theory(theory, variant)


def test_seeded_and_settled_subjects_never_reach_decide():
    for where, state, store, seeded, settled in _settled_runs():
        assert {state.pair(s) for s in state.asked}.isdisjoint(settled), where


def test_settled_subjects_are_refuted_by_the_proof_conditions():
    for where, state, store, seeded, settled in _settled_runs():
        for mode, subject in settled.keys() - seeded.keys():
            assert state._decide(_subject_id(state, mode, subject)) is False, (where, mode, subject)


def test_the_settled_store_equals_the_verdicts_the_theory_settles():
    for where, state, store, seeded, settled in _settled_runs():
        assert store == settled, where


class _PermissionsLeftRefuted(_Recording):
    """A planted defect: ``prepare`` does not open the P after a supported O."""

    def prepare(self) -> None:
        super().prepare()
        for s in range(P, len(self.tag), 3):
            if not any(self.defeasible[r] for r, _ in self.supports.get(s, ())):
                self.tag[s] = 2


def test_a_permission_left_refuted_after_a_supported_obligation_is_caught():
    runs = _settled_runs(_PermissionsLeftRefuted)
    caught = [where for where, _, store, _, settled in runs if store != settled]
    assert ("defeater-only", Variant.SIMPLE) in caught
    assert ("defeater-only", Variant.CAUTIOUS) in caught


def _outcomes(ext) -> dict:
    """(mode, subject) -> Proved, Refuted or Undetermined, per extension."""
    out = {}
    for (sign, mode), subjects in list(ext.literals.items()) + list(ext.rules.items()):
        for subject in subjects:
            out[(mode, subject)] = PROVED if sign is Sign.PLUS else REFUTED
    for mode, subject in ext.undetermined:
        out[(mode, subject)] = UNDETERMINED
    return out


def test_diff_variants_equals_a_comparison_of_the_two_extensions():
    differing = 0
    for name, theory in _pool():
        left = _outcomes(compute_extension(theory, Variant.SIMPLE))
        right = _outcomes(compute_extension(theory, Variant.CAUTIOUS))
        rows = []
        for key in left.keys() | right.keys():
            a, b = left.get(key), right.get(key)
            if a != b:
                mode, subject = key
                rows.append((mode, isinstance(subject, RuleRef), subject, a, b))
        rows.sort(key=lambda r: (r[1], str(r[2]), "COP".index(str(r[0]))))
        assert diff_variants(theory) == rows, name
        differing += len(rows)
    assert differing  # the readings part on some of these theories


class _Checked(EngineState):
    """After each decision, compares every rule at every chain position with
    the oracle's reading of the same decisions."""

    def prepare(self) -> None:
        super().prepare()
        self.store = {}  # the decisions as the oracle's tag store
        self.rules = [self.theory.rules_by_label()[label] for label in self.labels]

    def _apply(self, s: int, positive: bool) -> None:
        super()._apply(s, positive)
        self.store[self.pair(s)] = positive
        for r, rule in enumerate(self.rules):
            for pos in range(1, len(rule.consequent) + 1):
                where = (self.pair(s), rule.label, pos)
                # applicable below the frontier, discarded from the cut on
                assert (pos < self.front[r]) == applicable(self.store, rule, pos), where
                assert (pos < self.cut[r]) != discarded(self.store, rule, pos), where


def test_rule_state_agrees_with_the_oracle_after_every_decision():
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [(f"random/{seed}", random_theory(seed, 80)) for seed in range(20)]
    theories += [(source, parse_theory(source)) for source in (OPEN_AND_COMPLIED, COMPLIED_DEFENDER)]
    for name, theory in theories:
        for variant in Variant:
            state = _Checked(theory, variant)
            state.prepare()
            state.run()
            assert state.store, (name, variant)


class _Builds(EngineState):
    """Counts, per ``_decide``, the attacker lists built for each team and
    the walks over each list built."""

    def prepare(self) -> None:
        super().prepare()
        self.most_builds = 0
        self.walked_twice = Counter()  # reading -> decisions walking one list twice

    def _decide(self, s: int):
        self.builds, self.walks = Counter(), Counter()
        cautious = s >= self.n_lit_ids and self.variant is Variant.CAUTIOUS
        self.reading = "cautious" if cautious else "team"
        verdict = super()._decide(s)
        self.most_builds = max(self.most_builds, *self.builds.values(), 0)
        for (reading, _), n in self.walks.items():
            self.walked_twice[reading] += n > 1
        return verdict

    def _attackers(self, s: int, team) -> list:
        if self.reading == "team":  # all supporters form one team
            self.builds[s] += 1
        return super()._attackers(s, team)

    def _cautious_attackers(self, s: int, team) -> list:
        self.builds[tuple(team)] += 1
        return super()._cautious_attackers(s, team)

    def _unbeaten(self, groups, *bars) -> bool:
        self.walks[(self.reading, id(groups))] += 1
        return super()._unbeaten(groups, *bars)


def test_each_team_builds_its_attacker_list_at_most_once_per_decision():
    walked_twice = Counter()
    for name, theory in _pool():
        for variant in Variant:
            state = _Builds(theory, variant)
            state.prepare()
            state.run()
            assert state.most_builds <= 1, (name, variant)
            walked_twice += state.walked_twice
    # decisions that read one list for proof and refutation under both
    # kinds of team, where a list built per reading would be built twice
    assert walked_twice["team"] and walked_twice["cautious"], walked_twice


class _Counted(EngineState):
    """Counts the ``_decide`` calls, and logs each decision made when a
    subject is examined again, after a wake."""

    def prepare(self) -> None:
        super().prepare()
        self.undecided = self.tag.count(0)  # what the pass has to decide
        self.calls = 0
        self.examined = set()
        self.woken_log = []

    def _decide(self, s: int):
        self.calls += 1
        verdict = super()._decide(s)
        if s in self.examined and verdict is not None:
            self.woken_log.append((s, verdict))
        self.examined.add(s)
        return verdict


# O d waits on its one supporter, ``rep`` at 2, which needs b violated;
# C ~b is refuted only once s1 applies, after O d was first examined, and
# that cuts ``rep`` at 2, so O d fails when the cut wakes it.
LATE_CUT = """
fact a.
rep: a => O b * d.
r1: a => C x.
r2: x => C y.
s1: y => C b.
s2: a => C ~b.
s1 > s2.
"""


def test_worklist_examines_each_subject_at_most_twice():
    unattacked = ("chain", "meta-chain", "reparation")
    families = unattacked + ("clash", "random")
    theories = [(family, generate_theory(family, 300)) for family in families]
    theories.append(("late-cut", parse_theory(LATE_CUT)))
    for name, theory in theories:
        for variant in Variant:
            state = _Counted(theory, variant)
            state.prepare()
            state.run()
            where = (name, variant)
            assert state.undecided and state.calls <= 2 * state.undecided, where
            assert state.extension() == oracle_extension(theory, variant, budget=None), where
            if name in unattacked:
                # no attackers: a subject that cannot decide yet waits on its
                # supporters alone and leaves nothing in ``deps``
                assert not state.deps, where


# One cut wakes O b2 ... O b6 at once: C ~b1 is refuted only once s1
# applies, at the end of a chain that no first examination climbs, and
# that cuts ``rep`` from 2 on, where O b2 ... O b6 were parked.
WOKEN_TOGETHER = """
fact a. fact ~b2. fact ~b3. fact ~b4. fact ~b5.
rep: a => O b1 * b2 * b3 * b4 * b5 * b6.
r1: a => C x1.
r2: x1 => C x2.
r3: x2 => C x3.
r4: x3 => C x4.
r5: x4 => C x5.
r6: x5 => C x6.
s1: x6 => C b1.
s2: a => C ~b1.
s1 > s2.
"""


def _shuffled_runs(theory, variant):
    runs = []
    for order_seed in (1, 2):
        state = _Counted(theory, variant, order_seed=order_seed)
        state.prepare()
        state.run()
        runs.append(state)
    assert runs[0].extension() == runs[1].extension()
    return runs


def test_order_seed_shuffles_the_woken_subjects_too():
    differ = []
    for seed in range(20):
        first, second = _shuffled_runs(random_theory(seed, 60), Variant.CAUTIOUS)
        if first.woken_log != second.woken_log:
            differ.append(seed)
    # the decisions made on a wake come in another order on some theory
    assert differ
    # and so do the subjects that one decision wakes together
    for variant in Variant:
        first, second = (
            [s for s, _ in state.woken_log if s % 3 == 1]  # O b2 ... O b6
            for state in _shuffled_runs(parse_theory(WOKEN_TOGETHER), variant)
        )
        assert len(first) == 5 and sorted(first) == sorted(second)
        assert first != second, variant


def _fails(item, ext) -> bool:
    """Whether the extension decides an antecedent item against it."""
    if isinstance(item, Literal):
        return item in ext.negative(Mode.C)
    if isinstance(item, ModalLiteral):
        table = ext.positive(item.mode) if item.negated else ext.negative(item.mode)
        return item.inner in table
    if isinstance(item, RuleExpression):
        return item.ref in ext.negative_rules(Mode.C)
    table = ext.positive_rules(item.mode) if item.negated else ext.negative_rules(item.mode)
    return item.expr.ref in table


def test_state_counts_agree_with_the_extension():
    # the per-layer counters of perfbench/spans.py read these len() values
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [(f"random/{seed}", random_theory(seed, 80)) for seed in range(20)]
    for name, theory in theories:
        for variant in Variant:
            state = EngineState(theory, variant)
            state.prepare()
            state.run()
            ext = state.extension()
            assert len(state.lit_tags) == sum(map(len, ext.literals.values())), name
            assert len(state.rule_tags) == sum(map(len, ext.rules.values())), name
            assert len(state.mhb) == len(ext.undetermined), name
            # a rule dies when its rule is refuted or an antecedent item fails
            killed = {
                label
                for label, rule in theory.rules_by_label().items()
                if RuleRef(label) in ext.negative_rules(Mode.C)
                or any(_fails(item, ext) for item in rule.antecedent)
            }
            assert {state.labels[r] for r in state.dead} == killed, (name, variant)
