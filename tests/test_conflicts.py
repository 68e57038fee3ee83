from __future__ import annotations

import itertools
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmr.conflicts import (
    Variant,
    _recursive_chain_clash,
    build_conflict_index,
    chain_clash_keys,
    conflicts,
)
from ddmr.generate import FAMILIES, generate_theory, random_theory
from ddmr.model import (
    Arrow,
    Literal,
    ModalLiteral,
    Mode,
    Rule,
    RuleExpression,
    Theory,
    number,
    validate,
)
from ddmr.oracle import check_equivalence
from ddmr.text import parse_theory

from .conftest import FIXTURES, load_fixture
from .strategies import any_rules


def rule(label, items, mode, chain, arrow=Arrow.DEFEASIBLE):
    elems = tuple(Literal(c) if isinstance(c, str) else c for c in chain)
    return Rule(label, frozenset(items), arrow, mode, elems)


a, b, c, d = (Literal(x) for x in "abcd")
nb, nd = b.complement(), d.complement()


def neg(r: Rule) -> RuleExpression:
    return RuleExpression(r, False)


def test_ddmr_conflicts_names_the_module():
    import ddmr.conflicts as m
    from ddmr import conflicts as n

    assert isinstance(m, types.ModuleType)
    assert n is m
    assert m.conflicts is conflicts


def test_simple_conflict_same_label():
    r = rule("alpha", [a], Mode.C, [b])
    assert conflicts(r, neg(r), Variant.SIMPLE)


def test_simple_conflict_across_labels_with_modal_antecedent():
    items = [a, ModalLiteral(Mode.O, b)]
    r1 = rule("beta", items, Mode.P, [c])
    r2 = rule("gamma", items, Mode.P, [c])
    assert conflicts(r1, neg(r2), Variant.SIMPLE)


def test_simple_conflict_through_meta_chains():
    zeta = rule("zeta", [c], Mode.C, [d])
    theta = rule("theta", [c], Mode.C, [d])
    eps = rule("eps", [a], Mode.O, [a, RuleExpression(zeta, True)])
    eta = rule("eta", [b], Mode.O, [a, neg(theta)])
    assert conflicts(eps, eta, Variant.SIMPLE)


def test_no_simple_conflict_between_identical_rules():
    r = rule("alpha", [a], Mode.C, [b])
    assert not conflicts(r, rule("alpha", [a], Mode.C, [b]), Variant.SIMPLE)


def test_cautious_primary_obligations_incompatible():
    r1 = rule("alpha", [a], Mode.O, [b, c])
    r2 = rule("beta", [a], Mode.O, [nb, d])
    assert conflicts(r1, r2, Variant.CAUTIOUS)


def test_cautious_compatible_primary_obligations_do_not_conflict():
    r1 = rule("alpha", [a], Mode.O, [b, d])
    r2 = rule("beta", [a], Mode.O, [c, nd])
    assert not conflicts(r1, r2, Variant.CAUTIOUS)


def test_cautious_proper_prefix_chains_conflict():
    r1 = rule("alpha", [a], Mode.O, [b])
    r2 = rule("beta", [a], Mode.O, [b, d])
    assert conflicts(r1, r2, Variant.CAUTIOUS)
    assert conflicts(r2, r1, Variant.CAUTIOUS)


def test_cautious_inconsistent_compensations_conflict():
    r1 = rule("alpha", [a], Mode.O, [b, d])
    r2 = rule("beta", [a], Mode.O, [b, nd])
    assert conflicts(r1, r2, Variant.CAUTIOUS)


def test_cautious_diverging_compensations_do_not_conflict():
    r1 = rule("alpha", [a], Mode.O, [b, c])
    r2 = rule("beta", [a], Mode.O, [b, nd])
    assert not conflicts(r1, r2, Variant.CAUTIOUS)


def test_cautious_obligation_against_permission():
    r1 = rule("alpha", [a], Mode.O, [b])
    r2 = rule("beta", [a], Mode.P, [nb])
    assert conflicts(r1, r2, Variant.CAUTIOUS)


def test_literal_vs_rule_expression_elements_never_conflict():
    inner = rule("inner", [a], Mode.C, [b])
    m1 = rule("m1", [], Mode.O, [b, RuleExpression(inner, True)])
    m2 = rule("m2", [], Mode.O, [nb])
    # conflicting literal heads need equal antecedents, not element pairing
    assert conflicts(m1, m2, Variant.CAUTIOUS)
    m3 = rule("m3", [c], Mode.O, [nb])
    assert not conflicts(m1, m3, Variant.CAUTIOUS)


def _enumerated_rules():
    """A bounded systematic pool: antecedents up to two items, chains up to
    length three, every mode and arrow."""
    pool = []
    antecedents = [frozenset(), frozenset([a]), frozenset([a, ModalLiteral(Mode.O, b)])]
    heads = [c, c.complement(), d]
    label = itertools.count()
    for items in antecedents:
        for mode in Mode:
            for arrow in Arrow:
                for head in heads:
                    pool.append(Rule(f"e{next(label)}", items, arrow, mode, (head,)))
            for chain in itertools.permutations(heads, 2):
                pool.append(Rule(f"e{next(label)}", items, Arrow.DEFEASIBLE, Mode.O, chain))
            pool.append(
                Rule(f"e{next(label)}", items, Arrow.DEFEASIBLE, Mode.O, tuple(heads))
            )
    return pool


def test_simple_conflicts_imply_cautious_exhaustively():
    pool = _enumerated_rules()
    wrapped = [
        Rule(f"w{i}", frozenset(), Arrow.DEFEASIBLE, Mode.C, (RuleExpression(r, pos),))
        for i, (r, pos) in enumerate(
            (r, pos) for r in pool[:30] for pos in (True, False)
        )
    ]
    everything = pool + wrapped
    for x in everything:
        for y in everything:
            if conflicts(x, y, Variant.SIMPLE):
                assert conflicts(x, y, Variant.CAUTIOUS), (x, y)


@given(any_rules, any_rules)
@settings(max_examples=300)
def test_conflicts_symmetric_and_subsuming(x, y):
    assert conflicts(x, y, Variant.SIMPLE) == conflicts(y, x, Variant.SIMPLE)
    assert conflicts(x, y, Variant.CAUTIOUS) == conflicts(y, x, Variant.CAUTIOUS)
    if conflicts(x, y, Variant.SIMPLE):
        assert conflicts(x, y, Variant.CAUTIOUS)


@given(any_rules)
def test_no_rule_conflicts_with_itself(x):
    # the one exception: a reparation chain carrying two expressions that
    # clash with each other makes its rule self-conflicting
    internal = any(
        conflicts(e1, e2, variant)
        for variant in Variant
        for i, e1 in enumerate(x.consequent)
        for e2 in x.consequent[i + 1 :]
        if isinstance(e1, RuleExpression) and isinstance(e2, RuleExpression)
    )
    if not internal:
        assert not conflicts(x, x, Variant.SIMPLE)
        assert not conflicts(x, x, Variant.CAUTIOUS)


def test_chain_internal_clash_makes_a_rule_self_conflicting():
    r3 = rule("r3", [a], Mode.C, [b], arrow=Arrow.DEFEATER)
    twin = rule("t4", [a], Mode.C, [b], arrow=Arrow.DEFEATER)
    m = rule("m5", [], Mode.O, [neg(r3), RuleExpression(twin, True)])
    assert conflicts(m, m, Variant.SIMPLE)
    assert conflicts(m, m, Variant.CAUTIOUS)


def _assert_rules_read_as_positive_expressions(theory):
    rules = list(theory.rules_by_label().values())
    for variant in Variant:
        for x, y in itertools.product(rules, repeat=2):
            forms = itertools.product((x, RuleExpression(x, True)), (y, RuleExpression(y, True)))
            answers = {
                conflicts(u, v, variant) for pair in forms for u, v in (pair, pair[::-1])
            }
            assert len(answers) == 1, (x.label, y.label, variant)


@pytest.mark.parametrize("name", sorted(path.stem for path in FIXTURES.glob("*.ddl")))
def test_a_rule_conflicts_as_its_positive_expression_on_fixtures(name):
    _assert_rules_read_as_positive_expressions(load_fixture(name))


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=80))
@settings(max_examples=25, deadline=None)
def test_a_rule_conflicts_as_its_positive_expression_on_random_theories(seed, size):
    _assert_rules_read_as_positive_expressions(random_theory(seed, size))


def test_conflicts_depend_only_on_the_content_group():
    # ``conflicts`` reads a rule's content and polarity, never its own label,
    # so a rule may stand for every rule of its content group
    theories = [(p.stem, load_fixture(p.stem)) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [(family, generate_theory(family, 60, 0)) for family in FAMILIES]
    theories += [(f"random/{seed}", random_theory(seed, 60)) for seed in range(20)]
    theories.append(("clash/122", generate_theory("clash", 122)))  # 12 pairs
    for name, theory in theories:
        _, rules, _, groups = number(theory)
        first: dict = {}  # content group -> its first rule in label order
        reps = [first.setdefault(group, x) for x, group in zip(rules, groups)]
        refs = [
            (RuleExpression(x, positive), RuleExpression(rep, positive))
            for x, rep in zip(rules, reps)
            for positive in (True, False)
        ]
        for variant in Variant:
            for (x, rep_x), (y, rep_y) in itertools.product(refs, repeat=2):
                expected = conflicts(rep_x, rep_y, variant)
                assert conflicts(x, y, variant) == expected, (name, variant, x.ref, y.ref)


def _assert_chain_clashes_share_a_key(x: Rule, y: Rule) -> bool:
    """Whether ``x`` and ``y`` chain-clash under some variant; when they do,
    they share a ``chain_clash_keys`` key under it."""
    clashed = False
    for variant in Variant:
        if _recursive_chain_clash(x, y, variant):
            clashed = True
            shared = chain_clash_keys(x, variant) & chain_clash_keys(y, variant)
            assert shared, (variant, x, y)
    return clashed


def test_chain_clashes_share_a_key_on_pool_theories():
    theories = [load_fixture(p.stem) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [generate_theory(family, 60, 0) for family in FAMILIES]
    theories += [random_theory(seed, 60) for seed in range(20)]
    theories.append(generate_theory("clash", 122))
    # chains that clash only through the chains of the rules they nest
    theories.append(
        parse_theory(
            "m1: a => C (q: => O y * (t: => C x)).\n"
            "m2: b => C (q2: => O z * ~(t: => C x))."
        )
    )
    clashes = 0
    for theory in theories:
        rules = number(theory).rules
        for x, y in itertools.product(rules, repeat=2):
            clashes += _assert_chain_clashes_share_a_key(x, y)
    assert clashes > 100


@given(any_rules, any_rules)
@settings(max_examples=300)
def test_chain_clashes_share_a_key(x, y):
    _assert_chain_clashes_share_a_key(x, y)


def _compile(theory, variant):
    """The compiled conflict tables, with ids decoded through the sorted labels.

    Returns the clash relation and the producers, both keyed by
    (label, positive), and the content group of each label (``model.number``).
    """
    numbering = number(theory)
    labels = numbering.labels
    tables = build_conflict_index(numbering, variant, {label: r for r, label in enumerate(labels)})

    def ref(k):
        return labels[k >> 1], not k & 1

    conflicting = {
        ref(k): {ref(x) for x in tables.conflicting[k]} for k in range(2 * len(labels))
    }
    producers = {
        ref(k): {(labels[r], pos) for r, pos in entries}
        for k, entries in enumerate(tables.producers)
    }
    groups = dict(zip(labels, numbering.groups))
    return conflicting, producers, groups


def _rule_level(conflicting, label) -> set:
    """Labels of rules clashing with the positive rule ``label``."""
    return {other for other, positive in conflicting[(label, True)] if positive}


def _rules_of_modes(conflicting, by_label, label, modes) -> set:
    """Rules clashing with ``label`` whose mode is one of ``modes``."""
    return {g for g in _rule_level(conflicting, label) if by_label[g].mode in modes}


def _producer_labels(producers, label) -> set:
    return {who for who, _ in producers[(label, True)]}


def test_index_no_meta_rules_is_empty():
    theory = load_fixture("example1")
    for variant in Variant:
        conflicting, producers, _ = _compile(theory, variant)
        for label in theory.rules_by_label():
            assert _producer_labels(producers, label) == set()
            assert _rule_level(conflicting, label) == set()


def test_index_execution2_opposition_and_support():
    theory = load_fixture("execution2")
    by_label = theory.rules_by_label()
    conflicting, _, _ = _compile(theory, Variant.CAUTIOUS)
    opposers = _rules_of_modes(conflicting, by_label, "alpha", (Mode.O, Mode.P))
    assert opposers == {"beta", "lam"}
    supporters = {
        z
        for g in opposers
        for z in _rules_of_modes(conflicting, by_label, g, (Mode.O,))
        if z != "alpha"
    }
    assert supporters == {"gamma"}
    simple, _, _ = _compile(theory, Variant.SIMPLE)
    assert "beta" not in _rules_of_modes(simple, by_label, "alpha", (Mode.O, Mode.P))


def test_index_producers_of_rule_expressions():
    theory = load_fixture("execution1")
    _, producers, _ = _compile(theory, Variant.CAUTIOUS)
    assert _producer_labels(producers, "gamma") == {"beta"}
    assert _producer_labels(producers, "kappa") == {"zeta"}
    assert _producer_labels(producers, "nu") == set()


def _assert_index_matches_pairwise(theory):
    by_label = theory.rules_by_label()
    labels = sorted(by_label)
    for variant in Variant:
        conflicting, _, groups = _compile(theory, variant)
        for la in labels:
            for lb in labels:
                same = by_label[la].content == by_label[lb].content
                assert (groups[la] == groups[lb]) == same, (la, lb)
                for pa in (True, False):
                    for pb in (True, False):
                        expected = conflicts(
                            RuleExpression(by_label[la], pa),
                            RuleExpression(by_label[lb], pb),
                            variant,
                        )
                        got = (lb, pb) in conflicting[(la, pa)]
                        assert got == expected, (variant, la, pa, lb, pb)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=60, deadline=None)
def test_index_matches_pairwise_predicates(seed):
    _assert_index_matches_pairwise(random_theory(seed, 40))


def test_index_matches_pairwise_predicates_at_bucket_edges():
    # The cautious index buckets rules by antecedent, arrow and head (atom
    # of a literal, content of a rule expression); each group below sits on
    # one edge of that key.
    inner = rule("s1", [c], Mode.C, [d])
    twin = rule("t1", [c], Mode.C, [d])  # content twin of s1 under another label
    pos, neg_twin = RuleExpression(inner, True), neg(twin)
    rules = [
        # same antecedent and head atom, different arrows
        rule("arrow1", [a], Mode.O, [b]),
        rule("arrow2", [a], Mode.O, [nb], arrow=Arrow.DEFEATER),
        rule("arrow3", [a], Mode.P, [nb]),
        # rule-expression heads that are content twins under different labels
        rule("rex1", [b], Mode.C, [pos]),
        rule("rex2", [b], Mode.C, [neg_twin]),
        rule("rex3", [b], Mode.O, [RuleExpression(twin, True), c]),
        rule("rex4", [b], Mode.O, [pos, c.complement()]),
        rule("rex5", [b], Mode.O, [pos, c]),
        # chains with equal, complementary and unrelated first elements
        rule("chain1", [d], Mode.O, [b, c]),
        rule("chain2", [d], Mode.O, [b, c.complement()]),
        rule("chain3", [d], Mode.O, [nb, c]),
        rule("chain4", [d], Mode.O, [c, b]),
        rule("chain5", [d], Mode.O, [b]),
        # a literal head and a rule-expression head under one antecedent
        rule("mixed1", [c], Mode.O, [d]),
        rule("mixed2", [c], Mode.O, [pos]),
    ]
    theory = Theory.build([], rules)
    _assert_index_matches_pairwise(theory)
    cautious, _, _ = _compile(theory, Variant.CAUTIOUS)
    clashes = {frozenset((r.label, y)) for r in rules for y in _rule_level(cautious, r.label)}
    assert clashes == {
        frozenset(p)
        for p in (
            ("arrow1", "arrow3"),
            ("rex1", "rex2"),
            ("rex4", "rex5"),
            # rex2's head negates the content every other rex head carries,
            # so it clashes through the chains whatever the antecedent
            ("rex2", "rex3"),
            ("rex2", "rex4"),
            ("rex2", "rex5"),
            ("rex2", "mixed2"),
            ("chain1", "chain2"),
            ("chain1", "chain3"),
            ("chain2", "chain3"),
            ("chain1", "chain5"),
            ("chain2", "chain5"),
            ("chain3", "chain5"),
        )
    }


# Shapes the index files per content group and polarity (``Clashes``):
# twins concluded under both polarities, whose concluders clash across the
# polarities; a given rule whose twin a meta-rule concludes negated, which
# seeding refutes; and a meta-rule whose chain concludes a rule and the
# negation of its twin, so it clashes with itself.
PER_CLASS = {
    "twins-both-polarities": """fact a. fact b.
        m1: a => C (s1: b => C c). m2: a => C ~(s2: b => C c).
        m3: a => C (s2: b => C c). m4: a => C ~(s1: b => C c).
        m2 > m1. s1 > s2.""",
    "given-twin-negated": """fact a. fact b.
        g: b => C c. m: a => C ~(t: b => C c). n: a => C (t: b => C c). m > n.""",
    "self-clash-through-a-twin": """fact a. fact b.
        r: a => O (s: b => C c) * ~(t: b => C c). q: a => C (s: b => C c). r > q.""",
}


@pytest.mark.parametrize("name", sorted(PER_CLASS))
def test_per_class_shapes_match_the_pairwise_predicates_and_the_oracle(name):
    theory = parse_theory(PER_CLASS[name])
    assert validate(theory).ok
    _assert_index_matches_pairwise(theory)
    for variant in Variant:
        assert check_equivalence(theory, variant) == {}, variant


def test_per_class_shapes_keep_their_cross_class_clashes():
    expected = {
        "twins-both-polarities": {("m1", "m2"), ("m1", "m4"), ("m2", "m3"), ("m3", "m4")},
        "given-twin-negated": {("m", "n")},
        "self-clash-through-a-twin": {("q", "r"), ("r", "r")},
    }
    for name, pairs in expected.items():
        theory = parse_theory(PER_CLASS[name])
        for variant in Variant:
            conflicting, _, _ = _compile(theory, variant)
            found = {
                tuple(sorted((label, other)))
                for label in theory.rules_by_label()
                for other in _rule_level(conflicting, label)
            }
            assert found == pairs, (name, variant)


def test_the_conflict_view_reads_as_a_mapping_over_every_reference():
    theory = parse_theory(PER_CLASS["twins-both-polarities"])
    numbering = number(theory)
    labels = numbering.labels
    for variant in Variant:
        view = build_conflict_index(numbering, variant, {x: r for r, x in enumerate(labels)})[0]
        assert len(view) == 2 * len(labels) and list(view) == list(range(2 * len(labels)))
        assert dict(view.items()) == {k: view[k] for k in view}
        for k in (-1, 2 * len(labels)):
            assert k not in view and view.get(k) is None
        # s1 and s2 are twins, so each clashes with the other's negation
        s1, s2 = labels.index("s1"), labels.index("s2")
        assert view[2 * s1] == {2 * s1 + 1, 2 * s2 + 1}
        assert view[2 * s2 + 1] == {2 * s1, 2 * s2}


def test_index_independent_of_rule_order():
    theory = load_fixture("execution2")
    reversed_theory = Theory.build(
        theory.facts, tuple(reversed(theory.rules)), theory.superiority
    )
    for variant in Variant:
        assert _compile(theory, variant) == _compile(reversed_theory, variant)
