from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmr.conflicts import Variant, conflicts
from ddmr.engine import compute_extension, run_engine
from ddmr.extension import TAG_PROVED, TAG_REFUTED, Extension
from ddmr.generate import generate_theory, random_theory
from ddmr.model import (
    Arrow,
    DeonticRuleExpression,
    MAX_NESTING,
    Literal,
    ModalLiteral,
    Mode,
    Rule,
    RuleExpression,
    RuleRef,
    Sign,
    Theory,
    extended_superiority,
    herbrand_base,
    theory_size,
    validate,
)
from ddmr.oracle import DEFAULT_BUDGET, _Evaluator, check_equivalence, oracle_extension, step
from ddmr.text import parse_theory, render_theory

from .strategies import (
    any_rules,
    literals,
    loose_theories,
    modal_literals,
    model_theories,
    rule_expressions,
)

from .conftest import FIXTURES, load_fixture


def rule(label, items, mode, chain, arrow=Arrow.DEFEASIBLE):
    return Rule(label, frozenset(items), arrow, mode, tuple(chain))


a, b, l = Literal("a"), Literal("b"), Literal("l")


def test_complement_flips_polarity():
    assert Literal("p").complement() == Literal("p", False)
    assert Literal("p", False).complement() == Literal("p")
    inner = rule("alpha", [a], Mode.C, [b])
    assert RuleExpression(inner, False).complement() == RuleExpression(inner, True)


@given(st.one_of(literals, modal_literals, rule_expressions()))
def test_complement_is_an_involution(x):
    assert x.complement().complement() == x


def test_content_equal_ignores_labels_and_antecedent_order():
    r1 = rule("alpha", [a, b], Mode.C, [l])
    r2 = rule("phi", [b, a], Mode.C, [l])
    assert r1.content == r2.content


def test_content_equal_chain_order_matters():
    c1 = rule("alpha", [a], Mode.O, [b, Literal("c")])
    c2 = rule("beta", [a], Mode.O, [Literal("c"), b])
    assert c1.content != c2.content


def test_content_equal_with_modal_antecedents_across_labels():
    items = [a, ModalLiteral(Mode.O, b)]
    r1 = rule("beta", items, Mode.P, [Literal("c")])
    r2 = rule("gamma", items, Mode.P, [Literal("c")])
    assert r1.content == r2.content


def test_content_equal_keeps_nested_labels():
    inner1 = rule("gamma", [a], Mode.C, [b])
    inner2 = rule("delta", [a], Mode.C, [b])
    m1 = rule("m1", [l], Mode.C, [RuleExpression(inner1, True)])
    m2 = rule("m2", [l], Mode.C, [RuleExpression(inner2, True)])
    assert inner1.content == inner2.content
    assert m1.content != m2.content
    assert not conflicts(m1, RuleExpression(m2, False), Variant.SIMPLE)
    relabelled = rule("m3", [l], Mode.C, [RuleExpression(inner1, True)])
    assert m1.content == relabelled.content
    assert conflicts(m1, RuleExpression(relabelled, False), Variant.SIMPLE)


@given(any_rules, any_rules, any_rules)
def test_content_equal_is_an_equivalence(x, y, z):
    assert x.content == x.content
    assert x.content == dataclasses.replace(x, label="fresh").content
    assert (x.content == y.content) == (y.content == x.content)
    if x.content == y.content and y.content == z.content:
        assert x.content == z.content


def test_herbrand_base_empty_theory():
    assert herbrand_base(Theory.build()) == set()
    assert compute_extension(Theory.build()).counts() == (0, 0)  # an empty modal base


def test_herbrand_base_of_single_meta_rule():
    theory = parse_theory("beta: f2 => C (gamma: ~f1 => C a).")
    base = herbrand_base(theory)
    lits = {s for s in base if isinstance(s, Literal)}
    refs = {
        RuleRef(s.rule.label, s.positive) for s in base if isinstance(s, RuleExpression)
    }
    assert lits == {
        Literal("f1"),
        Literal("f1", False),
        Literal("f2"),
        Literal("f2", False),
        Literal("a"),
        Literal("a", False),
    }
    assert refs == {
        RuleRef("beta", True),
        RuleRef("beta", False),
        RuleRef("gamma", True),
        RuleRef("gamma", False),
    }


def test_herbrand_base_closed_under_complement_and_mhb_cardinality():
    theory = load_fixture("execution1")
    base = herbrand_base(theory)
    for subject in base:
        assert subject.complement() in base
    assert sum(compute_extension(theory).counts()) == 3 * len(base)  # the modal base


def test_theory_size_worked_example():
    source = """
    fact a. fact b. fact c.
    alpha: a => O d.
    beta: b => C ~d.
    gamma: c => C (zeta: a => C d).
    zeta > beta.
    """
    assert theory_size(parse_theory(source)) == 16


def test_theory_size_trivial():
    assert theory_size(Theory.build()) == 0
    assert theory_size(Theory.build([a])) == 1


def test_theory_size_additive_over_disjoint_parts():
    t1 = parse_theory("fact a. r1: a => C b.")
    t2 = parse_theory("fact c. r2: c => O d * e.")
    merged = Theory.build(
        t1.facts | t2.facts, t1.rules + t2.rules, t1.superiority | t2.superiority
    )
    assert theory_size(merged) == theory_size(t1) + theory_size(t2)


def test_extended_superiority_without_meta_rules():
    theory = load_fixture("example1")
    assert extended_superiority(theory) == set(theory.superiority)
    assert extended_superiority(Theory.build()) == set()


def test_extended_superiority_inherits_from_concluded_rules():
    theory = load_fixture("example8")
    extra = extended_superiority(theory) - set(theory.superiority)
    assert ("beta1", "alpha1") in extra
    assert ("beta2", "alpha1") in extra
    assert ("beta2", "alpha2") in extra
    # the inherited pairs close a cycle with alpha1 > beta1
    assert ("alpha1", "beta1") in extended_superiority(theory)


def _concluded_labels(rule):
    """Labels of the rules a meta-rule concludes, under negation too."""
    return [e.rule.label for e in rule.consequent if isinstance(e, RuleExpression)]


def _pairwise_extended_superiority(t):
    """The all-pairs definition of extended superiority, as a reference."""
    sup = set(t.superiority)
    rules = [r for r in t.rules_by_label().values() if _concluded_labels(r)]
    for x in rules:
        for y in rules:
            if x.label == y.label or (x.label, y.label) in sup:
                continue
            for u in _concluded_labels(x):
                if any((u, v) in sup for v in _concluded_labels(y)):
                    sup.add((x.label, y.label))
                    break
    return sup


def test_extended_superiority_matches_pairwise_definition():
    theories = [load_fixture(path.stem) for path in sorted(FIXTURES.glob("*.ddl"))]
    theories += [generate_theory("meta-chain", size) for size in (50, 400)]
    theories += [
        random_theory(seed, size, acyclic=acyclic)
        for seed in range(25)
        for size in (60, 300)
        for acyclic in (False, True)
    ]
    inherited = 0
    for theory in theories:
        expected = _pairwise_extended_superiority(theory)
        assert extended_superiority(theory) == expected
        inherited += len(expected - theory.superiority)
    assert inherited  # the sample exercises inheritance, not just copying


def test_extended_superiority_is_superset():
    theory = load_fixture("execution2")
    assert extended_superiority(theory) >= set(theory.superiority)


def test_validate_clean_fixture():
    report = validate(load_fixture("example1"))
    assert report.ok and not report.warnings


def test_validate_modal_fact_is_an_error():
    bad = Theory.build([ModalLiteral(Mode.O, a)], [])
    report = validate(bad)
    assert any("not a plain literal" in e for e in report.errors)
    # complementary modal facts are two errors, not contradictory facts
    report = validate(Theory.build([ModalLiteral(Mode.O, a), ModalLiteral(Mode.O, a, True)], []))
    assert len(report.errors) == 2 and not report.warnings


def test_a_theory_takes_only_rules():
    with pytest.raises(ValueError, match="theories take rules"):
        Theory.build([], [a])


def test_validate_duplicate_label_with_different_content():
    r1 = rule("alpha", [a], Mode.C, [b])
    r2 = rule("alpha", [b], Mode.C, [a])
    report = validate(Theory.build([], [r1, r2]))
    assert any("different content" in e for e in report.errors)


def test_validate_duplicate_chain_elements():
    bad = rule("alpha", [a], Mode.O, [b, b])
    report = validate(Theory.build([], [bad]))
    assert any("duplicate chain elements" in e for e in report.errors)


def test_validate_unknown_superiority_label():
    report = validate(Theory.build([], [rule("alpha", [a], Mode.C, [b])], [("alpha", "ghost")]))
    assert any("unknown rule label" in e for e in report.errors)


@pytest.mark.parametrize(
    "labels, superiority, errors",
    [
        (["r"], [("r",)], ["superiority entry ('r',) is not a pair of rule labels"]),
        (
            ["r"],
            [("r", "r", "r")],
            ["superiority entry ('r', 'r', 'r') is not a pair of rule labels"],
        ),
        (["r"], [None], ["superiority entry None is not a pair of rule labels"]),
        (["r"], ["rr"], ["superiority entry 'rr' is not a pair of rule labels"]),
        ([5, "s"], [(5, "s"), ("s", "s")], ["rule label 5 is not a word over [A-Za-z0-9_]"]),
        (
            ["r"],
            [("x", "r"), ("r",), ("r", "q")],
            [  # by the entries' repr: ('r', 'q'), ('r',), ('x', 'r')
                "superiority names unknown rule label q",
                "superiority entry ('r',) is not a pair of rule labels",
                "superiority names unknown rule label x",
            ],
        ),
    ],
    ids=["1-tuple", "3-tuple", "none", "string", "int-label", "ordered-by-repr"],
)
def test_validate_reports_malformed_superiority_entries(labels, superiority, errors):
    rules = [rule(label, [a], Mode.C, [b]) for label in labels]
    assert validate(Theory.build([], rules, superiority)).errors == errors


def test_validate_contradictory_facts_warn():
    report = validate(Theory.build([a, a.complement()]))
    assert report.ok
    assert any("contradictory facts" in w for w in report.warnings)


@pytest.mark.parametrize("atom", [5, ("x",), None], ids=repr)
def test_validate_writes_contradictory_facts_over_an_atom_that_is_no_string(atom):
    # the warning wrote each fact, and a fact over such an atom writes no string
    report = validate(Theory.build([Literal(atom), Literal(atom, False)]))
    assert report.errors == [f"atom {atom!r} is not a word over [A-Za-z0-9_]"]
    assert report.warnings == [f"contradictory facts: {atom}"]


def test_validate_cyclic_superiority_warns():
    rules = [rule("r1", [a], Mode.C, [b]), rule("r2", [b], Mode.C, [a])]
    report = validate(Theory.build([], rules, [("r1", "r2"), ("r2", "r1")]))
    assert any("cyclic superiority" in w for w in report.warnings)


def test_validate_a_rule_superior_to_itself_is_a_cycle():
    report = validate(Theory.build([], [rule("r1", [a], Mode.C, [b])], [("r1", "r1")]))
    assert report.ok
    assert report.warnings == ["cyclic superiority relation"]


@pytest.mark.parametrize("cyclic", [True, False])
def test_validate_names_the_plain_relation_when_the_extended_one_adds_pairs(cyclic):
    # m1 and m2 inherit r1 > r2 (and r2 > r1): a cycle in the plain relation
    # is named as one, though the relation checked is the larger extended one
    rules = [rule("r1", [a], Mode.C, [b]), rule("r2", [b], Mode.C, [a])]
    rules += [rule(f"m{i}", [], Mode.C, [RuleExpression(r, True)]) for i, r in enumerate(rules, 1)]
    theory = Theory.build([], rules, [("r1", "r2"), ("r2", "r1")][: 1 + cyclic])
    assert len(extended_superiority(theory)) > len(theory.superiority)
    report = validate(theory)
    assert report.ok
    assert report.warnings == (["cyclic superiority relation"] if cyclic else [])


def _superiority_chain(pairs: int, closed: bool) -> Theory:
    """``r(i+1) > r(i)`` over ``pairs + 1`` rules, closed by ``r0 > r(pairs)``."""
    rules = [rule(f"r{i}", [], Mode.C, [Literal(f"p{i}")]) for i in range(pairs + 1)]
    sup = [(f"r{i + 1}", f"r{i}") for i in range(pairs)]
    if closed:
        sup.append(("r0", f"r{pairs}"))
    return Theory.build([], rules, sup)


def test_validate_long_superiority_chain():
    # the cycle check walks the chain without recursing along it
    report = validate(_superiority_chain(10_000, closed=False))
    assert report.ok and not report.warnings
    report = validate(_superiority_chain(10_000, closed=True))
    assert report.ok
    assert report.warnings == ["cyclic superiority relation"]


@pytest.mark.parametrize(
    "theory, name",
    [
        (Theory.build([Literal("")]), "atom ''"),
        (Theory.build([], [rule("r s", [], Mode.C, [b])]), "rule label 'r s'"),
        (Theory.build([], [rule("r", [], Mode.C, [Literal("a b")])]), "atom 'a b'"),
        (
            Theory.build([], [rule("r", [ModalLiteral(Mode.O, Literal("a."))], Mode.C, [b])]),
            "atom 'a.'",
        ),
        (
            Theory.build(
                [],
                [rule("r", [], Mode.C, [RuleExpression(rule("s:", [], Mode.C, [b]))])],
            ),
            "rule label 's:'",
        ),
        (Theory.build([Literal(5)]), "atom 5"),
    ],
    ids=[
        "empty-atom", "label-with-space", "atom-with-space", "modal-atom", "nested-label", "int"
    ],
)
def test_validate_reports_names_that_are_not_words(theory, name):
    assert f"{name} is not a word over [A-Za-z0-9_]" in validate(theory).errors


def test_validate_reports_every_bad_name_and_accepts_words():
    theory = Theory.build([Literal("")], [rule("r s", [], Mode.C, [Literal("a b")])])
    bad = [e for e in validate(theory).errors if "is not a word" in e]
    assert len(bad) == 3
    assert validate(Theory.build([Literal("A_1")], [rule("fact", [], Mode.C, [Literal("O")])])).ok


def test_validate_reports_an_atom_that_does_not_hash():
    theory = Theory.build([], [rule("r", [], Mode.O, [Literal(["a"]), Literal(["a"])])])
    assert validate(theory).errors == [
        "rule r: duplicate chain elements",
        "atom ['a'] is not a word over [A-Za-z0-9_]",
    ]


@pytest.mark.parametrize("polarity", ["yes", None, 1])
def test_validate_reports_a_polarity_that_is_not_a_bool(polarity):
    theory = Theory.build(
        [Literal("c", polarity)], [rule("r", [Literal("b", polarity)], Mode.C, [Literal("a", polarity)])]
    )
    assert validate(theory).errors == [
        f"literal over atom {atom!r} has polarity {polarity!r}, not a bool" for atom in "abc"
    ]


@given(loose_theories())
@settings(max_examples=200)
def test_a_theory_that_validates_renders_and_parses_back(theory):
    if validate(theory).ok:
        assert parse_theory(render_theory(theory)) == theory


@given(model_theories())
@settings(max_examples=200, deadline=None)
def test_validate_returns_on_whatever_the_constructors_accept(theory):
    if validate(theory).ok:
        assert parse_theory(render_theory(theory)) == theory
        if theory_size(theory) <= DEFAULT_BUDGET:
            for variant in Variant:
                assert check_equivalence(theory, variant) == {}, variant


def test_validate_cyclic_extended_superiority_warns():
    report = validate(load_fixture("example8"))
    assert report.ok
    assert any("cyclic extended superiority" in w for w in report.warnings)


def test_nested_meta_rule_rejected():
    inner = rule("inner", [a], Mode.C, [b])
    middle = rule("middle", [a], Mode.C, [RuleExpression(inner, True)])
    outer = rule("outer", [a], Mode.C, [RuleExpression(middle, True)])
    report = validate(Theory.build([], [outer]))
    assert any("itself a meta-rule" in e for e in report.errors)


def _nest(depth: int, through_antecedent: bool) -> Rule:
    """A rule with rule expressions nested ``depth`` deep inside it, through
    the heads or through the antecedents, innermost first."""
    inner = rule("a0", [], Mode.C, [b])
    for i in range(1, depth + 1):
        expr = RuleExpression(inner, i % 2 == 0)
        if through_antecedent:
            item = DeonticRuleExpression(Mode.O, expr) if i % 3 else expr
            inner = rule(f"a{i}", [item], Mode.C, [b])
        else:
            inner = rule(f"a{i}", [a], Mode.C, [expr])
    return inner


@pytest.mark.parametrize("through_antecedent", [False, True])
def test_rules_nest_no_deeper_than_the_parser_reads(through_antecedent):
    with pytest.raises(ValueError, match=f"nested deeper than {MAX_NESTING}"):
        _nest(2000, through_antecedent)
    deepest = _nest(MAX_NESTING, through_antecedent)
    theory = Theory.build([a], [deepest])
    assert any("itself a meta-rule" in e for e in validate(theory).errors)
    with pytest.raises(ValueError, match="invalid theory"):
        compute_extension(theory)
    assert parse_theory(render_theory(theory)) == theory
    assert str(deepest).count("(a") == MAX_NESTING


def _reference_depth(rule: Rule) -> int:
    return max((1 + _reference_depth(n) for n in rule.nested_rules()), default=0)


def test_a_rule_carries_its_nesting_depth_outside_its_value():
    for depth in (0, 1, 2, 7, MAX_NESTING):
        for through_antecedent in (False, True):
            deepest = _nest(depth, through_antecedent)
            assert deepest.depth == _reference_depth(deepest) == depth
    # a rule nesting two others of unequal depth takes the deeper one's
    two = rule("two", [RuleExpression(_nest(3, True))], Mode.O, [RuleExpression(_nest(5, False))])
    assert two.depth == 6
    again = dataclasses.replace(two, label="again")
    assert again.depth == 6 and again.content == two.content
    assert "depth" not in repr(two) and hash(two) == hash(dataclasses.replace(two))


def _is_meta_by_walk(rule: Rule) -> bool:
    return any(True for _ in rule.nested_rules())


@given(any_rules)
def test_is_meta_reads_the_depth(r):
    assert r.is_meta() == _is_meta_by_walk(r)


def test_is_meta_and_all_rules_agree_with_a_walk_on_the_pool():
    # ``all_rules`` walks the nested rules of meta-rules alone
    kinds = set()
    for name, theory in _decode_theories():
        walked = [*theory.rules, *(n for r in theory.rules for n in r.nested_rules())]
        assert list(theory.all_rules()) == walked, name
        for r in walked:
            assert r.is_meta() == _is_meta_by_walk(r), (name, r.label)
            kinds.add(r.is_meta())
    assert kinds == {True, False}


def test_chain_restrictions_enforced_at_construction():
    with pytest.raises(ValueError):
        rule("bad", [a], Mode.C, [b, l])
    with pytest.raises(ValueError):
        rule("bad", [a], Mode.O, [b, l], arrow=Arrow.DEFEATER)
    # singleton chains are fine everywhere
    rule("ok", [a], Mode.P, [b], arrow=Arrow.DEFEATER)


@pytest.mark.parametrize(
    "element",
    [
        ModalLiteral(Mode.O, b),
        DeonticRuleExpression(Mode.O, RuleExpression(rule("inner", [a], Mode.C, [b]))),
        "b",
    ],
    ids=["modal-literal", "deontic-rule-expression", "str"],
)
def test_chain_element_types_enforced_at_construction(element):
    with pytest.raises(ValueError, match="not a chain element"):
        rule("bad", [a], Mode.O, [element])


def test_antecedent_item_types_enforced_at_construction():
    with pytest.raises(ValueError, match="not an antecedent item"):
        rule("bad", ["a"], Mode.C, [b])


def test_nested_part_types_enforced_at_construction():
    with pytest.raises(ValueError):
        ModalLiteral(Mode.O, "b")
    with pytest.raises(ValueError):
        RuleExpression("alpha")
    with pytest.raises(ValueError):
        DeonticRuleExpression(Mode.O, rule("inner", [a], Mode.C, [b]))


@pytest.mark.parametrize(
    "parts",
    [
        ([a], Arrow.DEFEASIBLE, Mode.C, (b,)),
        (frozenset([a]), Arrow.DEFEASIBLE, Mode.C, [b]),
        (frozenset([a]), "=>", Mode.C, (b,)),
        (frozenset([a]), Arrow.DEFEASIBLE, "C", (b,)),
    ],
    ids=["list-antecedent", "list-consequent", "str-arrow", "str-mode"],
)
def test_rule_container_and_enum_types_enforced_at_construction(parts):
    with pytest.raises(ValueError, match="rule bad"):
        Rule("bad", *parts)


def _sets(ext: Extension) -> tuple:
    return ext.literals, ext.rules, ext.undetermined


def _extension_by_pair(pairs) -> tuple:
    """The extension's sets (``_sets``) of ((mode, subject), verdict) pairs,
    verdict True for +, False for - and None for undecided, filed one pair
    at a time."""
    literals = {(sign, mode): set() for sign in Sign for mode in Mode}
    rules = {key: set() for key in literals}
    undetermined = set()
    for (mode, subject), verdict in pairs:
        if verdict is None:
            undetermined.add((mode, subject))
        else:
            table = rules if isinstance(subject, RuleRef) else literals
            table[(Sign.PLUS if verdict else Sign.MINUS, mode)].add(subject)
    return literals, rules, undetermined


def _decode_theories():
    theories = [(p.stem, parse_theory(p.read_text())) for p in sorted(FIXTURES.glob("*.ddl"))]
    return theories + [(f"random/{seed}", random_theory(seed, 80)) for seed in range(20)]


def test_decode_equals_a_per_pair_loop_on_engine_stores():
    verdict = {0: None, 1: True, 2: False}
    for name, theory in _decode_theories():
        for variant in Variant:
            state = run_engine(theory, variant)
            pairs = [(state.pair(s), verdict[byte]) for s, byte in enumerate(state.tag)]
            assert _sets(state.extension()) == _extension_by_pair(pairs), (name, variant)


def test_decode_equals_a_per_pair_loop_on_oracle_stores():
    for name, theory in _decode_theories():
        for variant in Variant:
            ev, store = _Evaluator(theory, variant), {}
            while len(nxt := step(theory, store, variant, ev)) != len(store):
                store = nxt
            pairs = [((mode, s), store.get((mode, s))) for s in ev.base for mode in Mode]
            expected = _extension_by_pair(pairs)
            assert _sets(oracle_extension(theory, variant, budget=None)) == expected, (name, variant)


def test_a_decoded_extension_keeps_no_engine_state():
    verdict = {0: None, 1: True, 2: False}
    state = run_engine(load_fixture("execution2"), Variant.CAUTIOUS)
    pairs = [(state.pair(s), verdict[byte]) for s, byte in enumerate(state.tag)]
    ext, alive = state.extension(), weakref.ref(state)
    del state
    gc.collect()
    assert alive() is None
    assert _sets(ext) == _extension_by_pair(pairs)  # the sets are built now, from what it kept


def test_decoded_extensions_compare_by_their_stores_as_by_their_sets():
    for name, theory in _decode_theories():
        for variant in Variant:
            engine = compute_extension(theory, variant)
            oracle = oracle_extension(theory, variant, budget=None)
            assert engine == oracle, (name, variant)
            assert _sets(engine) == _sets(oracle), (name, variant)
    state = run_engine(load_fixture("execution2"), Variant.CAUTIOUS)
    ext = state.extension()
    s = state.tag.index(TAG_PROVED)
    state.tag[s] = TAG_REFUTED  # the other verdict on one decided subject
    other = state.extension()
    assert ext != other
    assert (ext.literals, ext.rules) != (other.literals, other.rules)
