from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmr.conflicts import Variant
from ddmr.engine import compute_extension
from ddmr.generate import random_theory
from ddmr.model import (
    DeonticRuleExpression,
    Extension,
    Literal,
    ModalLiteral,
    Mode,
    RuleExpression,
    RuleRef,
    Sign,
    TaggedFormula,
    theory_size,
)
from ddmr.text import (
    MAX_NESTING,
    TheorySyntaxError,
    extension_dict,
    parse_tagged_formula,
    parse_theory,
    render_extension,
    render_theory,
)

from .conftest import FIXTURES, load_fixture

EXAMPLE1 = (FIXTURES / "example1.ddl").read_text()


def test_minimal_program():
    theory = parse_theory("fact a. alpha: a => C l.")
    assert Literal("a") in theory.facts
    assert len(theory.rules) == 1
    assert theory.rules[0].label == "alpha"


def test_example1_program_size():
    # 5 facts + 12 literal occurrences + 6 rule occurrences + 2 pairs * 2
    assert theory_size(parse_theory(EXAMPLE1)) == 27


def test_chain_parsing():
    theory = parse_theory("mu: f2 => O a * b * c.")
    (rule,) = theory.rules
    assert rule.mode is Mode.O
    assert [str(e) for e in rule.consequent] == ["a", "b", "c"]


def test_modal_and_rule_expression_items():
    theory = parse_theory(
        "theta: ~O(q), P(~w), O[(eps: d => O e * f)], ~P[~(kap: a => C b)]"
        " => O ~(zeta: a => O ~b)."
    )
    (rule,) = theory.rules
    kinds = sorted(type(i).__name__ for i in rule.antecedent)
    assert kinds == [
        "DeonticRuleExpression",
        "DeonticRuleExpression",
        "ModalLiteral",
        "ModalLiteral",
    ]
    (head,) = rule.consequent
    assert isinstance(head, RuleExpression) and not head.positive


def test_defeater_arrow():
    theory = parse_theory("lam: ~> C (alpha: a => C b).")
    assert not theory.rules[0].is_defeasible


def test_chains_rejected_off_defeasible_obligation():
    with pytest.raises(TheorySyntaxError, match="reparation chains"):
        parse_theory("r: a => C b * c.")
    with pytest.raises(TheorySyntaxError, match="reparation chains"):
        parse_theory("r: a ~> O b * c.")


def test_parse_errors_have_positions_and_recover():
    try:
        parse_theory("fact a.\nalpha: a => Q l.\nbeta: b => C l.\n???")
        raise AssertionError("expected a syntax error")
    except TheorySyntaxError as exc:
        messages = [str(e) for e in exc.errors]
    assert any("unknown mode 'Q'" in m for m in messages)
    assert any(m.startswith("2:") for m in messages)
    assert any("unexpected character" in m for m in messages)


def test_missing_dot_is_reported():
    with pytest.raises(TheorySyntaxError):
        parse_theory("alpha: a => C l")


def test_rule_expression_nesting_is_bounded():
    def nested(depth):  # rule expressions nested through the heads
        head = "x"
        for i in range(depth):
            head = f"(a{i}: => C {head})"
        return f"r: => C {head}."

    assert render_theory(parse_theory(nested(MAX_NESTING))) == nested(MAX_NESTING) + "\n"
    with pytest.raises(TheorySyntaxError) as exc:
        parse_theory(nested(MAX_NESTING + 1))
    [error] = exc.value.errors
    # it points at the label of the innermost rule expression, one past the bound
    assert error.line == 1
    assert nested(MAX_NESTING + 1)[error.column - 1 :].startswith("a0:")
    assert error.message == f"rule expressions nested deeper than {MAX_NESTING}"


@given(st.text(max_size=80))
@settings(max_examples=200)
def test_parser_total_on_arbitrary_text(source):
    try:
        parse_theory(source)
    except TheorySyntaxError:
        pass


def test_round_trip_on_fixtures():
    for name in (
        "example1",
        "example3",
        "example4",
        "example6",
        "example8",
        "execution1",
        "execution2",
        "loop",
        "nometa",
    ):
        theory = load_fixture(name)
        rendered = render_theory(theory)
        again = parse_theory(rendered)
        assert again == theory, name
        assert render_theory(again) == rendered, name


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_round_trip_on_random_theories(seed):
    theory = random_theory(seed, 45)
    rendered = render_theory(theory)
    assert parse_theory(rendered) == theory


def test_render_empty_theory():
    from ddmr.model import Theory

    assert render_theory(Theory.build()) == ""


def test_meta_rule_renders_with_parenthesised_inline_rule():
    theory = load_fixture("execution1")
    rendered = render_theory(theory)
    assert "beta: f2 => C (gamma: ~f1 => C a)." in rendered


def test_parse_tagged_formula():
    f = parse_tagged_formula("+dO a")
    assert f == TaggedFormula(Sign.PLUS, Mode.O, Literal("a"))
    f = parse_tagged_formula("-dmC ~gamma")
    assert f == TaggedFormula(Sign.MINUS, Mode.C, RuleRef("gamma", False))
    with pytest.raises(ValueError, match="unknown mode"):
        parse_tagged_formula("+dQ a")
    with pytest.raises(ValueError, match="malformed"):
        parse_tagged_formula("dO a")


def test_render_extension_empty():
    data = extension_dict(Extension())
    assert all(data[k] == [] for k in data if k != "undetermined")
    assert data["undetermined"] == []


def test_render_extension_example3_obligations():
    ext = compute_extension(load_fixture("example3"), Variant.CAUTIOUS)
    data = extension_dict(ext)
    assert data["+dO"] == ["p", "~l"]


def test_render_extension_undetermined_entry():
    ext = compute_extension(load_fixture("loop"), Variant.CAUTIOUS)
    data = extension_dict(ext)
    assert {"mode": "C", "subject": "x"} in data["undetermined"]


def test_json_output_is_byte_stable():
    ext = compute_extension(load_fixture("execution2"), Variant.CAUTIOUS)
    ext2 = compute_extension(load_fixture("execution2"), Variant.CAUTIOUS)
    assert render_extension(ext, "json") == render_extension(ext2, "json")
    json.loads(render_extension(ext, "json"))  # well-formed


def test_text_format_lists_all_keys():
    ext = compute_extension(load_fixture("nometa"), Variant.SIMPLE)
    text = render_extension(ext, "text")
    for key in ("+dC", "-dmP", "undetermined"):
        assert key in text
