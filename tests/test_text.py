from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddmr.model
import ddmr.text
from ddmr.conflicts import Variant
from ddmr.engine import compute_extension
from ddmr.extension import Extension
from ddmr.generate import FAMILIES, generate_theory, random_theory
from ddmr.oracle import oracle_extension
from ddmr.model import (
    Arrow,
    DeonticRuleExpression,
    Literal,
    ModalLiteral,
    Mode,
    Rule,
    RuleExpression,
    RuleRef,
    Sign,
    TaggedFormula,
    Theory,
    theory_size,
)
from ddmr.text import (
    MAX_NESTING,
    SNIPPET_WIDTH,
    TheorySyntaxError,
    _Lines,
    _parse_whole,
    _read,
    _token_offsets,
    _tokenize,
    extension_dict,
    parse_tagged_formula,
    parse_theory,
    render_extension,
    render_theory,
)

from .conftest import FIXTURES, load_fixture
from .strategies import model_theories

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.ddl"))

EXAMPLE1 = (FIXTURES / "example1.ddl").read_text()


def test_minimal_program():
    theory = parse_theory("fact a. alpha: a => C l.")
    assert Literal("a") in theory.facts
    assert len(theory.rules) == 1
    assert theory.rules[0].label == "alpha"


def test_fact_is_a_label_before_a_colon_or_a_greater_than():
    theory = parse_theory("fact fact. fact: => C a. b: => C c. fact > b. b > fact.")
    assert theory.facts == {Literal("fact")}
    assert [rule.label for rule in theory.rules] == ["fact", "b"]
    assert theory.superiority == {("fact", "b"), ("b", "fact")}


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


def test_str_of_a_rule_parses_back_to_the_rule():
    theories = [load_fixture(p.stem) for p in sorted(FIXTURES.glob("*.ddl"))]
    theories += [random_theory(seed, 60) for seed in range(20)]
    for theory in theories:
        for rule in theory.rules:
            assert parse_theory(f"{rule}.").rules == (rule,), str(rule)


def test_str_of_a_rule_is_the_ddl_form():
    (rule,) = parse_theory("r: a, O(b) => C x.").rules
    assert str(rule) == "r: O(b), a => C x"
    (rule,) = parse_theory("s: => C y.").rules
    assert str(rule) == "s: => C y"


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
    data = extension_dict(compute_extension(Theory.build()))
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


def _sorted_extension_dict(ext: Extension) -> dict:
    """``extension_dict`` as plain sorts of the subjects' texts: the reference."""
    out = {name: sorted(map(str, subjects)) for name, subjects in ext.tag_sets()}
    out["undetermined"] = [
        {"mode": str(mode), "subject": str(subject)}
        for mode, subject in sorted(ext.undetermined, key=lambda p: (str(p[1]), str(p[0])))
    ]
    return out


# Names that test ASCII order: upper case before "_" before lower case, "a10"
# before "a9", and an atom and a rule label both "q", both left undetermined.
ASCII_ORDER = """
fact Z.
fact _x.
L: q => C q.
_m: q => C (q: a9 => C a10).
"""


def _decoded_extensions():
    theories = [(name, load_fixture(name)) for name in FIXTURE_NAMES]
    theories += [(f"random/{seed}", random_theory(seed, 60)) for seed in range(20)]
    theories.append(("ascii", parse_theory(ASCII_ORDER)))
    for name, theory in theories:
        for variant in Variant:
            yield name, variant, compute_extension(theory, variant)
            yield name, variant, oracle_extension(theory, variant, budget=None)


def test_extension_dict_is_the_sorted_texts():
    for name, variant, ext in _decoded_extensions():
        assert extension_dict(ext) == _sorted_extension_dict(ext), (name, variant)


def test_ascii_order_of_names():
    for variant in Variant:
        data = extension_dict(compute_extension(parse_theory(ASCII_ORDER), variant))
        assert data["+dC"] == ["Z", "_x"]
        assert data["-dC"] == ["a10", "a9", "~Z", "~_x", "~a10", "~a9", "~q"]
        assert data["-dmC"] == ["~L", "~_m", "~q"]
        assert data["undetermined"] == [{"mode": "C", "subject": "q"}] * 2


def test_names_above_tilde_are_sorted():
    # the oracle takes what validation refuses; "é" sorts after "~a"
    theory = Theory.build([Literal("é"), Literal("a", False)], [])
    ext = oracle_extension(theory, Variant.CAUTIOUS)
    assert extension_dict(ext) == _sorted_extension_dict(ext)
    assert extension_dict(ext)["+dC"] == ["~a", "é"]


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


# Positioned errors ------------------------------------------------------------

POSITIONED_ERRORS = [
    # a trailing unterminated comment: eof sits at its "#"
    ("fact a # no dot", [(1, 8, "expected '.', found ''", "fact a # no dot")]),
    # CRLF: the snippet drops the "\r", columns count it
    (
        "fact a.\r\nr1: a => Q b.\r\nfact c\r\n",
        [
            (2, 10, "unknown mode 'Q'", "r1: a => Q b."),
            (4, 1, "expected '.', found ''", ""),
        ],
    ),
    # a tab is one column
    (
        "\tfact\ta\t?\n",
        [
            (1, 9, "unexpected character '?'", "\tfact\ta\t?"),
            (2, 1, "expected '.', found ''", ""),
        ],
    ),
    # a lone "=" is an unexpected character; tokenizer errors come first
    (
        "r: a = C b.",
        [
            (1, 6, "unexpected character '='", "r: a = C b."),
            (1, 8, "expected '=>' or '~>', found 'C'", "r: a = C b."),
        ],
    ),
    # "~=>" lexes as "~", "=>"
    ("r: a ~=> C b.", [(1, 6, "expected '=>' or '~>', found '~'", "r: a ~=> C b.")]),
    (
        "fact é.",
        [
            (1, 6, "unexpected character 'é'", "fact é."),
            (1, 7, "expected an atom, found '.'", "fact é."),
        ],
    ),
    # anything goes inside a comment
    ("# what? é = \x0c\nfact a.\n", []),
    (
        "# header\n\nfact ?.\n",
        [
            (3, 6, "unexpected character '?'", "fact ?."),
            (3, 7, "expected an atom, found '.'", "fact ?."),
        ],
    ),
    ("fact a. # trailing ?\nr: => C", [(2, 8, "expected an atom, found ''", "r: => C")]),
    ("", []),
    ("   \n# only a comment", []),
]


def _errors(source):
    try:
        parse_theory(source)
    except TheorySyntaxError as exc:
        return [(e.line, e.column, e.message, e.snippet) for e in exc.errors]
    return []


@pytest.mark.parametrize("source,expected", POSITIONED_ERRORS)
def test_positioned_errors(source, expected):
    assert _errors(source) == expected


def test_snippet_is_the_newline_delimited_line():
    # "\x0c" ends a line for str.splitlines, not for line numbers
    assert _errors("fact a.\x0cfact b.\n?") == [
        (1, 8, "unexpected character '\\x0c'", "fact a.\x0cfact b."),
        (2, 1, "unexpected character '?'", "?"),
    ]


def test_a_long_line_is_quoted_around_the_column():
    assert SNIPPET_WIDTH == 80
    x = "x" * 100
    assert _errors("?" + "x" * 79)[0][3] == "?" + "x" * 79
    assert _errors(x + "?" + x)[0] == (
        1,
        101,
        "unexpected character '?'",
        "..." + "x" * 40 + "?" + "x" * 39 + "...",
    )
    assert _errors("?" + x)[0][3] == "?" + "x" * 79 + "..."
    assert _errors(x + "?")[0][3] == "..." + "x" * 79 + "?"
    # the eof error sits one past the end of the line
    assert _errors("fact " + x)[0] == (1, 106, "expected '.', found ''", "..." + x[20:])


def test_errors_on_one_long_line_cost_linear_time_and_space():
    # each error used to quote the whole line: 4 s and a message of about
    # 2.5e9 characters for this source
    n = 50_000
    start = time.perf_counter()
    with pytest.raises(TheorySyntaxError) as info:
        parse_theory("?" * n)
    elapsed = time.perf_counter() - start
    assert [(e.line, e.column) for e in info.value.errors] == [
        (1, column) for column in range(1, n + 1)
    ]
    assert len(str(info.value)) < 8_000_000
    assert elapsed < 1.0


_WORD = re.compile(r"[A-Za-z0-9_]+")


@dataclass
class _Token:
    kind: str  # "word", "punct", "eof"
    text: str
    line: int
    column: int


def _reference_tokenize(source: str):
    """The character-loop tokenizer the regex one replaced.

    Only the snippet differs from the original, which took the lines of
    ``source.splitlines()``: a line ends at "\\n", less one trailing "\\r",
    and one longer than 80 characters is quoted as the 80 around the column.
    """
    tokens, errors = [], []
    line, col, i, n = 1, 1, 0, len(source)
    lines = [text.removesuffix("\r") for text in source.split("\n")]
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        two = source[i : i + 2]
        if two in ("=>", "~>"):
            tokens.append(_Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in ":.,*>()[]~":
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        m = _WORD.match(source, i)
        if m:
            tokens.append(_Token("word", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        text = lines[line - 1]
        if len(text) > 80:
            first = min(max(col - 41, 0), len(text) - 80)
            text = (
                ("..." if first else "")
                + text[first : first + 80]
                + ("..." if first + 80 < len(text) else "")
            )
        errors.append((line, col, f"unexpected character {ch!r}", text))
        i += 1
        col += 1
    tokens.append(_Token("eof", "", line, col))
    return tokens, errors


_PIECES = [
    "fact", "a", "r1", "x_0", "O", "P", "C", ":", "=>", "~>", "~", "(", ")", "[",
    "]", ".", ",", "*", ">", "=", "#", "# c?\n", " ", "\t", "\n", "\r", "\r\n",
    "?", "-", "é", "\x0c", "\x85", " ", "\x00",
]
_SOURCES = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=40).map("".join),
    st.text(alphabet="".join(_PIECES), max_size=60),
)


@given(_SOURCES)
@settings(max_examples=600, deadline=None)
def test_tokenizer_matches_the_character_loop(source):
    tokens, errors = _reference_tokenize(source)
    texts, bad = _tokenize(source)
    assert texts == [t.text for t in tokens]
    lines = _Lines(source)
    positions = [lines.error(offset, "") for offset in _token_offsets(source)]
    assert [(p.line, p.column) for p in positions] == [(t.line, t.column) for t in tokens]
    found = [lines.error(o, f"unexpected character {source[o]!r}") for o in bad]
    assert [(e.line, e.column, e.message, e.snippet) for e in found] == errors
    # and parse_theory reports the tokenizer's errors first
    assert _errors(source)[: len(errors)] == errors


# The statement reader ------------------------------------------------------


def _outcome(parse, source: str):
    """The theory ``parse`` reads from ``source``, or its error list."""
    try:
        return parse(source)
    except TheorySyntaxError as exc:
        return [(e.line, e.column, e.message, e.snippet) for e in exc.errors]


def _assert_read_as_whole(source: str) -> None:
    assert _outcome(parse_theory, source) == _outcome(_parse_whole, source), source


def _rendered_sources():
    for name in FIXTURE_NAMES:
        yield (FIXTURES / f"{name}.ddl").read_text()
    for family in FAMILIES:
        for size in (60, 600):
            yield render_theory(generate_theory(family, size, 0))
    for seed in range(20):
        yield render_theory(random_theory(seed, 60))


# Shapes at the edge of the reader's: whitespace where render_theory writes
# none, comments inside statements, "fact" as a label and an atom, modes
# that are longer words, refused chains (top level and nested), nested meta
# rules, modal items, and errors after read statements.
READER_EDGES = [
    "fact a. fact ~a. fact~b. fact ~ c. fact\td.fact e .",
    "fact fact. fact: => C a. fact > b. b: => C c. b > fact. fact: fact => C fact.",
    "r: a, ~b => C c. s:a,~b=>C c. t :a => C c. u: a ,b => C c. v: ~ a => C c.",
    "r: a\n  => O b\n  * c\n  * ~d. s: => P ~(t: a, b ~> C ~c).",
    "r: a => C b # note.\n. s: # c\n a => C b.",
    "r: a => Cx. s: a => C_ b.",
    "r: a => C O. s: O => C P. t: C, P => O C.",
    "r: a => C b * c.",
    "r: a ~> O b * c.",
    "r: => C (s: a => C b * c).",
    "r: => O (s: a => O b * c) * ~(t: => P d) * e.",
    "r: (s: => C (t: => C a)) => C b.",
    "r: (s: => C a), ~(t: b => C c) => O ( u: => C d ).",
    "r: O(a), ~P(b) => C c. s: O[(t: => C a)] => P d.",
    "r: a => C b. s: a => C. t: a => C c.",
    "r: a => C b. fact a",
    "r: a => C b.\n?",
    "# only a comment",
    "",
    "a > b. a>b. a > b c.",
]


def test_reader_on_edge_shapes():
    for source in READER_EDGES:
        _assert_read_as_whole(source)


# Regex syntax that Python's ``re`` takes only from 3.11 on: possessive
# quantifiers (``*+``, ``++``, ``?+``, ``{m,n}+``) and atomic groups.
# Escapes and character classes are skipped, where these are plain text.
_NEWER_SYNTAX = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]])*\]|(?P<found>[*+?}]\+|\(\?>)|.", re.S)


def test_patterns_compile_on_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10
    patterns = [value for module in (ddmr.model, ddmr.text) for value in vars(module).values()]
    patterns = [value.pattern for value in patterns if isinstance(value, re.Pattern)]
    assert len(patterns) >= 5
    found = [
        (pattern, match["found"])
        for pattern in patterns
        for match in _NEWER_SYNTAX.finditer(pattern)
        if match["found"]
    ]
    assert found == []
    # the scan sees each construct outside escapes and classes
    assert [m["found"] for m in _NEWER_SYNTAX.finditer(r"\*+[*+](?:a|b)*+x{2}+(?>y)") if m["found"]] == [
        "*+",
        "}+",
        "(?>",
    ]


def test_reader_reads_rendered_theories_alone(monkeypatch):
    # every statement of these families is of the reader's shapes, so
    # _Parser is never built
    families = ("chain", "team", "meta-chain", "reparation", "clash")
    sources = [render_theory(generate_theory(family, 600, 0)) for family in families]
    expected = [_parse_whole(source) for source in sources]
    monkeypatch.setattr(ddmr.text, "_Parser", None)
    assert [_read(source) for source in sources] == expected


def test_reader_shares_one_literal_per_atom_and_polarity():
    theory = parse_theory("fact a. r: a, ~b => C c. s: c => O ~b * a. t: => C (u: a => C c).")
    r, s, t = theory.rules
    (fact,) = theory.facts
    by_text = {str(lit): lit for lit in r.antecedent}
    assert s.consequent[0] is by_text["~b"] and s.consequent[1] is fact is by_text["a"]
    inner = t.consequent[0].rule
    assert inner.consequent[0] is r.consequent[0] and next(iter(inner.antecedent)) is fact


def test_reader_equals_the_parser_on_rendered_theories():
    for source in _rendered_sources():
        _assert_read_as_whole(source)


_EDIT_CHARS = " \t\n\r#~()[],.*:>=aOPC_9?\x0c"


def test_reader_equals_the_parser_on_one_character_edits():
    rng = random.Random(23)
    sources = [s for s in _rendered_sources() if len(s) < 4000] + READER_EDGES
    edits = 0
    for source in sources:
        for _ in range(25 if source else 1):
            i = rng.randrange(len(source) + 1)
            op = rng.randrange(3)
            if op == 0 and i < len(source):  # delete
                edited = source[:i] + source[i + 1 :]
            elif op == 1 and i + 1 < len(source):  # swap with the next
                edited = source[:i] + source[i + 1] + source[i] + source[i + 2 :]
            else:  # insert
                edited = source[:i] + rng.choice(_EDIT_CHARS) + source[i:]
            _assert_read_as_whole(edited)
            edits += 1
    assert edits > 1000


@given(_SOURCES)
@settings(max_examples=300, deadline=None)
def test_reader_equals_the_parser_on_token_soup(source):
    _assert_read_as_whole(source)


@given(model_theories())
@settings(max_examples=200, deadline=None)
def test_reader_equals_the_parser_on_rendered_model_theories(theory):
    # the parts that render_theory writes: literal facts over string atoms,
    # rules whose text is a string, and pairs of two strings
    facts = [f for f in theory.facts if isinstance(f, Literal) and isinstance(f.atom, str)]
    rules = []
    for rule in theory.rules:
        try:
            str(rule)
        except TypeError:  # an atom that is not a string
            continue
        rules.append(rule)
    pairs = [
        p
        for p in theory.superiority
        if isinstance(p, tuple) and len(p) == 2 and all(isinstance(x, str) for x in p)
    ]
    _assert_read_as_whole(render_theory(Theory.build(facts, rules, pairs)))


# JSON output and the model's slots -----------------------------------------------


def _extensions():
    yield compute_extension(Theory.build())
    for name in FIXTURE_NAMES:
        for variant in Variant:
            yield compute_extension(load_fixture(name), variant)
    for seed in range(20):
        for variant in Variant:
            yield compute_extension(random_theory(seed, 60), variant)


def test_json_writer_matches_json_dumps():
    undetermined = 0
    for ext in _extensions():
        data = extension_dict(ext)
        assert render_extension(ext, "json") == json.dumps(data, indent=2) + "\n"
        undetermined += bool(data["undetermined"])
    assert undetermined  # the nested objects are exercised


def test_model_objects_are_slotted():
    lit = Literal("a")
    rule = Rule("r", frozenset([lit]), Arrow.DEFEASIBLE, Mode.O, (lit,))
    expr = RuleExpression(rule)
    for obj in (
        lit,
        ModalLiteral(Mode.O, lit),
        expr,
        DeonticRuleExpression(Mode.P, expr),
        rule,
        Theory.build([lit], [rule]),
        RuleRef("r"),
        TaggedFormula(Sign.PLUS, Mode.C, lit),
    ):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
