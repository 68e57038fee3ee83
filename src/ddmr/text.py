"""Concrete syntax: the .ddl theory format, queries and extension output.

The theory grammar (the only place it is defined):

    program  := (stmt)*
    stmt     := fact | rule | sup
    fact     := "fact" lit "."
    rule     := LABEL ":" [body] arrow MODE head "."
    arrow    := "=>" | "~>"            -- defeasible | defeater
    MODE     := "C" | "O" | "P"
    body     := item ("," item)*
    item     := lit | modlit | rexpr | drexpr
    lit      := ["~"] ATOM
    modlit   := ["~"] ("O"|"P") "(" lit ")"
    rexpr    := ["~"] "(" rule-no-dot ")"
    drexpr   := ["~"] ("O"|"P") "[" rexpr "]"
    head     := chainelem ("*" chainelem)*
    chainelem:= lit | rexpr
    sup      := LABEL ">" LABEL "."

``~`` is complement everywhere, ``*`` chains obligations, ``#`` starts a
comment running to the end of the line.  A statement opening with the word
``fact`` is a fact unless ``:`` or ``>`` follows, so ``fact`` is a label too.  Atoms and labels are ASCII words
over [A-Za-z0-9_].  Reparation chains are only accepted after ``=> O``.
Rule expressions nest at most ``MAX_NESTING`` deep, the most a ``Rule`` takes,
so the recursive descent (a few frames per level) stays far from the
interpreter's recursion limit.

``parse_theory`` reads a source statement by statement first
(``_read``): one ``findall`` of ``_STATEMENT`` matches each statement,
and the statements of these shapes, a subset of the grammar, are built
straight from the match:

    fact a.    fact ~a.    a > b.
    r: a, ~b => C c.    r: => O a * ~b.    r: a ~> P ~c.
    r: a, ~(s: b => C c) => O (t: => C d) * ~e.

that is, facts, superiority pairs, and rules whose body items and chain
elements are literals or flat rule expressions, ``(label: ...)`` or
``~(...)`` over a rule whose own parts are literals: the paper's
meta-rule form.  Inside such a statement whitespace stands only where
``render_theory`` writes a space, and no comment.  Any other statement
(a modal item, a deontic rule expression, deeper nesting, other spacing,
a comment, an error) is its text up to the next full stop, and
``_Parser`` reads all such texts of a source in one go.  When it finds an
error there, or a read rule has a chain the grammar refuses, ``_Parser``
reads the whole source again, so every error, and its position, comes
from the recursive descent alone.  The reader makes one ``Literal`` per
(atom, polarity).

``_Parser`` takes its tokens from one regex, ``_TOKEN``: ``findall`` gives
the token texts as a list of strings (an unexpected character comes out
as ""), and the parser indexes that list.  Offsets are found only when
there is an error, by rescanning with ``finditer``; line, column and
snippet are computed from an offset only as its ``ParseError`` is built.
The snippet is the line, cut to ``SNIPPET_WIDTH`` characters around the
column when it is longer.  Lines end at "\n" alone, columns count
characters from 1, and a comment does not advance the column, so the end
of a source whose last line is a comment sits at its ``#``.  Unexpected
characters are reported before syntax errors.

Parsing is total: any byte input produces either a theory or a list of
positioned errors, never an exception from inside.  Rendering is
canonical -- facts first (sorted), rules in declaration order, superiority
pairs last -- and parsing a rendered theory reproduces the model exactly.

Extension output is in text order: each tag set's subject texts as sorted
strings, and the undetermined (subject, mode) text pairs sorted.  Atoms
and labels are words over [A-Za-z0-9_], every character of which sorts
below "~"; so a tag set in text order is its positive subjects by name
and then its negated ones by name.  ``extension_dict`` reads that order
from ``Extension.texts``, which slices the extension's store so and sorts
only the undetermined pairs.  Names at or above "~", which validation
refuses, are sorted instead.  Extension JSON is
exactly ``json.dumps(extension_dict(ext), indent=2)``, written with the C
string encoder.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .extension import TAG_SET_NAMES, Extension
from .model import (
    MAX_NESTING,
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
)

# Whitespace and comments.  Only "\n" starts a line; "\t" and "\r" are one
# column each, like every other character.
_SKIP = r"(?:[ \t\r\n]+|#[^\n]*)*"
_LEAD = re.compile(_SKIP)
# One token and the whitespace and comments after it, so matches abut and
# ``findall`` from the end of ``_LEAD`` never starts inside a comment.  The
# group is the token text: an arrow, a word or a punctuation character.
# Any other character is unexpected; it matches outside the group, which
# ``findall`` reports as "".
_TOKEN = re.compile(
    r"(?:(=>|~>|[A-Za-z0-9_]+|[:.,*>()\[\]~])|[^ \t\r\n#])" + _SKIP
)
_ARROWS = ("=>", "~>")
# Texts that are not words; "" is the eof token.
_NOT_WORD = frozenset(_ARROWS + tuple(":.,*>()[]~") + ("",))
_MODES = {mode.value: mode for mode in Mode}
# Longest line an error quotes whole; a longer one is cut around the column.
SNIPPET_WIDTH = 80


@dataclass
class ParseError:
    line: int
    column: int
    message: str
    snippet: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}\n    {self.snippet}"


class TheorySyntaxError(ValueError):
    """Every error of a source; the message joins them only when asked for."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(self.errors)

    def __str__(self) -> str:
        return "\n".join(map(str, self.errors))


class _Lines:
    """Positions in a source, for its errors.

    Lines end at "\n" only, and a line's text drops one trailing "\r".
    Columns count characters from the start of the line, from 1.
    """

    def __init__(self, source: str):
        texts = source.split("\n")
        self.starts = list(accumulate((len(t) + 1 for t in texts[:-1]), initial=0))
        self.texts = [t[:-1] if t.endswith("\r") else t for t in texts]

    def error(self, offset: int, message: str) -> ParseError:
        line = bisect_right(self.starts, offset)
        column = offset - self.starts[line - 1] + 1
        return ParseError(line, column, message, _snippet(self.texts[line - 1], column))


def _snippet(text: str, column: int) -> str:
    """The line ``text`` itself, or, when it is longer than ``SNIPPET_WIDTH``,
    that many of its characters around ``column``, with "..." at each cut.

    Every error carries its snippet and the ``TheorySyntaxError`` message
    joins them, so a fixed width keeps both linear in the number of errors.
    """
    if len(text) <= SNIPPET_WIDTH:
        return text
    start = max(0, min(column - 1 - SNIPPET_WIDTH // 2, len(text) - SNIPPET_WIDTH))
    end = start + SNIPPET_WIDTH
    head = "..." if start else ""
    tail = "..." if end < len(text) else ""
    return head + text[start:end] + tail


def _tokenize(source: str):
    """The token texts, ending in the eof token "", and the offsets of the
    unexpected characters, found by a second scan only when there are any."""
    start = _LEAD.match(source).end()
    texts = _TOKEN.findall(source, start)
    bad = []
    if "" in texts:
        bad = [m.start() for m in _TOKEN.finditer(source, start) if m.lastindex is None]
        texts = [text for text in texts if text]
    texts.append("")
    return texts, bad


def _token_offsets(source: str) -> list:
    """The offset of every token of ``_tokenize(source)``, eof included.

    The eof token of a source whose last line holds a comment sits at the
    comment's "#": columns do not advance through comments.
    """
    start = _LEAD.match(source).end()
    offsets = [m.start() for m in _TOKEN.finditer(source, start) if m.lastindex]
    comment = source.find("#", source.rfind("\n") + 1)
    offsets.append(comment if comment >= 0 else len(source))
    return offsets


# The statement reader's shapes (see the module docstring).  Whitespace may
# stand where ``render_theory`` writes a space, and nowhere else inside a
# statement; ``\b`` after a mode keeps "Cx" one word.  ``\w`` is ASCII.
_S = r"[ \t\r\n]*"
_FLAT_BODY = rf"(?:~?\w+(?:,{_S}~?\w+)*)?"
_FLAT_HEAD = rf"~?\w+(?:{_S}\*{_S}~?\w+)*"
# A body item or chain element: a literal or a flat rule expression.  The
# groups are its "~", and its atom or its label, body, arrow, mode and chain.
_PART = re.compile(
    rf"(~?)(?:(\w+)|\((\w+):{_S}({_FLAT_BODY}){_S}(=>|~>){_S}([COP])\b{_S}({_FLAT_HEAD})\))",
    re.ASCII,
)
_ANY_PART = rf"~?(?:\w+|\(\w+:{_S}{_FLAT_BODY}{_S}(?:=>|~>){_S}[COP]\b{_S}{_FLAT_HEAD}\))"
# One statement and the whitespace and comments after it.  The groups are
# a fact's "~" and atom; a label; the weaker label of a superiority pair;
# a rule's body, arrow, mode and chain; and any other statement's text.
_STATEMENT = re.compile(
    rf"(?:fact\b{_S}(~?)(\w+)\."
    rf"|(\w+)(?:{_S}>{_S}(\w+)\."
    rf"|:{_S}((?:{_ANY_PART}(?:,{_S}{_ANY_PART})*)?){_S}(=>|~>){_S}([COP])\b{_S}"
    rf"({_ANY_PART}(?:{_S}\*{_S}{_ANY_PART})*)\.)"
    rf"|([^.#]*(?:#[^\n]*[^.#]*)*\.?))" + _SKIP,
    re.ASCII,
)
_ARROW = {arrow.value: arrow for arrow in Arrow}
_NO_ITEMS = frozenset()


class _Unread(Exception):
    """A source the statement reader leaves to ``_Parser``."""


class _Literals(dict):
    """Literal text -> ``Literal``, one object per (atom, polarity)."""

    def __missing__(self, text: str) -> Literal:
        key = text.strip()  # an item after ", ", an element beside " * "
        lit = self[key] if key != text else Literal(key.lstrip("~"), key[0] != "~")
        self[text] = lit
        return lit


def _parts(text: str, sep: str, lits: _Literals):
    """The body items (``sep`` ",") or chain elements (``sep`` "*") in a
    read ``text``.  With a rule expression among them, ``findall`` of
    ``_PART`` matches each in turn and skips the separators."""
    if "(" in text:
        return [
            RuleExpression(_rule(label, body, arrow, mode, head, lits), not neg)
            if label
            else lits[neg + atom]
            for neg, atom, label, body, arrow, mode, head in _PART.findall(text)
        ]
    if sep in text:
        return map(lits.__getitem__, text.split(sep))
    return (lits[text],)


def _rule(label, body, arrow, mode, head, lits) -> Rule:
    """The rule of read groups; raises ``_Unread`` for a chain the grammar
    refuses, which ``_Parser`` reports."""
    chain = tuple(_parts(head, "*", lits))
    if len(chain) > 1 and arrow + mode != "=>O":
        raise _Unread
    items = frozenset(_parts(body, ",", lits)) if body else _NO_ITEMS
    return Rule(label, items, _ARROW[arrow], _MODES[mode], chain)


def _read(source: str) -> Theory:
    """The theory of ``source``, read statement by statement; raises
    ``_Unread`` when ``_Parser`` must read the whole source.

    ``_STATEMENT`` matches each statement: a fact, a superiority pair, a
    rule of the reader's shapes, or any other text up to the next full
    stop.  ``_Parser`` reads all statements of that last kind in one go;
    an error there, or a chain the grammar refuses, raises ``_Unread``.
    """
    lits = _Literals()
    facts, rules, sups, others = [], [], [], []
    start = _LEAD.match(source).end()
    for neg, atom, label, weaker, body, arrow, mode, head, other in _STATEMENT.findall(
        source, start
    ):
        if arrow:
            rules.append(_rule(label, body, arrow, mode, head, lits))
        elif atom:
            facts.append(lits[neg + atom])
        elif weaker:
            sups.append((label, weaker))
        elif other:
            others.append(other)
            rules.append(None)
    if others:
        parser = _Parser("".join(others))
        statements = parser.program()
        # every statement ends at the full stop that ends its text
        if parser.errors or len(statements) != len(others):
            raise _Unread
        statements = iter(statements)
        kept = []
        for rule in rules:
            if rule is None:  # the place of the next statement ``_Parser`` read
                kind, value = next(statements)
                {"fact": facts, "rule": kept, "sup": sups}[kind].append(value)
            else:
                kept.append(rule)
        rules = kept
    return Theory.build(facts, rules, sups)


class _Parser:
    """Recursive descent over the token texts.

    Every failure is at the token consumed last, whose index ``fail`` is
    given; consuming the eof token leaves it current.  Token offsets and
    line positions are computed at the first error.
    """

    def __init__(self, source: str):
        self.source = source
        self.toks, bad = _tokenize(source)
        self.eof = len(self.toks) - 1
        self.pos = 0
        self.depth = 0  # rule expressions open around the current token
        self.offsets = None
        self.lines = None
        self.errors = [
            self.error_at(offset, f"unexpected character {source[offset]!r}")
            for offset in bad
        ]

    def error_at(self, offset: int, message: str) -> ParseError:
        if self.lines is None:
            self.lines = _Lines(self.source)
        return self.lines.error(offset, message)

    def take(self) -> int:
        """Consume the current token and return its index."""
        i = self.pos
        if i < self.eof:
            self.pos = i + 1
        return i

    def fail(self, i: int, message: str):
        if self.offsets is None:
            self.offsets = _token_offsets(self.source)
        raise _Reject(self.error_at(self.offsets[i], message))

    def expect(self, text: str) -> None:
        tok = self.toks[self.pos]
        if tok != text:
            self.fail(self.take(), f"expected {text!r}, found {tok!r}")
        self.pos += 1

    def word(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok in _NOT_WORD:
            self.fail(self.take(), f"expected {what}, found {tok!r}")
        self.pos += 1
        return tok

    # statements ------------------------------------------------------------

    def program(self) -> list:
        """Every statement read, as (kind, value), in source order."""
        statements = []
        while self.pos < self.eof:
            try:
                statements.append(self.statement())
            except _Reject as reject:
                self.errors.append(reject.error)
                self._resync()
        return statements

    def _resync(self) -> None:
        while self.pos < self.eof:
            if self.toks[self.take()] == ".":
                break

    def statement(self):
        toks = self.toks
        tok = toks[self.pos]
        if tok in _NOT_WORD:
            self.fail(self.take(), "expected a statement")
        if tok == "fact" and toks[self.pos + 1] not in (":", ">"):
            self.pos += 1
            lit = self.literal()
            self.expect(".")
            return "fact", lit
        name = tok
        self.pos += 1
        i = self.take()
        if toks[i] == ":":
            rule = self.rule_tail(name)
            self.expect(".")
            return "rule", rule
        if toks[i] == ">":
            weaker = self.word("a rule label")
            self.expect(".")
            return "sup", (name, weaker)
        self.fail(i, f"expected ':' or '>' after {name!r}")

    # rule parts ------------------------------------------------------------

    def rule_tail(self, label: str) -> Rule:
        toks = self.toks
        items = []
        if toks[self.pos] not in _ARROWS:
            items.append(self.item())
            while toks[self.pos] == ",":
                self.pos += 1
                items.append(self.item())
        i = self.take()
        if toks[i] not in _ARROWS:
            self.fail(i, f"expected '=>' or '~>', found {toks[i]!r}")
        arrow = _ARROW[toks[i]]
        mode_text = self.word("a mode (C, O or P)")
        mode = _MODES.get(mode_text)
        if mode is None:
            self.fail(self.pos - 1, f"unknown mode {mode_text!r}")
        chain = [self.chain_element()]
        while toks[self.pos] == "*":
            i = self.take()
            if arrow is not Arrow.DEFEASIBLE or mode is not Mode.O:
                self.fail(i, "reparation chains require '=> O'")
            chain.append(self.chain_element())
        return Rule(label, frozenset(items), arrow, mode, tuple(chain))

    def literal(self) -> Literal:
        positive = True
        if self.toks[self.pos] == "~":
            self.pos += 1
            positive = False
        return Literal(self.word("an atom"), positive)

    def item(self):
        toks = self.toks
        negated = toks[self.pos] == "~"
        if toks[self.pos + negated] == "(":
            return self.rule_expression()
        self.pos += negated
        tok = toks[self.pos]
        if tok == "O" or tok == "P":
            after = toks[self.pos + 1]
            if after == "(":
                self.pos += 2
                lit = self.literal()
                self.expect(")")
                return ModalLiteral(_MODES[tok], lit, negated)
            if after == "[":
                self.pos += 2
                expr = self.rule_expression()
                self.expect("]")
                return DeonticRuleExpression(_MODES[tok], expr, negated)
        return Literal(self.word("an atom"), not negated)

    def rule_expression(self) -> RuleExpression:
        positive = True
        if self.toks[self.pos] == "~":
            self.pos += 1
            positive = False
        self.expect("(")
        rule = self.inline_rule()
        self.expect(")")
        return RuleExpression(rule, positive)

    def inline_rule(self) -> Rule:
        label = self.word("a rule label")
        if self.depth == MAX_NESTING:
            self.fail(self.pos - 1, f"rule expressions nested deeper than {MAX_NESTING}")
        self.depth += 1
        try:
            self.expect(":")
            return self.rule_tail(label)
        finally:
            self.depth -= 1

    def chain_element(self):
        toks = self.toks
        tok = toks[self.pos]
        if tok == "(" or (tok == "~" and toks[self.pos + 1] == "("):
            return self.rule_expression()
        return self.literal()


class _Reject(Exception):
    def __init__(self, error: ParseError):
        self.error = error


def parse_theory(source: str) -> Theory:
    """Parse a .ddl program; raises TheorySyntaxError listing every error."""
    try:
        return _read(source)
    except _Unread:
        return _parse_whole(source)


def _parse_whole(source: str) -> Theory:
    """``parse_theory`` by ``_Parser`` alone, the reference for ``_read``."""
    parser = _Parser(source)
    statements = parser.program()
    if parser.errors:
        raise TheorySyntaxError(parser.errors)
    return Theory.build(
        *([value for kind, value in statements if kind == k] for k in ("fact", "rule", "sup"))
    )


# Rendering -----------------------------------------------------------------


def render_theory(theory: Theory) -> str:
    """Canonical text: sorted facts, rules in declaration order, sorted pairs."""
    out = []
    for fact in sorted(theory.facts, key=lambda l: (l.atom, not l.positive)):
        out.append(f"fact {fact}.")
    for rule in theory.rules:
        out.append(f"{rule}.")
    for a, b in sorted(theory.superiority):
        out.append(f"{a} > {b}.")
    return "\n".join(out) + ("\n" if out else "")


# Queries --------------------------------------------------------------------

_TAG = re.compile(r"^\s*([+-])d(m?)([A-Za-z])\s+(~?)([A-Za-z0-9_]+)\s*$")


def parse_tagged_formula(text: str) -> TaggedFormula:
    """Parse queries like ``+dO a``, ``-dmC ~gamma``."""
    m = _TAG.match(text)
    if not m:
        raise ValueError(f"malformed tagged formula: {text!r}")
    sign_s, meta, mode_s, neg, name = m.groups()
    if mode_s not in ("C", "O", "P"):
        raise ValueError(f"unknown mode {mode_s!r}")
    sign = Sign.PLUS if sign_s == "+" else Sign.MINUS
    mode = Mode(mode_s)
    if meta:
        return TaggedFormula(sign, mode, RuleRef(name, not neg))
    return TaggedFormula(sign, mode, Literal(name, not neg))


# Extension output ------------------------------------------------------------


def extension_dict(ext: Extension) -> dict:
    """The extension as a JSON-ready dict in text order (``Extension.texts``)."""
    tag_texts, undetermined = ext.texts()
    out = dict(zip(TAG_SET_NAMES, tag_texts))
    out["undetermined"] = [{"mode": mode, "subject": subject} for subject, mode in undetermined]
    return out


def _json_block(members, indent: str, brackets: str = "[]") -> str:
    """A JSON array, or object, of encoded members, laid out as ``indent=2`` does."""
    if not members:
        return brackets
    inner = indent + "  "
    body = f",\n{inner}".join(members)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _extension_json(data: dict) -> str:
    """``json.dumps(data, indent=2)`` for an ``extension_dict``.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder; here
    every string goes through the C encoder instead.
    """
    enc = encode_basestring_ascii
    fields = [
        f"{enc(name)}: {_json_block(list(map(enc, subjects)), '  ')}"
        for name, subjects in data.items()
        if name != "undetermined"
    ]
    undetermined = [
        _json_block([f"{enc(k)}: {enc(v)}" for k, v in entry.items()], "    ", "{}")
        for entry in data["undetermined"]
    ]
    fields.append(f'"undetermined": {_json_block(undetermined, "  ")}')
    return _json_block(fields, "", "{}")


def render_extension(ext: Extension, format: str = "text") -> str:
    """Serialize an extension; JSON is byte-stable across runs."""
    data = extension_dict(ext)
    if format == "json":
        return _extension_json(data) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    width = max(len(k) for k in data)
    lines = [
        f"{name:<{width}}  {', '.join(subjects) or '-'}"
        for name, subjects in data.items()
        if name != "undetermined"
    ]
    und = ", ".join(f"{u['mode']} {u['subject']}" for u in data["undetermined"])
    lines.append(f"{'undetermined':<{width}}  {und or '-'}")
    return "\n".join(lines) + "\n"
