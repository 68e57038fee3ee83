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
comment running to the end of the line.  Atoms and labels are ASCII words
over [A-Za-z0-9_].  Reparation chains are only accepted after ``=> O``.
Rule expressions nest at most ``MAX_NESTING`` deep.

Parsing is total: any byte input produces either a theory or a list of
positioned errors, never an exception from inside.  Rendering is
canonical -- facts first (sorted), rules in declaration order, superiority
pairs last -- and parsing a rendered theory reproduces the model exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .model import (
    Arrow,
    DeonticRuleExpression,
    Extension,
    Literal,
    ModalLiteral,
    Mode,
    Rule,
    RuleExpression,
    RuleRef,
    Sign,
    TAG_KEYS,
    TaggedFormula,
    Theory,
)

WORD = re.compile(r"[A-Za-z0-9_]+")
# Deepest nesting of rule expressions the parser accepts.  Nesting two deep
# already puts a meta-rule inside a rule expression, which validation
# rejects, so the bound only keeps the recursive descent (a few frames per
# level) far from the interpreter's recursion limit.
MAX_NESTING = 64
_PUNCT = ("=>", "~>", ":", ".", ",", "*", ">", "(", ")", "[", "]", "~")


@dataclass
class ParseError:
    line: int
    column: int
    message: str
    snippet: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}\n    {self.snippet}"


class TheorySyntaxError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(str(e) for e in self.errors))


@dataclass
class _Token:
    kind: str  # "word", "punct", "eof"
    text: str
    line: int
    column: int


def _tokenize(source: str):
    tokens, errors = [], []
    line, col, i, n = 1, 1, 0, len(source)
    lines = source.splitlines() or [""]
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
        m = WORD.match(source, i)
        if m:
            tokens.append(_Token("word", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        snippet = lines[line - 1] if line - 1 < len(lines) else ""
        errors.append(ParseError(line, col, f"unexpected character {ch!r}", snippet))
        i += 1
        col += 1
    tokens.append(_Token("eof", "", line, col))
    return tokens, errors


class _Parser:
    def __init__(self, source: str):
        self.lines = source.splitlines() or [""]
        self.tokens, self.errors = _tokenize(source)
        self.pos = 0
        self.depth = 0  # rule expressions open around the current token

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        snippet = self.lines[tok.line - 1] if tok.line - 1 < len(self.lines) else ""
        raise _Reject(ParseError(tok.line, tok.column, message, snippet))

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            self.fail(tok, f"expected {text!r}, found {tok.text!r}")
        return tok

    def word(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "word":
            self.fail(tok, f"expected {what}, found {tok.text!r}")
        return tok

    # statements ------------------------------------------------------------

    def program(self):
        facts, rules, sups = [], [], []
        while self.peek().kind != "eof":
            try:
                kind, value = self.statement()
            except _Reject as reject:
                self.errors.append(reject.error)
                self._resync()
                continue
            if kind == "fact":
                facts.append(value)
            elif kind == "rule":
                rules.append(value)
            else:
                sups.append(value)
        return facts, rules, sups

    def _resync(self) -> None:
        while self.peek().kind != "eof":
            if self.next().text == ".":
                break

    def statement(self):
        tok = self.peek()
        if tok.kind != "word":
            self.fail(self.next(), "expected a statement")
        if tok.text == "fact" and self.peek(1).text != ":":
            self.next()
            lit = self.literal()
            self.expect(".")
            return "fact", lit
        name = self.next().text
        nxt = self.next()
        if nxt.text == ":":
            rule = self.rule_tail(name)
            self.expect(".")
            return "rule", rule
        if nxt.text == ">":
            weaker = self.word("a rule label").text
            self.expect(".")
            return "sup", (name, weaker)
        self.fail(nxt, f"expected ':' or '>' after {name!r}")

    # rule parts ------------------------------------------------------------

    def rule_tail(self, label: str) -> Rule:
        items = []
        if self.peek().text not in ("=>", "~>"):
            items.append(self.item())
            while self.peek().text == ",":
                self.next()
                items.append(self.item())
        arrow_tok = self.next()
        if arrow_tok.text not in ("=>", "~>"):
            self.fail(arrow_tok, f"expected '=>' or '~>', found {arrow_tok.text!r}")
        arrow = Arrow.DEFEASIBLE if arrow_tok.text == "=>" else Arrow.DEFEATER
        mode_tok = self.word("a mode (C, O or P)")
        try:
            mode = Mode(mode_tok.text)
        except ValueError:
            self.fail(mode_tok, f"unknown mode {mode_tok.text!r}")
        chain = [self.chain_element()]
        while self.peek().text == "*":
            star = self.next()
            if arrow is not Arrow.DEFEASIBLE or mode is not Mode.O:
                self.fail(star, "reparation chains require '=> O'")
            chain.append(self.chain_element())
        return Rule(label, frozenset(items), arrow, mode, tuple(chain))

    def literal(self) -> Literal:
        positive = True
        if self.peek().text == "~":
            self.next()
            positive = False
        atom = self.word("an atom").text
        return Literal(atom, positive)

    def item(self):
        negated = False
        if self.peek().text == "~":
            if self.peek(1).text == "(":
                self.next()
                self.next()
                rule = self.inline_rule()
                self.expect(")")
                return RuleExpression(rule, False)
            self.next()
            negated = True
        tok = self.peek()
        if tok.text == "(" and not negated:
            self.next()
            rule = self.inline_rule()
            self.expect(")")
            return RuleExpression(rule, True)
        if tok.kind == "word" and tok.text in ("O", "P"):
            after = self.peek(1).text
            if after == "(":
                self.next()
                self.next()
                lit = self.literal()
                self.expect(")")
                return ModalLiteral(Mode(tok.text), lit, negated)
            if after == "[":
                self.next()
                self.next()
                expr = self.rule_expression()
                self.expect("]")
                return DeonticRuleExpression(Mode(tok.text), expr, negated)
        atom = self.word("an atom").text
        return Literal(atom, not negated)

    def rule_expression(self) -> RuleExpression:
        positive = True
        if self.peek().text == "~":
            self.next()
            positive = False
        self.expect("(")
        rule = self.inline_rule()
        self.expect(")")
        return RuleExpression(rule, positive)

    def inline_rule(self) -> Rule:
        label_tok = self.word("a rule label")
        if self.depth == MAX_NESTING:
            self.fail(label_tok, f"rule expressions nested deeper than {MAX_NESTING}")
        self.depth += 1
        try:
            self.expect(":")
            return self.rule_tail(label_tok.text)
        finally:
            self.depth -= 1

    def chain_element(self):
        tok = self.peek()
        if tok.text == "(" or (tok.text == "~" and self.peek(1).text == "("):
            return self.rule_expression()
        return self.literal()


class _Reject(Exception):
    def __init__(self, error: ParseError):
        self.error = error


def parse_theory(source: str) -> Theory:
    """Parse a .ddl program; raises TheorySyntaxError listing every error."""
    parser = _Parser(source)
    facts, rules, sups = parser.program()
    if parser.errors:
        raise TheorySyntaxError(parser.errors)
    return Theory.build(facts, rules, sups)


# Rendering -----------------------------------------------------------------


def _render_item(item) -> str:
    if isinstance(item, Literal):
        return str(item)
    if isinstance(item, ModalLiteral):
        neg = "~" if item.negated else ""
        return f"{neg}{item.mode}({item.inner})"
    if isinstance(item, RuleExpression):
        neg = "" if item.positive else "~"
        return f"{neg}({_render_rule_body(item.rule)})"
    if isinstance(item, DeonticRuleExpression):
        neg = "~" if item.negated else ""
        return f"{neg}{item.mode}[{_render_item(item.expr)}]"
    raise TypeError(repr(item))


def _render_rule_body(rule: Rule) -> str:
    items = sorted(_render_item(i) for i in rule.antecedent)
    body = ", ".join(items)
    head = " * ".join(_render_item(e) for e in rule.consequent)
    lead = f"{rule.label}: {body}" if body else f"{rule.label}:"
    return f"{lead} {rule.arrow.value} {rule.mode} {head}"


def render_theory(theory: Theory) -> str:
    """Canonical text: sorted facts, rules in declaration order, sorted pairs."""
    out = []
    for fact in sorted(theory.facts, key=lambda l: (l.atom, not l.positive)):
        out.append(f"fact {fact}.")
    for rule in theory.rules:
        out.append(_render_rule_body(rule) + ".")
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


def _subject_text(subject) -> str:
    return str(subject)


def extension_dict(ext: Extension) -> dict:
    """The extension as a JSON-ready dict with deterministic ordering."""
    out = {}
    for key in TAG_KEYS:
        sign = Sign.PLUS if key[0] == "+" else Sign.MINUS
        meta = "m" in key
        mode = Mode(key[-1])
        table = ext.rules if meta else ext.literals
        out[key] = sorted(_subject_text(s) for s in table[(sign, mode)])
    out["undetermined"] = [
        {"mode": str(mode), "subject": _subject_text(subject)}
        for mode, subject in sorted(
            ext.undetermined, key=lambda p: (_subject_text(p[1]), str(p[0]))
        )
    ]
    return out


def render_extension(ext: Extension, format: str = "text") -> str:
    """Serialize an extension; JSON is byte-stable across runs."""
    data = extension_dict(ext)
    if format == "json":
        return json.dumps(data, indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")
    width = max(len(k) for k in data)
    lines = []
    for key in TAG_KEYS:
        lines.append(f"{key:<{width}}  {', '.join(data[key]) or '-'}")
    und = ", ".join(f"{u['mode']} {u['subject']}" for u in data["undetermined"])
    lines.append(f"{'undetermined':<{width}}  {und or '-'}")
    return "\n".join(lines) + "\n"
