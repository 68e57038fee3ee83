"""Hypothesis strategies for the object language."""

from __future__ import annotations

from hypothesis import strategies as st

from ddmr.generate import FAMILIES
from ddmr.model import (
    Arrow,
    DeonticRuleExpression,
    Literal,
    ModalLiteral,
    Mode,
    Rule,
    RuleExpression,
    Theory,
)

atoms = st.sampled_from(["a", "b", "c", "d", "e"])
literals = st.builds(Literal, atoms, st.booleans())
modal_literals = st.builds(
    ModalLiteral, st.sampled_from([Mode.O, Mode.P]), literals, st.booleans()
)

_label_counter = st.integers(min_value=0, max_value=10_000)


@st.composite
def standard_rules(draw, label_prefix: str = "r") -> Rule:
    mode = draw(st.sampled_from(list(Mode)))
    arrow = draw(st.sampled_from(list(Arrow)))
    items = draw(st.lists(st.one_of(literals, modal_literals), max_size=3))
    if mode is Mode.O and arrow is Arrow.DEFEASIBLE:
        chain = draw(
            st.lists(literals, min_size=1, max_size=3, unique_by=lambda l: (l.atom, l.positive))
        )
    else:
        chain = [draw(literals)]
    label = f"{label_prefix}{draw(_label_counter)}"
    return Rule(label, frozenset(items), arrow, mode, tuple(chain))


@st.composite
def rule_expressions(draw) -> RuleExpression:
    return RuleExpression(draw(standard_rules("n")), draw(st.booleans()))


@st.composite
def meta_rules(draw) -> Rule:
    mode = draw(st.sampled_from(list(Mode)))
    arrow = draw(st.sampled_from(list(Arrow)))
    items = draw(
        st.lists(
            st.one_of(
                literals,
                modal_literals,
                rule_expressions(),
                st.builds(
                    DeonticRuleExpression,
                    st.sampled_from([Mode.O, Mode.P]),
                    rule_expressions(),
                    st.booleans(),
                ),
            ),
            max_size=2,
        )
    )
    if mode is Mode.O and arrow is Arrow.DEFEASIBLE:
        chain = draw(
            st.lists(
                st.one_of(literals, rule_expressions()),
                min_size=1,
                max_size=3,
                unique_by=lambda e: (
                    ("lit", e.atom, e.positive)
                    if isinstance(e, Literal)
                    else ("rex", e.rule.label, e.positive)
                ),
            )
        )
    else:
        chain = [draw(st.one_of(literals, rule_expressions()))]
    label = f"m{draw(_label_counter)}"
    return Rule(label, frozenset(items), arrow, mode, tuple(chain))


any_rules = st.one_of(standard_rules(), meta_rules())


# Names from a wider alphabet than the grammar's words: empty, spaced,
# punctuated or keyword-like.
loose_names = st.one_of(
    st.text(alphabet="aB1_ ~.:(#", max_size=3), st.sampled_from(["fact", "C", "O", "P"])
)
word_names = st.sampled_from(["a", "b", "r1", "_", "fact", "C", "O", "P"])


@st.composite
def loose_rules(draw, names, meta: bool = True) -> Rule:
    lits = st.builds(Literal, names, st.booleans())
    items = draw(
        st.lists(
            st.one_of(
                lits,
                st.builds(ModalLiteral, st.sampled_from([Mode.O, Mode.P]), lits, st.booleans()),
            ),
            max_size=2,
        )
    )
    if meta and draw(st.booleans()):
        head = RuleExpression(draw(loose_rules(names, meta=False)), draw(st.booleans()))
    else:
        head = draw(lits)
    mode = draw(st.sampled_from(list(Mode)))
    arrow = draw(st.sampled_from(list(Arrow)))
    return Rule(draw(names), frozenset(items), arrow, mode, (head,))


@st.composite
def loose_theories(draw) -> Theory:
    """Small theories whose atoms and labels come either all from
    ``word_names`` or from ``word_names`` and ``loose_names`` both."""
    names = draw(st.sampled_from([word_names, st.one_of(word_names, loose_names)]))
    rules = draw(st.lists(loose_rules(names), max_size=4))
    labels = st.sampled_from([r.label for r in rules] + [draw(names)])
    sup = draw(st.lists(st.tuples(labels, labels), max_size=3))
    facts = draw(st.lists(st.builds(Literal, names, st.booleans()), max_size=3))
    return Theory.build(facts, rules, sup)


# True one time in eight.  Hypothesis shrinks towards, and favours, the first
# element of ``sampled_from``, so False comes first.
rarely = st.sampled_from([False] * 7 + [True])


_ITEM_KINDS = (Literal, ModalLiteral, RuleExpression, DeonticRuleExpression, Rule)


@st.composite
def model_items(draw, names, depth: int = 5, kinds=_ITEM_KINDS):
    """An object of one of ``kinds`` whose slots hold model items again,
    ``depth`` constructor levels at most (so rules nest two deep under a
    rule).  A slot holds a type it accepts or, as often, any type; a rule
    rarely has a list for its antecedent or chain, or a string for its
    arrow or mode.  A part that its constructor rejects becomes a literal."""

    def part(*accepted):
        return draw(
            st.one_of(
                model_items(names, depth - 1, accepted), model_items(names, depth - 1)
            )
        )

    literal = st.builds(Literal, names, st.booleans())
    kind = draw(st.sampled_from(kinds)) if depth else Literal
    modes = st.sampled_from(list(Mode))
    try:
        if kind is Literal:
            return draw(literal)
        if kind is Rule:
            mode, arrow = draw(modes), draw(st.sampled_from(list(Arrow)))
            chained = mode is Mode.O and arrow is Arrow.DEFEASIBLE
            # a length the rule accepts, or rarely any
            length = st.integers(0, 3) if draw(rarely) else st.integers(1, 3 if chained else 1)
            items = frozenset(part(*_ITEM_KINDS[:4]) for _ in range(draw(st.integers(0, 2))))
            chain = tuple(part(Literal, RuleExpression) for _ in range(draw(length)))
            if draw(rarely):  # a container or an enum the rule does not take
                wrong = draw(st.integers(0, 3))
                items = list(items) if wrong == 0 else items
                chain = list(chain) if wrong == 1 else chain
                arrow = str(arrow) if wrong == 2 else arrow
                mode = str(mode) if wrong == 3 else mode
            return Rule(draw(names), items, arrow, mode, chain)
        if kind is RuleExpression:
            return RuleExpression(part(Rule), draw(st.booleans()))
        inner = part(Literal) if kind is ModalLiteral else part(RuleExpression)
        return kind(draw(modes), inner, draw(st.booleans()))
    except ValueError:
        return draw(literal)


# Literals that the constructor takes and validation refuses: an atom that
# is not a string (a list, which does not even hash), or a polarity that is
# not a bool.
odd_literals = st.one_of(
    st.builds(Literal, st.lists(word_names, min_size=1, max_size=2)),
    st.builds(Literal, word_names, st.sampled_from(["yes", None, 0, 1])),
)


@st.composite
def model_theories(draw) -> Theory:
    """Theories built from ``model_items``: facts of any item type, the rules
    that their constructor accepted (a theory takes only rules), rarely a
    rule concluding one of ``odd_literals`` (a chain is a tuple, so nothing
    hashes it), often two meta-rules that each conclude a plain rule, over
    labels of their own, with a superiority pair between the two concluded
    labels (or a self-pair of one), superiority pairs over the rules'
    labels, those concluded included, and unknown ones, rarely with an
    entry that is no such pair (a 1- or 3-tuple, a 2-character string, or
    a pair with a label that is not a string), and
    rarely a rule whose label is a list, which does not hash, given or
    nested in the chain of a given rule, and rarely a fact and its
    complement, of polarity False or 0, over a name or a hashable atom that
    is not a string."""
    names = draw(st.sampled_from([word_names, st.one_of(word_names, loose_names)]))
    rules = draw(st.lists(model_items(names, kinds=(Rule,)), max_size=4))
    rules = [r for r in rules if isinstance(r, Rule)]
    if draw(rarely):
        odd = draw(odd_literals)
        rules.append(Rule(draw(names), frozenset(), Arrow.DEFEASIBLE, Mode.C, (odd,)))
    concluded = []
    if draw(st.booleans()):  # superiority between concluded rules, which their concluders inherit
        literal = st.builds(Literal, names, st.booleans())
        stem = draw(names)  # the digits keep these labels clear of ``names``
        *concluded, m1, m2 = (f"{stem}_{i}" for i in range(2, 6))
        for meta, label in zip((m1, m2), concluded):
            items = frozenset(draw(st.lists(literal, max_size=2)))
            mode = draw(st.sampled_from(list(Mode)))
            inner = Rule(label, items, Arrow.DEFEASIBLE, mode, (draw(literal),))
            expr = RuleExpression(inner, draw(st.booleans()))
            rules.append(Rule(meta, frozenset(), Arrow.DEFEASIBLE, Mode.C, (expr,)))
    labels = st.sampled_from([r.label for r in rules] + [draw(names)] + concluded)
    sup = draw(st.lists(st.tuples(labels, labels), max_size=3))
    if concluded:
        pick = st.sampled_from(concluded)
        sup.append(draw(st.tuples(pick, pick)))
    if draw(rarely):
        malformed = st.one_of(
            st.tuples(labels),
            st.tuples(labels, labels, labels),
            st.text(alphabet="ab_", min_size=2, max_size=2),
            st.tuples(st.one_of(st.integers(0, 9), st.none()), labels),
            st.tuples(labels, st.integers(0, 9)),
        )
        sup.append(draw(malformed))
    if draw(rarely):  # after the pairs: a list label in a pair would not hash
        chain = (Literal(draw(names)),)
        odd = Rule(draw(st.lists(names, max_size=2)), frozenset(), Arrow.DEFEASIBLE, Mode.C, chain)
        if draw(st.booleans()):
            odd = Rule(draw(names), frozenset(), Arrow.DEFEASIBLE, Mode.C, (RuleExpression(odd),))
        rules.append(odd)
    fact = st.one_of(st.builds(Literal, names, st.booleans()), model_items(names))
    facts = draw(st.lists(fact, max_size=3))
    if draw(rarely):  # a fact and its complement, over an atom that may write no string
        atom = draw(st.one_of(st.sampled_from([5, ("x",), None]), names))
        facts += [Literal(atom), Literal(atom, draw(st.sampled_from([False, 0])))]
    return Theory.build(facts, rules, sup)


# Junk argument values.  A process's argv and environment never hold a NUL
# or a surrogate (but for one standing in for a byte that is not UTF-8,
# as in a path the CLI tests pass), so these do not.
junk = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
    st.sampled_from(["--help", "--nope", "-x", "-5", "--oracle", "1e3", "é"]),
)


COMMANDS = ("extension", "query", "validate", "diff", "bench")


@st.composite
def cli_argvs(draw, command, paths, outs) -> list:
    """An argv for ``cli.main``: ``command``, or junk when it is None; its
    positional arguments, paths from ``paths``, rarely one missing; any of
    its options, with valid or rarely junk values (``bench --out`` from
    ``outs``, and always ``--sizes``, each at most 200); rarely junk
    tokens; all in any order."""

    def value(valid):
        return draw(junk) if draw(rarely) else draw(st.sampled_from(valid))

    if command is None:
        command = draw(junk)
    groups = []
    if command in COMMANDS and command != "bench":
        groups.append([draw(st.sampled_from(paths))])
    if command == "query":
        groups.append([value(["+dO a", "-dC ~l", "+dmC alpha", "-dmP ~beta", "+dX a"])])
    if groups and draw(rarely):
        groups.pop()
    variant = ["--variant", value(["simple", "cautious"])]
    # small sizes are where a generator may miss its target by over 10 %
    size = st.integers(0, 200) | st.integers(0, 50)
    sizes = ",".join(map(str, draw(st.lists(size, max_size=3))))
    options = {
        "extension": [variant, ["--oracle"], ["--format", value(["json", "text"])]],
        "query": [variant, ["--oracle"]],
        "bench": [
            ["--family", value(FAMILIES)],
            ["--family", value(FAMILIES)],
            ["--seed", value([str(draw(st.integers(-(2**70), 2**70)))])],
            variant,
            ["--variant", value(["simple", "cautious"])],
            ["--out", value(outs)],
        ],
    }.get(command, [])
    groups += [option for option in options if draw(st.booleans())]
    if command == "bench":  # without sizes, bench runs nothing
        groups.append(["--sizes", value([sizes])])
    if draw(rarely):
        groups += [[token] for token in draw(st.lists(junk, min_size=1, max_size=2))]
    return [command] + [token for group in draw(st.permutations(groups)) for token in group]
