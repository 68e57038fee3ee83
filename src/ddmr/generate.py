"""Seeded theory generators for tests and benchmarks.

Six families:

* ``chain``      -- facts feeding a linear implication chain;
* ``team``       -- contested literals, several supporters against several
                    opposers with pairwise superiority (team defeat);
* ``meta-chain`` -- meta-rules concluding the rules that feed the next
                    link, mixing constitutive and obligation chains;
* ``random``     -- arbitrary mixtures of modes, arrows, reparation chains,
                    modal antecedents, meta-rules and negated rule
                    expressions;
* ``reparation`` -- one obligation rule whose reparation chain is the
                    whole theory, every element but the last violated;
* ``clash``      -- pairs of meta-rules whose concluded rules all clash:
                    dense in conflicts, under both readings.

All generators are deterministic in (family, size target, seed), produce
theories that validate without errors, and land within ten percent of the
requested size metric (literal occurrences + rule occurrences + 2 per
superiority pair); ``generate_theory`` raises ``SizeOutOfReach``, a
``ValueError``, for a size its family cannot reach that closely.
"""

from __future__ import annotations

import random
from itertools import chain

from .model import (
    Arrow,
    DeonticRuleExpression,
    Literal,
    ModalLiteral,
    Mode,
    Rule,
    RuleExpression,
    Theory,
    concluders,
    inherited_pairs,
    rule_size,
    theory_size,
    validate,
)

FAMILIES = ("chain", "team", "meta-chain", "random", "reparation", "clash")


class SizeOutOfReach(ValueError):
    """A size target that a family's generator cannot reach within 10 %."""


def generate_theory(family: str, size: int, seed: int = 0) -> Theory:
    if family == "chain":
        theory = _chain(size)
    elif family == "team":
        theory = _team(size, seed)
    elif family == "meta-chain":
        theory = _meta_chain(size)
    elif family == "random":
        theory = random_theory(seed, size)
    elif family == "reparation":
        theory = _reparation(size)
    elif family == "clash":
        theory = _clash(size)
    else:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    report = validate(theory)
    if report.errors:
        raise AssertionError(f"generator bug: {report.errors}")
    if size > 0:
        achieved = theory_size(theory)
        if not 0.9 * size <= achieved <= 1.1 * size:
            raise SizeOutOfReach(f"{family}: size {size} is out of reach, made {achieved}")
    return theory


def _chain(size: int) -> Theory:
    if size <= 0:
        return Theory.build()
    facts = [Literal("a0")]
    rules = []
    # one fact plus N rules of 3 symbols each
    n = max(0, round((size - 1) / 3))
    for i in range(1, n + 1):
        rules.append(
            Rule(
                f"r{i}",
                frozenset([Literal(f"a{i - 1}")]),
                Arrow.DEFEASIBLE,
                Mode.C,
                (Literal(f"a{i}"),),
            )
        )
    return Theory.build(facts, rules)


def _team(size: int, seed: int) -> Theory:
    if size <= 0:
        return Theory.build()
    rng = random.Random(seed)
    facts, rules, sup = [], [], []
    block = 0
    achieved = 0  # theory_size of what is built so far; facts are all distinct
    # a block: k supporters against k opposers of one contested literal, one
    # fact per rule, pairwise superiority favouring the supporting team
    while achieved < size * 0.9:
        members = min(rng.choice((1, 2, 3)), max(1, (size - achieved) // 10))
        lit = Literal(f"l{block}")
        for i in range(members):
            pro, con = Literal(f"p{block}_{i}"), Literal(f"c{block}_{i}")
            facts += [pro, con]
            pair = (
                Rule(f"for{block}_{i}", frozenset([pro]), Arrow.DEFEASIBLE, Mode.C, (lit,)),
                Rule(
                    f"against{block}_{i}",
                    frozenset([con]),
                    Arrow.DEFEASIBLE,
                    Mode.C,
                    (lit.complement(),),
                ),
            )
            rules.extend(pair)
            sup.append((f"for{block}_{i}", f"against{block}_{i}"))
            achieved += 2 + sum(map(rule_size, pair)) + 2  # facts, rules, pair
        block += 1
    return Theory.build(facts, rules, sup)


def _reparation(size: int) -> Theory:
    if size <= 0:
        return Theory.build()
    # ``fact a.``, ``fact ~b_i.`` for i < n - 1 and ``r: a => O b_0 * ... * b_{n-1}``:
    # 1 + (n - 1) + (n + 2) symbols; every element but the last is violated
    n = max(1, round((size - 2) / 2))
    chain = tuple(Literal(f"b_{i}") for i in range(n))
    facts = [Literal("a")] + [b.complement() for b in chain[:-1]]
    rule = Rule("r", frozenset([Literal("a")]), Arrow.DEFEASIBLE, Mode.O, chain)
    return Theory.build(facts, [rule])


def _clash(size: int) -> Theory:
    if size <= 0:
        return Theory.build()
    # ``fact a. fact b.`` and, for i < n, ``m_i: a => C (r_i: b => C x).`` and
    # ``n_i: a => C (s_i: b => C ~x).``: 2 + 10n symbols; every r_i clashes
    # with every s_i, and so every m_i with every n_i
    n = max(1, round((size - 2) / 10))
    a, b, x = Literal("a"), Literal("b"), Literal("x")
    rules = []
    for i in range(n):
        for meta, inner, head in (("m", "r", x), ("n", "s", x.complement())):
            nested = Rule(f"{inner}_{i}", frozenset([b]), Arrow.DEFEASIBLE, Mode.C, (head,))
            rules.append(
                Rule(
                    f"{meta}_{i}",
                    frozenset([a]),
                    Arrow.DEFEASIBLE,
                    Mode.C,
                    (RuleExpression(nested, True),),
                )
            )
    return Theory.build([a, b], rules)


def _meta_chain(size: int) -> Theory:
    if size <= 0:
        return Theory.build()
    facts = [Literal("b0")]
    rules = []
    achieved = len(facts)  # theory_size of what is built so far
    i = 0
    # each link: a meta-rule deriving the rule that produces the next literal
    while achieved < 0.9 * size and achieved + 5 <= 1.1 * size:
        i += 1
        inner = Rule(
            f"s{i}",
            frozenset([Literal(f"b{i - 1}")]),
            Arrow.DEFEASIBLE,
            Mode.C,
            (Literal(f"b{i}"),),
        )
        rules.append(
            Rule(
                f"m{i}",
                frozenset([Literal(f"b{i - 1}")]),
                Arrow.DEFEASIBLE,
                Mode.C,
                (RuleExpression(inner, True),),
            )
        )
        achieved += rule_size(rules[-1])
    return Theory.build(facts, rules)


class _RandomBuilder:
    def __init__(self, rng: random.Random, size: int, acyclic: bool):
        self.rng = rng
        self.size = max(size, 4)
        self.acyclic = acyclic
        self.atoms = [f"a{i}" for i in range(max(3, self.size // 6))]
        self.counter = 0
        self.standard_rules: list = []  # standard rules usable inside metas

    def literal(self) -> Literal:
        return Literal(self.rng.choice(self.atoms), self.rng.random() < 0.6)

    def fresh_label(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def standard_rule(self, chain_ok: bool = True) -> Rule:
        rng = self.rng
        mode = rng.choice((Mode.C, Mode.C, Mode.O, Mode.P))
        arrow = Arrow.DEFEATER if rng.random() < 0.15 else Arrow.DEFEASIBLE
        items = []
        for _ in range(rng.randrange(0, 3)):
            if rng.random() < 0.25:
                items.append(
                    ModalLiteral(
                        rng.choice((Mode.O, Mode.P)),
                        self.literal(),
                        rng.random() < 0.3,
                    )
                )
            else:
                items.append(self.literal())
        length = 1
        if chain_ok and mode is Mode.O and arrow is Arrow.DEFEASIBLE:
            length = rng.choice((1, 1, 2, 3))
        chain, seen = [], set()
        while len(chain) < length:
            lit = self.literal()
            if (lit.atom, lit.positive) not in seen:
                seen.add((lit.atom, lit.positive))
                chain.append(lit)
        rule = Rule(self.fresh_label("r"), frozenset(items), arrow, mode, tuple(chain))
        self.standard_rules.append(rule)
        return rule

    def nested_expression(self) -> RuleExpression:
        rng = self.rng
        # reuse an existing standard rule sometimes: same label, same content,
        # exercising shared subjects between meta-rules
        if self.standard_rules and rng.random() < 0.4:
            rule = rng.choice(self.standard_rules)
        elif self.standard_rules and rng.random() < 0.3:
            # content twin under a fresh label: conflicts across labels
            base = rng.choice(self.standard_rules)
            rule = Rule(
                self.fresh_label("t"),
                base.antecedent,
                base.arrow,
                base.mode,
                base.consequent,
            )
            self.standard_rules.append(rule)
        else:
            rule = self.standard_rule()
        return RuleExpression(rule, rng.random() < 0.7)

    def meta_rule(self) -> Rule:
        rng = self.rng
        mode = rng.choice((Mode.C, Mode.O, Mode.P))
        arrow = Arrow.DEFEATER if rng.random() < 0.1 else Arrow.DEFEASIBLE
        items = []
        for _ in range(rng.randrange(0, 2)):
            roll = rng.random()
            if roll < 0.5:
                items.append(self.literal())
            elif roll < 0.8:
                items.append(self.nested_expression())
            else:
                items.append(
                    DeonticRuleExpression(
                        rng.choice((Mode.O, Mode.P)),
                        self.nested_expression(),
                        rng.random() < 0.3,
                    )
                )
        length = 1
        if mode is Mode.O and arrow is Arrow.DEFEASIBLE:
            length = rng.choice((1, 1, 2))
        chain, seen = [], set()
        guard = 0
        while len(chain) < length and guard < 20:
            guard += 1
            elem = (
                self.nested_expression()
                if rng.random() < 0.7 or not chain
                else self.literal()
            )
            key = (
                ("rex", elem.rule.label, elem.positive)
                if isinstance(elem, RuleExpression)
                else ("lit", elem.atom, elem.positive)
            )
            if key in seen:
                continue
            seen.add(key)
            chain.append(elem)
        if not any(isinstance(e, RuleExpression) for e in chain):
            chain[0] = self.nested_expression()
        return Rule(self.fresh_label("m"), frozenset(items), arrow, mode, tuple(chain))

    def build(self) -> Theory:
        rng = self.rng
        facts: set = set()
        rules: list = []
        lo, hi = 0.9 * self.size, 1.1 * self.size

        achieved = 0
        rules_size = 0  # sum of rule_size over rules
        stalls = 0
        while achieved < lo and stalls < 50:
            roll = rng.random()
            if roll < 0.25:
                added_fact = self.literal()
                facts.add(added_fact)
            else:
                rules.append(self.standard_rule() if roll < 0.62 else self.meta_rule())
                rules_size += rule_size(rules[-1])
            new_size = len(facts) + rules_size
            if new_size > hi:
                # undo the overshooting step and retry with something smaller
                if roll < 0.25:
                    facts.discard(added_fact)
                else:
                    rules_size -= rule_size(rules.pop())
                stalls += 1
                continue
            achieved = new_size
        budget = max(0, int(hi) - achieved) // 2
        return Theory.build(facts, rules, self.superiority(facts, rules, budget))

    def superiority(self, facts, rules, budget: int) -> set:
        """Up to ``budget`` superiority pairs over any labels in the theory.

        With ``acyclic`` a pair goes from the earlier label to the later one,
        and is refused when it would close a cycle in the extended
        relation: the pair and the pairs it makes inherit
        (``model.extended_superiority``) join that relation, kept by winner,
        only when no new edge's loser reaches its winner.
        """
        by_label = Theory.build(facts, rules).rules_by_label()
        labels = sorted(by_label)
        if self.acyclic:
            order = {label: i for i, label in enumerate(labels)}
            by_concluded = concluders(by_label)
            extended: dict = {}  # the extended relation of ``pairs``, winner -> losers
        pairs: set = set()
        attempts = 0
        while len(pairs) < budget and attempts < budget * 8 + 8 and len(labels) > 1:
            attempts += 1
            a, b = self.rng.sample(labels, 2)
            if self.acyclic:
                if order[a] >= order[b]:
                    a, b = b, a
                edges = {(a, b)} | inherited_pairs(by_concluded, a, b)
                if _closes_cycle(extended, edges):
                    continue
                for x, y in edges:
                    extended.setdefault(x, set()).add(y)
            pairs.add((a, b))
        return pairs


def _closes_cycle(graph: dict, edges) -> bool:
    """Whether adding ``edges`` to the acyclic ``graph`` (node -> successors)
    closes a cycle: some new edge's target reaches its source."""
    added: dict = {}
    for u, v in edges:
        added.setdefault(u, set()).add(v)
    for u, v in edges:
        seen, stack = {v}, [v]
        while stack:
            node = stack.pop()
            if node == u:
                return True
            for succ in chain(graph.get(node, ()), added.get(node, ())):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
    return False


def random_theory(seed: int, size: int, acyclic: bool = False) -> Theory:
    """A seeded random theory near the requested size.

    With ``acyclic`` the superiority relation is kept acyclic and so is the
    extended relation induced through concluded rules.  ``generate_theory``
    validates what it returns; this does not.
    """
    if size <= 0:
        return Theory.build()
    return _RandomBuilder(random.Random(seed), size, acyclic).build()
