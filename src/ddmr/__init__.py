"""Defeasible deontic meta-rule reasoner.

Parse theories of facts, rules and meta-rules, compute their extensions
under the simple or cautious conflict reading, and cross-check the engine
against a direct evaluator of the proof conditions.
"""

from .conflicts import Variant
from .engine import (
    PROVED,
    REFUTED,
    UNDETERMINED,
    UNKNOWN_SUBJECT,
    compute_extension,
    diff_variants,
    query,
)
from .extension import Extension
from .model import (
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
    extended_superiority,
    herbrand_base,
    theory_size,
    validate,
)
from .oracle import check_equivalence, oracle_extension
from .text import (
    ParseError,
    TheorySyntaxError,
    parse_tagged_formula,
    parse_theory,
    render_extension,
    render_theory,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "DeonticRuleExpression",
    "Extension",
    "Literal",
    "ModalLiteral",
    "Mode",
    "ParseError",
    "PROVED",
    "REFUTED",
    "Rule",
    "RuleExpression",
    "RuleRef",
    "Sign",
    "TaggedFormula",
    "Theory",
    "TheorySyntaxError",
    "UNDETERMINED",
    "UNKNOWN_SUBJECT",
    "Variant",
    "check_equivalence",
    "compute_extension",
    "diff_variants",
    "extended_superiority",
    "herbrand_base",
    "oracle_extension",
    "parse_tagged_formula",
    "parse_theory",
    "query",
    "render_extension",
    "render_theory",
    "theory_size",
    "validate",
]
