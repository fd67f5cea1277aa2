"""Grammar workbench for delta modeling languages.

Given the grammar of a textual modeling language, this package derives a
matching delta language, parses core models and deltas, checks deltas
against their core model, and applies delta sequences to generate
product variants.  The package re-exports the pipeline's entry points
and the exceptions they raise; everything else is imported from its
module.
"""

from . import pack
from .applier import DeltaApplyError, apply, pretty_print
from .checker import check_delta
from .derive import DeriveError, derive, render_grammar
from .model import GrammarError, LeftRecursionError, flatten
from .parsing import Node, ParseFailure, node_eq, parse, parse_fragment
from .reader import GrammarSyntaxError, parse_grammar

__all__ = [
    "DeltaApplyError",
    "DeriveError",
    "GrammarError",
    "GrammarSyntaxError",
    "LeftRecursionError",
    "Node",
    "ParseFailure",
    "apply",
    "check_delta",
    "derive",
    "flatten",
    "node_eq",
    "pack",
    "parse",
    "parse_fragment",
    "parse_grammar",
    "pretty_print",
    "render_grammar",
]

__version__ = "0.1.0"
