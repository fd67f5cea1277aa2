"""Automatic derivation of a delta language from a base grammar.

Given a flattened base language L, ``derive`` produces a grammar named
``Delta<L>`` extending the common delta grammar and L itself.  For every
concrete production N of L it applies:

* rule 1a/1b -- addressing: productions with a ``name`` identifier use the
  default qualified-name identifier; all others get a bracketed identifier
  production ``<N>Identifier = "[" N "]"``.
* rule 2 -- a scope identifier production spelling the nonterminal name.
* rule 4 -- keyworded operations for labeled references that would
  otherwise be indistinguishable (references to the builtin identifier
  nonterminal, and references to targets used more than once in the rhs).
* rule 3 -- a generic operation ``DeltaOperand N``.
* rule 5 -- a ``;`` delimiter appended to operations whose operand cannot
  already end like a single-line or block statement.

Keyworded rule-4 operations are emitted before the same production's
rule-3 operation so ordered-choice parsing prefers ``set source X;`` over
reading ``source`` as the start of a bare operand.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .model import (
    Alternative,
    BUILTIN_NAME,
    Grammar,
    GrammarError,
    Group,
    IDENTIFIER_INTERFACE,
    NontermRef,
    Production,
    Sequence,
    Terminal,
    leaves,
)

COMMON_GRAMMAR_NAME = "DeltaCommon"

_SI = "ScopeIdentifier"
_OP = "DeltaOperation"
_OPERAND = "DeltaOperand"

#: Operand tails ending in one of these need no extra delimiter: they
#: already close like a single-line statement or a block.
_STATEMENT_TAILS = frozenset({";", "}"})


class DeriveError(GrammarError):
    pass


class ProvenanceEntry(NamedTuple):
    production: str | None   # None for rule 1a (default identifier reused)
    rule: str                # 1a | 1b | 2 | 3 | 4 | 5
    source: str              # production in L


class DerivedGrammar(NamedTuple):
    grammar: Grammar
    provenance: tuple


def _needs_delimiter(flat, target):
    if target == BUILTIN_NAME:
        return True
    last = flat.last_terminal_map().get(target, set())
    return not set(last) <= _STATEMENT_TAILS


def _capitalize(label):
    return label[:1].upper() + label[1:]


def derive(L_flat, L_name, common=None):
    """Derive the delta grammar for base language ``L_name``.

    ``common`` is the common delta Grammar; the bundled one is used when
    not given.  Generated names clashing with names in L or the common
    grammar are a hard error, never silently renamed.
    """
    if common is None:
        from .pack import load_common_grammar
        common = load_common_grammar()

    taken = set(L_flat.productions) | {p.name for p in common.productions}
    taken |= {BUILTIN_NAME, L_name, common.name}
    generated = []
    provenance = []

    def emit(name, rule, source, implements, rhs):
        if name in taken:
            raise DeriveError(
                "generated production %r collides with an existing name "
                "(source production %r)" % (name, source))
        taken.add(name)
        generated.append(Production(name=name, implements=(implements,), rhs=rhs))
        provenance.append(ProvenanceEntry(name, rule, source))

    def emit_op(name, rule, source, keyword, target):
        items = [NontermRef(target=_OPERAND)]
        if keyword is not None:
            items.append(Terminal(text=keyword))
        items.append(NontermRef(target=target))
        delimited = _needs_delimiter(L_flat, target)
        if delimited:
            items.append(Terminal(text=";"))
        emit(name, rule, source, _OP, Sequence(items=tuple(items)))
        if delimited:
            provenance.append(ProvenanceEntry(name, "5", source))

    for name in L_flat.concrete_names():
        p = L_flat.production(name)

        # rule 1a / 1b: element addressing
        if L_flat.addressable(name):
            provenance.append(ProvenanceEntry(None, "1a", name))
        else:
            emit("%sIdentifier" % name, "1b", name, IDENTIFIER_INTERFACE,
                 Sequence(items=(Terminal(text="["), NontermRef(target=name),
                                 Terminal(text="]"))))

        # rule 2: scope identifier
        emit("Delta%sScopeIdentifier" % name, "2", name, _SI,
             Terminal(text=name))

        # rule 4: keyworded operations for otherwise ambiguous labeled refs
        refs = [r for r in leaves(p.rhs) if type(r) is NontermRef]
        uses = Counter(r.target for r in refs)
        for r in refs:
            if r.label is None or (r.target != BUILTIN_NAME
                                   and uses[r.target] < 2):
                continue
            op_name = "Delta%s%sOperation" % (name, _capitalize(r.label))
            emit_op(op_name, "4", name, r.label, r.target)

        # rule 3: generic operation
        emit_op("Delta%sOperation" % name, "3", name, None, name)

    grammar = Grammar(
        name="Delta%s" % L_name,
        extends=(common.name, L_name),
        productions=tuple(generated),
    )
    return DerivedGrammar(grammar=grammar, provenance=tuple(provenance))


# ---------------------------------------------------------------------------
# Deterministic grammar rendering

def _quote(text):
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


_SUFFIX = {"optional": "?", "star": "*", "plus": "+"}


def _rhs_text(expr, top=False):
    if isinstance(expr, Terminal):
        return _quote(expr.text)
    if isinstance(expr, NontermRef):
        if expr.label is not None:
            return "%s:%s" % (expr.label, expr.target)
        return expr.target
    if isinstance(expr, Sequence):
        return " ".join(_rhs_text(it) for it in expr.items)
    if isinstance(expr, Alternative):
        text = " | ".join(_rhs_text(b) for b in expr.branches)
        return text if top else "(%s)" % text
    if isinstance(expr, Group):
        if isinstance(expr.inner, (Terminal, NontermRef)):
            inner = _rhs_text(expr.inner)
        else:
            inner = "(%s)" % _rhs_text(expr.inner, top=True)
        return inner + _SUFFIX.get(expr.cardinality, "")
    raise TypeError(expr)


def render_grammar(grammar):
    """Byte-stable rendering in the grammar-reader format; re-reading the
    output yields a structurally equal Grammar."""
    head = "grammar %s" % grammar.name
    if grammar.extends:
        head += " extends %s" % ", ".join(grammar.extends)
    lines = [head + " {"]
    for p in grammar.productions:
        if p.kind == "interface":
            lines.append("  interface %s;" % p.name)
            continue
        decl = p.name
        if p.implements:
            decl += " implements %s" % ", ".join(p.implements)
        lines.append("  %s = %s;" % (decl, _rhs_text(p.rhs, top=True)))
    lines.append("}")
    return "\n".join(lines) + "\n"
