"""Grammar-driven parsing of model text into generic syntax trees.

The parser is a memoized recursive-descent recognizer with full
backtracking and PEG-style ordered choice: alternatives and interface
implementors are tried in declaration order and the first complete match
wins.  Keywords are never reserved; an identifier-shaped terminal such as
``state`` is matched against identifier tokens contextually, so the same
spelling stays usable as a name elsewhere.

Productions implementing ``ModelElementIdentifier`` parse their inner
nonterminal references in relaxed-tail mode: a trailing ``;`` delimiter
and any trailing optional/alternative suffix may be omitted, which is what
makes bracketed element identifiers like ``[Idle -> Call]`` parse.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .model import (
    Alternative,
    BUILTIN_NAME,
    GrammarError,
    Group,
    NontermRef,
    Sequence,
    Terminal,
)

IDENT_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Punctuation always known to the tokenizer; grammars may add more.
DEFAULT_PUNCTUATION = frozenset(
    ["{", "}", "[", "]", "(", ")", ";", ":", ".", ",", "->", "!", "&&", "||", "?"])

#: Interface whose implementors get relaxed-tail treatment for inner refs.
IDENTIFIER_INTERFACE = "ModelElementIdentifier"


class LexError(Exception):
    def __init__(self, message, line, column):
        self.detail = message     # without the position
        self.line = line
        self.column = column
        super().__init__("%d:%d: %s" % (line, column, message))


class ParseFailure(Exception):
    def __init__(self, message, line, column, expected=()):
        self.detail = message     # without the position
        self.line = line
        self.column = column
        self.expected = sorted(expected)
        super().__init__("%d:%d: %s" % (line, column, message))


@dataclass(frozen=True)
class Token:
    kind: str       # identifier | punctuation
    text: str
    line: int
    column: int


@dataclass
class Node:
    """Generic concrete-syntax tree node.

    ``slots`` maps slot key (reference label, else target name) to a child
    Node, or to a list for star/plus slots.  Identifier captures are leaf
    nodes with production ``Name`` and the captured ``text``.  ``terminals``
    records the terminal literals matched directly by this production, so
    optional keywords like ``initial`` survive pretty-printing.
    """

    production: str
    slots: dict = field(default_factory=dict)
    terminals: tuple = ()
    span: tuple = (0, 0)
    text: str | None = None
    tokens: list | None = None   # set on root nodes only, for diagnostics

    def name(self):
        """Text of the ``name`` slot, if this node has one."""
        leaf = self.slots.get("name")
        return leaf.text if isinstance(leaf, Node) else None


def name_leaf(text, span=(0, 0)):
    return Node(production=BUILTIN_NAME, text=text, span=span)


def tokenize(text, punctuation=DEFAULT_PUNCTUATION):
    """Split model text into identifier and punctuation tokens.

    Whitespace and ``//`` / ``/* */`` comments are discarded.  Punctuation
    is matched maximal-munch over the given literal set.
    """
    puncts = sorted((p for p in punctuation if not IDENT_TOKEN_RE.fullmatch(p)),
                    key=len, reverse=True)
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated comment", line, col)
            skipped = text[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        m = IDENT_TOKEN_RE.match(text, i)
        if m:
            toks.append(Token("identifier", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for p in puncts:
            if text.startswith(p, i):
                toks.append(Token("punctuation", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise LexError("illegal character %r" % c, line, col)
    return toks


def _omissible(expr):
    """May this trailing rhs item be left out under relaxed-tail parsing?"""
    if isinstance(expr, Terminal):
        return expr.text == ";"
    if isinstance(expr, Group):
        if expr.cardinality in ("optional", "star"):
            return True
        return _omissible(expr.inner)
    if isinstance(expr, Alternative):
        return True
    if isinstance(expr, Sequence):
        return all(_omissible(it) for it in expr.items)
    return False


def _pure_terminal(expr):
    if isinstance(expr, Terminal):
        return True
    if isinstance(expr, Group):
        return _pure_terminal(expr.inner)
    if isinstance(expr, Sequence):
        return all(_pure_terminal(it) for it in expr.items)
    if isinstance(expr, Alternative):
        return all(_pure_terminal(b) for b in expr.branches)
    return False


def _terminal_texts(expr):
    if isinstance(expr, Terminal):
        yield expr.text
    elif isinstance(expr, Group):
        yield from _terminal_texts(expr.inner)
    elif isinstance(expr, (Sequence, Alternative)):
        for part in getattr(expr, "items", None) or expr.branches:
            yield from _terminal_texts(part)


def _synth(expr, slots, had):
    """Yield (terminal texts, remaining slots) assignments that account
    for ``expr`` given the node's slot values.  Structural choices follow
    slot presence; pure-terminal optional groups (keywords like
    ``initial``) follow the previously recorded terminal set ``had``."""
    if isinstance(expr, Terminal):
        yield [expr.text], slots
    elif isinstance(expr, NontermRef):
        val = slots.get(expr.key)
        if isinstance(val, tuple):
            if val:
                new = dict(slots)
                new[expr.key] = val[1:]
                yield [], new
        elif val is not None:
            new = dict(slots)
            del new[expr.key]
            yield [], new
    elif isinstance(expr, Sequence):
        yield from _synth_seq(expr.items, 0, slots, had)
    elif isinstance(expr, Alternative):
        for branch in expr.branches:
            yield from _synth(branch, slots, had)
    elif isinstance(expr, Group):
        if expr.cardinality == "one":
            yield from _synth(expr.inner, slots, had)
        elif expr.cardinality == "optional":
            if _pure_terminal(expr.inner):
                if all(t in had for t in _terminal_texts(expr.inner)):
                    yield from _synth(expr.inner, slots, had)
                yield [], slots
            else:
                yield from _synth(expr.inner, slots, had)
                yield [], slots
        else:
            yield from _synth_rep(expr.inner, slots, had,
                                  expr.cardinality == "plus")
    else:
        raise TypeError(expr)


def _synth_seq(items, i, slots, had):
    if i == len(items):
        yield [], slots
        return
    for texts, s1 in _synth(items[i], slots, had):
        for rest, s2 in _synth_seq(items, i + 1, s1, had):
            yield texts + rest, s2


def _synth_rep(inner, slots, had, need_one):
    for texts, s1 in _synth(inner, slots, had):
        if s1 == slots:
            break
        for rest, s2 in _synth_rep(inner, s1, had, False):
            yield texts + rest, s2
    if not need_one:
        yield [], slots


def resync_terminals(flat, node):
    """Recompute the node's recorded terminals after its slots changed
    structurally (an optional part appeared or disappeared, an element was
    added to or removed from a collection)."""
    if node.production == BUILTIN_NAME:
        return
    prod = flat.production(node.production)
    slots = {k: tuple(v) if isinstance(v, list) else v
             for k, v in node.slots.items()}
    had = set(node.terminals)
    for texts, left in _synth(prod.rhs, slots, had):
        if all(isinstance(v, tuple) and not v for v in left.values()):
            node.terminals = tuple(texts)
            return
    raise GrammarError(
        "slots of %s node no longer fit its production" % node.production)


class _Parser:
    def __init__(self, flat, tokens):
        self.flat = flat
        self.tokens = tokens
        self.memo = {}
        self.far_pos = -1
        self.far_expected = set()

    # -- failure bookkeeping -------------------------------------------

    def _miss(self, pos, expected):
        if pos > self.far_pos:
            self.far_pos = pos
            self.far_expected = {expected}
        elif pos == self.far_pos:
            self.far_expected.add(expected)

    def failure(self, message):
        if self.far_pos < len(self.tokens) and self.far_pos >= 0:
            t = self.tokens[self.far_pos]
            line, col = t.line, t.column
            got = " (got %r)" % t.text
        elif self.tokens:
            t = self.tokens[-1]
            line, col = t.line, t.column + len(t.text)
            got = " (at end of input)"
        else:
            line, col, got = 1, 1, " (empty input)"
        exp = sorted(self.far_expected)
        detail = "; expected one of: " + ", ".join(exp) if exp else ""
        return ParseFailure(message + got + detail, line, col, exp)

    # -- combinators ---------------------------------------------------

    def prod(self, name, pos, relaxed):
        key = (name, pos, relaxed)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.memo[key] = results = []
        p = self.flat.production(name)
        ref_relaxed = IDENTIFIER_INTERFACE in p.implements
        for end, events in self.expr(p.rhs, pos, relaxed, ref_relaxed):
            results.append((end, self._build(name, pos, end, events)))
        return results

    def _build(self, name, start, end, events):
        plan = self.flat.slot_plan(name)
        slots = {}
        terminals = []
        for ev in events:
            if ev[0] == "t":
                terminals.append(ev[1])
            else:
                _, key, child = ev
                info = plan.get(key)
                if info is not None and info.cardinality == "many":
                    slots.setdefault(key, []).append(child)
                else:
                    slots[key] = child
        for key, info in plan.items():
            if info.cardinality == "many" and key not in slots:
                slots[key] = []
        return Node(production=name, slots=slots,
                    terminals=tuple(terminals), span=(start, end))

    def expr(self, e, pos, tail_relaxed, ref_relaxed):
        if isinstance(e, Terminal):
            if pos < len(self.tokens) and self.tokens[pos].text == e.text and (
                    self.tokens[pos].kind == "identifier"
                    if IDENT_TOKEN_RE.fullmatch(e.text)
                    else self.tokens[pos].kind == "punctuation"):
                yield pos + 1, (("t", e.text),)
            else:
                self._miss(pos, repr(e.text))
            return
        if isinstance(e, NontermRef):
            key = e.key
            if e.target == BUILTIN_NAME:
                if pos < len(self.tokens) and self.tokens[pos].kind == "identifier":
                    leaf = name_leaf(self.tokens[pos].text, (pos, pos + 1))
                    yield pos + 1, (("s", key, leaf),)
                else:
                    self._miss(pos, "<identifier>")
                return
            if self.flat.is_interface(e.target):
                names = self.flat.implementors.get(e.target, ())
            else:
                names = (e.target,)
            for name in names:
                for end, node in self.prod(name, pos, ref_relaxed):
                    yield end, (("s", key, node),)
            return
        if isinstance(e, Sequence):
            yield from self._seq(e.items, 0, pos, tail_relaxed, ref_relaxed)
            return
        if isinstance(e, Alternative):
            for b in e.branches:
                yield from self.expr(b, pos, tail_relaxed, ref_relaxed)
            return
        if isinstance(e, Group):
            card = e.cardinality
            if card == "one":
                yield from self.expr(e.inner, pos, tail_relaxed, ref_relaxed)
            elif card == "optional":
                yield from self.expr(e.inner, pos, tail_relaxed, ref_relaxed)
                yield pos, ()
            elif card == "star":
                yield from self._rep(e.inner, pos, (), ref_relaxed)
            else:  # plus
                for p2, ev in self.expr(e.inner, pos, False, ref_relaxed):
                    if p2 == pos:
                        continue
                    yield from self._rep(e.inner, p2, ev, ref_relaxed)
            return
        raise TypeError(e)

    def _seq(self, items, i, pos, tail_relaxed, ref_relaxed):
        if i == len(items):
            yield pos, ()
            return
        is_last = i == len(items) - 1
        for p2, ev in self.expr(items[i], pos, tail_relaxed and is_last,
                                ref_relaxed):
            for p3, ev2 in self._seq(items, i + 1, p2, tail_relaxed, ref_relaxed):
                yield p3, ev + ev2
        if tail_relaxed and all(_omissible(x) for x in items[i:]):
            yield pos, ()

    def _rep(self, inner, pos, events, ref_relaxed):
        # greedy: deepest repetitions first, then fall back
        for p2, ev in self.expr(inner, pos, False, ref_relaxed):
            if p2 == pos:
                continue
            yield from self._rep(inner, p2, events + ev, ref_relaxed)
        yield pos, events


def _tokens_for(flat, text):
    extra = {t for t in flat.terminal_literals()
             if not IDENT_TOKEN_RE.fullmatch(t)}
    return tokenize(text, DEFAULT_PUNCTUATION | extra)


def parse(flat, start, text):
    """Parse model text as the given start production; the entire token
    stream must be consumed."""
    tokens = _tokens_for(flat, text)
    parser = _Parser(flat, tokens)
    for end, node in parser.prod(start, 0, False):
        if end == len(tokens):
            node.tokens = tokens
            return node
    raise parser.failure("cannot parse %s" % start)


def parse_fragment(flat, start, text, relaxed_tail=False):
    """Parse text as a single instance of a production.

    With ``relaxed_tail`` the trailing ``;`` delimiter and any trailing
    optional/alternative suffix of the production may be omitted.
    """
    tokens = _tokens_for(flat, text)
    parser = _Parser(flat, tokens)
    for end, node in parser.prod(start, 0, relaxed_tail):
        if end == len(tokens):
            node.tokens = tokens
            return node
    raise parser.failure("cannot parse %s fragment" % start)


# ---------------------------------------------------------------------------
# Structural equality and serialization

def node_eq(a, b, order_insensitive_slots=frozenset()):
    """Structural equality over production names, slot keys, matched
    terminals, and captured identifier texts; spans are ignored.  Slots
    named in ``order_insensitive_slots`` compare list values as multisets.
    """
    if not isinstance(a, Node) or not isinstance(b, Node):
        return a == b
    if a.production != b.production or a.text != b.text:
        return False
    if a.terminals != b.terminals:
        return False
    keys = set(a.slots) | set(b.slots)
    for k in keys:
        va = a.slots.get(k)
        vb = b.slots.get(k)
        if isinstance(va, list) or isinstance(vb, list):
            va = va or []
            vb = vb or []
            if len(va) != len(vb):
                return False
            if k in order_insensitive_slots:
                if not _multiset_eq(va, vb, order_insensitive_slots):
                    return False
            else:
                for x, y in zip(va, vb):
                    if not node_eq(x, y, order_insensitive_slots):
                        return False
        else:
            if (va is None) != (vb is None):
                return False
            if va is not None and not node_eq(va, vb, order_insensitive_slots):
                return False
    return True


def _multiset_eq(xs, ys, insensitive):
    remaining = list(ys)
    for x in xs:
        for i, y in enumerate(remaining):
            if node_eq(x, y, insensitive):
                del remaining[i]
                break
        else:
            return False
    return not remaining


def to_jsonable(node):
    if node.production == BUILTIN_NAME:
        return {"production": BUILTIN_NAME, "text": node.text}
    slots = []
    for key in sorted(node.slots):
        val = node.slots[key]
        if isinstance(val, list):
            slots.append([key, [to_jsonable(v) for v in val]])
        else:
            slots.append([key, to_jsonable(val)])
    return {"production": node.production, "slots": slots,
            "span": list(node.span)}


def to_json(node):
    """Deterministic JSON rendering of a tree; stable key ordering."""
    return json.dumps(to_jsonable(node), indent=2, sort_keys=False)
