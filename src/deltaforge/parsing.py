"""Grammar-driven parsing of model text into generic syntax trees.

The parser is a memoized recursive-descent recognizer with full
backtracking and PEG-style ordered choice: alternatives and interface
implementors are tried in declaration order and the first complete match
wins.  Keywords are never reserved; an identifier-shaped terminal such as
``state`` is matched against identifier tokens contextually, so the same
spelling stays usable as a name elsewhere.

The memo keeps one result per end position (the packrat model of Ford,
ICFP 2002, with backtracking kept): of the results a production, an
interface's implementors or a repetition produce at one position, only
the first to end at a given token survives.  That is exact, since all
that follows a result depends only on where it ended, and it keeps
systematic ambiguity (``set name Y;`` is both a statechart and a state
rename in a derived delta language) from multiplying the parses.
Repetition is a loop over an explicit stack and matched parts are consed
onto a chain, so the length of a list costs no recursion and is not
capped; nesting still recurses, and input nested too deeply for the
interpreter's stack is a ``ParseFailure``.

Productions implementing ``ModelElementIdentifier`` parse their inner
nonterminal references in relaxed-tail mode: a trailing ``;`` delimiter
and any trailing optional/alternative suffix may be omitted, which is what
makes bracketed element identifiers like ``[Idle -> Call]`` parse.

``resync_terminals`` and the pretty-printer replay a node's slot values
against its production with the same repetition loop, tracking one
cursor per slot.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import (
    Alternative,
    BUILTIN_NAME,
    GrammarError,
    Group,
    NontermRef,
    Sequence,
    Terminal,
    leaves,
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


class Token(NamedTuple):
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


@functools.lru_cache(maxsize=32)
def _lexer(punctuation):
    """One master regex for a punctuation set.  After blanks on the line,
    it tries: line breaks and comments, an unterminated comment, an
    identifier, punctuation (longest first), the end of the text, and any
    other single character."""
    puncts = sorted((p for p in punctuation if not IDENT_TOKEN_RE.fullmatch(p)),
                    key=len, reverse=True)
    return re.compile(
        r"[ \t\r]*(?:(?P<skip>\n[ \t\r\n]*|//[^\n]*|/\*.*?\*/)|(?P<open>/\*)"
        r"|(?P<identifier>%s)|(?P<punctuation>%s)|\Z|(?P<bad>.))"
        % (IDENT_TOKEN_RE.pattern, "|".join(map(re.escape, puncts)) or "(?!)"),
        re.DOTALL)


def tokenize(text, punctuation=DEFAULT_PUNCTUATION):
    """Split model text into identifier and punctuation tokens.

    Whitespace and ``//`` / ``/* */`` comments are discarded.  Punctuation
    is matched maximal-munch over the given literal set.
    """
    toks = []
    line, line_start = 1, 0
    for m in _lexer(frozenset(punctuation)).finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue              # blanks at the end of the text
        start = m.start(kind)
        if kind == "skip":
            newlines = text.count("\n", start, m.end())
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, m.end()) + 1
        elif kind == "identifier" or kind == "punctuation":
            toks.append(Token(kind, m.group(kind), line, start - line_start + 1))
        elif kind == "bad":
            raise LexError("illegal character %r" % m.group(kind), line,
                           start - line_start + 1)
        else:
            raise LexError("unterminated comment", line, start - line_start + 1)
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


def first_per_end(results):
    """Keep the first of the ``(end, ...)`` results for each end, be it a
    token position or a matcher's state."""
    if len(results) < 2:
        return results
    seen = set()
    out = []
    for r in results:
        if r[0] not in seen:
            seen.add(r[0])
            out.append(r)
    return out


def repeat(step, start, chain, need_one, idle_stops=True):
    """Greedy repetition for the parser and the replaying matchers: every
    ``(end, chain)`` reachable by repeating ``step``, deepest first, each
    end once, by a loop over an explicit stack.

    ``step(end, chain)`` lists the ways one more element matches.  An end
    reached before is not entered again: all that follows it depends on
    the end alone, so it would only repeat earlier results.  With
    ``idle_stops`` an element that used nothing up also ends its
    repetition; the replaying matchers hand back the very state they
    were given then, so the test is ``is``.
    """
    out = []
    seen = {start}
    stack = [(start, chain, iter(step(start, chain)))]
    while stack:
        end, c, more = stack[-1]
        for end2, c2 in more:
            if idle_stops and end2 is end:
                break
            if end2 not in seen:
                seen.add(end2)
                stack.append((end2, c2, iter(step(end2, c2))))
                break
        else:
            end2 = end
        if end2 is end:
            stack.pop()
            if stack or not need_one:
                out.append((end, c))
    return out


def replay(flat, node, recorded):
    """Match the node's slot values against its production: of all ways,
    the first that uses every value up, as a list of terminal texts and
    ``(slot key, index in the slot)`` references; None if there is none.

    With ``recorded`` the terminals are the node's recorded ones, which
    must all be used up too, and a sequence may stop before an omissible
    tail, as relaxed-parsed fragments do.  Without, the terminals are
    produced as the production has them, and a pure-terminal optional
    group (a keyword like ``initial``) only if the node had recorded it.

    A state of the match is a tuple: the terminals used, then one cursor
    per slot, how many of its values are used.  So the way found depends
    only on the production, the terminals and how many values each slot
    holds, never on the values."""
    keys = list(node.slots)
    index = {key: j for j, key in enumerate(keys, 1)}
    terms = node.terminals
    had = set(terms)
    full = (len(terms) if recorded else 0,) + tuple(
        len(val) if isinstance(val, list) else 1
        for val in node.slots.values())

    def match(expr, state, chain):
        kind = type(expr)
        if kind is Terminal:
            if not recorded:
                return [(state, (expr.text, chain))]
            t = state[0]
            if t < len(terms) and terms[t] == expr.text:
                return [((t + 1,) + state[1:], (expr.text, chain))]
            return []
        if kind is NontermRef:
            j = index.get(expr.key)
            if j is None or state[j] == full[j]:
                return []
            return [(state[:j] + (state[j] + 1,) + state[j + 1:],
                     ((keys[j - 1], state[j]), chain))]
        if kind is Sequence:
            return seq(expr.items, state, chain)
        if kind is Alternative:
            out = []
            for branch in expr.branches:
                out += match(branch, state, chain)
            return first_per_end(out)
        if kind is Group:
            if expr.cardinality == "one":
                return match(expr.inner, state, chain)
            if expr.cardinality == "optional":
                # unless terminals are recorded, a keyword (a group of
                # terminals only; None stands for a reference) is
                # produced only if the node had it
                texts = set() if recorded else {
                    leaf.text if type(leaf) is Terminal else None
                    for leaf in leaves(expr.inner)}
                out = []
                if None in texts or texts <= had:
                    out = match(expr.inner, state, chain)
                return first_per_end(out + [(state, chain)])
            return repeat(lambda st, c: match(expr.inner, st, c), state,
                          chain, expr.cardinality == "plus")
        raise TypeError(expr)

    def seq(items, state, chain):
        k = len(items)
        while recorded and k and _omissible(items[k - 1]):
            k -= 1
        states = [(state, chain)]
        for item in items[:k]:
            out = []
            for st, c in states:
                out += match(item, st, c)
            states = first_per_end(out) if len(states) > 1 else out
        if k == len(items):
            return states
        out = []
        for st, c in states:
            out += tail(items, k, st, c)
        return first_per_end(out)

    def tail(items, i, state, chain):
        # from item i on all may be left out: each shorter way comes
        # after the longer ones through the same items
        if i == len(items):
            return [(state, chain)]
        out = []
        for st, c in match(items[i], state, chain):
            out += tail(items, i + 1, st, c)
        out.append((state, chain))
        return first_per_end(out)

    rhs = flat.production(node.production).rhs
    for state, chain in match(rhs, (0,) * len(full), None):
        if state == full:
            way = []
            while chain is not None:
                item, chain = chain
                way.append(item)
            way.reverse()
            return way
    return None


def resync_terminals(flat, node):
    """Recompute the node's recorded terminals after its slots changed
    structurally (an optional part appeared or disappeared, an element was
    added to or removed from a collection)."""
    if node.production == BUILTIN_NAME:
        return
    way = replay(flat, node, recorded=False)
    if way is None:
        raise GrammarError(
            "slots of %s node no longer fit its production" % node.production)
    node.terminals = tuple(item for item in way if isinstance(item, str))


class _Parser:
    """Every match method returns the ways an expression matches at a
    position, in order of preference, as ``(end, chain)`` pairs with
    distinct ends.  A chain holds what was matched as ``(slot key or None
    for a terminal, value, rest)`` cells, newest first, from the start of
    the enclosing production; ``_build`` unrolls it once.

    One result per end is exact: whatever follows a match depends only on
    where it ended, so of two matches with the same end the later one
    can never be part of the first complete parse, and matching after it
    again finds nothing and misses nothing new."""

    def __init__(self, flat, tokens):
        self.flat = flat
        self.tokens = tokens
        self.texts = [t.text for t in tokens]
        self.memo = {}
        self.many = {}            # production -> its star/plus slot keys
        self.far_pos = -1
        self.far_expected = set()

    # -- failure bookkeeping -------------------------------------------

    def _miss(self, pos, expected):
        if pos > self.far_pos:
            self.far_pos = pos
            self.far_expected = {expected}
        elif pos == self.far_pos:
            self.far_expected.add(expected)

    def _where(self):
        if self.far_pos < len(self.tokens) and self.far_pos >= 0:
            t = self.tokens[self.far_pos]
            return t.line, t.column, " (got %r)" % t.text
        if self.tokens:
            t = self.tokens[-1]
            return t.line, t.column + len(t.text), " (at end of input)"
        return 1, 1, " (empty input)"

    def failure(self, message):
        line, col, got = self._where()
        exp = sorted(self.far_expected)
        detail = "; expected one of: " + ", ".join(exp) if exp else ""
        return ParseFailure(message + got + detail, line, col, exp)

    def too_deep(self, message):
        line, col, got = self._where()
        return ParseFailure(message + got + "; the input nests too deeply",
                            line, col)

    # -- combinators ---------------------------------------------------

    def prod(self, name, pos, relaxed):
        key = (name, pos, relaxed)
        results = self.memo.get(key)
        if results is None:
            self.memo[key] = results = []
            p = self.flat.production(name)
            ref_relaxed = IDENTIFIER_INTERFACE in p.implements
            for end, chain in self.expr(p.rhs, pos, None, relaxed,
                                        ref_relaxed):
                results.append((end, self._build(name, pos, end, chain)))
        return results

    def _build(self, name, start, end, chain):
        many = self.many.get(name)
        if many is None:
            many = self.many[name] = [
                key for key, info in self.flat.slot_plan(name).items()
                if info.cardinality == "many"]
        cells = []
        while chain is not None:
            cells.append(chain)
            chain = chain[2]
        slots = {}
        terminals = []
        for key, value, _ in reversed(cells):
            if key is None:
                terminals.append(value)
            elif key in many:
                slots.setdefault(key, []).append(value)
            else:
                slots[key] = value
        for key in many:
            if key not in slots:
                slots[key] = []
        return Node(production=name, slots=slots,
                    terminals=tuple(terminals), span=(start, end))

    def expr(self, e, pos, chain, tail_relaxed, ref_relaxed):
        kind = type(e)
        if kind is Terminal:
            # identifier-shaped texts only ever lex as identifiers, the
            # others only as punctuation, so the text decides the kind
            if pos < len(self.texts) and self.texts[pos] == e.text:
                return [(pos + 1, (None, e.text, chain))]
            self._miss(pos, repr(e.text))
            return []
        if kind is NontermRef:
            key = e.key
            if e.target == BUILTIN_NAME:
                if pos < len(self.tokens) and \
                        self.tokens[pos].kind == "identifier":
                    leaf = name_leaf(self.texts[pos], (pos, pos + 1))
                    return [(pos + 1, (key, leaf, chain))]
                self._miss(pos, "<identifier>")
                return []
            # an interface's implementors in turn, memoized as one
            found = self.memo.get((e.target, pos, ref_relaxed))
            if found is None:
                if self.flat.is_interface(e.target):
                    found = []
                    for name in self.flat.implementors.get(e.target, ()):
                        found += self.prod(name, pos, ref_relaxed)
                    found = self.memo[e.target, pos, ref_relaxed] = \
                        first_per_end(found)
                else:
                    found = self.prod(e.target, pos, ref_relaxed)
            return [(end, (key, node, chain)) for end, node in found]
        if kind is Sequence:
            if tail_relaxed:
                return self._relaxed_seq(e.items, 0, pos, chain, ref_relaxed)
            states = [(pos, chain)]
            for item in e.items:
                out = []
                for p, c in states:
                    out += self.expr(item, p, c, False, ref_relaxed)
                states = first_per_end(out) if len(states) > 1 else out
            return states
        if kind is Alternative:
            out = []
            for b in e.branches:
                out += self.expr(b, pos, chain, tail_relaxed, ref_relaxed)
            return first_per_end(out)
        if kind is Group:
            card = e.cardinality
            if card == "one":
                return self.expr(e.inner, pos, chain, tail_relaxed,
                                 ref_relaxed)
            if card == "optional":
                return first_per_end(
                    self.expr(e.inner, pos, chain, tail_relaxed, ref_relaxed)
                    + [(pos, chain)])
            # greedy; an element that matches nothing is skipped, and
            # later ways to match it are still tried
            return repeat(functools.partial(self.expr, e.inner,
                                            tail_relaxed=False,
                                            ref_relaxed=ref_relaxed),
                          pos, chain, card == "plus", idle_stops=False)
        raise TypeError(e)

    def _relaxed_seq(self, items, i, pos, chain, ref_relaxed):
        """A sequence whose omissible tail may be left out: each shorter
        match comes after the longer ones through the same items."""
        if i == len(items):
            return [(pos, chain)]
        out = []
        last = i == len(items) - 1
        for p, c in self.expr(items[i], pos, chain, last, ref_relaxed):
            out += self._relaxed_seq(items, i + 1, p, c, ref_relaxed)
        if all(_omissible(x) for x in items[i:]):
            out.append((pos, chain))
        return first_per_end(out)


def _tokens_for(flat, text):
    extra = {t for t in flat.terminal_literals()
             if not IDENT_TOKEN_RE.fullmatch(t)}
    return tokenize(text, DEFAULT_PUNCTUATION | extra)


def _complete(flat, start, text, relaxed, what):
    tokens = _tokens_for(flat, text)
    parser = _Parser(flat, tokens)
    try:
        results = parser.prod(start, 0, relaxed)
    except RecursionError:
        raise parser.too_deep("cannot parse %s" % what) from None
    for end, node in results:
        if end == len(tokens):
            node.tokens = tokens
            return node
    raise parser.failure("cannot parse %s" % what)


def parse(flat, start, text):
    """Parse model text as the given start production; the entire token
    stream must be consumed."""
    return _complete(flat, start, text, False, start)


def parse_fragment(flat, start, text, relaxed_tail=False):
    """Parse text as a single instance of a production.

    With ``relaxed_tail`` the trailing ``;`` delimiter and any trailing
    optional/alternative suffix of the production may be omitted.
    """
    return _complete(flat, start, text, relaxed_tail, start + " fragment")


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
