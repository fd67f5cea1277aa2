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

Before it descends into a referenced production or an interface
implementor, the parser checks the next two tokens against the
grammar's first- and second-token sets (``FlatGrammar.lookahead``): the
token at the position must be able to begin the production and, if the
production's first item always spans one token (a keyword, a ``Name``,
a delta operand), the token after it must be able to begin the rest of
its rhs.  In a derived delta language every operation starts with an
operand, so the second token is what rules out most of the
``DeltaOperation`` implementors.  A skipped descent records the misses
the descent would have recorded, its first tokens at the position or
the rest's at the next one, so failure messages are those of a full
descent.  Nullable productions and relaxed copies are always entered.
The cyclic garbage collector is paused while a text is tokenized and
parsed (``PausedGC``): the parser makes no reference cycles.

The parser reads ``FlatGrammar.rules``: the grammar's productions plus
a relaxed copy of each, which also reads a sentence that leaves out the
trailing ``;`` delimiter or a trailing optional/alternative suffix.  The
references of ``ModelElementIdentifier`` implementors point at copies,
which is what makes bracketed element identifiers like ``[Idle -> Call]``
parse, and ``parse_fragment(..., relaxed_tail=True)`` starts at one.

The parser, and the replay behind the pretty-printer and
``resync_terminals``, are one set of combinators (``_Matcher``) over
different leaves: tokens for the parser, and for the replay a node's
recorded terminals and one cursor per slot.
"""

from __future__ import annotations

import functools
import gc
import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import (
    Alternative,
    BUILTIN_NAME,
    GrammarError,
    Group,
    IDENTIFIER,
    NontermRef,
    Sequence,
    Terminal,
    leaves,
    relaxed_name,
)

IDENT_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Punctuation always known to the tokenizer; grammars may add more.
DEFAULT_PUNCTUATION = frozenset(
    ["{", "}", "[", "]", "(", ")", ";", ":", ".", ",", "->", "!", "&&", "||", "?"])


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

    def clone(self):
        """A deep copy of the tree, made by a loop, so nesting depth costs
        no recursion.  Slot values are nodes or lists of nodes; the other
        fields are immutable and shared, but for a root's token list."""
        root = _shell(self)
        stack = [(self, root)]
        while stack:
            node, dup = stack.pop()
            for key, val in node.slots.items():
                if isinstance(val, list):
                    dup.slots[key] = [_shell(child) for child in val]
                    stack += zip(val, dup.slots[key])
                else:
                    dup.slots[key] = _shell(val)
                    stack.append((val, dup.slots[key]))
        return root

    def __deepcopy__(self, memo):
        return self.clone()


def _shell(node):
    """A copy of the node without its slots."""
    return Node(node.production, {}, node.terminals, node.span, node.text,
                None if node.tokens is None else list(node.tokens))


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


def first_per_end(results):
    """Keep the first of the ``(end, ...)`` results for each end, be it a
    token position or a replay's state."""
    if len(results) < 2:
        return results
    seen = set()
    out = []
    for r in results:
        if r[0] not in seen:
            seen.add(r[0])
            out.append(r)
    return out


class _Matcher:
    """The combinators over rhs expressions, for the parser and the
    replay; a subclass matches the leaves (``terminal``, ``reference``).

    ``expr``, ``repeat`` and the leaves return the ways an expression
    matches from a start, in order of preference, as ``(end, chain)``
    pairs with distinct ends; the chain holds what was matched, newest
    first.  One result per end is
    exact: whatever follows a match depends only on where it ended, so of
    two matches with the same end the later one can never be part of the
    first complete match, and matching after it again finds nothing and
    misses nothing new."""

    def expr(self, e, at, chain):
        kind = type(e)
        if kind is Terminal:
            return self.terminal(e, at, chain)
        if kind is NontermRef:
            return self.reference(e, at, chain)
        if kind is Sequence:
            states = [(at, chain)]
            for item in e.items:
                out = []
                for a, c in states:
                    out += self.expr(item, a, c)
                states = first_per_end(out) if len(states) > 1 else out
                if not states:
                    break
            return states
        if kind is Alternative:
            out = []
            for branch in e.branches:
                out += self.expr(branch, at, chain)
            return first_per_end(out)
        card = e.cardinality
        if card == "one":
            return self.expr(e.inner, at, chain)
        if card == "optional":
            out = self.expr(e.inner, at, chain) if self.may_match(e) else []
            return first_per_end(out + [(at, chain)])
        return self.repeat(e.inner, at, chain, card == "plus")

    def may_match(self, group):
        """May the optional ``group`` match more than nothing?"""
        return True

    def repeat(self, inner, start, chain, need_one):
        """Greedy repetition: every ``(end, chain)`` reachable by repeating
        ``inner``, deepest first, each end once, by a loop over an explicit
        stack, so the length of a list costs no recursion.  An end reached
        before is not entered again: all that follows it depends on the end
        alone, so it would only repeat earlier results; later ways to match
        an element are still tried after one that matched nothing.  With
        ``need_one`` the start end is a result only through a first element
        that used nothing up."""
        out = []
        seen = {start}
        back = ()             # need_one: (the chain of such an element,)
        stack = [(start, chain, iter(self.expr(inner, start, chain)))]
        while stack:
            end, c, more = stack[-1]
            for end2, c2 in more:
                if end2 not in seen:
                    seen.add(end2)
                    stack.append((end2, c2, iter(self.expr(inner, end2, c2))))
                    break
                if need_one and not back and end2 == start:
                    back = (c2,)
            else:
                stack.pop()
                if stack or not need_one:
                    out.append((end, c))
                elif back:
                    out.append((start,) + back)
        return out


class _Replay(_Matcher):
    """Matches a node's slot values against an rhs.  A state of the match
    is a tuple: the terminals used, then one cursor per slot, how many of
    its values are used; a chain holds terminal texts and ``(slot key,
    index in the slot)`` references."""

    def __init__(self, node, recorded):
        self.keys = list(node.slots)
        self.index = {key: j for j, key in enumerate(self.keys, 1)}
        self.terms = node.terminals if recorded else None
        self.had = set(node.terminals)
        self.full = (len(node.terminals) if recorded else 0,) + tuple(
            len(val) if isinstance(val, list) else 1
            for val in node.slots.values())

    def terminal(self, e, state, chain):
        terms = self.terms
        if terms is None:
            return [(state, (e.text, chain))]
        t = state[0]
        if t < len(terms) and terms[t] == e.text:
            return [((t + 1,) + state[1:], (e.text, chain))]
        return []

    def reference(self, e, state, chain):
        j = self.index.get(e.key)
        if j is None or state[j] == self.full[j]:
            return []
        return [(state[:j] + (state[j] + 1,) + state[j + 1:],
                 ((self.keys[j - 1], state[j]), chain))]

    def may_match(self, group):
        # unless terminals are recorded, a keyword (a group of terminals
        # only; None stands for a reference) is produced only if the node
        # had it
        if self.terms is not None:
            return True
        texts = {leaf.text if type(leaf) is Terminal else None
                 for leaf in leaves(group.inner)}
        return None in texts or texts <= self.had


def replay(flat, node, recorded):
    """Match the node's slot values against its production: of all ways,
    the first that uses every value up, as a list of terminal texts and
    ``(slot key, index in the slot)`` references; None if there is none.

    With ``recorded`` the terminals are the node's recorded ones, which
    must all be used up too, and the match is against the production's
    relaxed copy (``model.Rules``), so the printer prints exactly what
    the parser reads, a truncated sentence included.  A node of
    ``P = ("a" x:Name ";") y:Name ".";`` recorded without its ``;`` has
    no way: no parse reads ``a X Y.`` as a ``P``.  Without ``recorded``
    the terminals are produced as the production has them, and a
    pure-terminal optional group (a keyword like ``initial``) only if the
    node had recorded it.

    The way found depends only on the production, the terminals and how
    many values each slot holds, never on the values."""
    name = node.production
    rhs = flat.production(name).rhs
    if recorded:
        rhs = flat.rules().productions[relaxed_name(name)].rhs
    matcher = _Replay(node, recorded)
    for state, chain in matcher.expr(rhs, (0,) * len(matcher.full), None):
        if state == matcher.full:
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
    added to or removed from a collection).

    The terminals depend only on the node's shape (see ``replay``), where a
    slot that is ``alone`` counts only as empty or not, so they are cached
    on the grammar per shape, and an add to a block of any size is a hit."""
    if node.production == BUILTIN_NAME:
        return
    plan = flat.slot_plan(node.production)
    shape = (node.production, node.terminals) + tuple(
        (key, min(len(val), 1) if plan[key].alone else len(val))
        if isinstance(val, list) else key
        for key, val in node.slots.items())
    terminals = flat.resynced.get(shape)
    if terminals is None:
        way = replay(flat, node, recorded=False)
        if way is None:
            raise GrammarError("slots of %s node no longer fit its production"
                               % node.production)
        terminals = flat.resynced[shape] = tuple(
            item for item in way if isinstance(item, str))
    node.terminals = terminals


class _Parser(_Matcher):
    """Matches the parser's rules (``FlatGrammar.rules``) against tokens.
    An end is a token position, and a chain holds ``(slot key or None for
    a terminal, value, rest)`` cells from the start of the enclosing
    production; ``_build`` unrolls it once."""

    def __init__(self, flat, tokens):
        self.flat = flat
        self.productions, self.implementors = flat.rules()
        self.lookahead = flat.lookahead()
        self.tokens = tokens
        self.texts = [t.text for t in tokens]
        # what the token sets can tell apart: the token's text, or
        # IDENTIFIER for an identifier no terminal spells; None past the end
        keywords = self.lookahead.keywords
        self.keys = [t.text if t.kind == "punctuation" or t.text in keywords
                     else IDENTIFIER for t in tokens] + [None, None]
        self.predicted = {}       # (reference, key, next key) -> _predict
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

    def _miss_all(self, pos, expected):
        if pos >= self.far_pos:
            for item in expected:
                self._miss(pos, item)

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

    # -- prediction ----------------------------------------------------

    def _entered(self, target, pos):
        """The productions a reference to ``target`` at ``pos`` descends
        into: ``target``, or the implementors of the interface, less those
        the next two tokens rule out (never a relaxed copy, which has no
        token sets).  The misses a descent into those would have recorded
        are recorded: their first tokens at ``pos``, or the first tokens of
        the rest of their rhs at ``pos + 1``."""
        key = (target, self.keys[pos], self.keys[pos + 1])
        names, at_pos, after = self.predicted.get(key) or self._predict(key)
        if at_pos:
            self._miss_all(pos, at_pos)
        if after:
            self._miss_all(pos + 1, after)
        return names

    def _predict(self, key):
        target, here, then = key
        names = self.implementors.get(target)
        first, second = self.lookahead.first, self.lookahead.second
        keep, at_pos, after = [], set(), set()
        for name in (target,) if names is None else names:
            if name in first and not _takes(first[name], here):
                at_pos |= first[name]
            elif name in second and not _takes(second[name], then):
                after |= second[name]
            else:
                keep.append(name)
        self.predicted[key] = found = (keep, _expected(at_pos),
                                       _expected(after))
        return found

    # -- productions and leaves ----------------------------------------

    def prod(self, name, pos):
        key = (name, pos)
        results = self.memo.get(key)
        if results is None:
            self.memo[key] = results = []
            p = self.productions[name]
            for end, chain in self.expr(p.rhs, pos, None):
                results.append((end, self._build(p.name, pos, end, chain)))
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

    def terminal(self, e, pos, chain):
        # identifier-shaped texts only ever lex as identifiers, the others
        # only as punctuation, so the text decides the kind
        if pos < len(self.texts) and self.texts[pos] == e.text:
            return [(pos + 1, (None, e.text, chain))]
        self._miss(pos, repr(e.text))
        return []

    def reference(self, e, pos, chain):
        key = e.key
        if e.target == BUILTIN_NAME:
            if pos < len(self.tokens) and \
                    self.tokens[pos].kind == "identifier":
                leaf = name_leaf(self.texts[pos], (pos, pos + 1))
                return [(pos + 1, (key, leaf, chain))]
            self._miss(pos, "<identifier>")
            return []
        # an interface's implementors in turn, memoized as one
        found = self.memo.get((e.target, pos))
        if found is None:
            names = self._entered(e.target, pos)
            if e.target in self.implementors:
                found = []
                for name in names:
                    found += self.prod(name, pos)
                found = self.memo[e.target, pos] = first_per_end(found)
            elif names:
                found = self.prod(e.target, pos)
            else:
                return []
        return [(end, (key, node, chain)) for end, node in found]


def _takes(texts, key):
    """Can a token with this key be one of the token set's ``texts``?"""
    return key is not None and (key in texts or IDENTIFIER in texts and (
        key is IDENTIFIER or IDENT_TOKEN_RE.fullmatch(key) is not None))


def _expected(texts):
    """A token set as the texts of the misses it stands for."""
    return [("<identifier>" if text is IDENTIFIER else repr(text))
            for text in texts]


class PausedGC:
    """A with-block during which the cyclic garbage collector does not
    run; it is restored to its prior state after.  The parser and the
    printer make no reference cycles, so the collector would only scan
    their memos and chains over and over."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.collecting:
            gc.enable()


def _complete(flat, start, text, relaxed, what):
    p = flat.productions.get(start)
    if p is None or p.kind != "concrete":
        raise GrammarError("start %r is not a concrete production of %s"
                           % (start, flat.root))
    with PausedGC():
        tokens = tokenize(text,
                          DEFAULT_PUNCTUATION | flat.lookahead().punctuation)
        parser = _Parser(flat, tokens)
        try:
            results = parser.prod(relaxed_name(start) if relaxed else start,
                                  0)
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

    With ``relaxed_tail`` the text is read by the production's relaxed
    copy (see ``model.Rules``): the trailing ``;`` delimiter and any
    trailing optional/alternative suffix of the production may be omitted.
    """
    return _complete(flat, start, text, relaxed_tail, start + " fragment")


# ---------------------------------------------------------------------------
# Structural equality and serialization

def node_eq(a, b, order_insensitive_slots=frozenset()):
    """Structural equality over production names, slot keys, matched
    terminals, and captured identifier texts; spans are ignored.  Slots
    named in ``order_insensitive_slots`` compare list values as multisets.
    Pairs wait on a stack, so nesting depth costs no recursion (but for
    multisets of more than one element).
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if not isinstance(a, Node) or not isinstance(b, Node):
            if a != b:
                return False
            continue
        if a.production != b.production or a.text != b.text:
            return False
        if a.terminals != b.terminals:
            return False
        for k in set(a.slots) | set(b.slots):
            va = a.slots.get(k)
            vb = b.slots.get(k)
            if isinstance(va, list) or isinstance(vb, list):
                va = va or []
                vb = vb or []
                if len(va) != len(vb):
                    return False
                if k in order_insensitive_slots and len(va) > 1:
                    if not _multiset_eq(va, vb, order_insensitive_slots):
                        return False
                else:
                    stack += zip(va, vb)
            elif (va is None) != (vb is None):
                return False
            elif va is not None:
                stack.append((va, vb))
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
    """The tree as JSON data: slots in key order, each node's dict
    filled in by a loop."""
    root = _jsonable_shell(node)
    stack = [(node, root)]
    while stack:
        node, out = stack.pop()
        if node.production == BUILTIN_NAME:
            continue
        for key in sorted(node.slots):
            val = node.slots[key]
            many = isinstance(val, list)
            children = val if many else [val]
            shells = [_jsonable_shell(child) for child in children]
            out["slots"].append([key, shells if many else shells[0]])
            stack += zip(children, shells)
    return root


def _jsonable_shell(node):
    if node.production == BUILTIN_NAME:
        return {"production": BUILTIN_NAME, "text": node.text}
    return {"production": node.production, "slots": [],
            "span": list(node.span)}


def to_json(node):
    """Deterministic JSON rendering of a tree; stable key ordering.  The
    text is that of ``json.dumps(to_jsonable(node), indent=2)``, written
    by a loop, since ``json`` recurses once per nesting level."""
    out = []
    stack = [(to_jsonable(node), 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        value, depth = item
        if isinstance(value, dict):
            pairs = [(json.dumps(k) + ": ", v) for k, v in value.items()]
            opening, closing = "{", "}"
        elif isinstance(value, list):
            pairs = [("", v) for v in value]
            opening, closing = "[", "]"
        else:
            out.append(json.dumps(value))
            continue
        if not pairs:
            out.append(opening + closing)
            continue
        inner = "\n" + "  " * (depth + 1)
        parts = [opening]
        for i, (prefix, v) in enumerate(pairs):
            parts += ["," + inner if i else inner, prefix, (v, depth + 1)]
        parts.append("\n" + "  " * depth + closing)
        stack += reversed(parts)
    return "".join(out)
