"""Grammar-driven parsing of model text into generic syntax trees.

A text is read in at most two passes, which never mix.  The first reads
it by direct descent (``_Direct``) from the start production, followed
by the end of the text: at each choice it follows the one option the
token's key allows (``_Ways``), one that can begin with the token or
that can match nothing before a token the follow set of the choice
admits, and it fills in each production's node as it reads, with no
chain or later pass over it.  If it reads the whole text, its tree is
the result.  If a token admits two options, if the text does not parse,
or if the descent runs out of stack, the general parser reads the whole
text again and gives the tree or the failure message.

The general parser is a memoized recursive-descent recognizer with full
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
interpreter's stack is a ``ParseFailure``.  The general parser descends
into every production and implementor, so the farthest misses of its
full descent make the message.  It walks the rhs of each rule as it
stands (``_Parser.match``), one call per rhs node it enters, and reads a
group of groups as one group, so nesting does not multiply its ways to
match.

Direct descent predicts which productions a reference reads before it
enters any, by the next tokens' keys, once per grammar: each reference
holds, per key of the next token, the one production its prediction
leaves, the several it leaves, or a prediction by the token after
(``_Prediction``), the technique of LL(*) (Parr and Fisher, PLDI 2011)
with a bound of ``_DEPTH`` tokens.  A production is kept while it can
begin the tokens read so far, or can match the first few of them, or
none, before a token its follow set admits.  ``_Descent``, which owns
all that direct descent predicts from, finds this by the first-token
sets of the rules, relaxed copies included, then by the second-token set
of a production whose first item always spans one token (a keyword, a
``Name``, a delta operand), and else by walking the rules
(``_Descent.spans``).  Of the implementors of an interface that have one
rhs, only the first is read: it keeps every result.  In a derived delta
language every operation but ``modify`` starts with an operand, so the
second and third tokens are what rule out most of the ``DeltaOperation``
implementors, and the operand is read once.  A reference's productions
are read with its follow set, which is always known: where prediction
leaves one, the descent reads it; where it leaves several, it reads each
once per position, and goes on with the one result that ends before a
token the follow set admits.  The cyclic garbage collector is paused
while a text is tokenized and parsed (``PausedGC``): neither pass makes
reference cycles.

The two passes give the same tree.  Direct descent commits only where
the token sets, which hold every token that can begin or follow an
option, leave one option, so its one result is the general parser's only
result there that a complete parse can use, and the first complete parse
is the same.  Prediction rules out only a production that cannot begin
the tokens it reads and then be followed by one its follow set admits,
so none with such a result.  The statechart language and its derived
delta language are decided by the next few tokens and the follow sets
throughout, so their cores and deltas are read wholly by direct descent;
a text that reaches a choice its tokens leave open (a ``("x"?)+`` group,
a keyword that is also a name where a list of names may end) is read
wholly by the general parser.

The parser reads ``FlatGrammar.rules``: the grammar's productions plus a
relaxed copy of each, made when a text first reads it, which also reads
a sentence that leaves out the trailing ``;`` delimiter or a trailing
optional/alternative suffix.  The references of
``ModelElementIdentifier`` implementors point at copies, which is what
makes bracketed element identifiers like ``[Idle -> Call]`` parse, and
``parse_fragment(..., relaxed_tail=True)`` starts at one.

The replay behind the pretty-printer and ``resync_terminals`` walks the
rhs too (``_replay``), with a node's recorded terminals and one cursor
per slot as its leaves; nothing is compiled for it or for the general
parser.  Direct descent compiles its rules, once per production and
follow set, into one loop per sequence that reads its terminals and
choices itself, and every reference and ``*``/``+`` group by one branch
(``_Leaf``): a reference, alone or repeated, is read with no call of its
own, so a nesting level of a text costs three frames, in a ``+`` list as
in a ``*`` list, where the general parser spends six.

A text is read once, by one master regex (``scan.Scan``): ``findall``
gives the parser its token texts at C speed, and the parser's
``TokenTable`` computes a position only when a failure or a diagnostic
asks for one.  The general parser builds a node only for a result the
complete parse keeps: a production's results stay matched chains until
then, so a path of n segments, which has n prefix results, costs O(n).
"""

from __future__ import annotations

import functools
import gc
import json
import re
from typing import NamedTuple

from .model import (
    Alternative,
    BUILTIN_NAME,
    GrammarError,
    Group,
    IDENTIFIER,
    IDENT_RE,
    NontermRef,
    Record,
    Sequence,
    Terminal,
    _edge,
    _Sets,
    leaves,
    relaxed_name,
)
from .scan import Scan, master

#: Punctuation always known to the tokenizer; grammars may add more.
DEFAULT_PUNCTUATION = frozenset(
    ["{", "}", "[", "]", "(", ")", ";", ":", ".", ",", "->", "!", "&&", "||", "?"])


class ParseFailure(Exception):
    def __init__(self, message, line, column, expected=()):
        self.detail = message     # without the position
        self.line = line
        self.column = column
        self.expected = sorted(expected)
        super().__init__("%d:%d: %s" % (line, column, message))


class LexError(ParseFailure):
    """A text that does not split into tokens."""


class Token(NamedTuple):
    kind: str       # identifier | punctuation
    text: str
    line: int
    column: int


class Node(Record):
    """Generic concrete-syntax tree node, equal to a node of equal fields.

    ``slots`` maps slot key (reference label, else target name) to a child
    Node, or to a list for star/plus slots.  Identifier captures are leaf
    nodes with production ``Name`` and the captured ``text``.  ``terminals``
    records the terminal literals matched directly by this production, so
    optional keywords like ``initial`` survive pretty-printing.
    """

    __slots__ = ("production", "slots", "terminals", "span", "text",
                 "tokens")
    __hash__ = None           # its slots are edited in place

    def __init__(self, production, slots=None, terminals=(), span=(0, 0),
                 text=None, tokens=None):
        self.production = production
        self.slots = {} if slots is None else slots
        self.terminals = terminals
        self.span = span
        self.text = text
        self.tokens = tokens      # on root nodes only, for diagnostics

    def name(self):
        """Text of the ``name`` slot, if this node has one."""
        leaf = self.slots.get("name")
        return leaf.text if isinstance(leaf, Node) else None

    def clone(self):
        """A deep copy of the tree, made by a loop, so nesting depth costs
        no recursion.  Slot values are nodes or lists of nodes; the other
        fields are shared: they are immutable, or, a root's token table,
        only ever filled in."""
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
    """A copy of the node without its slots; a root shares its token
    table."""
    return Node(node.production, {}, node.terminals, node.span, node.text,
                node.tokens)


def name_leaf(text, span=(0, 0)):
    return Node(production=BUILTIN_NAME, text=text, span=span)


@functools.lru_cache(maxsize=32)
def _scanner(punctuation):
    """The master regex (``scan.master``) of a punctuation set, and the
    punctuation it can produce.  A token is an identifier, an
    unterminated comment (``/*`` and the rest of the text), punctuation
    (longest first), any other single character, or, at the end of the
    text, nothing.  A literal that begins a comment never lexes as
    punctuation."""
    puncts = sorted((p for p in punctuation if not IDENT_RE.fullmatch(p)
                     and not p.startswith(("//", "/*"))),
                    key=len, reverse=True)
    regex = master(r"%s|/\*.*|%s|\Z|." % (
        IDENT_RE.pattern, "|".join(map(re.escape, puncts)) or "(?!)"))
    return regex, frozenset(puncts)


def tokenize(text, punctuation=DEFAULT_PUNCTUATION):
    """Split model text into identifier and punctuation tokens, with
    their positions.

    Whitespace and ``//`` / ``/* */`` comments are discarded.  Punctuation
    is matched maximal-munch over the given literal set.
    """
    return TokenTable(text, frozenset(punctuation))[:]


class TokenTable(Scan):
    """The tokens of a text, as the parsers read them: ``texts`` (see
    ``scan.Scan``), ``words``, the distinct identifier texts, and per
    token, with one more past the end, its text (``padded``) and whether
    it is an identifier (``idents``).  Indexing, by index or slice, gives
    positioned ``Token`` values.

    A text that does not lex raises ``LexError`` at its first token that
    is neither punctuation nor an identifier: an illegal character or an
    unterminated comment."""

    def __init__(self, text, punctuation):
        regex, puncts = _scanner(punctuation)
        super().__init__(text, regex)
        self.punctuation = punctuation
        self.words = words = set(self.texts) - puncts
        fault = self.first(w for w in words if not IDENT_RE.match(w))
        if fault is not None:
            word = self.texts[fault]
            raise LexError("unterminated comment" if word.startswith("/*")
                           else "illegal character %r" % word,
                           *self.where(fault))
        self.padded = self.texts + [None]
        self.idents = list(map(words.__contains__, self.texts)) + [False]

    def __eq__(self, other):
        # the tokens of the same text under the same punctuation
        return isinstance(other, TokenTable) and \
            (self.source, self.punctuation) == (other.source, other.punctuation)

    def __getitem__(self, index):
        picked = range(len(self.texts))[index]
        if isinstance(picked, range):
            return [self[i] for i in picked]
        text = self.texts[picked]
        return Token("identifier" if text in self.words else "punctuation",
                     text, *self.where(picked))


def first_per_end(results):
    """Keep the first of the ``(end, ...)`` results for each end, be it a
    token position or a replay's state."""
    if len(results) < 2:
        return results
    first = {}
    for r in results:
        first.setdefault(r[0], r)
    return list(first.values())


def shape(flat, node):
    """All that ``replay`` reads of a node: its production, its recorded
    terminals, and per slot, in slot order, the key of a one-value slot or
    ``(key, how many values)`` of a list, where a list that one run of
    its group reads (``model.SlotInfo.once``) counts only as empty or
    not: the way of a node with one of its values stands for a node with
    any number, the value's place in it the place of them all."""
    out = [node.production, node.terminals]
    for key, val in node.slots.items():
        if val.__class__ is list:
            info = flat.slot_plan(node.production).get(key)
            out.append((key, min(len(val), 1) if info and info.once
                        else len(val)))
        else:
            out.append(key)
    return tuple(out)


def replay(flat, shape, recorded):
    """Match a node shape (``shape``) against its production: of all ways,
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
    node had recorded it."""
    name = relaxed_name(shape[0]) if recorded else shape[0]
    try:
        rhs = flat.rules().productions[name].rhs
    except KeyError:
        rhs = None
    if rhs is None:
        raise GrammarError("no concrete production %r" % name)
    terminals, slots = shape[1], shape[2:]
    index = {s if type(s) is str else s[0]: j for j, s in enumerate(slots, 1)}
    full = (len(terminals) if recorded else 0,) + tuple(
        1 if type(s) is str else s[1] for s in slots)
    facts = (index, terminals if recorded else None, set(terminals), full)
    for state, chain in _replay(rhs, (0,) * len(full), None, facts):
        if state == full:
            way = []
            while chain is not None:
                item, chain = chain
                way.append(item)
            way.reverse()
            return way
    return None


def _replay(expr, state, chain, facts):
    """The ways ``expr`` matches a node shape from ``state``, as
    ``_Parser.match`` matches tokens, but for a group of groups, which it
    keeps.  A state holds the terminals used, then per slot how many of
    its values are; a chain holds terminal texts and ``(slot key, index in
    the slot)`` references.  ``facts`` are the shape's: the cursor of each
    slot key, the recorded terminals (None if they are produced), all of
    them, and the state that uses every value up."""
    index, terms, had, full = facts
    kind = type(expr)
    if kind is Terminal:
        text = expr.text
        if terms is None:
            return [(state, (text, chain))]
        t = state[0]
        if t < len(terms) and terms[t] == text:
            return [((t + 1,) + state[1:], (text, chain))]
        return []
    if kind is NontermRef:
        key = expr.key
        j = index.get(key)
        if j is None or state[j] == full[j]:
            return []
        return [(state[:j] + (state[j] + 1,) + state[j + 1:],
                 ((key, state[j]), chain))]
    if kind is Sequence:
        states = [(state, chain)]
        for item in expr.items:
            out = []
            for state, chain in states:
                out += _replay(item, state, chain, facts)
            states = first_per_end(out)
        return states
    if kind is Alternative:
        out = []
        for branch in expr.branches:
            out += _replay(branch, state, chain, facts)
        return first_per_end(out)
    inner, card = expr.inner, expr.cardinality
    if card == "one":
        return _replay(inner, state, chain, facts)
    if card == "optional":
        # unless terminals are recorded, a keyword (a group of terminals
        # only) is produced only if the node had it
        words = leaves(inner)
        if terms is None and all(type(w) is Terminal for w in words) and \
                not all(w.text in had for w in words):
            out = []
        else:
            out = _replay(inner, state, chain, facts)
        for end, _ in out:
            if end == state:      # inner matched nothing first
                return out
        out.append((state, chain))
        return out
    # a repeat, as the general parser's (``_Parser.match``)
    out = []
    seen = {state}
    back = ()
    stack = [(state, chain, iter(_replay(inner, state, chain, facts)))]
    while stack:
        end, c, more = stack[-1]
        for end2, c2 in more:
            if end2 not in seen:
                seen.add(end2)
                stack.append((end2, c2, iter(_replay(inner, end2, c2, facts))))
                break
            if card == "plus" and not back and end2 == state:
                back = (c2,)
        else:
            stack.pop()
            if stack or card != "plus":
                out.append((end, c))
            elif back:
                out.append((state,) + back)
    return out


def resync_terminals(flat, node):
    """Recompute the node's recorded terminals after its slots changed
    structurally (an optional part appeared or disappeared, an element was
    added to or removed from a collection).

    The terminals depend only on the node's ``shape``, so they are cached
    on the grammar per shape, and an add to a block of any size is a
    hit."""
    if node.production == BUILTIN_NAME:
        return
    key = shape(flat, node)
    terminals = flat.resynced.get(key)
    if terminals is None:
        way = replay(flat, key, recorded=False)
        if way is None:
            raise GrammarError("slots of %s node no longer fit its production"
                               % node.production)
        terminals = flat.resynced[key] = tuple(
            item for item in way if isinstance(item, str))
    node.terminals = terminals


class _Parser:
    """The general parser: walks the rhs of the parser's rules
    (``FlatGrammar.rules``) against tokens (``match``), descending into
    every production and implementor.  An end is a token position, and a
    chain holds ``(slot key or None for a terminal, value, rest)`` cells
    from the start of the enclosing production.  A value is a terminal's
    text, an identifier's token position, or a production's result:
    ``(end, node name, start, chain)``.  Nodes of chains are built only
    for the results the complete parse keeps (``_tree``)."""

    def __init__(self, flat, tokens):
        self.flat = flat
        rules = flat.rules()
        self.productions = rules.productions
        self.implementors = rules.implementors
        self.tokens = tokens
        self.texts = tokens.padded
        self.idents = tokens.idents
        self.memo = {}
        self.many = {}            # production -> its star/plus slot keys
        self.far_pos = -1
        self.far_expected = set()   # terminal texts, None: an identifier

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
        exp = sorted("<identifier>" if e is None else repr(e)
                     for e in self.far_expected)
        detail = "; expected one of: " + ", ".join(exp) if exp else ""
        return ParseFailure(message + got + detail, line, col, exp)

    def too_deep(self, message):
        line, col, got = self._where()
        return ParseFailure(message + got + "; the input nests too deeply",
                            line, col)

    # -- the walk ------------------------------------------------------

    def prod(self, name, pos):
        """The results of rule ``name`` from ``pos``, memoized."""
        key = (name, pos)
        results = self.memo.get(key)
        if results is None:
            self.memo[key] = results = []
            p = self.productions[name]
            for end, chain in self.match(p.rhs, pos, None):
                results.append((end, p.name, pos, chain))
        return results

    def match(self, expr, pos, chain):
        """The ways the rhs expression matches from ``pos``, as ``(end,
        chain)`` pairs in order of preference, one per end: all that
        follows a match depends only on where it ended, so of two with
        the same end the later one is never part of the first complete
        match.  The chain holds what was matched, newest first."""
        while True:
            kind = type(expr)
            if kind is NontermRef:
                target, key = expr.target, expr.label
                if key is None:   # ``expr.key``, read without a call
                    key = target
                if target == BUILTIN_NAME:
                    if self.idents[pos]:
                        return [(pos + 1, (key, pos, chain))]
                    self._miss(pos, None)
                    return []
                found = self.memo.get((target, pos))
                if found is None:
                    names = self.implementors.get(target)
                    if names is None:
                        found = self.prod(target, pos)
                    else:
                        found = []
                        for name in names:
                            found += self.prod(name, pos)
                        found = self.memo[target, pos] = first_per_end(found)
                return [(r[0], (key, r, chain)) for r in found]
            if kind is Sequence:
                items = expr.items
                states = self.match(items[0], pos, chain)
                for item in items[1:]:
                    if len(states) == 1:
                        pos, chain = states[0]
                        states = self.match(item, pos, chain)
                    elif states:
                        out = []
                        for pos, chain in states:
                            out += self.match(item, pos, chain)
                        states = first_per_end(out)
                    else:
                        break
                return states
            if kind is Terminal:
                # identifier-shaped texts only ever lex as identifiers, the
                # others only as punctuation, so the text decides the kind
                text = expr.text
                if self.texts[pos] == text:
                    return [(pos + 1, (None, text, chain))]
                self._miss(pos, text)
                return []
            if kind is Alternative:
                out = []
                for branch in expr.branches:
                    out += self.match(branch, pos, chain)
                return first_per_end(out)
            inner, card = expr.inner, expr.cardinality
            # a group of groups, through plain ones, is read as one: (x+)+
            # as x+, (x?)? as x?, and (x*)*, (x?)+ and the rest as x*, so
            # that nesting does not multiply its ways to match
            while card != "one" and type(inner) is Group:
                if inner.cardinality != "one":
                    card = card if card == inner.cardinality else "star"
                inner = inner.inner
            if card != "one":
                break
            expr = inner          # a plain group costs no call
        if card == "optional":
            out = self.match(inner, pos, chain)
            for end, _ in out:
                if end == pos:    # inner matched nothing first
                    return out
            out.append((pos, chain))
            return out
        # greedy repetition: every end reachable by repeating ``inner``,
        # deepest first, each once, by a loop over an explicit stack; an
        # end reached before is not entered again, as it would only repeat
        # earlier results.  The start of a ``+`` group is a result only
        # through a first element that used nothing up (``back``).
        out = []
        seen = {pos}
        back = ()
        stack = [(pos, chain, iter(self.match(inner, pos, chain)))]
        while stack:
            end, c, more = stack[-1]
            for end2, c2 in more:
                if end2 not in seen:
                    seen.add(end2)
                    stack.append((end2, c2, iter(self.match(inner, end2, c2))))
                    break
                if card == "plus" and not back and end2 == pos:
                    back = (c2,)
            else:
                stack.pop()
                if stack or card != "plus":
                    out.append((end, c))
                elif back:
                    out.append((pos,) + back)
        return out

    # -- building the tree ---------------------------------------------

    def _tree(self, result):
        """The node of a production's result, built from its chain, with
        the nodes of the results in the chain, and so on down, by a
        loop."""
        todo = []                 # (result, list or slots, index or key)
        root = self._build(result, todo)
        while todo:
            result, holder, index = todo.pop()
            holder[index] = self._build(result, todo)
        return root

    def _build(self, result, todo):
        """The node of one chain result; the slots that hold results are
        left to ``todo``."""
        end, name, start, chain = result
        many = self.many.get(name)
        if many is None:
            many = self.many[name] = _many(self.flat, name)
        cells = []
        while chain is not None:
            cells.append(chain)
            chain = chain[2]
        slots = {}
        terminals = []
        texts = self.texts
        for key, value, _ in reversed(cells):
            if key is None:
                terminals.append(value)
                continue
            if key in many:
                holder = slots.get(key)
                if holder is None:
                    holder = slots[key] = []
                index = len(holder)
                holder.append(None)
            else:
                holder, index = slots, key
            if type(value) is int:
                holder[index] = Node(BUILTIN_NAME, {}, (), (value, value + 1),
                                     texts[value])
            else:
                holder[index] = None
                todo.append((value, holder, index))
        for key in many:
            if key not in slots:
                slots[key] = []
        return Node(name, slots, tuple(terminals), (start, end))


def _many(flat, name):
    """The slot keys of a production that hold lists."""
    return [key for key, info in flat.slot_plan(name).items()
            if info.cardinality == "many"]


def _takes(texts, key):
    """Can a token with this key be one of the token set's ``texts``?
    The key past the end of the text, None, only if they hold None."""
    return key in texts or key is not None and IDENTIFIER in texts and (
        key is IDENTIFIER or IDENT_RE.fullmatch(key) is not None)


# ---------------------------------------------------------------------------
# Direct descent

class _Undecided(Exception):
    """The token at a choice of a direct descent admits two options."""


class _Reader:
    """The state of a direct descent through one text: its token texts,
    whether each is an identifier, the keys the token sets tell apart,
    and the results of the productions read where a reference left
    several."""

    def __init__(self, descent, tokens):
        self.descent = descent
        self.texts = tokens.padded
        self.idents = tokens.idents
        # what the token sets can tell apart: the token's text, or
        # IDENTIFIER for an identifier no terminal spells; None past the end
        plain = dict.fromkeys(tokens.words - descent.keywords, IDENTIFIER)
        self.keys = list(map(plain.get, tokens.texts, tokens.texts)) + \
            [None, None]
        self.memo = {}            # (rule, start) -> [(end, node)] or []

    def read(self, rule, at):
        """The end and the node of what the ``_Direct`` rule reads from
        ``at``; (-1, None) if it reads nothing.  Every read of direct
        descent comes through here."""
        slots, terms = {}, []
        end = rule.read(self, at, slots, terms)
        if end < 0:
            return end, None
        for key in rule.many:
            if key not in slots:
                slots[key] = []
        return end, Node(rule.production, slots, tuple(terms), (at, end))

    def several(self, rules, at, follow):
        """Of the results of the ``_Direct`` rules from ``at``, each read
        once per position, the first per end, the one that ends before a
        token ``follow`` admits; (-1, None) if none does, ``_Undecided``
        if more than one does.  A result read before is handed out as a
        copy, so no node fills two slots."""
        memo, keys = self.memo, self.keys
        found = []
        for rule in rules:
            results = memo.get((rule, at))
            if results is None:
                end, node = self.read(rule, at)
                results = memo[rule, at] = [(end, node)] if end >= 0 else []
            else:
                results = [(end, node.clone()) for end, node in results]
            found += results
        found = [r for r in first_per_end(found) if _takes(follow, keys[r[0]])]
        if len(found) > 1:
            raise _Undecided
        return found[0] if found else (-1, None)


class _Descent:
    """Direct descent's view of one grammar, made on its first text and
    cached on it (``_descent``): all its predictions and choices read, and
    its rules compiled per follow set (``_Direct``).

    Its facts are found over the rules the parser reads
    (``FlatGrammar.rules``), relaxed copies included, each on its first
    lookup.  ``first`` maps a rule to the texts of the tokens that can
    begin it (``IDENTIFIER`` for any identifier), by one ``model._Sets``,
    and ``nullable`` holds the rules it has found can match nothing;
    ``spans`` tells how many of the next tokens a rule can span, with
    ``second`` and ``one`` as its fast path.  ``keywords`` and
    ``punctuation`` hold the terminal literals that are and that are not
    identifier-shaped."""

    def __init__(self, flat):
        self.flat = flat
        self.rules = rules = flat.rules()
        self.nullable = set()
        self.first = _Sets(rules.productions, rules.implementors,
                           self.nullable, lazy=True)
        literals = flat.terminal_literals()
        self.keywords = frozenset(filter(IDENT_RE.fullmatch, literals))
        self.punctuation = frozenset(literals - self.keywords)
        self.directs = {}         # (rule, follow) -> _Direct
        self.predictions = {}     # (target, follow) -> _Prediction
        self.distinct = {}        # interface -> the rules it reads
        self.spanned = {}         # (rule or id(rhs node), keys) -> counts
        self.seconds = {}         # rule -> its second-token set, or None
        self.ones = {}            # rule -> whether every match spans one

    def direct(self, name, follow):
        """Rule ``name``, followed by ``follow``, compiled for direct
        descent, once per grammar."""
        rule = self.directs.get((name, follow))
        if rule is None:
            rule = self.directs[name, follow] = _Direct(self, name, follow)
        return rule

    def prediction(self, target, follow):
        """What a reference to ``target`` followed by ``follow`` reads
        (see ``_Prediction``), one for all such references."""
        found = self.predictions.get((target, follow))
        if found is None:
            found = self.predictions[target, follow] = \
                _Prediction(self, self.alternatives(target), (), follow)
        return found

    def alternatives(self, target):
        """The rules a reference to ``target`` reads: ``target``, or of
        the implementors of the interface, the first of those with one
        rhs, which ends wherever the others do (``_Reader.several``)."""
        names = self.rules.implementors.get(target)
        if names is None:
            return [target]
        found = self.distinct.get(target)
        if found is None:
            rhs = {}
            for name in names:
                rhs.setdefault(self.rules.productions[name].rhs, name)
            found = self.distinct[target] = list(rhs.values())
        return found

    def second(self, name):
        """The texts of the tokens that can begin the rest of rule
        ``name`` after its first item, if every match of that item spans
        one token (``one``) and the rest cannot match nothing; else None.
        Found once per rule."""
        if name in self.seconds:
            return self.seconds[name]
        found = None
        if name not in self.rules.implementors:
            rhs = self.rules.productions[name].rhs
            if type(rhs) is Sequence and self._one(rhs.items[0]):
                out = set()
                for item in rhs.items[1:]:
                    if not _edge(item, out, self.nullable, self.first,
                                 IDENTIFIER):
                        found = out
                        break
        self.seconds[name] = found
        return found

    def one(self, name):
        """Does every match of rule ``name`` span exactly one token?  Found
        once per rule.  A rule met again while that is found (it begins
        with itself) does not, and one whose lookup is cut short stays
        one that does not: ``spans`` then walks it, which is slower but
        as exact."""
        found = self.ones.get(name)
        if found is None:
            self.ones[name] = False
            names = self.rules.implementors.get(name)
            if names is None:
                found = self._one(self.rules.productions[name].rhs)
            else:
                found = bool(names) and all(map(self.one, names))
            self.ones[name] = found
        return found

    def _one(self, expr):
        """``one`` of an rhs expression."""
        while type(expr) is Group and expr.cardinality == "one":
            expr = expr.inner
        return type(expr) is Terminal or type(expr) is NontermRef and (
            expr.target == BUILTIN_NAME or self.one(expr.target))

    def spans(self, name, keys):
        """How many of the tokens with these keys a match of rule ``name``
        from the first of them can span: a frozenset of counts, in which
        ``len(keys)`` stands for all of them and maybe more.  Found by
        the first token set, and past it once per rule and keys, by the
        second where the rule has one, else by walking the rule.  A rule
        met again while its own counts are found (a left cycle, which
        only relaxed copies make) counts as spanning any number, and so
        does one whose walk is cut short (the stack can run out deep in
        a text): a prediction then keeps more rules, never fewer."""
        if not _takes(self.first[name], keys[0]):
            return _ZERO if name in self.nullable else _NEVER
        n = len(keys)
        if n == 1:
            return _ZERO_OR_ONE if name in self.nullable else _ONE
        found = self.spanned.get((name, keys))
        if found is not None:
            return found
        second = self.second(name)
        if second is not None:
            # its first item spans one token, and the rest at least one
            if not _takes(second, keys[1]):
                found = _NEVER
            elif n == 2:
                found = _TWO
            else:
                rest = self._items(
                    self.rules.productions[name].rhs.items[1:], keys[1:])
                found = frozenset(1 + c for c in rest)
        else:
            self.spanned[name, keys] = frozenset(range(n + 1))
            names = self.rules.implementors.get(name)
            if names is None:
                found = self._spans(self.rules.productions[name].rhs, keys)
            else:
                found = set()
                for impl in names:
                    found |= self.spans(impl, keys)
            found = frozenset(found)
        self.spanned[name, keys] = found
        return found

    def _spans(self, expr, keys):
        """``spans`` of an rhs expression, found once per expression and
        keys, so groups nested in groups cost what they hold, not its
        product."""
        kind = type(expr)
        if kind is Terminal:
            return _ONE if keys[0] == expr.text else _NEVER
        if kind is NontermRef:
            if expr.target == BUILTIN_NAME:
                return _ONE if _takes(_NAME, keys[0]) else _NEVER
            return self.spans(expr.target, keys)
        found = self.spanned.get((id(expr), keys))
        if found is not None:
            return found
        if kind is Sequence:
            counts = self._items(expr.items, keys)
        elif kind is Alternative:
            counts = set()
            for branch in expr.branches:
                counts |= self._spans(branch, keys)
        else:
            counts = set(self._spans(expr.inner, keys))
            if expr.cardinality in ("optional", "star"):
                counts.add(0)
            grown = counts if expr.cardinality in ("star", "plus") else ()
            while grown:          # one more element after each count
                grown = self._after(grown, expr.inner, keys) - counts
                counts |= grown
        found = self.spanned[id(expr), keys] = frozenset(counts)
        return found

    def _items(self, items, keys):
        """``spans`` of a sequence of rhs items, as a set."""
        counts = {0}
        every = {len(keys)}
        for item in items:
            counts = self._after(counts, item, keys)
            if not counts or counts == every:
                break             # what comes after changes nothing
        return counts

    def _after(self, counts, expr, keys):
        """The counts of ``expr`` matched after a match of each count."""
        n = len(keys)
        out = set()
        for c in counts:
            if c == n:
                out.add(n)
            elif c:
                out.update([c + d for d in self._spans(expr, keys[c:])])
            else:
                out.update(self._spans(expr, keys))
        return out


def _descent(flat):
    """The grammar's ``_Descent``, made on first use and cached on it
    (``FlatGrammar.descent``)."""
    if flat.descent is None:
        flat.descent = _Descent(flat)
    return flat.descent


# counts of ``_Descent.spans``
_NEVER = frozenset()
_ZERO = frozenset([0])
_ONE = frozenset([1])
_ZERO_OR_ONE = frozenset([0, 1])
_TWO = frozenset([2])
#: The most tokens a prediction reads.  The statechart deltas of the
#: benchmark need four, to tell ``remove [ s -> t ]`` from the transition
#: body and guard operations; a guard operation ``set [ c ] ;`` and one of
#: a transition body ``set [ c ] m ( ) ;`` need five.
_DEPTH = 5
#: The token set of an identifier.
_NAME = frozenset([IDENTIFIER])


class _Prediction(dict):
    """What a reference followed by ``follow`` reads, where prediction
    leaves ``names`` after the tokens with ``keys``, by the key of the
    next token: the one ``_Direct`` rule that prediction leaves, a tuple
    of the several it leaves (of none, empty), or, where the token after
    can tell those apart, another ``_Prediction``.  Filled in once per
    key; a reference's own is made once per grammar, target and follow
    set (``_Descent.prediction``), with no keys and ``names`` the rules
    ``_Descent.alternatives`` gives."""

    def __init__(self, descent, names, keys, follow):
        super().__init__()
        self.descent, self.names, self.keys, self.follow = \
            descent, names, keys, follow

    def __missing__(self, key):
        descent, follow = self.descent, self.follow
        keys = self.keys + (key,)
        n = len(keys)
        # a rule is kept if it can span all these tokens, or end before
        # one that ``follow`` admits; the token after can tell those kept
        # apart while one of them can span all these tokens, and the last
        # of them is not the end of the text, after which none follows
        names = []
        longer = False
        for name in self.names:
            counts = descent.spans(name, keys)
            if n in counts:
                longer = True
            elif not any(_takes(follow, keys[c]) for c in counts):
                continue
            names.append(name)
        if len(names) > 1 and n < _DEPTH and longer and key is not None:
            way = _Prediction(descent, names, keys, follow)
        elif len(names) == 1:
            way = descent.direct(names[0], follow)
        else:
            way = tuple(descent.direct(name, follow) for name in names)
        self[key] = way
        return way


class _Direct:
    """A rule of ``FlatGrammar.rules``, a relaxed copy or not, compiled
    for direct descent, given the follow set of its production: the
    texts of the tokens that can come after it (``IDENTIFIER`` for any
    identifier, None for the end of the text).  Made once per grammar,
    rule and follow set (``_Descent.direct``).

    ``read(reader, start, slots, terminals)`` reads the production from
    ``start``, fills in the slots and terminals of its node as it goes,
    and returns the end, or -1 if the production has no result there;
    it raises ``_Undecided`` at a choice the token does not decide."""

    __slots__ = ("read", "name", "production", "many")

    def __init__(self, descent, name, follow):
        p = descent.rules.productions[name]
        self.name = name
        # a copy's nodes, and their slots, are its production's
        self.production = p.name
        self.many = _many(descent.flat, p.name)
        self.read = _descend(p.rhs, (descent, self.many), follow)


def _starts(expr, facts):
    """The texts of the tokens that can begin ``expr`` (by
    ``model._edge`` over ``_Descent.first``), and whether ``expr``
    can match nothing."""
    descent = facts[0]
    texts = set()
    empty = _edge(expr, texts, descent.nullable, descent.first, IDENTIFIER)
    return frozenset(texts), empty


def _undecided(p, at, slots, terms):
    raise _Undecided


def _fail(p, at, slots, terms):
    return -1


def _skip(p, at, slots, terms):
    return at


class _Ways(dict):
    """A choice of direct descent between ``options``, each ``(way,
    starts, empty)``: by the token's key, the way of the one option taken,
    found once per key; ``_undecided`` if several are, ``_fail`` if none
    is.  An option is taken if the texts ``starts`` of its first tokens
    admit the key (None admits every key), or if it can match nothing
    (``empty``) and ``follow`` admits the key."""

    def __init__(self, options, follow):
        super().__init__()
        self.options, self.follow = options, follow

    def __missing__(self, key):
        follow = self.follow
        taken = [way for way, starts, empty in self.options
                 if starts is None or _takes(starts, key) or
                 empty and _takes(follow, key)]
        way = self[key] = taken[0] if len(taken) == 1 else \
            _undecided if taken else _fail
        return way


def _descend(expr, facts, follow):
    """``expr``, followed by ``follow``, as a function of direct descent
    ``(reader, start, slots, terminals)`` that returns the end (see
    ``_Direct``).  Each choice decides by the token's key, once per key."""
    while type(expr) is Group and expr.cardinality == "one":
        expr = expr.inner
    return _sequence_direct(
        expr.items if type(expr) is Sequence else (expr,), facts, follow)


def _way_in(expr, facts, follow):
    """An option of a choice: a terminal, which the key that chose it
    has read, as its text, or else as ``_descend`` gives it."""
    while type(expr) is Group and expr.cardinality == "one":
        expr = expr.inner
    if type(expr) is Terminal:
        return expr.text
    return _descend(expr, facts, follow)


class _Leaf(NamedTuple):
    """A reference or a ``*``/``+`` group of direct descent, which a
    sequence reads in its own loop: per key whether to read another
    element (``ways``; None reads exactly one), whether to read the first
    whatever the key (``need_one``: a reference, a ``+`` group), and for a
    group that is not one reference alone, the sequence that reads an
    element (``call``).  A reference is read inline: its slot key, whether
    the slot holds a list, but for an identifier what prediction leaves
    (``_Descent.prediction``), and the follow set."""

    key: str = None
    many: bool = False
    predicted: object = None
    follow: frozenset = None
    ways: _Ways = None
    need_one: bool = True
    call: object = None


def _leaf(ref, facts, follow, ways=None, need_one=True):
    """The ``_Leaf`` of reference ``ref``, followed by ``follow``."""
    descent, many = facts
    predicted = None if ref.target == BUILTIN_NAME else \
        descent.prediction(ref.target, follow)
    return _Leaf(ref.key, ref.key in many, predicted, follow, ways, need_one)


#: The way of a ``*``/``+`` group that reads another element.
_AGAIN = "again"


def _sequence_direct(items, facts, follow):
    """A sequence of direct descent.  Terminals, choices, references and
    repeats are read in the sequence's own loop, a reference, alone or
    repeated, with no call of its own, so a nesting level costs few
    frames.  A reference reads the one production prediction leaves,
    with the reference's follow set, and several by ``_Reader.several``."""
    parts = []
    for i in range(len(items) - 1, -1, -1):
        item = items[i]
        while type(item) is Group and item.cardinality == "one":
            item = item.inner
        if type(item) is Terminal:
            parts.append(item.text)
        elif type(item) is NontermRef:
            parts.append(_leaf(item, facts, follow))
        elif type(item) is Alternative or type(item) is Group and \
                item.cardinality == "optional":
            parts.append(_choose(item, facts, follow))
        elif type(item) is Group:
            parts.append(_repeat_direct(item, facts, follow))
        else:                     # a sequence in a sequence
            parts.append(_descend(item, facts, follow))
        if i:             # the follow set of the item before
            starts, empty = _starts(item, facts)
            follow = starts | follow if empty else starts
    parts = [(type(part), part) for part in reversed(parts)]

    def sequence(p, at, slots, terms):
        for kind, part in parts:
            if kind is str:
                if p.texts[at] != part:
                    return -1
                terms.append(part)
                at += 1
                continue
            if kind is _Leaf:
                key, many, predicted, follow, ways, need_one, call = part
                while True:
                    if need_one:
                        need_one = False
                    else:
                        way = ways[p.keys[at]]
                        if way is _skip:
                            break
                        if way is not _AGAIN:
                            at = way(p, at, slots, terms)
                            break
                    start = at
                    if call is not None:
                        at = call(p, at, slots, terms)
                        if at < 0:
                            return at
                    else:
                        if predicted is None:
                            if not p.idents[at]:
                                return -1
                            value = Node(BUILTIN_NAME, {}, (), (at, at + 1),
                                         p.texts[at])
                            at += 1
                        else:
                            way = predicted[p.keys[at]]
                            ahead = at
                            while type(way) is _Prediction:
                                ahead += 1
                                way = way[p.keys[ahead]]
                            if type(way) is _Direct:
                                at, value = p.read(way, at)
                            elif way:
                                at, value = p.several(way, at, follow)
                            else:
                                return -1
                            if at < 0:
                                return at
                        if not many:
                            slots[key] = value
                        elif key in slots:
                            slots[key].append(value)
                        else:
                            slots[key] = [value]
                    if ways is None or at == start:
                        break             # one read, or an element of nothing
                if at < 0:
                    return at
                continue
            if kind is _Ways:
                part = part[p.keys[at]]
                if part is _skip:
                    continue
                if type(part) is str:         # the key is the terminal's
                    terms.append(part)
                    at += 1
                    continue
            at = part(p, at, slots, terms)
            if at < 0:
                return at
        return at
    return sequence


def _choose(expr, facts, follow):
    """An alternative or an optional group of direct descent, as its
    ``_Ways``."""
    if type(expr) is Alternative:
        return _Ways([(_way_in(branch, facts, follow),) +
                      _starts(branch, facts) for branch in expr.branches],
                     follow)
    return _group_ways(expr, _way_in(expr.inner, facts, follow),
                       *_starts(expr.inner, facts), follow)


def _group_ways(group, way, starts, empty, follow):
    """The ``_Ways`` of an optional or repeated group followed by
    ``follow``: enter its inner part by ``way``, where ``starts`` can
    begin that part, which can match nothing if ``empty``, or leave it
    out, which matches nothing.  Matching nothing inside is the same as
    leaving the group out, unless it builds a node: the inner part is
    then entered at every key."""
    builds = empty and any(
        type(leaf) is NontermRef and leaf.target != BUILTIN_NAME
        for leaf in leaves(group.inner))
    return _Ways([(way, None if builds else starts, False),
                  (_skip, _NEVER, True)], follow)


def _repeat_direct(expr, facts, follow):
    """A ``*`` or ``+`` group of direct descent, as the ``_Leaf`` that
    reads its elements: a reference alone inline, with no call per
    element, else by the sequence of its inner part."""
    starts, empty = _starts(expr.inner, facts)
    ways = _group_ways(expr, _AGAIN, starts, empty, follow)
    need_one = expr.cardinality == "plus"
    # after an element of a repeat comes another one or what follows it
    then = starts | follow
    inner = expr.inner
    while type(inner) is Group and inner.cardinality == "one":
        inner = inner.inner
    if type(inner) is NontermRef:
        return _leaf(inner, facts, then, ways, need_one)
    return _Leaf(ways=ways, need_one=need_one,
                 call=_descend(inner, facts, then))


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
        descent = _descent(flat)
        tokens = TokenTable(text, DEFAULT_PUNCTUATION | descent.punctuation)
        name = relaxed_name(start) if relaxed else start
        # direct descent, if it reads the text whole; else the general
        # parser, whose misses place the message of a text that fails
        try:
            end, node = _Reader(descent, tokens).read(
                descent.direct(name, _END), 0)
        except (_Undecided, RecursionError):
            end = -1
        if end != len(tokens):
            parser = _Parser(flat, tokens)
            try:
                for result in parser.prod(name, 0):
                    if result[0] == len(tokens):
                        node = parser._tree(result)
                        break
                else:
                    raise parser.failure("cannot parse %s" % what)
            except RecursionError:
                raise parser.too_deep("cannot parse %s" % what) from None
        node.tokens = tokens
        return node


#: The follow set of a whole text: its end.
_END = frozenset([None])


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
