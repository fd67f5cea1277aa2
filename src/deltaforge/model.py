"""Grammar data model: productions, rhs expressions, and flattening.

A grammar is an ordered list of productions.  Productions are either
concrete (they carry an rhs expression) or interfaces (pure alternatives
over the productions that declare to implement them).  Grammars can extend
other grammars; ``flatten`` merges an extends chain into a single
production table with child-wins overriding.

Every grammar fact that reads the leaves of an rhs expression goes
through ``leaves`` (the terminal and reference leaves, in rhs order:
slot targets, terminal literals, unresolved references, rule-4 counts).
Nullability, the last terminals of a production, the left-recursion
check and the parser's first- and second-token sets all go through
``_edge``: the leaves that can begin (or end) a derivation of a
production, and whether it can be empty; there an interface counts as
the alternative of its implementors.  One fixpoint, ``_propagate``,
turns edge leaves into terminal texts for both the last terminals and
the token sets.  Slot bounds
(``_counts``), addressability and the slots a replay reads only as empty
or not (``SlotInfo.alone``) keep their own walks, each a different
algebra over the expression.

The parser reads the grammar through ``FlatGrammar.rules``, which adds
a relaxed copy of every production and interface: the copies read the
truncated sentences by which bracketed element identifiers name
elements.  They are built on first use, never by ``flatten``, and no
grammar fact above sees them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: The single builtin lexical nonterminal: an identifier token.
BUILTIN_NAME = "Name"

#: Marker returned by last-terminal analysis when a production can end in
#: an identifier token instead of a terminal literal.
NO_TERMINAL = "<none>"

#: Stands for "an identifier token" in the first- and second-token sets;
#: no terminal text can equal it.
IDENTIFIER = object()

#: Interface whose implementors read the productions they refer to
#: through relaxed copies (see ``Rules``).
IDENTIFIER_INTERFACE = "ModelElementIdentifier"


class GrammarError(Exception):
    """Structural problem in a grammar or an extends chain."""


class LeftRecursionError(GrammarError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("left recursion through: " + " -> ".join(self.cycle))


# ---------------------------------------------------------------------------
# Rhs expressions

@dataclass(frozen=True)
class Terminal:
    text: str

    def __post_init__(self):
        if not self.text:
            raise GrammarError("empty terminal")


@dataclass(frozen=True)
class NontermRef:
    target: str
    label: str | None = None

    @property
    def key(self):
        return self.label if self.label is not None else self.target


@dataclass(frozen=True)
class Sequence:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 1:
            raise GrammarError("empty sequence")


@dataclass(frozen=True)
class Alternative:
    branches: tuple

    def __post_init__(self):
        if len(self.branches) < 2:
            raise GrammarError("alternative needs at least two branches")


@dataclass(frozen=True)
class Group:
    inner: object
    cardinality: str = "one"  # one | optional | star | plus

    def __post_init__(self):
        if self.cardinality not in ("one", "optional", "star", "plus"):
            raise GrammarError("bad cardinality %r" % (self.cardinality,))


# ---------------------------------------------------------------------------
# Productions and grammars

@dataclass(frozen=True)
class Production:
    name: str
    kind: str = "concrete"  # concrete | interface
    implements: tuple = ()
    rhs: object = None

    def __post_init__(self):
        if self.kind not in ("concrete", "interface"):
            raise GrammarError("bad production kind %r" % (self.kind,))
        if self.kind == "interface" and self.rhs is not None:
            raise GrammarError("interface production %r cannot have an rhs" % self.name)
        if self.kind == "concrete" and self.rhs is None:
            raise GrammarError("concrete production %r needs an rhs" % self.name)


@dataclass(frozen=True)
class Grammar:
    name: str
    extends: tuple = ()
    productions: tuple = ()
    source: str | None = None

    def __post_init__(self):
        if not IDENT_RE.fullmatch(self.name):
            raise GrammarError("grammar name %r is not an identifier" % self.name)
        seen = set()
        for p in self.productions:
            if p.name in seen:
                raise GrammarError(
                    "duplicate production %r in grammar %s" % (p.name, self.name))
            seen.add(p.name)


@dataclass
class SlotInfo:
    """Static shape of one slot of a production."""

    key: str
    cardinality: str          # one | optional | many
    targets: set = field(default_factory=set)
    # referred to once, as the whole inner part of a ``*``/``+`` group
    # (``elements:Element*``): a replay reads only whether it is empty
    alone: bool = False


def leaves(expr):
    """The ``Terminal`` and ``NontermRef`` leaves of an rhs expression, in
    rhs order."""
    kind = type(expr)
    if kind is Terminal or kind is NontermRef:
        yield expr
    elif kind is Group:
        yield from leaves(expr.inner)
    else:
        for part in expr.items if kind is Sequence else expr.branches:
            yield from leaves(part)


_INF = float("inf")


def _counts(expr):
    """Per slot key: (min, max) occurrence bounds over one derivation."""
    if isinstance(expr, Terminal):
        return {}
    if isinstance(expr, NontermRef):
        return {expr.key: (1, 1)}
    if isinstance(expr, Sequence):
        acc = {}
        for it in expr.items:
            for k, (lo, hi) in _counts(it).items():
                plo, phi = acc.get(k, (0, 0))
                acc[k] = (plo + lo, phi + hi)
        return acc
    if isinstance(expr, Alternative):
        per = [_counts(b) for b in expr.branches]
        keys = set().union(*per) if per else set()
        acc = {}
        for k in keys:
            los = [c.get(k, (0, 0))[0] for c in per]
            his = [c.get(k, (0, 0))[1] for c in per]
            acc[k] = (min(los), max(his))
        return acc
    if isinstance(expr, Group):
        inner = _counts(expr.inner)
        out = {}
        for k, (lo, hi) in inner.items():
            if expr.cardinality == "optional":
                out[k] = (0, hi)
            elif expr.cardinality == "star":
                out[k] = (0, _INF if hi else 0)
            elif expr.cardinality == "plus":
                out[k] = (lo, _INF if hi else 0)
            else:
                out[k] = (lo, hi)
        return out
    raise TypeError(expr)


def slot_plan(production):
    """Map slot key -> SlotInfo for a concrete production."""
    if production.rhs is None:
        return {}
    plan = {}
    for k, (lo, hi) in _counts(production.rhs).items():
        if hi > 1:
            card = "many"
        elif lo == 0:
            card = "optional"
        else:
            card = "one"
        plan[k] = SlotInfo(key=k, cardinality=card)
    refs = [ref for ref in leaves(production.rhs) if type(ref) is NontermRef]
    for ref in refs:
        plan[ref.key].targets.add(ref.target)
    stack = [production.rhs]
    while stack:
        expr = stack.pop()
        kind = type(expr)
        if kind is Group:
            inner = expr.inner
            if expr.cardinality in ("star", "plus") and \
                    type(inner) is NontermRef and \
                    sum(ref.key == inner.key for ref in refs) == 1:
                plan[inner.key].alone = True
            stack.append(inner)
        elif kind is Sequence or kind is Alternative:
            stack += expr.items if kind is Sequence else expr.branches
    return plan


def is_addressable_by_name(production):
    """True iff every derivation of the production binds a ``name`` label
    to an identifier in a non-optional position."""
    if production.kind != "concrete":
        return False

    def addr(expr):
        if isinstance(expr, NontermRef):
            return (expr.label == "name"
                    and expr.target in (BUILTIN_NAME, "QualifiedModelElementName"))
        if isinstance(expr, Sequence):
            return any(addr(it) for it in expr.items)
        if isinstance(expr, Alternative):
            return all(addr(b) for b in expr.branches)
        if isinstance(expr, Group):
            return expr.cardinality == "one" and addr(expr.inner)
        return False

    return addr(production.rhs)


# ---------------------------------------------------------------------------
# Flattening

class FlatGrammar:
    """An extends chain merged into a single validated production table."""

    def __init__(self, root, productions, implementors):
        self.root = root
        self.productions = productions      # name -> Production, insertion ordered
        self.implementors = implementors    # interface name -> [concrete names]
        self._plans = {}
        self.resynced = {}                  # resync shape -> its terminals
        self.compiled = {}                  # matcher class -> compiled rules
        self._nullable = None
        self._last = None
        self._starts = None
        self._lookahead = None
        self._rules = None

    def production(self, name):
        try:
            return self.productions[name]
        except KeyError:
            raise GrammarError("unknown production %r" % name) from None

    def is_interface(self, name):
        p = self.productions.get(name)
        return p is not None and p.kind == "interface"

    def concrete_names(self):
        return [n for n, p in self.productions.items() if p.kind == "concrete"]

    def slot_plan(self, name):
        if name not in self._plans:
            self._plans[name] = slot_plan(self.production(name))
        return self._plans[name]

    def terminal_literals(self):
        return {leaf.text for p in self.productions.values()
                if p.rhs is not None
                for leaf in leaves(p.rhs) if type(leaf) is Terminal}

    def nullable_set(self):
        """The productions that can derive the empty string."""
        if self._nullable is None:
            self._nullable = _nullable_set(self)
        return self._nullable

    def start_leaves(self):
        """Per production, the leaves that can begin a derivation of it
        (see ``_edge``), each production after those its leaves refer
        to."""
        if self._starts is None:
            self._starts = _start_leaves(self)
        return self._starts

    def last_terminal_map(self):
        if self._last is None:
            self._last = _last_map(self)
        return self._last

    def lookahead(self):
        """The first- and second-token sets and the punctuation literals
        the parser reads off the grammar (see ``Lookahead``), computed on
        first use."""
        if self._lookahead is None:
            self._lookahead = _lookahead(self)
        return self._lookahead

    def rules(self):
        """The productions the parser reads, relaxed copies included (see
        ``Rules``), built on first use."""
        if self._rules is None:
            self._rules = _rules(self)
        return self._rules


def _edge(flat, name, nullable, last=False):
    """The leaves that can begin a derivation of production ``name`` (with
    ``last``: that can end one), and whether the derivation can be empty,
    given the set of ``nullable`` productions.  An interface is the
    alternative of its implementors."""
    p = flat.productions[name]
    if p.kind == "interface":
        refs = [NontermRef(target=i) for i in flat.implementors.get(name, ())]
        return refs, any(r.target in nullable for r in refs)
    return _expr_edge(p.rhs, nullable, last)


def _expr_edge(expr, nullable, last=False):
    """``_edge`` of an rhs expression."""
    kind = type(expr)
    if kind is Terminal:
        return [expr], False
    if kind is NontermRef:
        return [expr], expr.target in nullable
    if kind is Sequence:
        out = []
        for item in reversed(expr.items) if last else expr.items:
            found, empty = _expr_edge(item, nullable, last)
            out += found
            if not empty:
                return out, False
        return out, True
    if kind is Alternative:
        out, empty = [], False
        for branch in expr.branches:
            found, e = _expr_edge(branch, nullable, last)
            out += found
            empty = empty or e
        return out, empty
    if kind is Group:
        found, empty = _expr_edge(expr.inner, nullable, last)
        return found, empty or expr.cardinality in ("optional", "star")
    raise TypeError(expr)


def _nullable_set(flat):
    nullable = set()
    changed = True
    while changed:
        changed = False
        for name in flat.productions:
            if name not in nullable and _edge(flat, name, nullable)[1]:
                nullable.add(name)
                changed = True
    return nullable


def _propagate(edges, name_marker, seeds=None):
    """Per production, the texts of the terminals its ``edges`` leaves
    reach, through references, to a fixpoint; ``name_marker`` stands for
    an identifier.  A production starts out with its ``seeds``.  Edges
    listed after the productions they refer to take one pass, and one
    more to see that nothing changed."""
    seeds = seeds or {}
    texts = {n: set(seeds.get(n, ())) for n in edges}
    changed = True
    while changed:
        changed = False
        for name, found in edges.items():
            cur = texts[name]
            size = len(cur)
            for leaf in found:
                if type(leaf) is Terminal:
                    cur.add(leaf.text)
                elif leaf.target == BUILTIN_NAME:
                    cur.add(name_marker)
                else:
                    cur |= texts[leaf.target]
            changed = changed or len(cur) != size
    return texts


def _last_map(flat):
    """Last terminals per production, propagated to a fixpoint over each
    production's end leaves."""
    nullable = flat.nullable_set()
    return _propagate({n: _edge(flat, n, nullable, last=True)[0]
                       for n in flat.productions}, NO_TERMINAL)


class Lookahead(NamedTuple):
    """What the parser can tell from the next two tokens.

    ``first`` maps a production to the texts of the tokens that can begin
    it (``IDENTIFIER`` for any identifier); it leaves out the nullable
    productions and those it cannot predict.  ``second`` maps a production
    whose first item always spans exactly one token to the texts of the
    tokens that can begin the rest of its rhs, where that rest cannot be
    empty.  ``punctuation`` and ``keywords`` hold the terminal literals
    that are not and that are identifier-shaped."""

    first: dict
    second: dict
    punctuation: frozenset
    keywords: frozenset


#: Marks a production whose first tokens ``_lookahead`` cannot know.
_UNKNOWN = object()


def _one_token(flat, expr, memo):
    """Does every match of ``expr`` span exactly one token?  ``memo``
    holds the answers per production."""
    kind = type(expr)
    if kind is Terminal:
        return True
    if kind is Group:
        return expr.cardinality == "one" and _one_token(flat, expr.inner, memo)
    if kind is not NontermRef:
        return False
    name = expr.target
    if name == BUILTIN_NAME:
        return True
    if name not in memo:
        p = flat.productions[name]
        if p.kind == "interface":
            impls = flat.implementors.get(name, ())
            memo[name] = bool(impls) and all(
                _one_token(flat, NontermRef(i), memo) for i in impls)
        else:
            memo[name] = _one_token(flat, p.rhs, memo)
    return memo[name]


def _may_vanish(flat, p, found, memo):
    """Can a reference to a relaxed copy among the leaves ``found`` that
    start production ``p``, or the rest of it, match empty?"""
    return IDENTIFIER_INTERFACE in p.implements and not all(
        _one_token(flat, leaf, memo) for leaf in found)


def _lookahead(flat):
    """First-token sets from the start leaves of each production, and
    second-token sets from those of the rest of its rhs, in one fixpoint.

    Where the parser and the grammar differ on what can be empty, the
    first tokens are unknown.  The inner references of a
    ``ModelElementIdentifier`` implementor point at relaxed copies (see
    ``Rules``), which can match empty where the grammar cannot; so a leaf
    that starts such an implementor, or the rest of it, must be a terminal
    or a reference spanning exactly one token.  The copies themselves are
    not analysed, and the parser always enters them."""
    nullable = flat.nullable_set()
    one = {}
    edges = dict(flat.start_leaves())
    unknown = {}
    for name, p in flat.productions.items():
        if _may_vanish(flat, p, edges[name], one):
            unknown[name] = {_UNKNOWN}
        items = p.rhs.items if type(p.rhs) is Sequence else ()
        if len(items) > 1 and _one_token(flat, items[0], one):
            found, empty = _expr_edge(Sequence(items[1:]), nullable)
            edges[name, "rest"] = found
            if empty or _may_vanish(flat, p, found, one):
                unknown[name, "rest"] = {_UNKNOWN}
    texts = _propagate(edges, IDENTIFIER, unknown)
    first = {n: frozenset(texts[n]) for n in flat.productions
             if n not in nullable and _UNKNOWN not in texts[n]}
    second = {n: frozenset(texts[n, "rest"]) for n in first
              if _UNKNOWN not in texts.get((n, "rest"), {_UNKNOWN})}
    literals = flat.terminal_literals()
    keywords = frozenset(t for t in literals if IDENT_RE.fullmatch(t))
    return Lookahead(first, second, frozenset(literals - keywords), keywords)


def relaxed_name(name):
    """The name of a production's or an interface's relaxed copy: no
    identifier, so no production of a grammar can have it."""
    return name + "~"


class Rules(NamedTuple):
    """The grammar the parser reads: the productions and interfaces of a
    flat grammar, and a relaxed copy of each under ``relaxed_name``.

    A copy reads a truncated sentence of its production, as a bracketed
    element identifier (``[Idle -> Call]``) names an element.  The
    omissible tail of its rhs (``_omissible``) becomes nested optional
    groups along the last item, so ``a b? ";"`` reads as
    ``a (b? ";"?)?``, and the last item is relaxed in turn if it is a
    sequence, an alternative or a group that is not repeated.  The
    references of a ``ModelElementIdentifier`` implementor, and of its
    copy, point at copies, under their own slot keys.  A copy keeps its
    production's name, which is the one its nodes get.  An interface's
    copy has the copies of its implementors."""

    productions: dict         # name or copy's name -> Production
    implementors: dict        # interface or copy's name -> implementor names


def _rules(flat):
    productions = dict(flat.productions)
    implementors = dict(flat.implementors)
    for name, p in flat.productions.items():
        if p.kind == "interface":
            implementors[relaxed_name(name)] = [
                relaxed_name(i) for i in flat.implementors[name]]
            continue
        if IDENTIFIER_INTERFACE in p.implements:
            productions[name] = p = Production(name, p.kind, p.implements,
                                               _copy(p.rhs, True, False))
        rhs = _copy(p.rhs, False, True)
        productions[relaxed_name(name)] = p if rhs is p.rhs else \
            Production(name, p.kind, p.implements, rhs)
    return Rules(productions, implementors)


def _copy(expr, to_copies, relax):
    """The rhs expression with its references pointing at relaxed copies
    if ``to_copies``, and its tail relaxed if ``relax``; the expression
    itself where that changes nothing."""
    kind = type(expr)
    if not (to_copies or relax) or kind is Terminal:
        return expr
    if kind is NontermRef:
        if to_copies and expr.target != BUILTIN_NAME:
            return NontermRef(relaxed_name(expr.target), expr.key)
        return expr
    if kind is Group:
        inner = _copy(expr.inner, to_copies, relax and
                      expr.cardinality in ("one", "optional"))
        return expr if inner is expr.inner else Group(inner, expr.cardinality)
    if kind is Alternative:
        branches = tuple(_copy(branch, to_copies, relax)
                         for branch in expr.branches)
        return expr if branches == expr.branches else Alternative(branches)
    items = [_copy(item, to_copies, False) for item in expr.items[:-1]]
    items.append(_copy(expr.items[-1], to_copies, relax))
    if relax and _omissible(items[-1]):
        tail = Group(items.pop(), "optional")
        while items and _omissible(items[-1]):
            tail = Group(Sequence((items.pop(), tail)), "optional")
        items.append(tail)
    items = tuple(items)
    return expr if items == expr.items else Sequence(items)


def _omissible(expr):
    """May this trailing rhs item be left out of a relaxed copy?  Relaxing
    an item does not change the answer."""
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


def last_terminals(flat, name):
    """Every terminal that can end a complete derivation of a concrete
    production; NO_TERMINAL marks derivations ending in an identifier."""
    p = flat.production(name)
    if p.kind != "concrete":
        raise GrammarError("last_terminals needs a concrete production, got %r" % name)
    return frozenset(flat.last_terminal_map()[name])


def _start_leaves(flat):
    """The start leaves of every production (see ``_edge``), in an order
    where each production comes after those its leaves refer to; a
    depth-first search finds it, or raises ``LeftRecursionError`` on the
    first cycle."""
    nullable = flat.nullable_set()
    starts = {n: _edge(flat, n, nullable)[0] for n in flat.productions}
    edges = {n: {leaf.target for leaf in found if type(leaf) is NontermRef}
             for n, found in starts.items()}

    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}
    stack = []
    order = {}

    def visit(n):
        color[n] = GREY
        stack.append(n)
        for m in sorted(edges.get(n, ())):
            if m not in color:
                continue
            if color[m] == GREY:
                cycle = stack[stack.index(m):] + [m]
                raise LeftRecursionError(cycle)
            if color[m] == WHITE:
                visit(m)
        stack.pop()
        color[n] = BLACK
        order[n] = starts[n]

    for n in edges:
        if color[n] == WHITE:
            visit(n)
    return order


def flatten(grammars, root):
    """Merge an extends chain into a FlatGrammar.

    Same-name productions are overridden child-wins along the chain;
    interface implementor lists accumulate in declaration order with the
    extending grammar's implementors first.
    """
    by_name = {}
    for g in grammars:
        if g.name in by_name:
            raise GrammarError("grammar %r given twice" % g.name)
        by_name[g.name] = g

    order = []
    seen = set()

    def visit(name):
        if name in seen:
            return
        if name not in by_name:
            raise GrammarError("unresolved grammar name %r" % name)
        seen.add(name)
        g = by_name[name]
        order.append(g)
        for e in g.extends:
            visit(e)

    visit(root)

    productions = {}
    implementors = {}
    for g in order:
        for p in g.productions:
            if p.name in productions:
                # child already won; only sanity-check the override shape
                if productions[p.name].kind != p.kind:
                    raise GrammarError(
                        "production %r overridden with a different kind" % p.name)
                continue
            productions[p.name] = p
            if p.kind == "interface":
                implementors.setdefault(p.name, [])
            else:
                for i in p.implements:
                    implementors.setdefault(i, []).append(p.name)

    flat = FlatGrammar(root, productions, implementors)

    for name, p in productions.items():
        for i in p.implements:
            tgt = productions.get(i)
            if tgt is None or tgt.kind != "interface":
                raise GrammarError(
                    "production %r implements %r, which is not an interface"
                    % (name, i))
        if p.rhs is None:
            continue
        for ref in leaves(p.rhs):
            if type(ref) is Terminal or ref.target == BUILTIN_NAME:
                continue
            if ref.target not in productions:
                raise GrammarError(
                    "unresolved nonterminal %r referenced from %r"
                    % (ref.target, name))

    flat.start_leaves()       # rejects left recursion
    return flat
