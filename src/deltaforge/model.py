"""Grammar data model: productions, rhs expressions, and flattening.

A grammar is an ordered list of productions.  Productions are either
concrete (they carry an rhs expression) or interfaces (pure alternatives
over the productions that declare to implement them).  Grammars can extend
other grammars; ``flatten`` merges an extends chain into a single
production table with child-wins overriding.

Every grammar fact that reads the leaves of an rhs expression goes
through ``leaves`` (the terminal and reference leaves, in rhs order:
slot targets, terminal literals, unresolved references, rule-4 counts).
Nullability, the last terminals of a production and the left-recursion
check all go through ``_edge``: the leaves that can begin (or end) a
derivation of a production, and whether it can be empty; there an
interface counts as the alternative of its implementors.  Slot bounds
(``_counts``) and addressability keep their own walks, each a different
algebra over the expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: The single builtin lexical nonterminal: an identifier token.
BUILTIN_NAME = "Name"

#: Marker returned by last-terminal analysis when a production can end in
#: an identifier token instead of a terminal literal.
NO_TERMINAL = "<none>"


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


RhsExpr = (Terminal, NontermRef, Sequence, Alternative, Group)


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
    labeled: bool = False


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
    for ref in leaves(production.rhs):
        if type(ref) is Terminal:
            continue
        info = plan[ref.key]
        info.targets.add(ref.target)
        if ref.label is not None:
            info.labeled = True
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
        self.builtins = frozenset({BUILTIN_NAME})
        self._plans = {}
        self._nullable = None
        self._last = None

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

    def last_terminal_map(self):
        if self._last is None:
            self._last = _last_map(self)
        return self._last


def _edge(flat, name, nullable, last=False):
    """The leaves that can begin a derivation of production ``name`` (with
    ``last``: that can end one), and whether the derivation can be empty,
    given the set of ``nullable`` productions.  An interface is the
    alternative of its implementors."""
    p = flat.productions[name]
    if p.kind == "interface":
        refs = [NontermRef(target=i) for i in flat.implementors.get(name, ())]
        return refs, any(r.target in nullable for r in refs)

    def walk(expr):
        kind = type(expr)
        if kind is Terminal:
            return [expr], False
        if kind is NontermRef:
            return [expr], expr.target in nullable
        if kind is Sequence:
            out = []
            for item in reversed(expr.items) if last else expr.items:
                found, empty = walk(item)
                out += found
                if not empty:
                    return out, False
            return out, True
        if kind is Alternative:
            out, empty = [], False
            for branch in expr.branches:
                found, e = walk(branch)
                out += found
                empty = empty or e
            return out, empty
        if kind is Group:
            found, empty = walk(expr.inner)
            return found, empty or expr.cardinality in ("optional", "star")
        raise TypeError(expr)

    return walk(p.rhs)


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


def _last_map(flat):
    """Last terminals per production, propagated to a fixpoint over each
    production's end leaves."""
    nullable = flat.nullable_set()
    ends = {n: _edge(flat, n, nullable, last=True)[0] for n in flat.productions}
    last = {n: set() for n in ends}
    changed = True
    while changed:
        changed = False
        for name, found in ends.items():
            cur = last[name]
            size = len(cur)
            for leaf in found:
                if type(leaf) is Terminal:
                    cur.add(leaf.text)
                elif leaf.target == BUILTIN_NAME:
                    cur.add(NO_TERMINAL)
                else:
                    cur |= last[leaf.target]
            changed = changed or len(cur) != size
    return last


def last_terminals(flat, name):
    """Every terminal that can end a complete derivation of a concrete
    production; NO_TERMINAL marks derivations ending in an identifier."""
    p = flat.production(name)
    if p.kind != "concrete":
        raise GrammarError("last_terminals needs a concrete production, got %r" % name)
    return frozenset(flat.last_terminal_map()[name])


def _check_left_recursion(flat):
    nullable = flat.nullable_set()
    edges = {n: {leaf.target for leaf in _edge(flat, n, nullable)[0]
                 if type(leaf) is NontermRef}
             for n in flat.productions}

    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}
    stack = []

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

    for n in edges:
        if color[n] == WHITE:
            visit(n)


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

    _check_left_recursion(flat)
    return flat
