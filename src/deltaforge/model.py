"""Grammar data model: productions, rhs expressions, and flattening.

A grammar is an ordered list of productions.  Productions are either
concrete (they carry an rhs expression) or interfaces (pure alternatives
over the productions that declare to implement them).  Grammars can extend
other grammars; ``flatten`` merges an extends chain into a single
production table with child-wins overriding.  Productions, grammars
and rhs expressions are plain slotted records (``Record``): compared and
hashed by one key (``Record._key``), immutable by convention, as no code
assigns to one once it is built.

The facts that need only the leaves of an rhs expression, in rhs order
(terminal literals, unresolved references, rule-4 counts), read them
through ``leaves``, a loop.  Nullability, the last terminals of a
production, the left-recursion check and the parser's first-token sets
come from one analysis, ``_Sets``: the textbook fixpoint over a set of
rules, where an interface is the alternative of its implementors, which
reads rhs expressions through ``_edge``.  ``flatten`` runs it over the
grammar's own productions, for the nullable set and the left-recursion
check, and the last terminals ``derive`` reads are found so on first
use.  The slot facts of a production (``slot_plan``: each slot's
bounds, targets and whether a replay reads it only as empty or not)
come from one bottom-up fold over its rhs, ``_fold``; whether it is
addressable by name is read off that plan.

The parser reads the grammar through ``FlatGrammar.rules``, which adds
a relaxed copy of every production and interface: the copies read the
truncated sentences by which bracketed element identifiers name
elements.  A production's copy is made on its first lookup, so a
grammar makes only those its texts read, and never by ``flatten``.  The
parser's direct descent finds its first-token sets over these rules by
a ``_Sets`` made with ``lazy``, a rule's on its first lookup, equal to
what one analysis of every rule would find, also where a lookup is cut
short.  The facts ``flatten`` records and ``derive`` reads never see a
copy.
"""

from __future__ import annotations

import re
from operator import add
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


class Record:
    """A plain value of the fields its class names in ``__slots__``:
    equal to a record of the same class with equal fields, never to one
    of another class, and hashed alike, both by one key (``_key``).  A
    grammar's records are immutable by convention, as no code assigns to
    one once it is built; a record that is edited in place (``Node``,
    ``Diagnostic``) sets ``__hash__`` to None.  The key and the printing
    go through the records, lists, tuples and dicts a record holds by a
    loop, so nesting depth costs no recursion."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def _key(self):
        """The record flattened into one tuple by a loop: each record's
        class, then its fields; each tuple's and list's class and length,
        then its items; each dict's class, length and sorted keys, then
        its values in that order; any other value as it is."""
        key, stack = [], [self]
        while stack:
            item = stack.pop()
            kind = type(item)
            if isinstance(item, Record):
                key.append(kind)
                stack += item._values()
            elif kind is tuple or kind is list:
                key += (kind, len(item))
                stack += item
            elif kind is dict:
                names = sorted(item)
                key += (kind, len(item), tuple(names))
                stack += [item[name] for name in names]
            else:
                key.append(item)
        return tuple(key)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            kind = type(item)
            if kind is _Text:
                out.append(item)
                continue
            if isinstance(item, Record):
                head, tail = kind.__name__ + "(", ")"
                items = [(_Text(name + "="), getattr(item, name))
                         for name in item.__slots__]
            elif kind is dict:
                head, tail = "{", "}"
                items = [(key, _Text(": "), val) for key, val in item.items()]
            elif kind is list or kind is tuple:
                head, tail = ("[", "]") if kind is list else \
                    ("(", ",)" if len(item) == 1 else ")")
                items = [(val,) for val in item]
            else:
                out.append(repr(item))
                continue
            parts = [_Text(head)]
            for i, part in enumerate(items):
                parts += ((_Text(", "),) if i else ()) + part
            stack += reversed(parts + [_Text(tail)])
        return "".join(out)


class _Text(str):
    """Text a record's ``repr`` writes as it is, not a value to print."""


# ---------------------------------------------------------------------------
# Rhs expressions

class Terminal(Record):
    __slots__ = ("text",)

    def __init__(self, text):
        if not text:
            raise GrammarError("empty terminal")
        self.text = text


class NontermRef(Record):
    __slots__ = ("target", "label")

    def __init__(self, target, label=None):
        self.target = target
        self.label = label

    @property
    def key(self):
        return self.label if self.label is not None else self.target


class Sequence(Record):
    __slots__ = ("items",)

    def __init__(self, items):
        if len(items) < 1:
            raise GrammarError("empty sequence")
        self.items = items


class Alternative(Record):
    __slots__ = ("branches",)

    def __init__(self, branches):
        if len(branches) < 2:
            raise GrammarError("alternative needs at least two branches")
        self.branches = branches


class Group(Record):
    __slots__ = ("inner", "cardinality")

    def __init__(self, inner, cardinality="one"):
        if cardinality not in ("one", "optional", "star", "plus"):
            raise GrammarError("bad cardinality %r" % (cardinality,))
        self.inner = inner
        self.cardinality = cardinality    # one | optional | star | plus


# ---------------------------------------------------------------------------
# Productions and grammars

class Production(Record):
    __slots__ = ("name", "kind", "implements", "rhs")

    def __init__(self, name, kind="concrete", implements=(), rhs=None):
        if kind not in ("concrete", "interface"):
            raise GrammarError("bad production kind %r" % (kind,))
        if kind == "interface" and rhs is not None:
            raise GrammarError("interface production %r cannot have an rhs" % name)
        if kind == "concrete" and rhs is None:
            raise GrammarError("concrete production %r needs an rhs" % name)
        self.name = name
        self.kind = kind                  # concrete | interface
        self.implements = implements
        self.rhs = rhs


class Grammar(Record):
    __slots__ = ("name", "extends", "productions", "source")

    def __init__(self, name, extends=(), productions=(), source=None):
        if not IDENT_RE.fullmatch(name):
            raise GrammarError("grammar name %r is not an identifier" % name)
        seen = set()
        for p in productions:
            if p.name in seen:
                raise GrammarError(
                    "duplicate production %r in grammar %s" % (p.name, name))
            seen.add(p.name)
        self.name = name
        self.extends = extends
        self.productions = productions
        self.source = source


class SlotInfo(NamedTuple):
    """Static shape of one slot of a production."""

    key: str
    cardinality: str          # one | optional | many
    low: int                  # the fewest values a derivation gives it
    targets: set
    # referred to once, as the whole inner part of a ``*``/``+`` group
    # (``elements:Element*``) that no other such group holds: one run of
    # the group reads all its values, so a replay reads only whether it
    # is empty
    once: bool


def leaves(expr):
    """The ``Terminal`` and ``NontermRef`` leaves of an rhs expression, in
    rhs order, found by a loop."""
    out, stack = [], [expr]
    while stack:
        expr = stack.pop()
        kind = type(expr)
        if kind is Terminal or kind is NontermRef:
            out.append(expr)
        elif kind is Group:
            stack.append(expr.inner)
        else:
            stack += reversed(expr.items if kind is Sequence
                              else expr.branches)
    return out


def _fold(expr):
    """The slot facts of an rhs expression, in one bottom-up walk: per
    slot key, ``[fewest, most values over one derivation, targets,
    once]``.  A key is once if its one reference is the whole inner part
    of a ``*``/``+`` group that is in no other such group; a key that two
    parts refer to is not."""
    kind = type(expr)
    if kind is Terminal:
        return {}
    if kind is NontermRef:
        return {expr.key: [1, 1, {expr.target}, False]}
    if kind is Group:
        facts = _fold(expr.inner)
        many = expr.cardinality in ("star", "plus")
        for fact in facts.values():
            if expr.cardinality in ("optional", "star"):
                fact[0] = 0
            if many:
                fact[1] = float("inf")
                fact[3] = False
        if many and type(expr.inner) is NontermRef:
            facts[expr.inner.key][3] = True
        return facts
    seq = kind is Sequence
    parts = [_fold(part) for part in (expr.items if seq else expr.branches)]
    low, high = (add, add) if seq else (min, max)
    out = {}
    for facts in parts:
        for key, fact in facts.items():
            had = out.get(key)
            out[key] = fact if had is None else [
                low(had[0], fact[0]), high(had[1], fact[1]),
                had[2] | fact[2], False]
    if not seq:                   # a branch without the key gives it none
        for key, fact in out.items():
            if any(key not in facts for facts in parts):
                fact[0] = 0
    return out


def slot_plan(production):
    """Map slot key -> SlotInfo for a concrete production; an interface
    has none."""
    if production.rhs is None:
        return {}
    return {key: SlotInfo(key, "many" if hi > 1 else "one" if lo else
                          "optional", lo, targets, once)
            for key, (lo, hi, targets, once)
            in _fold(production.rhs).items()}


def _by_name(plan):
    """Does every derivation bind the ``name`` slot once, to an
    identifier (rule 1a)?"""
    info = plan.get("name")
    return info is not None and info.cardinality == "one" and \
        info.targets <= {BUILTIN_NAME, "QualifiedModelElementName"}


def is_addressable_by_name(production):
    """Is the production addressable by name?  See ``_by_name``."""
    return _by_name(slot_plan(production))


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
        self.printed = {}                   # print shape -> its template
        self.descent = None                 # direct descent's view
        self._nullable = set()
        self._last = None
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

    def addressable(self, name):
        return _by_name(self.slot_plan(name))

    def terminal_literals(self):
        return {leaf.text for p in self.productions.values()
                if p.rhs is not None
                for leaf in leaves(p.rhs) if type(leaf) is Terminal}

    def nullable_set(self):
        """The productions that can derive the empty string, found by
        ``flatten``."""
        return self._nullable

    def last_terminal_map(self):
        """Per production, the terminals that can end a derivation of it
        (``NO_TERMINAL`` for an identifier), found on first use."""
        if self._last is None:
            self._last = _Sets(self.productions, self.implementors,
                               self._nullable, end=True)
        return self._last

    def rules(self):
        """The productions the parser reads, relaxed copies included (see
        ``Rules``), built on first use, a production's copy on its first
        lookup."""
        if self._rules is None:
            implementors = dict(self.implementors)
            for name, names in self.implementors.items():
                implementors[relaxed_name(name)] = list(map(relaxed_name,
                                                            names))
            self._rules = Rules(_Copies(self), implementors)
        return self._rules


def _edge(expr, out, nullable, sets, marker, end=False):
    """Add to ``out`` the texts of the terminals that can begin ``expr``
    (with ``end``: that can end it): a reference adds its rule's set in
    ``sets``, an identifier ``marker``.  Return whether ``expr`` can match
    nothing, by the ``nullable`` rules."""
    kind = type(expr)
    if kind is Terminal:
        out.add(expr.text)
        return False
    if kind is NontermRef:
        target = expr.target
        if target == BUILTIN_NAME:
            out.add(marker)
            return False
        out |= sets[target]
        return target in nullable
    if kind is Sequence:
        for item in reversed(expr.items) if end else expr.items:
            if not _edge(item, out, nullable, sets, marker, end):
                return False
        return True
    if kind is Alternative:
        empty = False
        for branch in expr.branches:
            if _edge(branch, out, nullable, sets, marker, end):
                empty = True
        return empty
    return _edge(expr.inner, out, nullable, sets, marker, end) or \
        expr.cardinality in ("optional", "star")


_NOTHING = frozenset()


class _Sets(dict):
    """The one grammar analysis: per rule of ``productions`` (by name, an
    rhs) and ``implementors`` (interface name -> the names of the rules
    it is the alternative of), the texts of the terminals that can begin
    it, ``IDENTIFIER`` for an identifier; with ``end``, those that can
    end it, ``NO_TERMINAL`` for an identifier.  Finding where a rule
    begins also adds it to ``nullable`` if it can match nothing; where
    it ends is found with ``nullable`` complete.

    It is the textbook fixpoint (Aho, Lam, Sethi and Ullman, *Compilers*,
    2nd ed., section 4.4), ordered: a rule is analysed on first lookup,
    so after the rules its first (last) leaves refer to.  Where those
    leaves make no cycle, one analysis per rule is exact.  A lookup of a
    rule still being analysed meets such a cycle: with ``check`` one
    through where rules begin raises ``LeftRecursionError``; otherwise it
    finds the rule's set empty, and once the outermost lookup is done,
    the rules it analysed are analysed again, in the order they were,
    until nothing changes.  Only it can meet them in a cycle: a rule
    analysed before refers to none of them.  The rules of
    ``productions`` and ``implementors`` are analysed when it is made,
    or with ``lazy`` on their first lookup, with the same result."""

    def __init__(self, productions, implementors, nullable, end=False,
                 check=False, lazy=False):
        super().__init__()
        self.productions = productions
        self.implementors = implementors
        self.nullable = nullable
        self.end = end
        self.marker = NO_TERMINAL if end else IDENTIFIER
        self.check = check
        self.path = []            # the rules being analysed, outermost first
        self.done = []            # the rules the outermost lookup analysed
        self.cyclic = False
        if not lazy:
            for name in productions:
                self[name]        # analysed here, unless it already is
            for name in implementors:
                self[name]

    def __missing__(self, name):
        path = self.path
        if name in path:
            if self.check:
                raise LeftRecursionError(path[path.index(name):] + [name])
            self.cyclic = True
            return _NOTHING
        if path:
            path.append(name)
            self._analyse(name)
            path.pop()
            self.done.append(name)
            return self[name]
        # the outermost lookup settles the rules it analyses; if it is cut
        # short (the stack can run out deep in a text), it forgets them,
        # to be analysed again on their next lookup
        known, self.done = len(self), []
        path.append(name)
        try:
            self._analyse(name)
            self.done.append(name)
            while self.cyclic:
                self.cyclic = False
                for rule in self.done:
                    if self._analyse(rule):
                        self.cyclic = True
        except BaseException:
            for rule in list(self)[known:]:
                del self[rule]
            self.cyclic = False
            raise
        finally:
            path.clear()
        return self[name]

    def _analyse(self, name):
        """Find the rule's set, and if it can match nothing; True if
        either grew."""
        nullable = self.nullable
        names = self.implementors.get(name)
        if names is None:
            out = set()
            empty = _edge(self.productions[name].rhs, out, nullable, self,
                          self.marker, self.end)
        else:
            out, empty = set(), False
            for impl in names:
                out |= self[impl]
                empty = empty or impl in nullable
        grew = len(out) != len(self.get(name, ()))
        self[name] = out
        if empty and name not in nullable:
            nullable.add(name)
            grew = True
        return grew


def relaxed_name(name):
    """The name of a production's or an interface's relaxed copy: no
    identifier, so no production of a grammar can have it."""
    return name + "~"


class Rules(NamedTuple):
    """The grammar the parser reads: the productions and interfaces of a
    flat grammar, and a relaxed copy of each under ``relaxed_name``.

    A copy reads a truncated sentence of its production, as a bracketed
    element identifier (``[Idle -> Call]``) names an element.  In the
    omissible tail of its rhs (``_omissible``), each item that cannot
    match nothing becomes an optional group of it and the items after
    it, and an optional or ``*`` group stays as it is, so
    ``a (b | c) d? ";"`` reads as ``a ((b | c) d? ";"?)?``; the last item
    is relaxed in turn if it is a sequence, an alternative or a group
    that is not repeated.  The references of a ``ModelElementIdentifier``
    implementor, and of its copy, point at copies, under their own slot
    keys.  A copy keeps its production's name, which is the one its nodes
    get.  An interface's copy has the copies of its implementors.  A
    production's copy is made on its first lookup (``_Copies``), so a
    grammar makes only those its texts read."""

    productions: dict         # name or copy's name -> Production
    implementors: dict        # interface or copy's name -> implementor names


class _Copies(dict):
    """The productions of ``Rules``: a production's relaxed copy is made
    on its first lookup by ``[]``, and any other name that is not there
    is a ``KeyError``; ``get`` and ``in`` see only the copies made."""

    def __init__(self, flat):
        super().__init__(flat.productions)
        self.flat = flat
        for name, p in flat.productions.items():
            if IDENTIFIER_INTERFACE in p.implements:
                self[name] = Production(name, p.kind, p.implements,
                                        _copy(p.rhs, True, False))

    def __missing__(self, name):
        p = self.flat.productions.get(name[:-1]) if name.endswith("~") \
            else None
        if p is None or p.kind == "interface":
            raise KeyError(name)
        p = self[p.name]
        rhs = _copy(p.rhs, False, True)
        copy = self[name] = p if rhs is p.rhs else \
            Production(p.name, p.kind, p.implements, rhs)
        return copy


def _copy(expr, to_copies, relax):
    """The rhs expression with its references pointing at relaxed copies
    if ``to_copies``, and its tail relaxed if ``relax`` (see ``Rules``),
    with no group around a trailing optional or ``*`` group; the
    expression itself where that changes nothing."""
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
    tail = []                 # the omissible tail, last item first
    while relax and items and _omissible(items[-1]):
        item = items.pop()
        if type(item) is Group and item.cardinality in ("optional", "star"):
            tail.append(item)     # it matches nothing as it is
        else:
            tail = [Group(Sequence((item, *reversed(tail))) if tail
                          else item, "optional")]
    items = tuple(items + tail[::-1])
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

    # the grammar's own analysis: its nullable productions, and no left
    # recursion
    _Sets(productions, implementors, flat._nullable, check=True)
    return flat
