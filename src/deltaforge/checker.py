"""Context checking of deltas against a core model.

Implements the seven context conditions:

* CC1 -- a model element identifier must reference an existing element
* CC2 -- the referenced element must match the scope identifier's type
* CC3 -- every intermediate path segment must resolve to a scope
* CC4 -- an operation must be applicable inside its modify scope
* CC5 -- add needs a collection slot, set a singular slot, remove a
  collection or optional slot
* CC6 -- an added element must not already exist, and a renamed one
  must not take the name of another element of its scope
* CC7 -- a removed element must exist

Checking simulates application: each operation is checked against the
state produced by its predecessors, because deltas may rename or rewire
elements that later operations refer to.  One ``Engine`` run therefore
yields both the diagnostics and the applied model.  The engine edits the
tree it is given in place and keeps its symbol table up to date
operation by operation, re-entering only the scopes an edit touched.
The CLI runs it once per delta on the model it parsed itself; the
library calls ``check_delta`` and ``apply`` copy their input first.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field

from .diagnostics import Diagnostic
from .model import (
    BUILTIN_NAME,
    GrammarError,
    NontermRef,
    Sequence,
    Terminal,
    is_addressable_by_name,
)
from .parsing import Node, name_leaf, node_eq, resync_terminals


class ResolveError(Exception):
    def __init__(self, code, message, ambiguous=False):
        self.code = code          # CC1 | CC3
        self.ambiguous = ambiguous
        super().__init__(message)


class SlotError(GrammarError):
    def __init__(self, kind, message):
        self.kind = kind          # NO_SLOT | AMBIGUOUS_SLOT
        super().__init__(message)


# ---------------------------------------------------------------------------
# Symbol table

@dataclass
class Entry:
    node: Node
    key: str | None
    index: int | None


class Scope:
    def __init__(self, node, parent):
        self.node = node
        self.parent = parent
        self.entries = []
        self.named = {}           # name -> [Entry]
        self.by_production = {}   # production -> [Entry]
        self.subscopes = {}       # id(child node) -> Scope


class SymbolTable:
    """Hierarchical scope tree mirroring a core model tree.

    The table follows the tree as it is edited in place: ``update`` is
    told which node's slots changed and re-enters only the scopes that
    list that node's children or the node itself.
    """

    def __init__(self, core, flat):
        # production -> (opens a scope, addressable by name); every node
        # in the tree is of a production of the language
        self._facts = {name: (_opens_scope(flat, name),
                              _is_addressable(flat, name))
                       for name in flat.productions}
        self._document = core
        self._by_id = {}          # id(node) -> the scope the node opens
        self._holder = {}         # id(node) -> the scope listing the node
        self.universe = Scope(None, None)
        self._enter(self.universe)
        self.root = self.universe.subscopes[id(core)]

    def scope_for(self, node):
        return self._by_id.get(id(node))

    def holder_of(self, node):
        """The scope that lists the node as an entry, if any."""
        return self._holder.get(id(node))

    def update(self, node, renamed=False):
        """Re-index after the slots of ``node`` changed; ``renamed`` says
        its name changed too, which concerns the scope listing it."""
        scope = self._by_id.get(id(node))
        if scope is not None:
            self._enter(scope)
        if renamed:
            holder = self._holder.get(id(node))
            if holder is not None:
                self._enter(holder)

    def _enter(self, scope):
        """(Re-)enter the direct children of the scope's node as its
        entries.  Children that stayed keep their subscopes, new children
        that open a scope get one, and the subscopes of children that left
        are dropped with everything under them."""
        for entry in scope.entries:
            del self._holder[id(entry.node)]
        old = scope.subscopes
        scope.entries, scope.named, scope.by_production = [], {}, {}
        scope.subscopes = {}
        if scope is self.universe:
            # the document is always a scope
            _add_entry(self._facts, scope, self._document, None, None)
        else:
            _index_children(self._facts, scope.node, scope)
        for entry in scope.entries:
            child = entry.node
            self._holder[id(child)] = scope
            if scope is self.universe or self._facts[child.production][0]:
                sub = old.pop(id(child), None)
                if sub is None:
                    sub = Scope(child, scope)
                    self._by_id[id(child)] = sub
                    self._enter(sub)
                scope.subscopes[id(child)] = sub
        for sub in old.values():
            self._drop(sub)

    def _drop(self, scope):
        del self._by_id[id(scope.node)]
        for entry in scope.entries:
            del self._holder[id(entry.node)]
        for sub in scope.subscopes.values():
            self._drop(sub)

    def adhoc_scope(self, node):
        """A detached scope over a node that does not open one in the
        scope tree; lets paths address the node's direct parts."""
        scope = Scope(node, None)
        _index_children(self._facts, node, scope)
        return scope

    def duplicate_names(self):
        out = []

        def visit(scope):
            for name, entries in scope.named.items():
                if len(entries) > 1:
                    out.append((scope, name))
            for sub in scope.subscopes.values():
                visit(sub)

        visit(self.root)
        return out


def _opens_scope(flat, production):
    if flat.production(production).kind != "concrete":
        return False
    return any(i.cardinality == "many" for i in flat.slot_plan(production).values())


def _is_addressable(flat, production):
    if production == BUILTIN_NAME or production not in flat.productions:
        return False
    return is_addressable_by_name(flat.production(production))


def _add_entry(facts, scope, child, key, index):
    entry = Entry(child, key, index)
    scope.entries.append(entry)
    scope.by_production.setdefault(child.production, []).append(entry)
    if facts[child.production][1]:
        nm = child.name()
        if nm is not None:
            scope.named.setdefault(nm, []).append(entry)


def _index_children(facts, node, scope):
    """Enter the node's direct children as entries of the scope."""
    for key, val in node.slots.items():
        many = isinstance(val, list)
        for idx, child in enumerate(val if many else (val,)):
            if isinstance(child, Node) and child.production != BUILTIN_NAME:
                _add_entry(facts, scope, child, key, idx if many else None)


def build_symbols(core, flat):
    """Build the scope tree for a core model parsed under ``flat``.

    A child opens a scope iff its production has a star/plus slot; the
    document node is always a scope.
    """
    return SymbolTable(core, flat)


def duplicate_warnings(table):
    """A CC1 warning for each name that more than one element of a scope
    bears; paths through that scope must then disambiguate."""
    return [Diagnostic(
        code="CC1", severity="warning",
        message="duplicate element name %r in scope %s; paths must "
                "disambiguate" % (name, scope.node.production))
        for scope, name in table.duplicate_names()]


# ---------------------------------------------------------------------------
# Path resolution

def _fragment_matches(fragment, candidate, insensitive=frozenset()):
    """Slots present in the fragment must match; absent ones are wildcards."""
    for key, val in fragment.slots.items():
        if isinstance(val, list):
            if not val:
                continue
            cand = candidate.slots.get(key)
            if not isinstance(cand, list) or len(cand) != len(val):
                return False
            if not all(node_eq(x, y, insensitive) for x, y in zip(val, cand)):
                return False
        else:
            cand = candidate.slots.get(key)
            if cand is None or not node_eq(val, cand, insensitive):
                return False
    return True


def _find_in_scope(scope, segment):
    if isinstance(segment, str):
        entries = scope.named.get(segment, [])
        if not entries:
            raise ResolveError(
                "CC1", "no element named %r in scope" % segment)
        if len(entries) > 1:
            raise ResolveError(
                "CC1", "name %r is ambiguous in its scope" % segment,
                ambiguous=True)
        return entries[0]
    # bracketed fragment: match field-wise against same-production children
    candidates = [e for e in scope.by_production.get(segment.production, [])
                  if _fragment_matches(segment, e.node)]
    if not candidates:
        raise ResolveError(
            "CC1", "no %s matches the given identifier" % segment.production)
    if len(candidates) > 1:
        raise ResolveError(
            "CC1", "identifier matches %d %s elements"
            % (len(candidates), segment.production), ambiguous=True)
    return candidates[0]


def _resolve_entry(table, segments, start_scope):
    """Resolve a path; returns (entry, owner scope of the final segment)."""
    if not segments:
        raise ResolveError("CC3", "empty element path")
    scope = start_scope
    entry = None
    for i, seg in enumerate(segments):
        if entry is not None:
            sub = table.scope_for(entry.node)
            if sub is None:
                raise ResolveError(
                    "CC3", "path segment %d resolves to a %s, which is not "
                    "a scope" % (i, entry.node.production))
            scope = sub
        entry = _find_in_scope(scope, seg)
    return entry, scope


def resolve_path(table, path, start_scope):
    """Resolve a path of name segments and parsed fragment Nodes, each
    within the scope of the previous result; exactly one match required."""
    entry, _ = _resolve_entry(table, path, start_scope)
    return entry.node


# ---------------------------------------------------------------------------
# Slot lookup

def _accepts(flat, info, production):
    """Can the slot hold an element of the production, directly or through
    an interface it implements?"""
    if production in info.targets:
        return True
    p = flat.productions.get(production)
    return p is not None and not info.targets.isdisjoint(p.implements)


def slot_of(scope_production, operand, flat, label=None):
    """The unique slot of the scope production that can hold the operand
    production (directly or through an interface it implements)."""
    plan = flat.slot_plan(scope_production)
    matches = [info for info in plan.values() if _accepts(flat, info, operand)]
    if label is not None:
        matches = [info for info in matches if info.key == label]
    if not matches:
        raise SlotError("NO_SLOT", "no slot of %s accepts %s"
                        % (scope_production, operand))
    if len(matches) > 1:
        raise SlotError(
            "AMBIGUOUS_SLOT", "%d slots of %s accept %s"
            % (len(matches), scope_production, operand))
    info = matches[0]
    return info.key, info.cardinality


# ---------------------------------------------------------------------------
# Delta operation decoding

_SCOPE_ID_RE = re.compile(r"Delta(.+)ScopeIdentifier")

_OPERAND_KIND = {"DeltaAdd": "add", "DeltaSet": "set", "DeltaRemove": "remove"}


@dataclass
class _Op:
    kind: str                     # modify | generic | remove_path
    node: Node
    expected: str | None = None   # modify: production named by the scope id
    segments: list = field(default_factory=list)
    nested: list = field(default_factory=list)
    operand: str | None = None    # generic: add | set | remove
    label: str | None = None
    value: Node | None = None


def _scope_target(si_node, L_flat):
    m = _SCOPE_ID_RE.fullmatch(si_node.production)
    if m and m.group(1) in L_flat.productions:
        return m.group(1)
    # fall back to the keyword for hand-written scope identifiers
    if len(si_node.terminals) == 1 and si_node.terminals[0] in L_flat.productions:
        return si_node.terminals[0]
    return None


def _segments_of(path_node):
    segments = []
    for part in path_node.slots.get("parts", []):
        if part.production == "DefaultModelElementIdentifier":
            qname = part.slots.get("QualifiedModelElementName")
            leaf = qname.slots.get(BUILTIN_NAME) if qname is not None else None
            if leaf is None:
                raise GrammarError("malformed qualified name identifier")
            segments.append(leaf.text)
            continue
        inner = [v for v in part.slots.values()
                 if isinstance(v, Node) and v.production != BUILTIN_NAME]
        if len(inner) != 1:
            raise GrammarError(
                "cannot decode model element identifier %r" % part.production)
        segments.append(inner[0])
    return segments


def classify_operation(op_node, dL_flat, L_flat):
    """Decode a parsed DeltaOperation node into its normal form.

    Generic operations are decoded from the *grammar shape* of their
    production (operand, optional keyword terminal, operand reference), so
    two generated productions with identical syntax are interchangeable.
    """
    if op_node.production == "DeltaModify":
        si = op_node.slots.get("ScopeIdentifier")
        return _Op(
            kind="modify", node=op_node,
            expected=_scope_target(si, L_flat) if si else None,
            segments=_segments_of(op_node.slots["modelElement"]),
            nested=list(op_node.slots.get("DeltaOperation", [])),
        )
    if op_node.production == "DeltaRemoveOperation":
        return _Op(kind="remove_path", node=op_node, operand="remove",
                   segments=_segments_of(op_node.slots["target"]))

    operand_node = op_node.slots.get("DeltaOperand")
    operand = _OPERAND_KIND.get(operand_node.production) if operand_node else None
    prod = dL_flat.production(op_node.production)
    rhs = prod.rhs
    items = rhs.items if isinstance(rhs, Sequence) else (rhs,)
    label = None
    value = None
    seen_operand = False
    for item in items:
        if isinstance(item, NontermRef):
            if item.target == "DeltaOperand":
                seen_operand = True
            elif seen_operand and value is None:
                value = op_node.slots.get(item.key)
        elif isinstance(item, Terminal):
            if seen_operand and value is None and item.text != ";":
                label = item.text
    return _Op(kind="generic", node=op_node, operand=operand,
               label=label, value=value)


# ---------------------------------------------------------------------------
# The shared check/apply engine

class Engine:
    """Executes a delta in place on a model tree, collecting
    context-condition diagnostics; shared by check_delta, apply and the
    CLI.  The tree is edited even when an operation fails, so callers
    that must keep their input hand the engine a copy."""

    def __init__(self, work, delta, L_flat, dL_flat):
        self.work = work
        self.delta = delta
        self.L = L_flat
        self.dL = dL_flat
        self.tokens = delta.tokens
        self.diags = []
        self.table = build_symbols(work, L_flat)

    # -- diagnostics ---------------------------------------------------

    def diag(self, code, node, message, severity="error"):
        line = column = None
        if self.tokens and node is not None and node.span[0] < len(self.tokens):
            tok = self.tokens[node.span[0]]
            line, column = tok.line, tok.column
        self.diags.append(Diagnostic(code=code, severity=severity,
                                     message=message, line=line, column=column))

    # -- main loop -----------------------------------------------------

    def run(self):
        for element in self.delta.slots.get("elements", []):
            self.exec_op(element, None)
        return self.work, self.diags

    def _refresh(self, node, renamed=False):
        """Bring the symbol table up to date after ``node``'s slots
        changed."""
        self.table.update(node, renamed)

    def _scope_of(self, node):
        if node is None:
            return self.table.universe
        scope = self.table.scope_for(node)
        return scope if scope is not None else self.table.adhoc_scope(node)

    # -- operations ----------------------------------------------------

    def exec_op(self, op_node, scope_node):
        try:
            op = classify_operation(op_node, self.dL, self.L)
        except GrammarError as exc:
            self.diag("CC4", op_node, str(exc))
            return
        if op.kind == "modify":
            self.exec_modify(op, scope_node)
        elif op.kind == "remove_path":
            self.exec_remove_path(op, scope_node)
        else:
            if scope_node is None:
                self.diag("CC4", op_node,
                          "operation outside of a modify statement")
                return
            self.exec_generic(op, scope_node)

    def exec_modify(self, op, scope_node):
        start = self._scope_of(scope_node)
        try:
            entry, _ = _resolve_entry(self.table, op.segments, start)
        except ResolveError as exc:
            self.diag(exc.code, op.node, str(exc))
            return
        target = entry.node
        if op.expected is None:
            self.diag("CC2", op.node, "unknown scope identifier %r"
                      % op.node.slots.get("ScopeIdentifier").production)
            return
        if target.production != op.expected:
            expected = op.expected
            implements = ()
            if target.production in self.L.productions:
                implements = self.L.production(target.production).implements
            if not (self.L.is_interface(expected) and expected in implements):
                self.diag("CC2", op.node,
                          "scope identifier names %s but the element is a %s"
                          % (expected, target.production))
                return
        for nested in op.nested:
            self.exec_op(nested, target)

    def _slot_for_value(self, op, scope_prod):
        """CC4: locate the slot the operation's operand belongs to."""
        plan = self.L.slot_plan(scope_prod)
        value = op.value
        if op.label is not None:
            info = plan.get(op.label)
            if info is None:
                self.diag("CC4", op.node, "scope %s has no slot %r"
                          % (scope_prod, op.label))
                return None
            if isinstance(value, Node) and value.production == BUILTIN_NAME:
                ok = BUILTIN_NAME in info.targets or \
                    "QualifiedModelElementName" in info.targets
            elif isinstance(value, Node):
                ok = _accepts(self.L, info, value.production)
            else:
                ok = False
            if not ok:
                self.diag("CC4", op.node,
                          "slot %r of %s does not accept this operand"
                          % (op.label, scope_prod))
                return None
            return info.key, info.cardinality
        if not isinstance(value, Node):
            self.diag("CC4", op.node, "operation carries no operand")
            return None
        try:
            return slot_of(scope_prod, value.production, self.L)
        except SlotError as exc:
            note = " (ambiguous slot)" if exc.kind == "AMBIGUOUS_SLOT" else ""
            self.diag("CC4", op.node, str(exc) + note)
            return None

    def exec_generic(self, op, scope_node):
        scope_prod = scope_node.production
        located = self._slot_for_value(op, scope_prod)
        if located is None:
            return
        key, card = located
        if op.operand == "add":
            self.exec_add(op, scope_node, key, card)
        elif op.operand == "set":
            self.exec_set(op, scope_node, key, card)
        elif op.operand == "remove":
            self.exec_remove_inline(op, scope_node, key, card)
        else:
            self.diag("CC4", op.node, "unsupported delta operand")

    def exec_add(self, op, scope_node, key, card):
        if card != "many":
            self.diag("CC5", op.node,
                      "add needs a collection slot; %r holds a single element"
                      % key)
            return
        siblings = scope_node.slots.setdefault(key, [])
        value = op.value
        if self._find_sibling(siblings, value) is not None:
            self.diag("CC6", op.node, "element to add already exists")
            return
        siblings.append(copy.deepcopy(value))
        resync_terminals(self.L, scope_node)
        self._refresh(scope_node)

    def exec_set(self, op, scope_node, key, card):
        if card == "many":
            self.diag("CC5", op.node,
                      "set needs a singular slot; %r is a collection" % key)
            return
        value = op.value
        if key == "name" and isinstance(value, Node) \
                and value.production == BUILTIN_NAME:
            holder = self.table.holder_of(scope_node)
            if holder is not None and any(
                    e.node is not scope_node
                    for e in holder.named.get(value.text, ())):
                self.diag("CC6", op.node, "another element of the scope is "
                          "already named %r" % value.text)
                return
            self.exec_rename(op, scope_node, value.text)
        else:
            scope_node.slots[key] = copy.deepcopy(value)
            resync_terminals(self.L, scope_node)
        self._refresh(scope_node, renamed=key == "name")

    def exec_rename(self, op, scope_node, new_name):
        """Rename an element and rewrite every identifier in the document
        that resolves through the symbol table to it."""
        old_leaf = scope_node.slots.get("name")
        old_name = old_leaf.text if isinstance(old_leaf, Node) else None
        rewrites = []
        if old_name is not None and old_name != new_name:
            self._collect_references(self.work, self.table.universe,
                                     old_name, scope_node, rewrites)
        scope_node.slots["name"] = name_leaf(new_name)
        for leaf in rewrites:
            leaf.text = new_name

    def _collect_references(self, node, enclosing, name, target, out):
        scope = self.table.scope_for(node) or enclosing
        for key, val in node.slots.items():
            children = val if isinstance(val, list) else [val]
            for child in children:
                if not isinstance(child, Node):
                    continue
                if child.production == BUILTIN_NAME:
                    if key != "name" and child.text == name and \
                            self._lookup_unique(scope, name) is target:
                        out.append(child)
                else:
                    self._collect_references(child, scope, name, target, out)

    def _lookup_unique(self, scope, name):
        cur = scope
        while cur is not None:
            found = []

            def collect(s):
                found.extend(e.node for e in s.named.get(name, ()))
                for sub in s.subscopes.values():
                    collect(sub)

            collect(cur)
            if found:
                return found[0] if len(found) == 1 else None
            cur = cur.parent
        return None

    def exec_remove_inline(self, op, scope_node, key, card):
        value = op.value
        if card == "one":
            self.diag("CC5", op.node,
                      "remove cannot target required slot %r" % key)
            return
        if card == "many":
            siblings = scope_node.slots.get(key, [])
            idx = self._find_sibling(siblings, value)
            if idx is None:
                self.diag("CC7", op.node, "element to remove does not exist")
                return
            del siblings[idx]
        else:  # optional
            current = scope_node.slots.get(key)
            if current is None or self._find_sibling([current], value) is None:
                self.diag("CC7", op.node, "element to remove does not exist")
                return
            del scope_node.slots[key]
        resync_terminals(self.L, scope_node)
        self._refresh(scope_node)

    def _find_sibling(self, siblings, value):
        """Index of the sibling that is the element ``value`` stands for:
        of the same production and name if that is addressable by name,
        else the same tree."""
        if _is_addressable(self.L, value.production):
            nm = value.name()
            for i, s in enumerate(siblings):
                if s.production == value.production and s.name() == nm:
                    return i
            return None
        for i, s in enumerate(siblings):
            if node_eq(value, s):
                return i
        return None

    def exec_remove_path(self, op, scope_node):
        start = self._scope_of(scope_node)
        try:
            entry, owner = _resolve_entry(self.table, op.segments, start)
        except ResolveError as exc:
            self.diag("CC7", op.node, str(exc))
            return
        if owner.node is None:
            self.diag("CC5", op.node, "cannot remove the document itself")
            return
        plan = self.L.slot_plan(owner.node.production)
        card = plan[entry.key].cardinality
        if card == "many":
            del owner.node.slots[entry.key][entry.index]
        elif card == "optional":
            del owner.node.slots[entry.key]
        else:
            self.diag("CC5", op.node,
                      "cannot remove required slot %r" % entry.key)
            return
        resync_terminals(self.L, owner.node)
        self._refresh(owner.node)


def check_delta(core, delta, L_flat, dL_flat):
    """Validate a parsed delta against a parsed core model; returns the
    list of diagnostics.  Neither input tree is mutated."""
    engine = Engine(copy.deepcopy(core), delta, L_flat, dL_flat)
    warnings = duplicate_warnings(engine.table)
    _, diags = engine.run()
    return warnings + diags
