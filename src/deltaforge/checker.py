"""Context checking of deltas against a core model.

Implements the seven context conditions:

* CC1 -- a model element identifier must reference an existing element
* CC2 -- the referenced element must match the scope identifier's type
* CC3 -- every intermediate path segment must resolve to a scope
* CC4 -- an operation must be applicable inside its modify scope
* CC5 -- add needs a collection slot, set a singular slot, remove a
  collection or optional slot, a collection keeps as many elements as
  its production needs, and an edited node keeps slots its production
  derives (an edit that breaks this is taken back)
* CC6 -- an added element must not already exist, and a renamed one
  must not take the name of another element of its scope
* CC7 -- a removed element must exist

Checking simulates application: each operation is checked against the
state produced by its predecessors, because deltas may rename or rewire
elements that later operations refer to.  One ``Engine`` run therefore
yields both the diagnostics and the applied model.  It runs each
operation from its node, by its production: a ``modify`` or a remove by
path resolves its path, and any other production is read by the grammar
shape of its rhs, so an operation an ``--extend`` grammar adds by hand
runs like a derived one.  The engine edits the tree it is given
in place, every edit of a slot in one method (``Engine._edit``), and
each edit costs what it touches rather than what the document or the
edited block holds:

* the symbol table, whose scopes are the entries of the nodes opening
  one, is told each edit once (the child that came in, the one that
  left, a rename) and enters or drops only those children and the
  entries under them; a table-wide name map finds the candidates a
  reference may resolve to;
* the table also holds, from the engine's first rename on, an index from
  name to the reference leaves bearing it, which each edit keeps
  current, so a rename resolves the old name once per scope its leaves
  resolve from;
* ``resync_terminals`` caches the terminals per node shape on the
  grammar, a block counting only as empty or not, so an add to a block
  of any size is a cache hit; a value put in place of another keeps the
  node's shape, and so its terminals, with no resync.

One engine runs a whole plan (``applier.run_plan``) in place on the model
it is given, so a plan builds one symbol table and indexes its references
at most once; the library calls ``check_delta``, ``apply`` and
``apply_all`` copy their input first, by a loop (``Node.clone``).
"""

from __future__ import annotations

import copy
import re

from .diagnostics import Diagnostic, has_errors
from .model import (
    BUILTIN_NAME,
    GrammarError,
    NontermRef,
    Sequence,
    Terminal,
)
from .parsing import Node, name_leaf, node_eq, resync_terminals


class ResolveError(Exception):
    def __init__(self, code, message):
        self.code = code          # CC1 | CC3
        super().__init__(message)


class SlotError(GrammarError):
    def __init__(self, kind, message):
        self.kind = kind          # NO_SLOT | AMBIGUOUS_SLOT
        super().__init__(message)


# ---------------------------------------------------------------------------
# Symbol table

class Entry:
    """A node listed by the scope ``parent`` (None for the universe and a
    detached scope); the entry of a node that opens a scope is that scope,
    listing its children by name and by production.  Compared by
    identity, so a scope's lists drop it in place."""

    __slots__ = ("node", "key", "parent", "named", "by_production")

    def __init__(self, node, key, parent, opens=False):
        self.node = node
        self.key = key            # the slot of the parent's node holding it
        self.parent = parent
        # name -> [Entry] and production -> [Entry]; None if not a scope
        self.named = {} if opens else None
        self.by_production = {} if opens else None


class SymbolTable:
    """Hierarchical scope tree mirroring a core model tree, one entry per
    node it lists; a scope is the entry of a node that opens one.

    The table follows the tree as it is edited in place: ``update`` is
    told the edit (the child that came in, the one that left, a rename)
    and touches only those children and what lies under them, whatever
    the size of their scope.  A table-wide name map lets
    ``lookup_unique`` check the few elements of one name, and an index of
    references by name, made by the first rename, lets a rename read
    only the leaves bearing the old name."""

    def __init__(self, core, flat):
        # production -> (opens a scope, addressable by name); every node
        # in the tree is of a production of the language
        self._facts = {name: (any(info.cardinality == "many" for info
                                  in flat.slot_plan(name).values()),
                              flat.addressable(name))
                       for name in flat.productions}
        self._entry_of = {}       # id(node) -> the node's entry
        self._named = {}          # name -> [Entry], over all scopes
        self._doubled = 0         # (scope, name) pairs of two entries or more
        self._doubles = []        # those pairs, as last walked; None if moved
        self.references = None    # name -> {id(leaf): (leaf, scope)}
        self.universe = Entry(None, None, None, True)
        self._enter(self.universe, None, core)
        self.root = self._entry_of[id(core)]

    def scope_for(self, node):
        """The scope the node opens: its entry, if it opens one."""
        entry = self._entry_of.get(id(node))
        return entry if entry is not None and entry.named is not None else None

    def holder_of(self, node):
        """The scope that lists the node as an entry, if any."""
        entry = self._entry_of.get(id(node))
        return entry.parent if entry is not None else None

    def addressable(self, production):
        facts = self._facts.get(production)
        return facts is not None and facts[1]

    def update(self, node, key, added=None, removed=None, where=None):
        """Follow an edit of slot ``key`` of ``node``: ``removed`` left it
        and ``added`` came in (a set does both); references in ``added``
        resolve from ``where``.  An edit of ``name`` renames the node in
        the scope that lists it.  The scopes follow first, as indexing
        ``added`` reads the scopes it opens."""
        if removed is not None:
            entry = self._entry_of.get(id(removed))
            if entry is not None:
                self._leave(entry)
        if added is not None and added.production != BUILTIN_NAME:
            scope = self.scope_for(node)
            if scope is not None:
                self._enter(scope, key, added)
        if key == "name":
            entry = self._entry_of.get(id(node))
            if entry is not None and self._facts[node.production][1]:
                old = removed.text if removed is not None else None
                new = node.name()
                if old is not None:
                    self._unname(entry, old)
                if new is not None:
                    self._name(entry, new)
        if self.references is not None:
            if removed is not None:
                self._forget(removed)
            if added is not None:
                self._index(added, key, where)

    def _enter(self, scope, key, child):
        """List ``child``, held in slot ``key`` of the scope's node, as an
        entry of the scope, and the children of each node that opens a
        scope, it and those under it, as entries of its own, by a loop."""
        facts = self._facts
        stack = [(scope, key, child)]
        while stack:
            scope, key, child = stack.pop()
            self._entry_of[id(child)] = entry = \
                _add_entry(facts, scope, child, key, self)
            if entry.named is not None:
                stack += [(entry, k, c) for k, c in _children(child)][::-1]

    def _leave(self, entry):
        """Take the entry out of its scope, with those under it, by a loop."""
        _unlist(entry.parent.by_production, entry.node.production, entry)
        stack = [entry.node]
        while stack:
            node = stack.pop()
            entry = self._entry_of.pop(id(node))
            name = node.name() if self._facts[node.production][1] else None
            if name is not None:
                self._unname(entry, name)
            if entry.named is not None:
                stack += [c for _, c in _children(node)]

    def _name(self, entry, name):
        """List the entry under ``name`` in its scope and the table."""
        named = entry.parent.named.setdefault(name, [])
        named.append(entry)
        if len(named) == 2:
            self._doubled += 1
            self._doubles = None
        self._named.setdefault(name, []).append(entry)

    def _unname(self, entry, name):
        """Take the entry out from under ``name`` in its scope and the
        table."""
        if len(entry.parent.named[name]) == 2:
            self._doubled -= 1
            self._doubles = None
        _unlist(entry.parent.named, name, entry)
        _unlist(self._named, name, entry)

    def _index(self, value, key, where):
        """Index the reference leaves of ``value``, held in slot ``key``
        of a node whose references resolve from ``where``: every ``Name``
        leaf in a slot other than ``name``, with the scope it resolves
        from (that of its nearest ancestor opening one)."""
        by_name = self.references
        entries = self._entry_of
        stack = [(key, value, where)]
        while stack:
            key, node, where = stack.pop()
            if node.production == BUILTIN_NAME:
                if key != "name":
                    leaves = by_name.get(node.text)
                    if leaves is None:
                        leaves = by_name[node.text] = {}
                    leaves[id(node)] = (node, where)
                continue
            entry = entries.get(id(node), where)      # ``where`` is a scope
            where = entry if entry.named is not None else where
            for k, val in node.slots.items():
                if type(val) is list:
                    stack += [(k, child, where) for child in val]
                else:
                    stack.append((k, val, where))

    def _forget(self, value):
        """Drop the reference leaves of ``value``, which left the tree."""
        stack = [value]
        while stack:
            node = stack.pop()
            if node.production == BUILTIN_NAME:
                leaves = self.references.get(node.text)
                if leaves and leaves.pop(id(node), None) and not leaves:
                    del self.references[node.text]
                continue
            for val in node.slots.values():
                if type(val) is list:
                    stack += val
                else:
                    stack.append(val)

    def _index_tree(self):
        """Index the reference leaves of the whole tree afresh."""
        self.references = {}
        self._index(self.root.node, None, self.universe)

    def rename_references(self, old, new, target):
        """Rewrite to ``new`` the leaves bearing ``old`` that resolve to
        ``target``, one lookup per scope they resolve from; call it before
        the table learns of the rename.  The first call indexes the
        references, which every update keeps current from then on."""
        if self.references is None:
            self._index_tree()
        leaves = self.references.get(old, {})
        hits = {}                 # id(scope) -> resolves to the target
        moved = []
        for key, (leaf, scope) in leaves.items():
            hit = hits.get(id(scope))
            if hit is None:
                hit = hits[id(scope)] = \
                    self.lookup_unique(scope, old) is target
            if hit:
                moved.append(key)
        if moved:
            into = self.references.setdefault(new, {})
            for key in moved:
                into[key] = leaves.pop(key)
                into[key][0].text = new
            if not leaves:
                del self.references[old]

    def lookup_unique(self, scope, name):
        """The element a reference to ``name`` in ``scope`` stands for:
        from the scope outward, the first scope with elements of that
        name anywhere below it must have exactly one; None if it has more
        or no scope has any.  Each candidate is placed by walking up from
        the scope that lists it."""
        entries = self._named.get(name)
        if not entries:
            return None
        rank = {}                 # id(scope and each around it) -> steps out
        while scope is not None:
            rank[id(scope)] = len(rank)
            scope = scope.parent
        best, found = len(rank), []
        for entry in entries:
            cur = entry.parent
            while id(cur) not in rank:
                cur = cur.parent
            r = rank[id(cur)]
            if r < best:
                best, found = r, [entry.node]
            elif r == best:
                found.append(entry.node)
        return found[0] if len(found) == 1 else None

    def adhoc_scope(self, node):
        """A detached scope over a node that does not open one in the
        scope tree; lets paths address the node's direct parts."""
        scope = Entry(node, None, None, True)
        for key, child in _children(node):
            _add_entry(self._facts, scope, child, key)
        return scope

    def duplicate_names(self):
        """(scope, name) per name borne twice in a scope, in tree order.
        The scopes are walked only if a pair reached two entries, or
        fell below, since the last walk."""
        if self._doubles is None:
            # no walk if no scope has a name borne twice
            self._doubles = self._walk_doubles() if self._doubled else []
        return list(self._doubles)

    def _walk_doubles(self):
        out = []
        stack = [self.root]
        while stack:
            scope = stack.pop()
            out += [(scope, name) for name, entries in scope.named.items()
                    if len(entries) > 1]
            subs = [self._entry_of[id(c)] for _, c in _children(scope.node)]
            stack += [sub for sub in reversed(subs) if sub.named is not None]
        return out


def _add_entry(facts, scope, child, key, table=None):
    """List the child in the scope, by production and by name; by name
    through ``table`` if the scope is one of its, which counts the names
    borne twice, and where a child that opens a scope is that scope."""
    entry = Entry(child, key, scope, table is not None and (
        scope is table.universe or facts[child.production][0]))
    scope.by_production.setdefault(child.production, []).append(entry)
    nm = child.name() if facts[child.production][1] else None
    if nm is not None and table is not None:
        table._name(entry, nm)
    elif nm is not None:
        scope.named.setdefault(nm, []).append(entry)
    return entry


def _unlist(lists, key, entry):
    """Drop the entry from ``lists[key]``, and the list once empty."""
    items = lists[key]
    items.remove(entry)
    if not items:
        del lists[key]


def _children(node):
    """``(slot key, child)`` of the node's direct children that are not
    ``Name`` leaves, in slot order."""
    for key, val in node.slots.items():
        for child in val if isinstance(val, list) else (val,):
            if isinstance(child, Node) and child.production != BUILTIN_NAME:
                yield key, child


def build_symbols(core, flat):
    """Build the scope tree for a core model parsed under ``flat``.

    A child opens a scope iff its production has a star/plus slot; the
    document node is always a scope.
    """
    return SymbolTable(core, flat)


def duplicate_warnings(table, reported, file=None):
    """A CC1 warning, placed in ``file``, for each name that more than one
    element of a scope bears, unless its message is in ``reported``, which
    it extends; paths through that scope must then disambiguate."""
    out = []
    for scope, name in table.duplicate_names():
        message = "duplicate element name %r in scope %s; paths must " \
            "disambiguate" % (name, scope.node.production)
        if message not in reported:
            reported.add(message)
            out.append(Diagnostic("CC1", "warning", message, file))
    return out


# ---------------------------------------------------------------------------
# Path resolution

def _fragment_matches(fragment, candidate):
    """Slots present in the fragment must match; absent ones are wildcards."""
    for key, val in fragment.slots.items():
        if isinstance(val, list):
            if not val:
                continue
            cand = candidate.slots.get(key)
            if not isinstance(cand, list) or len(cand) != len(val):
                return False
            if not all(node_eq(x, y) for x, y in zip(val, cand)):
                return False
        else:
            cand = candidate.slots.get(key)
            if cand is None or not node_eq(val, cand):
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
                "CC1", "name %r is ambiguous in its scope" % segment)
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
            % (len(candidates), segment.production))
    return candidates[0]


def _resolve_entry(segments, start_scope):
    """Resolve a path; returns (entry, owner scope of the final segment)."""
    if not segments:
        raise ResolveError("CC3", "empty element path")
    scope = start_scope
    entry = None
    for i, seg in enumerate(segments):
        if entry is not None:
            if entry.named is None:
                raise ResolveError(
                    "CC3", "path segment %d resolves to a %s, which is not "
                    "a scope" % (i, entry.node.production))
            scope = entry
        entry = _find_in_scope(scope, seg)
    return entry, scope


def resolve_path(table, path, start_scope):
    """Resolve a path of name segments and parsed fragment Nodes, each
    within the scope of the previous result; exactly one match required."""
    entry, _ = _resolve_entry(path, start_scope)
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


def slot_of(scope_production, operand, flat):
    """The unique slot of the scope production that can hold the operand
    production (directly or through an interface it implements)."""
    plan = flat.slot_plan(scope_production)
    matches = [info for info in plan.values() if _accepts(flat, info, operand)]
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
# Delta operations, read off their nodes

_SCOPE_ID_RE = re.compile(r"Delta(.+)ScopeIdentifier")

#: The slot holding the path, per production of an operation by path.
_PATH_SLOT = {"DeltaModify": "modelElement", "DeltaRemoveOperation": "target"}


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


def _label_and_value(op_node, dL_flat):
    """The keyword label (None if none) and the value of a generic
    operation, read off the *grammar shape* of its production: past the
    operand, a terminal other than ``;`` before the value is its label,
    and the first reference its value.  So two generated productions of
    the same syntax are interchangeable."""
    rhs = dL_flat.production(op_node.production).rhs
    label = value = None
    seen_operand = False
    for item in rhs.items if isinstance(rhs, Sequence) else (rhs,):
        if isinstance(item, NontermRef):
            if item.target == "DeltaOperand":
                seen_operand = True
            elif seen_operand and value is None:
                value = op_node.slots.get(item.key)
        elif isinstance(item, Terminal):
            if seen_operand and value is None and item.text != ";":
                label = item.text
    return label, value


# ---------------------------------------------------------------------------
# The shared check/apply engine

class Engine:
    """Executes deltas one after another in place on a model tree,
    collecting context-condition diagnostics; shared by check_delta,
    apply and ``applier.run_plan``.  Each operation is run from its node,
    by its production (``exec_op``).  Its tables are built once and follow
    every edit, so each run starts from the model the last one left.  The
    tree is edited even when an operation fails, so callers that must
    keep their input hand the engine a copy."""

    def __init__(self, work, L_flat, dL_flat):
        self.work = work
        self.L = L_flat
        self.dL = dL_flat
        self.table = build_symbols(work, L_flat)

    # -- diagnostics ---------------------------------------------------

    def diag(self, code, node, message):
        self.diags.append(Diagnostic(code, "error", message,
                                     **position(self.tokens, node)))

    # -- main loop -----------------------------------------------------

    def run(self, delta):
        """Apply the delta; returns its diagnostics (``diags``, placed
        by its ``tokens``)."""
        self.tokens, self.diags = delta.tokens, []
        for element in delta.slots.get("elements", []):
            self.exec_op(element, None, self.table.universe)
        return self.diags

    # -- operations ----------------------------------------------------
    #
    # ``where`` is the scope references in ``scope_node`` resolve from.

    def exec_op(self, op_node, scope_node, where):
        """Run the operation by the production of its node: a ``modify``
        or a remove by path resolves its path from the scope of
        ``scope_node`` (the universe outside any ``modify``, an ad hoc
        scope over a node that opens none); any other production is a
        generic operation on a slot of ``scope_node``."""
        path = _PATH_SLOT.get(op_node.production)
        try:
            if path is not None:
                segments = _segments_of(op_node.slots[path])
            else:
                label, value = _label_and_value(op_node, self.dL)
        except GrammarError as exc:
            self.diag("CC4", op_node, str(exc))
            return
        if path is not None:
            table = self.table
            start = table.universe if scope_node is None else \
                table.scope_for(scope_node) or table.adhoc_scope(scope_node)
            try:
                entry, owner = _resolve_entry(segments, start)
            except ResolveError as exc:
                # a remove by path reports any path it cannot resolve as CC7
                self.diag(exc.code if path == "modelElement" else "CC7",
                          op_node, str(exc))
                return
            if path == "modelElement":
                self.exec_modify(op_node, entry.node, where)
            else:
                self.exec_remove_path(op_node, entry, owner)
            return
        if scope_node is None:
            self.diag("CC4", op_node,
                      "operation outside of a modify statement")
            return
        located = self._slot_for_value(op_node, label, value,
                                       scope_node.production)
        if located is None:
            return
        kind = getattr(op_node.slots.get("DeltaOperand"), "production", None)
        if kind == "DeltaAdd":
            self.exec_add(op_node, value, scope_node, *located, where)
        elif kind == "DeltaSet":
            self.exec_set(op_node, value, scope_node, *located, where)
        elif kind == "DeltaRemove":
            self.exec_remove_inline(op_node, value, scope_node, *located)
        else:
            self.diag("CC4", op_node, "unsupported delta operand")

    def exec_modify(self, op_node, target, where):
        si = op_node.slots["ScopeIdentifier"]
        expected = _scope_target(si, self.L)
        if expected is None:
            self.diag("CC2", op_node,
                      "unknown scope identifier %r" % si.production)
            return
        p = self.L.productions.get(target.production)
        if target.production != expected and not (
                self.L.is_interface(expected) and p is not None
                and expected in p.implements):
            self.diag("CC2", op_node,
                      "scope identifier names %s but the element is a %s"
                      % (expected, target.production))
            return
        # a target outside the scope tree was found through the ad hoc
        # scope of ``scope_node``, so it resolves from ``where`` too
        inner = self.table.scope_for(target) or \
            self.table.holder_of(target) or where
        for nested in op_node.slots.get("DeltaOperation", []):
            self.exec_op(nested, target, inner)

    def _slot_for_value(self, op_node, label, value, scope_prod):
        """CC4: locate the slot the operation's value belongs to."""
        if label is not None:
            info = self.L.slot_plan(scope_prod).get(label)
            if info is None:
                self.diag("CC4", op_node, "scope %s has no slot %r"
                          % (scope_prod, label))
                return None
            if isinstance(value, Node) and value.production == BUILTIN_NAME:
                ok = BUILTIN_NAME in info.targets or \
                    "QualifiedModelElementName" in info.targets
            elif isinstance(value, Node):
                ok = _accepts(self.L, info, value.production)
            else:
                ok = False
            if not ok:
                self.diag("CC4", op_node,
                          "slot %r of %s does not accept this operand"
                          % (label, scope_prod))
                return None
            return info.key, info.cardinality
        if not isinstance(value, Node):
            self.diag("CC4", op_node, "operation carries no operand")
            return None
        try:
            return slot_of(scope_prod, value.production, self.L)
        except SlotError as exc:
            note = " (ambiguous slot)" if exc.kind == "AMBIGUOUS_SLOT" else ""
            self.diag("CC4", op_node, str(exc) + note)
            return None

    def exec_add(self, op_node, value, scope_node, key, card, where):
        if card != "many":
            self.diag("CC5", op_node,
                      "add needs a collection slot; %r holds a single element"
                      % key)
            return
        if self._find_sibling(scope_node, key, value) is not None:
            self.diag("CC6", op_node, "element to add already exists")
            return
        self._edit(op_node, scope_node, key, copy.deepcopy(value), None,
                   where)

    def exec_set(self, op_node, value, scope_node, key, card, where):
        if card == "many":
            self.diag("CC5", op_node,
                      "set needs a singular slot; %r is a collection" % key)
            return
        removed = scope_node.slots.get(key)
        if key == "name" and isinstance(value, Node) \
                and value.production == BUILTIN_NAME:
            holder = self.table.holder_of(scope_node)
            if holder is not None and any(
                    e.node is not scope_node
                    for e in holder.named.get(value.text, ())):
                self.diag("CC6", op_node, "another element of the scope is "
                          "already named %r" % value.text)
                return
            if isinstance(removed, Node) and removed.text is not None \
                    and removed.text != value.text:
                self.table.rename_references(removed.text, value.text,
                                             scope_node)
            added = name_leaf(value.text)
        else:
            added = copy.deepcopy(value)
        self._edit(op_node, scope_node, key, added, removed, where)

    def exec_remove_inline(self, op_node, value, scope_node, key, card):
        if card == "one":
            self.diag("CC5", op_node,
                      "remove cannot target required slot %r" % key)
            return
        removed = self._find_sibling(scope_node, key, value)
        if removed is None:
            self.diag("CC7", op_node, "element to remove does not exist")
            return
        self._edit(op_node, scope_node, key, None, removed)

    def _find_sibling(self, scope_node, key, value):
        """The child in slot ``key`` of ``scope_node`` that is the element
        ``value`` stands for: of the same production and name if that is
        addressable by name (looked up in the node's scope, if it opens
        one), else the same tree."""
        val = scope_node.slots.get(key)
        siblings = val if isinstance(val, list) else () if val is None \
            else (val,)
        if self.table.addressable(value.production):
            nm = value.name()
            scope = self.table.scope_for(scope_node)
            if scope is not None and nm is not None:
                siblings = [e.node for e in scope.named.get(nm, ())
                            if e.key == key]
            for s in siblings:
                if s.production == value.production and s.name() == nm:
                    return s
            return None
        for s in siblings:
            if node_eq(value, s):
                return s
        return None

    def exec_remove_path(self, op_node, entry, owner):
        if owner.node is None:
            self.diag("CC5", op_node, "cannot remove the document itself")
            return
        plan = self.L.slot_plan(owner.node.production)
        if plan[entry.key].cardinality == "one":
            self.diag("CC5", op_node,
                      "cannot remove required slot %r" % entry.key)
            return
        self._edit(op_node, owner.node, entry.key, None, entry.node)

    def _edit(self, op_node, node, key, added, removed, where=None):
        """The one edit of the model: slot ``key`` of ``node`` gains
        ``added``, loses ``removed``, or, singular, has one put in place
        of the other; references in ``added`` resolve from ``where``.

        CC5 if a remove would take a list below the fewest values the
        production allows, or if no derivation of the production gives
        the edited node's slots; the edit is then taken back.  Else the
        node's terminals and the tables follow the edit.  A value put in
        place of another keeps the node's shape, on which alone its
        terminals depend (see ``parsing.shape``), so they are kept."""
        slots = node.slots
        info = self.L.slot_plan(node.production)[key]
        if info.cardinality == "many":
            values = slots.setdefault(key, [])
            if added is not None:
                values.append(added)
                undo = values.pop
            elif len(values) <= info.low:
                self.diag("CC5", op_node, "slot %r of %s must keep at least "
                          "%d element%s" % (key, node.production, info.low,
                                            "s" if info.low > 1 else ""))
                return
            else:
                # by identity, as ``list.remove`` would compare by value
                at = next(i for i, c in enumerate(values) if c is removed)
                del values[at]
                undo = lambda: values.insert(at, removed)
        elif added is not None and removed is not None:
            slots[key] = added
            undo = None
        else:
            kept = dict(slots)
            if added is not None:
                slots[key] = added
            else:
                del slots[key]
            undo = lambda: (slots.clear(), slots.update(kept))  # in order
        if undo is not None:
            try:
                resync_terminals(self.L, node)
            except GrammarError:
                undo()
                self.diag("CC5", op_node, "slots of %s would no longer fit "
                          "its production" % node.production)
                return
        self.table.update(node, key, added, removed, where)


def position(tokens, node):
    """The ``line`` and ``column`` of the node's first token, as keyword
    arguments of a ``Diagnostic``; none without its text's token table."""
    if tokens and node is not None and node.span[0] < len(tokens):
        tok = tokens[node.span[0]]
        return dict(line=tok.line, column=tok.column)
    return {}


def check_delta(core, delta, L_flat, dL_flat):
    """Validate a parsed delta against a parsed core model; returns the
    list of diagnostics: the core's duplicate names, the delta's findings
    and, if it ran without errors, the duplicate names it brought in.
    Neither input tree is mutated."""
    engine = Engine(copy.deepcopy(core), L_flat, dL_flat)
    reported = set()
    diags = duplicate_warnings(engine.table, reported) + engine.run(delta)
    if not has_errors(diags):
        diags += duplicate_warnings(engine.table, reported)
    return diags
