"""The symbol table the engine keeps up to date operation by operation
must equal a table built from scratch over the same tree, after every
mutating operation; so must its reference index, and every rename must
rewrite the leaves a full walk of the document picks."""

import copy
import random

import pytest

from deltaforge import derive, flatten, node_eq, pack, parse, parse_grammar
from deltaforge.applier import (
    DeltaApplyError,
    apply,
    apply_all,
    pretty_print,
)
from deltaforge.checker import (
    Engine,
    Entry,
    SymbolTable,
    _children,
    build_symbols,
    check_delta,
)
from deltaforge.model import BUILTIN_NAME
from deltaforge.parsing import Node, name_leaf

from test_acceptance import NEGATIVES, _random_statechart
from test_cli import CHAIN, PAIRS


def _entries(table, scope):
    """The entries of the scope's node's children, in slot order; the
    universe's one child is the document."""
    children = [table.root.node] if scope is table.universe else \
        [c for _, c in _children(scope.node)]
    return [table._entry_of[id(c)] for c in children]


def _subscopes(table, scope):
    """The scopes the scope's children open: their own entries."""
    return [e for e in _entries(table, scope) if e.named is not None]


def _scopes(table):
    out = []

    def visit(scope):
        out.append(scope)
        for sub in _subscopes(table, scope):
            visit(sub)

    visit(table.universe)
    return out


def _ids(entries):
    return [id(e.node) for e in entries]


def _shape(table):
    """Everything the table records, with nodes by identity (both tables
    index the same tree).  The names and productions a scope lists are
    compared as maps: an edit files a new one last."""
    return [(
        id(s.node),
        id(s.parent.node) if s.parent is not None else None,
        [(id(e.node), e.key) for e in _entries(table, s)],
        {name: _ids(es) for name, es in s.named.items()},
        {prod: _ids(es) for prod, es in s.by_production.items()},
        [id(sub.node) for sub in _subscopes(table, s)],
    ) for s in _scopes(table)]


def assert_same_table(table, fresh):
    assert _shape(table) == _shape(fresh)
    # the index map holds the entries in the tree, and no stale ones; a
    # scope is the entry of its node, listed by the scope around it
    scopes = _scopes(table)
    assert table._entry_of == {id(e.node): e for s in scopes
                               for e in _entries(table, s)}
    assert all(e.parent is s for s in scopes for e in _entries(table, s))
    assert all(table._entry_of[id(s.node)] is s for s in scopes[1:])
    assert {name: sorted(_ids(es)) for name, es in table._named.items()} \
        == {name: sorted(_ids(es)) for name, es in fresh._named.items()}
    # the pairs kept are those borne twice, each with the entry that made
    # it double, which places its warning
    assert _doubles(table) == _doubles(fresh)
    assert set(_doubles(table)) == {(id(s.node), name) for s in scopes
                                    for name, es in s.named.items()
                                    if len(es) > 1}


def _doubles(table):
    return {(id(scope.node), name): (id(entry.node), entry.node.span)
            for (scope, name), entry in table.doubles.items()}


def _index_shape(references):
    return {name: {key: (id(leaf), id(scope))
                   for key, (leaf, scope) in leaves.items()}
            for name, leaves in references.items()}


def fresh_index(table):
    """The reference index built afresh over the table's own scopes,
    which the index records by identity."""
    fresh = copy.copy(table)
    fresh._index_tree()
    return fresh.references


# -- the full walk a rename made before the index, as reference ------------

def _lookup_by_walk(table, scope, name):
    cur = scope
    while cur is not None:
        found = []
        stack = [cur]
        while stack:
            s = stack.pop()
            found += [e.node for e in s.named.get(name, ())]
            stack += _subscopes(table, s)
        if found:
            return found[0] if len(found) == 1 else None
        cur = cur.parent
    return None


def references_by_walk(table, name, target):
    """The leaves bearing ``name`` outside a ``name`` slot that resolve
    to ``target``, found by walking the whole document."""
    out = []
    stack = [(table.root.node, table.universe)]
    while stack:
        node, enclosing = stack.pop()
        scope = table.scope_for(node) or enclosing
        for key, val in node.slots.items():
            for child in val if isinstance(val, list) else [val]:
                if not isinstance(child, Node):
                    continue
                if child.production == BUILTIN_NAME:
                    if key != "name" and child.text == name and \
                            _lookup_by_walk(table, scope, name) is target:
                        out.append(child)
                else:
                    stack.append((child, scope))
    return out


@pytest.fixture()
def guarded(monkeypatch):
    """Build each engine's reference index at once, compare the table and
    the index with fresh builds after each update, and each rename's
    rewrites with a full walk; yields the list of updates seen, and
    the renames checked in ``guarded.renames``."""
    seen = Updates()
    init, update, rename = \
        Engine.__init__, SymbolTable.update, SymbolTable.rename_references
    language = {}               # id(an engine's table) -> its language

    def eager(self, *args):
        init(self, *args)
        self.table._index_tree()
        language[id(self.table)] = self.L

    def checked(self, node, key, added=None, removed=None, where=None):
        update(self, node, key, added, removed, where)
        assert_same_table(self, build_symbols(self.root.node,
                                              language[id(self)]))
        assert _index_shape(self.references) == \
            _index_shape(fresh_index(self))
        seen.append(node.production)

    def compared(self, old, new, target):
        expected = references_by_walk(self, old, target)
        before = set(self.references.get(new, ()))
        rename(self, old, new, target)
        assert set(self.references.get(new, ())) - before == \
            {id(leaf) for leaf in expected}
        assert all(leaf.text == new for leaf in expected)
        seen.renames.append(len(expected))

    monkeypatch.setattr(Engine, "__init__", eager)
    monkeypatch.setattr(SymbolTable, "update", checked)
    monkeypatch.setattr(SymbolTable, "rename_references", compared)
    return seen


class Updates(list):
    def __init__(self):
        super().__init__()
        self.renames = []       # per rename, how many leaves it rewrote


def _run(core, text, L_flat, dL_flat):
    return apply(core, parse(dL_flat, "Delta", text), L_flat, dL_flat)


def test_case_study(guarded, core, voicemail, L_flat, dL_flat,
                    expected_variant):
    assert check_delta(core, voicemail, L_flat, dL_flat) == []
    variant = apply(core, voicemail, L_flat, dL_flat)
    assert node_eq(variant, expected_variant, {"elements"})
    assert len(guarded) == 2 * 6     # six mutating operations, two runs


def test_context_condition_battery(guarded, core, L_flat, dL_flat):
    for code, text in NEGATIVES.items():
        diags = check_delta(core, parse(dL_flat, "Delta", text),
                            L_flat, dL_flat)
        assert [d.code for d in diags] == [code]


def _listed(node, L_flat):
    """The nodes a table lists under the document ``node``, it included:
    the children, ``Name`` leaves aside, of each listed node whose
    production has a collection slot, found apart from the table."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        out.append(node)
        if node is out[0] or any(info.cardinality == "many" for info in
                                 L_flat.slot_plan(node.production).values()):
            stack += [c for _, c in _children(node)]
    return out


def test_a_scope_is_the_entry_of_its_node(core, L_flat):
    table = build_symbols(core, L_flat)
    opening = [n for n in _listed(core, L_flat)
               if table.scope_for(n) is not None]
    assert len(opening) == 5       # the document and its four states
    for n in opening:
        scope = table.scope_for(n)
        assert any(e is scope for e in
                   table.holder_of(n).by_production[n.production])
        assert scope.node is n


def test_a_table_makes_one_record_per_listed_node(core, L_flat,
                                                 monkeypatch):
    """One record per node the table lists, plus the universe; a scope
    is no object of its own."""
    made = []
    init = Entry.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Entry, "__init__", counted)
    table = build_symbols(core, L_flat)
    listed = _listed(core, L_flat)
    assert len(listed) == 8        # and the three transitions
    assert len(made) == len(listed) + 1
    assert made[0] is table.universe
    assert {id(e.node) for e in made[1:]} == {id(n) for n in listed}


def test_a_plan_carries_its_table_across_deltas(
        guarded, core, voicemail, after_voicemail, L_flat, dL_flat):
    """One engine runs each plan: its table and index equal fresh builds
    after every edit, the first edits of each delta included, and the
    variant is the one delta-by-delta application gives."""
    chain = [parse(dL_flat, "Delta", text) for text in CHAIN]
    for plan, updates, renames in (
            (chain, 6, [1, 1]),
            ([voicemail, after_voicemail[0]], 6 + 2, [1, 2])):
        guarded.clear()
        guarded.renames.clear()
        variant = apply_all(core, plan, L_flat, dL_flat)
        assert len(guarded) == updates
        assert guarded.renames == renames
        folded = core
        for delta in plan:
            folded = apply(folded, delta, L_flat, dL_flat)
        assert node_eq(variant, folded)


LAZY_PLAN = (
    "delta Grow { modify statechart Telephone {"
    " add state Blk { state In; In -> Idle : back(); Idle -> In; }"
    " remove Active; } }",
    "delta Rename after Grow { modify statechart Telephone {"
    " modify state Idle { set name Rest; } } }",
    "delta Prune after Rename { modify statechart Telephone {"
    " remove [Rest -> Call]; modify state Blk { remove [Rest -> In]; } } }",
)


def test_a_plan_indexes_its_references_at_the_first_rename(
        core, L_flat, dL_flat, monkeypatch):
    """Unlike under ``guarded``, the index is built where an engine builds
    it, by the second delta's rename, over the table the first delta left;
    the third delta's removes keep it current."""
    engines, builds = [], []
    init, index_tree = Engine.__init__, SymbolTable._index_tree

    def kept(self, *args):
        init(self, *args)
        engines.append(self)

    def counted(self):
        builds.append(self)
        index_tree(self)

    monkeypatch.setattr(Engine, "__init__", kept)
    monkeypatch.setattr(SymbolTable, "_index_tree", counted)
    plan = [parse(dL_flat, "Delta", text) for text in LAZY_PLAN]
    variant = apply_all(core, plan, L_flat, dL_flat)
    [engine] = engines
    assert builds == [engine.table]
    assert_same_table(engine.table, build_symbols(engine.work, L_flat))
    assert _index_shape(engine.table.references) == \
        _index_shape(fresh_index(engine.table))
    assert "Idle" not in engine.table.references
    folded = core
    for delta in plan:
        folded = apply(folded, delta, L_flat, dL_flat)
    assert node_eq(variant, folded)


RENAMES = [
    # a composite state, referenced by transitions
    "modify state Active { set name Engaged; }",
    # a nested leaf state, then the old name must be gone
    "modify state Active.Busy { set name Voicemail; }"
    " modify state Active.Voicemail { set name Busy2; }",
    # the document itself, listed by the universe
    "set name Phone;",
    # a block that brings a duplicate in, renamed and one copy removed
    "add state Pair { state Twin; state Twin; }"
    " modify state Pair { set name Twins; }"
    " modify state Twins { remove state Twin; }",
]


@pytest.mark.parametrize("body", RENAMES)
def test_renames(guarded, core, L_flat, dL_flat, body):
    _run(core, "delta R { modify statechart Telephone { %s } }" % body,
         L_flat, dL_flat)
    assert guarded


def test_the_table_alone_follows_a_rename(core, L_flat):
    """Told a ``name`` edit as ``Engine._edit`` tells it, with no other
    call, the table rewrites the references to the renamed element and
    stays what a fresh build gives."""
    work = core.clone()
    table = build_symbols(work, L_flat)
    table._index_tree()
    active = next(c for c in work.slots["elements"] if c.name() == "Active")
    busy = next(c for c in active.slots["elements"] if c.name() == "Busy")
    (target,) = [c.slots["target"] for c in work.slots["elements"]
                 if c.production == "Transition"
                 and c.slots["source"].text == "Idle"
                 and c.slots["target"].text == "Busy"]
    old, new = busy.slots["name"], name_leaf("Mailbox")
    busy.slots["name"] = new
    table.update(busy, "name", new, old, table.scope_for(active))
    assert target.text == "Mailbox"
    assert_same_table(table, build_symbols(work, L_flat))
    assert _index_shape(table.references) == \
        _index_shape(fresh_index(table))


REMOVE_PATHS = [
    "remove Active.Busy;",
    "remove Active;",                      # drops a scope with subscopes
    "remove [Idle -> Call];",
    "modify transition [Active -> Idle] { remove [hangUp()]; }",
    "modify state Active { remove Call; add state Call { state Deep; } }"
    " remove Active.Call.Deep;",
    # a name borne three times loses its first bearer, so the third
    # makes it double, and then the second, which ends the pair
    "add state Trio { state X; state X; state X; }"
    " modify state Trio { remove state X; remove state X; }",
]


@pytest.mark.parametrize("body", REMOVE_PATHS)
def test_remove_paths(guarded, core, L_flat, dL_flat, body):
    _run(core, "delta R { modify statechart Telephone { %s } }" % body,
         L_flat, dL_flat)
    assert guarded


def test_set_replaces_a_child(guarded, core, L_flat, dL_flat):
    _run(core, "delta S { modify statechart Telephone {"
               " modify transition [Active -> Idle] { set redial(); }"
               " modify transition [Idle -> Call] { set target Idle; } } }",
         L_flat, dL_flat)
    assert guarded == ["Transition", "Transition"]


# ---------------------------------------------------------------------------
# Randomized chains

def _states(node, path=()):
    """(path, node) of every state under ``node``, depth first."""
    for child in node.slots.get("elements", []):
        if child.production == "State":
            here = path + (child.name(),)
            yield here, child
            yield from _states(child, here)


def _random_op(rng, model, fresh):
    """One operation, in the syntax of a ``modify statechart`` body,
    aimed at the elements ``model`` has now."""
    states = list(_states(model))
    scope = rng.choice([()] + [p for p, n in states
                               if "elements" in n.slots])
    holder = model
    for name in scope:
        holder = next(c for c in holder.slots["elements"]
                      if c.production == "State" and c.name() == name)
    local = holder.slots.get("elements", [])
    names = [c.name() for c in local if c.production == "State"]
    transitions = [c for c in local if c.production == "Transition"]
    kind = rng.choice(["add_state", "add_block", "add_transition",
                       "retarget", "remove_inline", "remove_path",
                       "remove_transition", "rename", "rename_document"])
    if kind == "add_state":
        op = "add state %s;" % fresh
    elif kind == "add_block":
        op = "add state %s { state %s_in; %s_in -> %s_in; }" \
            % (fresh, fresh, fresh, fresh)
    elif kind == "add_transition" and names:
        op = "add %s -> %s : m();" % (rng.choice(names), rng.choice(names))
    elif kind == "retarget" and transitions and names:
        t = rng.choice(transitions)
        op = "modify transition [%s -> %s] { set %s %s; }" % (
            t.slots["source"].text, t.slots["target"].text,
            rng.choice(["source", "target"]), rng.choice(names))
    elif kind == "remove_inline" and names:
        op = "remove state %s;" % rng.choice(names)
    elif kind == "remove_path" and states:
        return "remove %s;" % ".".join(rng.choice(states)[0])
    elif kind == "remove_transition" and transitions:
        t = rng.choice(transitions)
        op = "remove [%s -> %s];" % (t.slots["source"].text,
                                     t.slots["target"].text)
    elif kind == "rename" and states:
        return "modify state %s { set name %s; }" % (
            ".".join(rng.choice(states)[0]), fresh)
    elif kind == "rename_document":
        return "set name %s;" % fresh
    else:
        return None
    if scope:
        return "modify state %s { %s }" % (".".join(scope), op)
    return op


def _delta(dL_flat, doc_name, ops):
    return parse(dL_flat, "Delta", "delta D { modify statechart %s { %s } }"
                 % (doc_name, " ".join(ops)))


@pytest.mark.parametrize("seed", range(8))
def test_random_chains(guarded, L_flat, dL_flat, seed):
    rng = random.Random(seed)
    core = parse(L_flat, "SCDefinition", _random_statechart(rng, seed))
    shadow = core
    ops = []
    for i in range(40):
        op = _random_op(rng, shadow, "N%d" % i)
        if op is None:
            continue
        try:
            shadow = apply(shadow, _delta(dL_flat, shadow.name(), [op]),
                           L_flat, dL_flat)
        except DeltaApplyError:
            continue          # ambiguous or conflicting; try another
        ops.append(op)
    assert len(ops) >= 10
    guarded.clear()
    delta = _delta(dL_flat, core.name(), ops)
    assert [d for d in check_delta(core, delta, L_flat, dL_flat)
            if d.severity == "error"] == []
    variant = apply(core, delta, L_flat, dL_flat)
    assert node_eq(variant, shadow)
    assert len(guarded) == 2 * len(ops)


CASES = {
    "added block with transitions":
        "add state Blk { state In; In -> Idle : back(); Idle -> In; }"
        " modify state Idle { set name Rest; }"
        " modify state Blk.In { set name Inner; }",
    "set target and source":
        "modify transition [Active -> Idle] { set target Busy;"
        " set source Call; }"
        " modify state Active.Busy { set name Engaged; }"
        " modify state Active.Call { set name Talk; }",
    "modify into a node that opens no scope":
        "add state cond;"
        " modify transition [Idle -> Busy] {"
        " modify TransitionBody [[isEngaged] numberDialed()] {"
        " set [cond]; } }"
        " modify state cond { set name cond2; }",
    "nested state referenced from outside":
        "modify state Active.Call { set name Talk; }",
    "rename makes outer references ambiguous":
        "modify state Active.Call { set name Idle; }"
        " modify state Idle { set name Rest; }",
    "remove then re-add":
        "modify state Active { remove state Busy; add state Busy; }"
        " modify state Active.Busy { set name Gone; }",
}

# per case: how many leaves each rename rewrote
REWRITES = {
    # Idle is referenced three times at the top and twice in the block,
    # In twice in the block
    "added block with transitions": [5, 2],
    # Busy and Call, each by Idle -> … and the rewired transition
    "set target and source": [2, 2],
    # the guard set through the transition's ad hoc scope
    "modify into a node that opens no scope": [1],
    "nested state referenced from outside": [1],
    # with a second Idle below Active, the top-level references to Idle
    # are ambiguous and stay
    "rename makes outer references ambiguous": [1, 0],
    # the re-added Busy is the one Idle -> Busy refers to
    "remove then re-add": [1],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_edit_cases(guarded, core, L_flat, dL_flat, case):
    variant = _run(core, "delta C { modify statechart Telephone { %s } }"
                   % CASES[case], L_flat, dL_flat)
    assert guarded.renames == REWRITES[case]
    # the variant prints and parses back to itself
    assert node_eq(parse(L_flat, "SCDefinition",
                         pretty_print(L_flat, variant)), variant)


# ---------------------------------------------------------------------------
# Operations that leave a node its production does not derive

OPTIONAL_PAIR = 'grammar Q { Q = "q" name:Name "{" (a:A b:B)? "}";' \
    ' A = "a" name:Name ";"; B = "b" name:Name ";"; }'

PAIRED = "p D { key A; val B; key C; val E; }"
REJECTED = [
    (PAIRS, PAIRED, "modify P D { remove key A; }"),
    (PAIRS, PAIRED, "modify P D { remove C; }"),
    (PAIRS, PAIRED, "modify P D { add key Z; }"),
    (OPTIONAL_PAIR, "q D { a X; b Y; }", "modify Q D { remove a X; }"),
    (OPTIONAL_PAIR, "q D { }", "modify Q D { set a X; }"),
]


@pytest.mark.parametrize("grammar, text, body", REJECTED,
                         ids=["remove", "remove-path", "add",
                              "remove-optional", "set-optional"])
def test_a_rejected_operation_leaves_the_model_as_it_was(grammar, text, body):
    """The edit is taken back: the engine's table equals a fresh build,
    the slots keep their order and the model prints as it did."""
    g = parse_grammar(grammar)
    L_flat = flatten([g], g.name)
    common = pack.load_common_grammar()
    dL_flat = flatten([derive(L_flat, g.name, common).grammar, common, g],
                      "Delta" + g.name)
    core = parse(L_flat, g.name, text)
    printed = pretty_print(L_flat, core)
    engine = Engine(core.clone(), L_flat, dL_flat)
    diags = engine.run(parse(dL_flat, "Delta", "delta R { %s }" % body))
    assert [(d.code, d.message) for d in diags] == [
        ("CC5", "slots of %s would no longer fit its production" % g.name)]
    assert_same_table(engine.table, build_symbols(engine.work, L_flat))
    assert list(engine.work.slots) == list(core.slots)
    assert node_eq(engine.work, core)
    assert engine.work.terminals == core.terminals
    assert pretty_print(L_flat, engine.work) == printed
