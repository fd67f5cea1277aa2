import copy

import pytest

from deltaforge import (
    checker,
    derive,
    flatten,
    node_eq,
    pack,
    parse,
    parse_grammar,
)
from deltaforge.applier import apply, run_plan
from deltaforge.checker import (
    Engine,
    SlotError,
    build_symbols,
    check_delta,
    resolve_path,
    slot_of,
)
from deltaforge.parsing import parse_fragment


def _check(core, dL_flat, L_flat, text):
    delta = parse(dL_flat, "Delta", text)
    return check_delta(core, delta, L_flat, dL_flat)


def _codes(diags):
    return [(d.code, d.severity) for d in diags]


# ---------------------------------------------------------------------------
# Symbol table

def test_symbol_table_shape(core, L_flat):
    table = build_symbols(core, L_flat)
    root = table.root
    assert sorted(root.named) == ["Active", "Idle"]
    assert len(root.by_production.get("Transition", [])) == 3
    (active,) = root.named["Active"]
    inner = table.scope_for(active.node)
    assert sorted(inner.named) == ["Busy", "Call"]
    assert inner.parent is root
    # transitions do not open scopes
    t = root.by_production["Transition"][0].node
    assert table.scope_for(t) is None


def test_universe_contains_document(core, L_flat):
    table = build_symbols(core, L_flat)
    assert table.universe.named["Telephone"][0].node is core


def test_duplicate_names_reported(L_flat):
    doc = parse(L_flat, "SCDefinition", "statechart T { state A; state A; }")
    table = build_symbols(doc, L_flat)
    assert [(s.node.production, n) for s, n in table.duplicate_names()] \
        == [("SCDefinition", "A")]


def test_resolve_name_path(core, L_flat):
    table = build_symbols(core, L_flat)
    busy = resolve_path(table, ["Telephone", "Active", "Busy"], table.universe)
    assert busy.production == "State" and busy.name() == "Busy"


def test_resolve_fragment(core, L_flat, dL_flat):
    table = build_symbols(core, L_flat)
    frag = parse_fragment(L_flat, "Transition", "Active -> Idle",
                          relaxed_tail=True)
    hit = resolve_path(table, [frag], table.root)
    assert hit.slots["body"].slots["call"].slots["method"].text == "hangUp"


def test_resolve_fragment_ambiguous(L_flat):
    doc = parse(L_flat, "SCDefinition", "statechart T { A -> B; A -> B; }")
    table = build_symbols(doc, L_flat)
    frag = parse_fragment(L_flat, "Transition", "A -> B", relaxed_tail=True)
    from deltaforge.checker import ResolveError
    with pytest.raises(ResolveError) as err:
        resolve_path(table, [frag], table.root)
    assert err.value.code == "CC1"
    assert str(err.value) == "identifier matches 2 Transition elements"


# ---------------------------------------------------------------------------
# Slot lookup

def test_slot_of(L_flat):
    assert slot_of("SCDefinition", "State", L_flat) == ("elements", "many")
    assert slot_of("SCDefinition", "Transition", L_flat) == ("elements", "many")
    assert slot_of("Transition", "TransitionBody", L_flat) == ("body", "optional")
    assert slot_of("TransitionBody", "Guard", L_flat) == ("guard", "optional")


def test_slot_of_errors(L_flat):
    with pytest.raises(SlotError) as err:
        slot_of("Transition", "State", L_flat)
    assert err.value.kind == "NO_SLOT"
    with pytest.raises(SlotError) as err:
        slot_of("Transition", "Name", L_flat)
    assert err.value.kind == "AMBIGUOUS_SLOT"


# ---------------------------------------------------------------------------
# Context conditions

NEGATIVES = {
    "CC1": "delta D { modify state Active.Nope { set name X; } }",
    "CC2": "delta D { modify state Telephone { set name X; } }",
    "CC3": ("delta D { modify statechart Telephone {"
            " modify state [Idle -> Call].X { set name Y; } } }"),
    "CC4": ("delta D { modify statechart Telephone {"
            " modify transition [Idle -> Call] { add state Foo; } } }"),
    "CC5": "delta D { modify statechart Telephone { set state Idle; } }",
    "CC6": "delta D { modify statechart Telephone { add state Idle; } }",
    "CC7": "delta D { modify statechart Telephone { remove Nope; } }",
}


@pytest.mark.parametrize("code", sorted(NEGATIVES))
def test_negative_battery(core, L_flat, dL_flat, code):
    diags = _check(core, dL_flat, L_flat, NEGATIVES[code])
    assert _codes(diags) == [(code, "error")]


def test_case_study_delta_is_clean(core, voicemail, L_flat, dL_flat):
    assert check_delta(core, voicemail, L_flat, dL_flat) == []


def test_check_does_not_mutate(core, voicemail, after_voicemail, L_flat,
                               dL_flat):
    import copy
    before = copy.deepcopy(core)
    check_delta(core, voicemail, L_flat, dL_flat)
    assert node_eq(core, before)
    # along a chain: neither the core nor an intermediate model changes,
    # also when a delta fails after it has edited its working copy
    model = apply(core, voicemail, L_flat, dL_flat)
    snapshot = copy.deepcopy(model)
    for delta in after_voicemail:
        check_delta(model, delta, L_flat, dL_flat)
        assert node_eq(model, snapshot)
    assert node_eq(core, before)


def test_sequential_state_visible(core, L_flat, dL_flat):
    # the second operation sees the state added by the first
    text = ("delta D { modify statechart Telephone {"
            " add state Fresh; modify state Fresh { set name Renamed; } } }")
    assert _check(core, dL_flat, L_flat, text) == []
    # without the add, the same modify fails CC1
    text = ("delta D { modify statechart Telephone {"
            " modify state Fresh { set name Renamed; } } }")
    assert _codes(_check(core, dL_flat, L_flat, text)) == [("CC1", "error")]


def test_remove_then_remove_again(core, L_flat, dL_flat):
    text = ("delta D { modify statechart Telephone {"
            " remove Active.Busy; remove Active.Busy; } }")
    assert _codes(_check(core, dL_flat, L_flat, text)) == [("CC7", "error")]


def test_set_on_optional_slot(core, L_flat, dL_flat):
    # replacing the whole body of a transition through set
    text = ("delta D { modify statechart Telephone {"
            " modify transition [Active -> Idle] { set redial(); } } }")
    assert _check(core, dL_flat, L_flat, text) == []


def test_remove_optional_slot(core, L_flat, dL_flat):
    text = ("delta D { modify statechart Telephone {"
            " modify transition [Active -> Idle] { remove [hangUp()]; } } }")
    assert _check(core, dL_flat, L_flat, text) == []


def test_duplicate_core_names_warn(L_flat, dL_flat):
    doc = parse(L_flat, "SCDefinition", "statechart T { state A; state A; }")
    diags = _check(doc, dL_flat, L_flat, "delta D { }")
    assert _codes(diags) == [("CC1", "warning")]


def _walks(monkeypatch):
    """Per ``duplicate_names`` call from here on, how many times it
    called ``checker._children``, the step of its walk over the scopes."""
    calls, walks = [], []
    children, duplicate_names = checker._children, \
        checker.SymbolTable.duplicate_names

    def counting(node):
        calls.append(node)
        return children(node)

    def watching(self):
        before = len(calls)
        found = duplicate_names(self)
        walks.append(len(calls) - before)
        return found

    monkeypatch.setattr(checker, "_children", counting)
    monkeypatch.setattr(checker.SymbolTable, "duplicate_names", watching)
    return walks


def test_names_borne_twice_in_two_scopes_make_no_walk(L_flat, dL_flat,
                                                      monkeypatch):
    # X is borne in A and in B, once in each: the table counts the
    # (scope, name) pairs of two entries or more, so run_plan walks no
    # scope to report none
    doc = parse(L_flat, "SCDefinition",
                "statechart T { state A { state X; } state B { state X; } }")
    walks = _walks(monkeypatch)
    plan = [("d%d.delta" % i, parse(dL_flat, "Delta", text)) for i, text in
            enumerate(["delta D0 { modify statechart T { add state C; } }",
                       "delta D1 after D0 { modify statechart T {"
                       " modify state B { set name E; } } }"])]
    assert run_plan(doc, plan, L_flat, dL_flat) == []
    assert walks == [0, 0, 0]


def test_a_scope_that_leaves_takes_its_duplicates_along(L_flat, dL_flat):
    # the duplicate X of A is warned of before the first delta, which
    # removes A, and with it the pair
    doc = parse(L_flat, "SCDefinition",
                "statechart T { state A { state X; state X; } state B; }")
    plan = [("d%d.delta" % i, parse(dL_flat, "Delta", text)) for i, text in
            enumerate(["delta D0 { modify statechart T { remove A; } }",
                       "delta D1 after D0 { modify statechart T {"
                       " add state C; } }"])]
    diags = run_plan(doc, plan, L_flat, dL_flat)
    assert _codes(diags) == [("CC1", "warning")]


def test_a_duplicate_that_stays_is_walked_for_once(L_flat, dL_flat):
    # the table keeps the (scope, name) pairs of two entries or more, and
    # ten deltas that leave the one duplicate as it is warn of it no more
    doc = parse(L_flat, "SCDefinition", "statechart T { state A; state A; }")
    plan = [("d%d.delta" % i, parse(
        dL_flat, "Delta",
        "delta D%d { modify statechart T { add state S%d; } }" % (i, i)))
        for i in range(10)]
    diags = run_plan(doc, plan, L_flat, dL_flat)
    assert _codes(diags) == [("CC1", "warning")]


def test_rename_onto_a_sibling_is_cc6(core, L_flat, dL_flat):
    text = ("delta R { modify statechart Telephone {"
            " modify state Active.Call { set name Busy; } } }")
    assert _codes(_check(core, dL_flat, L_flat, text)) == [("CC6", "error")]
    work = copy.deepcopy(core)
    diags = Engine(work, L_flat, dL_flat).run(parse(dL_flat, "Delta", text))
    assert [d.code for d in diags] == ["CC6"]
    assert node_eq(work, core)
    # a name used in another scope, or the element's own name, is fine
    for name in ("Idle", "Call"):
        assert _check(core, dL_flat, L_flat, text.replace("Busy", name)) == []


def test_inline_remove_on_optional_slot_needs_the_same_element(
        core, L_flat, dL_flat):
    text = ("delta D { modify statechart Telephone {"
            " modify transition [Idle -> Call] { remove %s; } } }")
    mismatch = text % "[x] y()"
    assert _codes(_check(core, dL_flat, L_flat, mismatch)) \
        == [("CC7", "error")]
    work = copy.deepcopy(core)
    diags = Engine(work, L_flat, dL_flat).run(
        parse(dL_flat, "Delta", mismatch))
    assert [d.code for d in diags] == ["CC7"]
    assert node_eq(work, core)

    match = parse(dL_flat, "Delta", text % "[!isEngaged] numberDialed()")
    assert check_delta(core, match, L_flat, dL_flat) == []
    variant = apply(core, match, L_flat, dL_flat)
    (idle_call,) = [e for e in variant.slots["elements"]
                    if e.production == "Transition"
                    and e.slots["target"].text == "Call"]
    assert "body" not in idle_call.slots


# ---------------------------------------------------------------------------
# One diagnostic per branch

#: A language for the branches the statechart language does not reach:
#: a label that holds a name in one production (``Note``) and a node in
#: another (``Item``), a required slot that a path names (``p`` in item
#: ``a``, whose node opens no scope), and a list slot in a bracketed
#: identifier (``[tagged a b]``).
TAGS = ('grammar Tags { Doc = "doc" name:Name'
        ' "{" items:Item* notes:Note* marks:Tagged* "}";'
        ' Item = "item" name:Name owner:Owner ";"; Owner = "by" name:Name;'
        ' Note = "note" owner:Name ";"; Tagged = "tagged" tags:Name* ";"; }')
#: Its derived delta language, adapted by hand: a scope identifier that
#: names no production and one that names it by its keyword only, a path
#: that may be empty, an identifier of two nodes, operations outside any
#: ``modify``, an operand that is not add, set or remove, and operations
#: with a label but no value or a node as value, or with neither.
TAGS_EXTENDED = '''grammar ExtendedDeltaTags extends DeltaTags {
  ThingScope implements ScopeIdentifier = "thing";
  OwnerScope implements ScopeIdentifier = "Owner";
  ModelElementIdentifierPath =
    parts:ModelElementIdentifier ("." parts:ModelElementIdentifier)* | "@";
  PairIdentifier implements ModelElementIdentifier = "<" a:Owner b:Owner ">";
  DeltaRemoveOperation implements DeltaOperation, DeltaElement =
    DeltaRemove target:ModelElementIdentifierPath ";";
  TopOperation implements DeltaElement = DeltaOperand "top" Name ";";
  DeltaMove implements DeltaOperand = "move";
  BareOperation implements DeltaOperation = DeltaOperand ";";
  OwnerOperation implements DeltaOperation = DeltaOperand "owner" Owner ";";
  NoOwnerOperation implements DeltaOperation = DeltaOperand "owner" ";";
}'''
TAGS_CORE = "doc D { item a by p; note q; tagged a b; tagged a c; tagged a; }"


@pytest.fixture(scope="module")
def tags():
    grammar = parse_grammar(TAGS)
    flat = flatten([grammar], "Tags")
    delta_flat = flatten([parse_grammar(TAGS_EXTENDED),
                          derive(flat, "Tags").grammar,
                          pack.load_common_grammar(), grammar],
                         "ExtendedDeltaTags")
    return flat, delta_flat, parse(flat, "Doc", TAGS_CORE)


def _nested(blocks, op):
    """A delta with ``op`` in nested ``modify`` blocks, one line each:
    the first block is on line 2, the op on the line after the last."""
    lines = ["delta D {"]
    for depth, block in enumerate(blocks, 1):
        lines.append("  " * depth + block + " {")
    lines.append("  " * (len(blocks) + 1) + op)
    lines += ["  " * depth + "}" for depth in range(len(blocks), -1, -1)]
    return "\n".join(lines)


TRANSITION = ["modify statechart Telephone",
              "modify transition [Idle -> Call]"]
ITEM = ["modify Doc D", "modify Item a"]
#: Per branch: the language, the core (None: the language's own), the
#: ``modify`` blocks and the op in them, and the diagnostics, as (code,
#: message, line).
BRANCHES = {
    "remove-required-inline": ("statechart", None, TRANSITION,
                               "remove target Call;", [
        ("CC5", "remove cannot target required slot 'target'", 4)]),
    "no-such-slot": ("statechart", None, ["modify statechart Telephone",
                                          "modify state Idle"],
                     "set target Call;", [
        ("CC4", "scope State has no slot 'target'", 4)]),
    "ambiguous-name": ("statechart", "statechart T { state A; state A; }",
                       ["modify statechart T", "modify state A"],
                       "set name B;", [
        ("CC1", "duplicate element name 'A' in scope SCDefinition T; "
                "paths must disambiguate", 1),
        ("CC1", "name 'A' is ambiguous in its scope", 3)]),
    "add-to-a-single-slot": ("statechart", None, TRANSITION,
                             "add target Busy;", [
        ("CC5", "add needs a collection slot; 'target' holds a single "
                "element", 4)]),
    "slot-refuses-a-name": ("tags", None, ITEM, "set owner x;", [
        ("CC4", "slot 'owner' of Item does not accept this operand", 4)]),
    "slot-refuses-no-value": ("tags", None, ITEM, "set owner;", [
        ("CC4", "slot 'owner' of Item does not accept this operand", 4)]),
    "slot-takes-a-node": ("tags", None, ITEM, "set owner by z;", []),
    "no-operand": ("tags", None, ITEM, "set ;", [
        ("CC4", "operation carries no operand", 4)]),
    "unsupported-operand": ("tags", None, ["modify Doc D"],
                            "move item z by y;", [
        ("CC4", "unsupported delta operand", 3)]),
    "remove-required-path": ("tags", None, ITEM, "remove p;", [
        ("CC5", "cannot remove required slot 'owner'", 4)]),
    "remove-the-document": ("tags", None, [], "remove D;", [
        ("CC5", "cannot remove the document itself", 2)]),
    "outside-any-modify": ("tags", None, [], "set top x;", [
        ("CC4", "operation outside of a modify statement", 2)]),
    "unknown-scope-identifier": ("tags", None,
                                 ["modify Doc D", "modify thing a"], "", [
        ("CC2", "unknown scope identifier 'ThingScope'", 3)]),
    "scope-identifier-by-keyword": ("tags", None, ITEM + ["modify Owner p"],
                                    "", []),
    "empty-path": ("tags", None, ["modify Doc D", "modify Item @"], "", [
        ("CC3", "empty element path", 3)]),
    "identifier-of-two-nodes": ("tags", None, ["modify Doc D"],
                                "remove <by p by q>;", [
        ("CC4", "cannot decode model element identifier 'PairIdentifier'",
         3)]),
    # a list in a fragment must equal the candidate's, element by element;
    # an empty one matches any
    "list-fragment-equal": ("tags", None, ["modify Doc D"],
                            "remove [tagged a b];", []),
    "list-fragment-differs": ("tags", None, ["modify Doc D"],
                              "remove [tagged a d];", [
        ("CC7", "no Tagged matches the given identifier", 3)]),
    "list-fragment-longer": ("tags", None, ["modify Doc D"],
                             "remove [tagged a b c];", [
        ("CC7", "no Tagged matches the given identifier", 3)]),
    "list-fragment-empty": ("tags", None, ["modify Doc D"],
                            "remove [tagged];", [
        ("CC7", "identifier matches 3 Tagged elements", 3)]),
}


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_each_branch_reports_its_diagnostic(core, L_flat, dL_flat, tags,
                                            branch):
    language, core_text, blocks, op, expected = BRANCHES[branch]
    flat, delta_flat, model = (L_flat, dL_flat, core) \
        if language == "statechart" else tags
    if core_text is not None:
        model = parse(flat, "SCDefinition", core_text)
    delta = parse(delta_flat, "Delta", _nested(blocks, op))
    assert [(d.code, d.message, d.line) for d in
            check_delta(model, delta, flat, delta_flat)] == expected


# ---------------------------------------------------------------------------
# The operation paths of the engine, each pinned by message and place

#: A language with two list slots that both accept ``I``.
TWO_LISTS = ('grammar P { P = "p" name:Name "{" a:I* "|" b:I* "}";'
             ' I = "i" name:Name ";"; }')


@pytest.fixture(scope="module")
def two_lists():
    grammar = parse_grammar(TWO_LISTS)
    flat = flatten([grammar], "P")
    delta_flat = flatten([derive(flat, "P").grammar,
                          pack.load_common_grammar(), grammar], "DeltaP")
    return flat, delta_flat, parse(flat, "P", "p D { i A; | }")


#: Per operation: the language (the statechart, whose operations go in
#: ``modify statechart Telephone``, or that of two lists, whose go in
#: ``modify P D``), the operation, on line 3, and its one diagnostic, as
#: (code, message, line, column).
OPERATION_PATHS = {
    "set-into-a-list": ("statechart", "set state X;", (
        "CC5", "set needs a singular slot; 'elements' is a collection",
        3, 5)),
    "rename-onto-a-sibling": (
        "statechart", "modify state Active.Busy { set name Call; }", (
            "CC6", "another element of the scope is already named 'Call'",
            3, 32)),
    "add-an-existing-element": ("statechart", "add state Idle;", (
        "CC6", "element to add already exists", 3, 5)),
    "remove-a-missing-element": ("statechart", "remove state Nope;", (
        "CC7", "element to remove does not exist", 3, 5)),
    "path-through-a-non-scope": (
        "statechart", "modify transition [Idle -> Call].x { }", (
            "CC3", "path segment 1 resolves to a Transition, which is not "
                   "a scope", 3, 5)),
    "scope-identifier-of-another-production": (
        "statechart", "modify transition Idle { }", (
            "CC2", "scope identifier names Transition but the element is "
                   "a State", 3, 5)),
    "no-slot-accepts-the-operand": (
        "statechart", "modify transition [Active -> Idle] { add state Q; }", (
            "CC4", "no slot of Transition accepts State", 3, 42)),
    "two-slots-accept-the-operand": ("two lists", "add i Z;", (
        "CC4", "2 slots of P accept I (ambiguous slot)", 3, 5)),
}


@pytest.mark.parametrize("path", list(OPERATION_PATHS))
def test_each_operation_path_places_its_diagnostic(core, L_flat, dL_flat,
                                                   two_lists, path):
    language, op, expected = OPERATION_PATHS[path]
    flat, delta_flat, model = (L_flat, dL_flat, core) \
        if language == "statechart" else two_lists
    block = "modify statechart Telephone" if language == "statechart" \
        else "modify P D"
    delta = parse(delta_flat, "Delta", _nested([block], op))
    assert [(d.code, d.message, d.line, d.column) for d in
            check_delta(model, delta, flat, delta_flat)] == [expected]
