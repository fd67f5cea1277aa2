import copy

import pytest

from deltaforge import node_eq, parse
from deltaforge.applier import apply
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
    assert err.value.code == "CC1" and err.value.ambiguous


# ---------------------------------------------------------------------------
# Slot lookup

def test_slot_of(L_flat):
    assert slot_of("SCDefinition", "State", L_flat) == ("elements", "many")
    assert slot_of("SCDefinition", "Transition", L_flat) == ("elements", "many")
    assert slot_of("Transition", "TransitionBody", L_flat) == ("body", "optional")
    assert slot_of("TransitionBody", "Guard", L_flat) == ("guard", "optional")
    assert slot_of("Transition", "Name", L_flat, label="source") \
        == ("source", "one")


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


def test_rename_onto_a_sibling_is_cc6(core, L_flat, dL_flat):
    text = ("delta R { modify statechart Telephone {"
            " modify state Active.Call { set name Busy; } } }")
    assert _codes(_check(core, dL_flat, L_flat, text)) == [("CC6", "error")]
    work = copy.deepcopy(core)
    _, diags = Engine(work, parse(dL_flat, "Delta", text), L_flat,
                      dL_flat).run()
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
    _, diags = Engine(work, parse(dL_flat, "Delta", mismatch), L_flat,
                      dL_flat).run()
    assert [d.code for d in diags] == ["CC7"]
    assert node_eq(work, core)

    match = parse(dL_flat, "Delta", text % "[!isEngaged] numberDialed()")
    assert check_delta(core, match, L_flat, dL_flat) == []
    variant = apply(core, match, L_flat, dL_flat)
    (idle_call,) = [e for e in variant.slots["elements"]
                    if e.production == "Transition"
                    and e.slots["target"].text == "Call"]
    assert "body" not in idle_call.slots
