import pytest

from deltaforge.model import (
    BUILTIN_NAME,
    Grammar,
    GrammarError,
    Group,
    LeftRecursionError,
    NO_TERMINAL,
    NontermRef,
    Production,
    Sequence,
    Terminal,
    flatten,
    is_addressable_by_name,
    slot_plan,
)
from deltaforge.reader import parse_grammar


def _flat(text, root=None):
    g = parse_grammar(text)
    return flatten([g], root or g.name)


def test_slot_plan_cardinalities(L_flat):
    plan = L_flat.slot_plan("Transition")
    assert [(k, v.cardinality) for k, v in plan.items()] == [
        ("source", "one"), ("target", "one"), ("body", "optional")]
    assert plan["source"].targets == frozenset({BUILTIN_NAME})
    assert plan["body"].targets == frozenset({"TransitionBody"})

    plan = L_flat.slot_plan("SCDefinition")
    assert plan["elements"].cardinality == "many"
    assert plan["elements"].targets == frozenset({"Element"})


def test_slot_plan_alternative_optional():
    flat = _flat('grammar G { A = "a" (x:Name | "z"); }')
    # x appears in only one branch, so it is optional overall
    assert flat.slot_plan("A")["x"].cardinality == "optional"


def test_addressable_by_name(L_flat):
    assert is_addressable_by_name(L_flat.production("SCDefinition"))
    assert is_addressable_by_name(L_flat.production("State"))
    assert not is_addressable_by_name(L_flat.production("Transition"))
    assert not is_addressable_by_name(L_flat.production("Guard"))


def test_addressable_requires_every_branch():
    flat = _flat('grammar G { A = "a" (name:Name | "anon"); }')
    assert not is_addressable_by_name(flat.production("A"))


def test_last_terminals(L_flat):
    assert L_flat.last_terminal_map()["State"] == frozenset({"}", ";"})
    assert L_flat.last_terminal_map()["Transition"] == frozenset({";"})
    assert L_flat.last_terminal_map()["MethodCall"] == frozenset({")"})
    # a production ending in a bare identifier has no final terminal
    assert L_flat.last_terminal_map()["Guard"] == frozenset({"]"})


def test_last_terminals_name_tail():
    flat = _flat('grammar G { A = "kw" x:Name; }')
    assert flat.last_terminal_map()["A"] == frozenset({NO_TERMINAL})


def test_left_recursion_detected():
    with pytest.raises(LeftRecursionError) as err:
        _flat('grammar G { A = B "x"; B = A "y"; }')
    assert "A" in err.value.cycle and "B" in err.value.cycle


def test_left_recursion_through_nullable_prefix():
    with pytest.raises(LeftRecursionError):
        _flat('grammar G { A = "t"? A "x"; }')


def test_left_recursion_through_interface():
    with pytest.raises(LeftRecursionError):
        _flat('grammar G { interface I; A implements I = I "x"; }')


def test_flatten_child_wins():
    parent = parse_grammar('grammar P { A = "old"; }')
    child = parse_grammar('grammar C extends P { A = "new"; }')
    flat = flatten([child, parent], "C")
    assert flat.production("A").rhs == Terminal(text="new")


def test_flatten_unresolved_reference():
    with pytest.raises(GrammarError, match="unresolved"):
        _flat('grammar G { A = B; }')


def test_flatten_implements_must_be_interface():
    with pytest.raises(GrammarError, match="not an interface"):
        _flat('grammar G { B = "b"; A implements B = "a"; }')


def test_implementors_child_first(L_flat, dL_flat):
    assert L_flat.implementors["Element"] == ["Transition", "State"]
    ops = dL_flat.implementors["DeltaOperation"]
    # generated operations come before the common modify/remove forms
    assert ops.index("DeltaStateOperation") < ops.index("DeltaModify")
    assert "DeltaRemoveOperation" in ops
