import copy
import itertools

import pytest

from deltaforge import applier, flatten, node_eq, parse, parse_grammar
from deltaforge.applier import (
    DeltaApplyError,
    apply,
    apply_all,
    pretty_print,
    validate_order,
)
from deltaforge.pack import load_builtin


def _delta(dL_flat, text):
    return parse(dL_flat, "Delta", text)


# ---------------------------------------------------------------------------
# Application-order constraints

def test_validate_order_without_constraint(dL_flat, voicemail):
    a = _delta(dL_flat, "delta A { }")
    assert validate_order([voicemail]) == []
    assert validate_order([a, voicemail]) == []
    assert validate_order([voicemail, a]) == []


# each formula as Python, over the set of the deltas applied before
FORMULAS = {
    "A && !B || C": lambda pre: "A" in pre and "B" not in pre or "C" in pre,
    "!(A || B)": lambda pre: not ("A" in pre or "B" in pre),
}


@pytest.mark.parametrize("formula", list(FORMULAS), ids=["and-or", "not-or"])
def test_validate_order_follows_the_formula(dL_flat, formula):
    plain = {name: _delta(dL_flat, "delta %s { }" % name) for name in "ABC"}
    d = _delta(dL_flat, "delta D after %s { }" % formula)
    for k in range(4):
        for before in itertools.combinations("ABC", k):
            plan = [plain[name] for name in before] + [d]
            errors = [x.message for x in validate_order(plan)
                      if x.severity == "error"]
            expected = [] if FORMULAS[formula](set(before)) else [
                "application-order constraint of delta 'D' is not "
                "satisfied at position %d" % (k + 1)]
            assert errors == expected, before


def test_validate_order_warns_once_per_unknown_name(dL_flat):
    a = _delta(dL_flat, "delta A { }")
    d = _delta(dL_flat, "delta D after Zed && (A || !Zed) || Ghost && A { }")
    warnings = [x.message for x in validate_order([a, d])
                if x.severity == "warning"]
    assert warnings == [
        "constraint of delta 'D' mentions %r, which is not part of the plan"
        % name for name in ("Ghost", "Zed")]


def test_validate_order_pass_and_fail(dL_flat):
    a = _delta(dL_flat, "delta A { }")
    b = _delta(dL_flat, "delta B after A { }")
    assert validate_order([a, b]) == []
    diags = validate_order([b, a])
    assert [(d.code, d.severity) for d in diags] == [("AOC", "error")]


def test_validate_order_unknown_name_warns(dL_flat):
    d = _delta(dL_flat, "delta D after Ghost { }")
    diags = validate_order([d])
    assert {(x.code, x.severity) for x in diags} \
        == {("AOC", "warning"), ("AOC", "error")}


def test_validate_order_exhaustive_three(dL_flat):
    a = _delta(dL_flat, "delta A { }")
    b = _delta(dL_flat, "delta B after A { }")
    c = _delta(dL_flat, "delta C after A && !B { }")
    constraints = {"A": lambda pre: True,
                   "B": lambda pre: "A" in pre,
                   "C": lambda pre: "A" in pre and "B" not in pre}
    for plan in itertools.permutations([a, b, c]):
        names = [d.name() for d in plan]
        expected = sum(
            not constraints[n](set(names[:i])) for i, n in enumerate(names))
        errors = [d for d in validate_order(list(plan)) if d.severity == "error"]
        assert len(errors) == expected, names


# ---------------------------------------------------------------------------
# Application

def test_apply_case_study(core, voicemail, L_flat, dL_flat, expected_variant):
    variant = apply(core, voicemail, L_flat, dL_flat)
    assert node_eq(variant, expected_variant, {"elements"})


def test_apply_does_not_mutate_core(core, voicemail, after_voicemail, L_flat,
                                    dL_flat):
    snapshot = copy.deepcopy(core)
    apply(core, voicemail, L_flat, dL_flat)
    assert node_eq(core, snapshot)
    # a chain folds over one copy; its input and the intermediate models
    # stay as they were, also when a delta fails half way
    second, failing = after_voicemail
    variant = apply_all(core, [voicemail, second], L_flat, dL_flat)
    assert node_eq(core, snapshot)
    model = apply(core, voicemail, L_flat, dL_flat)
    before = copy.deepcopy(model)
    assert node_eq(apply(model, second, L_flat, dL_flat), variant)
    with pytest.raises(DeltaApplyError):
        apply(model, failing, L_flat, dL_flat)
    assert node_eq(model, before)
    assert node_eq(core, snapshot)


def test_apply_empty_delta_is_identity(core, L_flat, dL_flat):
    variant = apply(core, _delta(dL_flat, "delta Nop { }"), L_flat, dL_flat)
    assert node_eq(variant, core)


def test_apply_failure_raises_with_recoded_diagnostics(core, L_flat, dL_flat):
    bad = _delta(dL_flat,
                 "delta Bad { modify statechart Telephone { remove Nope; } }")
    with pytest.raises(DeltaApplyError) as err:
        apply(core, bad, L_flat, dL_flat)
    (diag,) = err.value.diagnostics
    assert diag.code == "APPLY"
    assert "CC7" in diag.message


def test_apply_all_folds_in_order(core, L_flat, dL_flat):
    first = _delta(dL_flat,
                   "delta First { modify statechart Telephone {"
                   " add state Extra; } }")
    second = _delta(dL_flat,
                    "delta Second after First { modify statechart Telephone {"
                    " modify state Extra { set name Final; } } }")
    variant = apply_all(core, [first, second], L_flat, dL_flat)
    names = [e.name() for e in variant.slots["elements"]
             if e.production == "State"]
    assert "Final" in names and "Extra" not in names
    with pytest.raises(DeltaApplyError):
        apply_all(core, [second, first], L_flat, dL_flat)


def test_rename_rewrites_references(core, L_flat, dL_flat):
    delta = _delta(dL_flat,
                   "delta R { modify statechart Telephone {"
                   " modify state Active.Busy { set name Voicemail; } } }")
    variant = apply(core, delta, L_flat, dL_flat)
    targets = [t.slots["target"].text for t in variant.slots["elements"]
               if t.production == "Transition"]
    assert "Busy" not in targets and "Voicemail" in targets
    # guard conditions are not state references and stay untouched
    guards = [t.slots["body"].slots["guard"].slots["condition"].text
              for t in variant.slots["elements"]
              if t.production == "Transition" and "body" in t.slots
              and "guard" in t.slots["body"].slots]
    assert guards == ["isEngaged", "isEngaged"]


def test_remove_body_then_print(core, L_flat, dL_flat):
    delta = _delta(dL_flat,
                   "delta R { modify statechart Telephone {"
                   " modify transition [Active -> Idle] {"
                   " remove [hangUp()]; } } }")
    variant = apply(core, delta, L_flat, dL_flat)
    text = pretty_print(L_flat, variant)
    assert "Active -> Idle;" in text
    assert "hangUp" not in text


def test_changed_block_keeps_its_keywords(core, L_flat, dL_flat):
    # a state whose block changes keeps "initial" exactly when it had it,
    # and a block that empties out is printed as one
    delta = _delta(dL_flat,
                   "delta K { modify statechart Telephone {"
                   " modify state Active { add state Held; }"
                   " remove state Idle; add initial state Idle { state In; }"
                   " modify state Idle { remove state In; } } }")
    text = pretty_print(L_flat, apply(core, delta, L_flat, dL_flat))
    assert "  state Active {\n    state Busy;\n    state Call;\n" \
        "    state Held;\n  }\n" in text
    assert "  initial state Idle {\n  }\n" in text


# ---------------------------------------------------------------------------
# Pretty-printing

def test_pretty_print_core(core, L_flat):
    text = pretty_print(L_flat, core)
    assert text == """statechart Telephone {
  initial state Idle;
  state Active {
    state Busy;
    state Call;
  }
  Idle -> Call : [!isEngaged] numberDialed();
  Idle -> Busy : [isEngaged] numberDialed();
  Active -> Idle : hangUp();
}
"""


def test_pretty_print_round_trips(core, expected_variant, L_flat):
    for tree in (core, expected_variant):
        again = parse(L_flat, "SCDefinition", pretty_print(L_flat, tree))
        assert node_eq(tree, again)


def test_pretty_print_delta_round_trips(voicemail, dL_flat):
    text = pretty_print(dL_flat, voicemail)
    again = parse(dL_flat, "Delta", text)
    assert node_eq(voicemail, again)


def test_a_closing_brace_after_a_name_starts_its_own_line():
    grammar = parse_grammar(
        'grammar T { Tags = "tags" name:Name "{" items:Name* "}"; }')
    flat = flatten([grammar], grammar.name)
    tree = parse(flat, "Tags", "tags A { x y }")
    text = pretty_print(flat, tree)
    assert text == "tags A {\n  x y\n}\n"
    assert node_eq(parse(flat, "Tags", text), tree)


def _replays(L_grammar, monkeypatch, k):
    """The replays made in printing a statechart whose k composite states
    hold blocks of 1 to k states, with a grammar not printed with
    before."""
    flat = flatten([L_grammar], "Statechart")
    tree = parse(flat, "SCDefinition", "statechart T { %s }" % " ".join(
        "state C%d { %s }" % (i, " ".join("state S%d_%d;" % (i, j)
                                          for j in range(i)))
        for i in range(1, k + 1)))
    calls = []
    original = applier.replay

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(applier, "replay", counted)
    pretty_print(flat, tree)
    monkeypatch.undo()
    return len(calls)


def test_a_print_replays_once_per_shape_class(L_grammar, monkeypatch):
    # the chart, a composite state and a leaf state: blocks of any length
    # are one class
    assert _replays(L_grammar, monkeypatch, 4) == \
        _replays(L_grammar, monkeypatch, 40) == 3


def test_unbalanced_braces_keep_their_lines():
    # a "}" before any "{" takes the depth below zero, which indents as
    # zero, and the "{" after it brings the depth back to zero
    grammar = parse_grammar(
        'grammar U { P = "p" "}" x:Name "{" y:Name ";" z:Name; }')
    flat = flatten([grammar], grammar.name)
    tree = parse(flat, "P", "p } X { Y ; Z")
    assert pretty_print(flat, tree) == "p\n}\nX {\nY;\nZ\n"


def test_tight_glue_and_a_semicolon_before_a_brace(dL_flat):
    tree = _delta(dL_flat,
                  "delta D after !(A || B) && C { modify statechart X; {"
                  " add state Y; remove [ A -> B ];"
                  " modify transition [A -> B : [!g] m()] {"
                  " set target C; } } }")
    assert pretty_print(dL_flat, tree) == """delta D after !(A || B) && C {
  modify statechart X; {
    add state Y;
    remove [A -> B];
    modify transition [A -> B : [!g] m()] {
      set target C;
    }
  }
}
"""
