"""Printing a parsed statechart and parsing the text again gives the same
tree, over generated statecharts with long blocks and deep nesting."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltaforge import flatten, node_eq, parse, parsing
from deltaforge.applier import pretty_print

from test_golden_trees import dump
from test_parsing import admitting_all

# keywords are contextual, so they are fine as names too
names = st.sampled_from(["A", "b2", "_c", "state", "initial", "Idle",
                         "statechart", "x_y_z"])

transitions = st.builds(
    lambda src, dst, body: "%s -> %s%s;" % (src, dst, body),
    names, names,
    st.one_of(st.just(""),
              st.builds(lambda guard, method: " : %s%s()" % (guard, method),
                        st.one_of(st.just(""),
                                  names.map("[%s] ".__mod__),
                                  names.map("[!%s] ".__mod__)),
                        names)))


def _state(initial, name, body):
    head = "%sstate %s" % ("initial " if initial else "", name)
    return head + (";" if body is None else " {\n%s\n}" % "\n".join(body))


leaf_states = st.builds(_state, st.booleans(), names, st.none())

elements = st.recursive(
    st.one_of(leaf_states, transitions),
    lambda inner: st.builds(_state, st.booleans(), names,
                            st.lists(inner, max_size=6)),
    max_leaves=40)

statecharts = st.builds(
    lambda name, body, filler: "statechart %s {\n%s\n}" % (
        name, "\n".join(body + ["state F%d;" % i for i in range(filler)])),
    names, st.lists(elements, max_size=12), st.integers(0, 400))


@pytest.fixture(scope="module")
def L_full(L_grammar):
    """The statechart language with token sets that admit every token:
    read with predictions of one token, no prediction, and direct descent
    decides only between terminals."""
    return admitting_all(flatten([L_grammar], "Statechart"))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(statecharts)
def test_print_then_parse_gives_the_same_tree(L_flat, L_full, text):
    tree = parse(L_flat, "SCDefinition", text)
    again = parse(L_flat, "SCDefinition", pretty_print(L_flat, tree))
    assert node_eq(again, tree)
    # the same tree, spans and slot order included, without token sets
    with pytest.MonkeyPatch.context() as m:
        m.setattr(parsing, "_DEPTH", 1)
        assert dump(parse(L_full, "SCDefinition", text)) == dump(tree)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 60), st.integers(0, 30))
def test_deep_chains_round_trip(L_flat, depth, width):
    text = "statechart T {\n%s%s%s}" % (
        "state N {\n" * depth,
        "".join("state W%d;\n" % i for i in range(width)), "}\n" * depth)
    tree = parse(L_flat, "SCDefinition", text)
    assert node_eq(parse(L_flat, "SCDefinition", pretty_print(L_flat, tree)),
                   tree)
