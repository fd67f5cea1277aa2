"""Trees nested far deeper than the interpreter's recursion limit go
through the symbol table, checking, application, copying, comparison,
JSON and printing: every walk over a model tree is a loop.  The chain is
built node by node, since the parser caps nesting well below this."""

import copy
import json
import sys

from deltaforge import node_eq, parse
from deltaforge.applier import apply, pretty_print
from deltaforge.checker import build_symbols, check_delta
from deltaforge.parsing import Node, name_leaf, to_json, to_jsonable

DEPTH = 3000


def _chain(depth):
    """``statechart Deep { state L0 { state L1 { … state Ln; … } } }``,
    with ``Ln -> Ln;`` beside the deepest state."""
    bottom = Node("State", {"name": name_leaf("L%d" % (depth - 1)),
                            "elements": []}, ("state", ";"))
    loop = Node("Transition", {"source": name_leaf(bottom.name()),
                               "target": name_leaf(bottom.name())},
                ("->", ";"))
    inner = [bottom, loop]
    for level in reversed(range(depth - 1)):
        state = Node("State", {"name": name_leaf("L%d" % level),
                               "elements": inner}, ("state", "{", "}"))
        inner = [state]
    return Node("SCDefinition", {"name": name_leaf("Deep"),
                                 "elements": inner}, ("statechart", "{", "}"))


def test_a_deep_chain_is_checked_applied_and_printed(L_flat, dL_flat):
    assert DEPTH > sys.getrecursionlimit()
    core = _chain(DEPTH)
    table = build_symbols(core, L_flat)
    assert table.duplicate_names() == []
    # a path is a flat list of segments: its length costs no recursion
    path = ".".join("L%d" % i for i in range(DEPTH))
    delta = parse(dL_flat, "Delta", "delta D { modify statechart Deep {"
                  " modify state %s { add state New; }"
                  " modify state %s { set name Bottom; } } }"
                  % (path.rsplit(".", 1)[0], path))
    assert check_delta(core, delta, L_flat, dL_flat) == []
    variant = apply(core, delta, L_flat, dL_flat)

    assert node_eq(copy.deepcopy(core), core)
    assert not node_eq(variant, core)
    deepest = variant
    for _ in range(DEPTH - 1):
        deepest = deepest.slots["elements"][0]
    bottom, loop, new = deepest.slots["elements"]
    assert (bottom.name(), new.name()) == ("Bottom", "New")
    assert loop.slots["source"].text == loop.slots["target"].text == "Bottom"

    text = pretty_print(L_flat, variant)
    assert text.count("{") == DEPTH
    assert "  " * DEPTH + "Bottom -> Bottom;" in text
    data = to_jsonable(variant)
    for _ in range(DEPTH):
        data = data["slots"][0][1][0]           # elements, first
    assert data["slots"][1] == ["name", {"production": "Name",
                                         "text": "Bottom"}]


def test_json_text_of_a_chain_deeper_than_the_limit():
    # indentation makes the text grow with the square of the depth, so
    # the chain stays short and the limit goes down for the call; json
    # itself needs a higher one
    core = _chain(300)
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(5000)
        expected = json.dumps(to_jsonable(core), indent=2)
        sys.setrecursionlimit(200)
        text = to_json(core)
    finally:
        sys.setrecursionlimit(limit)
    assert text == expected
