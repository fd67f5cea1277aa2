import json

import pytest

from deltaforge import parsing
from deltaforge.model import flatten
from deltaforge.parsing import (
    DEFAULT_PUNCTUATION,
    LexError,
    ParseFailure,
    name_leaf,
    node_eq,
    parse,
    parse_fragment,
    to_json,
    tokenize,
)
from deltaforge.reader import parse_grammar


def _flat(text):
    g = parse_grammar(text)
    return flatten([g], g.name)


def test_tokenize_maximal_munch():
    toks = tokenize("a->b;!x&&y")
    assert [t.text for t in toks] == ["a", "->", "b", ";", "!", "x", "&&", "y"]
    assert toks[0].kind == "identifier"
    assert toks[1].kind == "punctuation"


def test_tokenize_positions_and_comments():
    toks = tokenize("a // c\n/* d\n*/ b")
    assert [(t.text, t.line) for t in toks] == [("a", 1), ("b", 3)]


def test_tokenize_illegal_character():
    with pytest.raises(LexError) as err:
        tokenize("a\n  b $ c")
    assert (err.value.line, err.value.column) == (2, 5)
    assert err.value.detail == "illegal character '$'"


def _where(text, punctuation=DEFAULT_PUNCTUATION):
    return [(t.kind, t.text, t.line, t.column)
            for t in tokenize(text, punctuation)]


def test_tokenize_position_after_multiline_comment():
    assert _where("a /* x\n yz\n  */ b c") == [
        ("identifier", "a", 1, 1), ("identifier", "b", 3, 6),
        ("identifier", "c", 3, 8)]
    assert _where("a /* x */ b") == [
        ("identifier", "a", 1, 1), ("identifier", "b", 1, 11)]


def test_tokenize_tabs_and_crlf():
    # a tab is one column; "\r" is layout, "\n" starts the next line
    assert _where("\ta;\r\n\t\tb ->c\r\n") == [
        ("identifier", "a", 1, 2), ("punctuation", ";", 1, 3),
        ("identifier", "b", 2, 3), ("punctuation", "->", 2, 5),
        ("identifier", "c", 2, 7)]


def test_tokenize_grammar_added_punctuation():
    extra = DEFAULT_PUNCTUATION | {"<=", "<", "=", "==", "#"}
    assert [t.text for t in tokenize("a<=b==c<d#", extra)] == \
        ["a", "<=", "b", "==", "c", "<", "d", "#"]
    # identifier-shaped literals are keywords, never punctuation
    assert _where("x1", DEFAULT_PUNCTUATION | {"x1"}) == [
        ("identifier", "x1", 1, 1)]
    with pytest.raises(LexError):
        tokenize("a<=b")


def test_tokenize_unterminated_comment():
    with pytest.raises(LexError) as err:
        tokenize("a\n b /* never closed\n")
    assert (err.value.line, err.value.column) == (2, 4)
    assert err.value.detail == "unterminated comment"
    # a line comment runs to the end of the line only
    assert _where("a // b\nc") == [
        ("identifier", "a", 1, 1), ("identifier", "c", 2, 1)]


def test_parse_simple_document(L_flat):
    node = parse(L_flat, "SCDefinition", "statechart T {}")
    assert node.production == "SCDefinition"
    assert node.name() == "T"
    assert node.slots.get("elements", []) == []


def test_parse_slots_and_terminals(L_flat):
    node = parse(L_flat, "SCDefinition",
                 "statechart T { initial state A; state B { state C; } }")
    a, b = node.slots["elements"]
    assert a.production == "State" and a.name() == "A"
    assert "initial" in a.terminals
    assert "initial" not in b.terminals
    assert [s.name() for s in b.slots["elements"]] == ["C"]


def test_parse_transition_alternatives(L_flat):
    node = parse(L_flat, "SCDefinition",
                 "statechart T { A -> B; A -> C : [!g] m(); }")
    bare, guarded = node.slots["elements"]
    assert "body" not in bare.slots
    body = guarded.slots["body"]
    assert body.slots["guard"].slots["condition"].text == "g"
    assert "!" in body.slots["guard"].terminals
    assert body.slots["call"].slots["method"].text == "m"


def test_contextual_keywords_not_reserved(L_flat):
    # "state" is fine as a state name: keywords stay contextual
    node = parse(L_flat, "SCDefinition", "statechart state { state initial; }")
    assert node.name() == "state"
    assert node.slots["elements"][0].name() == "initial"


def test_full_consumption_required(L_flat):
    with pytest.raises(ParseFailure):
        parse(L_flat, "SCDefinition", "statechart T {} trailing")


def test_farthest_failure_reporting(L_flat):
    with pytest.raises(ParseFailure) as err:
        parse(L_flat, "SCDefinition", "statechart T { state A state B; }")
    # failure points into the unfinished first state, not at the document start
    assert err.value.line == 1
    assert err.value.column > 16
    assert err.value.expected


def test_fragment_relaxed_tail(L_flat):
    # trailing ";" (and the whole body alternative) may be omitted
    frag = parse_fragment(L_flat, "Transition", "Idle -> Call",
                          relaxed_tail=True)
    assert frag.slots["source"].text == "Idle"
    assert frag.slots["target"].text == "Call"
    with pytest.raises(ParseFailure):
        parse_fragment(L_flat, "Transition", "Idle -> Call")


def test_ordered_choice_prefers_first_branch():
    # both branches accept "a x y"; the first one must win
    flat = _flat('grammar G { A = "a" ("x" y:Name | z:Name w:Name); }')
    node = parse(flat, "A", "a x y")
    assert node.slots["y"].text == "y"
    assert "z" not in node.slots


def test_ordered_choice_falls_through_on_failure():
    flat = _flat('grammar G { A = "a" ("x" y:Name | z:Name); }')
    node = parse(flat, "A", "a q")
    assert node.slots["z"].text == "q"


def test_greedy_repetition_with_backtracking():
    # star must give back one element so the final "x" can match
    flat = _flat('grammar G { A = xs:Name* "end" last:Name; }')
    node = parse(flat, "A", "p q end r")
    assert [n.text for n in node.slots["xs"]] == ["p", "q"]
    assert node.slots["last"].text == "r"


def test_node_eq_basics(L_flat):
    a = parse(L_flat, "SCDefinition", "statechart T { state A; state B; }")
    b = parse(L_flat, "SCDefinition", "statechart  T {\n state A;\n state B;\n}")
    c = parse(L_flat, "SCDefinition", "statechart T { state B; state A; }")
    assert node_eq(a, b)
    assert not node_eq(a, c)
    assert node_eq(a, c, {"elements"})


def test_node_eq_sees_terminals(L_flat):
    a = parse(L_flat, "SCDefinition", "statechart T { state A; }")
    b = parse(L_flat, "SCDefinition", "statechart T { initial state A; }")
    assert not node_eq(a, b)


def test_name_leaf_equality():
    assert node_eq(name_leaf("x"), name_leaf("x"))
    assert not node_eq(name_leaf("x"), name_leaf("y"))


def test_to_json_stable(L_flat):
    node = parse(L_flat, "SCDefinition", "statechart T { state A; }")
    data = json.loads(to_json(node))
    assert data["production"] == "SCDefinition"
    keys = [k for k, _ in data["slots"]]
    assert keys == sorted(keys)
    assert to_json(node) == to_json(
        parse(L_flat, "SCDefinition", "statechart T { state A; }"))


def _tree_nodes(node):
    """Nodes the parser built (identifier leaves are not built)."""
    if node.production == "Name":
        return 0
    return 1 + sum(_tree_nodes(c) for v in node.slots.values()
                   for c in (v if isinstance(v, list) else [v]))


def test_rename_blocks_do_not_multiply_parses(dL_flat, monkeypatch):
    # "set name Y;" parses both as a statechart and as a state rename; one
    # result per end position keeps k such blocks from making 2^k trees
    built = []
    original = parsing._Parser._build

    def counting(self, *args):
        built.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(parsing._Parser, "_build", counting)
    body = " ".join("modify state S%d { set name R%d; }" % (i, i)
                    for i in range(24))
    tree = parse(dL_flat, "Delta",
                 "delta R { modify statechart T { %s } }" % body)
    assert len(tree.slots["elements"][0].slots["DeltaOperation"]) == 24
    assert len(built) <= 2 * _tree_nodes(tree)


def test_long_block_parses(L_flat):
    states = " ".join("state S%d;" % i for i in range(5000))
    node = parse(L_flat, "SCDefinition", "statechart T { %s }" % states)
    assert len(node.slots["elements"]) == 5000


def test_deep_nesting_is_a_parse_failure(L_flat):
    depth = 500
    text = "statechart T {\n%s  state Leaf;\n%s}\n" % (
        "".join("  state N%d {\n" % i for i in range(depth)), "}\n" * depth)
    with pytest.raises(ParseFailure) as err:
        parse(L_flat, "SCDefinition", text)
    assert "nests too deeply" in err.value.detail
    assert err.value.line > 1
