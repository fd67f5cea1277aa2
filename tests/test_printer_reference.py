"""``pretty_print`` must print what a plain printer prints, byte for
byte.  The plain printer is kept here as the reference: it replays every
node on its full shape, caches nothing, and lays the atoms out in a
second pass that builds each line as a string.  ``pretty_print``
replays one node per shape class and lays each atom out as its walk
meets it."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltaforge import flatten, pack, parse, parse_grammar
from deltaforge.applier import pretty_print
from deltaforge.model import BUILTIN_NAME, GrammarError
from deltaforge.parsing import replay

from test_golden_trees import rename_delta
from test_roundtrip import statecharts


def _render(flat, root):
    """Atoms of the tree, in order, by a loop over an explicit stack of
    atoms and nodes still to render, so nesting depth costs no
    recursion."""
    atoms = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            atoms.append(node)
            continue
        if node.production == BUILTIN_NAME:
            atoms.append(node.text)
            continue
        shape = (node.production, node.terminals) + tuple(
            (key, len(val)) if isinstance(val, list) else key
            for key, val in node.slots.items())
        template = replay(flat, shape, recorded=True)
        if template is None:
            raise GrammarError("cannot render %s node against its "
                               "production" % node.production)
        for item in reversed(template):
            if not isinstance(item, str):
                key, i = item
                item = node.slots[key]
                if isinstance(item, list):
                    item = item[i]
            stack.append(item)
    return atoms


_NO_SPACE_BEFORE = frozenset({";", ",", ".", "(", ")", "]"})
_NO_SPACE_AFTER = ("(", "[", ".", "!")


def reference_print(flat, node):
    """The text of the tree: its atoms laid out in lines, each line built
    as a string."""
    atoms = _render(flat, node)
    lines = []
    cur = ""
    indent = 0
    for i, atom in enumerate(atoms):
        if atom == "}":
            if cur:
                lines.append(cur)
            cur = ""
            indent -= 1
        if not cur:
            cur = "  " * indent + atom
        elif atom in _NO_SPACE_BEFORE or cur.endswith(_NO_SPACE_AFTER):
            cur += atom
        else:
            cur += " " + atom
        if atom == "{" or atom == "}" or \
                atom == ";" and atoms[i + 1:i + 2] != ["{"]:
            lines.append(cur)
            cur = ""
        if atom == "{":
            indent += 1
    if cur:
        lines.append(cur)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(statecharts)
def test_statecharts_print_as_the_reference_prints_them(L_flat, text):
    tree = parse(L_flat, "SCDefinition", text)
    assert pretty_print(L_flat, tree) == reference_print(L_flat, tree)


DELTAS = [pack.load_builtin("voicemail.delta")] + \
    [rename_delta(seed)[1] for seed in range(10)]


@settings(max_examples=len(DELTAS), deadline=None)
@given(st.sampled_from(DELTAS))
def test_deltas_print_as_the_reference_prints_them(dL_flat, text):
    tree = parse(dL_flat, "Delta", text)
    assert pretty_print(dL_flat, tree) == reference_print(dL_flat, tree)


#: Grammars with lists in groups, each with a start and a text.
LISTS = [
    # the values of ``x`` come from several runs of the outer group, so
    # the way of one value does not stand for them all
    ('grammar N { P = "p" ("{" x:Name+ "}")*; }', "P", "p { a b } { c }"),
    ('grammar N { P = "p" ("{" x:Name* "}")*; }', "P", "p { a b } { c }"),
    ('grammar N { P = "p" (x:Name*)+ ";"; }', "P", "p a b c ;"),
    # one run reads them all, beside a list that is not alone
    ('grammar N { P = "p" x:Name* ("," y:Name)* ";"; }', "P",
     "p a b , c , d ;"),
]


@pytest.mark.parametrize("grammar, start, text", LISTS)
def test_lists_print_as_the_reference_prints_them(grammar, start, text):
    g = parse_grammar(grammar)
    flat = flatten([g], g.name)
    tree = parse(flat, start, text)
    for _ in range(2):        # with the templates cached, and again
        assert pretty_print(flat, tree) == reference_print(flat, tree)


#: One atom per ``Item`` node, so a text prints its atoms in its order.
ATOMS = parse_grammar(
    'grammar Atoms { S = "s" items:Item*; Item = x:Name | "{" | "}" | ";"'
    ' | "(" | ")" | "[" | "]" | "." | "," | "!" | "->"; }')
TOKENS = ["{", "}", ";", "(", ")", "[", "]", ".", ",", "!", "->", "a", "b"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=24), st.data())
def test_any_atoms_are_laid_out_as_the_reference_lays_them_out(tokens, data):
    # braces unbalanced either way, ";" before "{" or not, glue of every
    # kind, and names emptied by hand, which the layout also reads
    flat = flatten([ATOMS], ATOMS.name)
    tree = parse(flat, "S", " ".join(["s"] + tokens))
    for item in tree.slots["items"]:
        if "x" in item.slots and data.draw(st.booleans()):
            item.slots["x"].text = ""
    assert pretty_print(flat, tree) == reference_print(flat, tree)
