"""``parsing.replay`` must give, for every shape recorded in
``data/golden_ways.json``, the way recorded there: the list of terminal
texts and ``(slot key, index)`` references, or None where the shape has
no way.

The shapes are those of every node of the bundled core, variant and
delta, of the seeded deltas and the list and atom grammars of
``test_printer_reference``.  Per node there are the printer's shape
(``parsing.shape``), the full one (every list by its length, as the
reference printer replays it), and some that no node has: without its
terminals, without its last one, with one more value in a list, and
without a slot of one value.  Each is replayed with and without
``recorded``.

The file was recorded with the replay that compiled each rule into
closures over a matcher's leaves.  Re-record it only when a way is
meant to change:

    PYTHONPATH=src python tests/test_golden_ways.py
"""

import json
from pathlib import Path

import pytest

from deltaforge import flatten, pack, parse, parse_grammar
from deltaforge.model import BUILTIN_NAME
from deltaforge.parsing import replay, shape

from test_printer_reference import ATOMS, DELTAS, LISTS, TOKENS

DATA = Path(__file__).parent / "data" / "golden_ways.json"


def trees(L_flat, dL_flat):
    """(language, flat grammar, tree) of every text."""
    out = [("L", L_flat, parse(L_flat, "SCDefinition",
                               pack.load_builtin(name)))
           for name in ("telephone.sc", "telephone-voicemail.sc")]
    out += [("dL", dL_flat, parse(dL_flat, "Delta", text))
            for text in DELTAS]
    for i, (grammar, start, text) in enumerate(LISTS):
        g = parse_grammar(grammar)
        flat = flatten([g], g.name)
        out.append(("lists%d" % i, flat, parse(flat, start, text)))
    atoms = flatten([ATOMS], ATOMS.name)
    out.append(("atoms", atoms, parse(atoms, "S", " ".join(["s"] + TOKENS))))
    return out


def _nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if node.production == BUILTIN_NAME:
            continue
        yield node
        for val in reversed(list(node.slots.values())):
            stack += reversed(val) if isinstance(val, list) else [val]


def shapes(flat, node):
    """The shapes of a node, and some that no node has."""
    full = (node.production, node.terminals) + tuple(
        (key, len(val)) if isinstance(val, list) else key
        for key, val in node.slots.items())
    out = [shape(flat, node), full, full[:1] + ((),) + full[2:]]
    if node.terminals:
        out.append(full[:1] + (node.terminals[:-1],) + full[2:])
    for j, slot in enumerate(full[2:], 2):
        if type(slot) is tuple:
            out.append(full[:j] + ((slot[0], slot[1] + 1),) + full[j + 1:])
        else:
            out.append(full[:j] + full[j + 1:])
    return out


def cases(L_flat, dL_flat):
    """(language, flat grammar, shape) of each shape, each once."""
    out = {}
    for lang, flat, tree in trees(L_flat, dL_flat):
        for node in _nodes(tree):
            for s in shapes(flat, node):
                out.setdefault((lang, s), flat)
    return [(lang, flat, s) for (lang, s), flat in out.items()]


def _jsonable(value):
    """Tuples as lists, all the way down."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _shape(value):
    """A shape read back from JSON: lists as tuples."""
    production, terminals, *slots = value
    return (production, tuple(terminals)) + tuple(
        s if type(s) is str else tuple(s) for s in slots)


def record(L_flat, dL_flat):
    return [{"language": lang, "shape": _jsonable(s), "recorded": recorded,
             "way": _jsonable(replay(flat, s, recorded))}
            for lang, flat, s in cases(L_flat, dL_flat)
            for recorded in (True, False)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_shapes_are_the_recorded_ones(golden, L_flat, dL_flat):
    assert [(c["language"], _shape(c["shape"])) for c in golden[::2]] == \
        [(lang, s) for lang, _, s in cases(L_flat, dL_flat)]
    # shapes with a way and without, recorded or not, of every grammar
    assert {(c["recorded"], c["way"] is None) for c in golden} == \
        {(True, True), (True, False), (False, True), (False, False)}
    assert len({c["language"] for c in golden}) == 2 + len(LISTS) + 1


def test_replay_gives_the_recorded_ways(golden, L_flat, dL_flat):
    flats = {lang: flat for lang, flat, _ in trees(L_flat, dL_flat)}
    for case in golden:
        s = _shape(case["shape"])
        got = _jsonable(replay(flats[case["language"]], s, case["recorded"]))
        assert got == case["way"], (case["language"], s, case["recorded"])


if __name__ == "__main__":
    from deltaforge.derive import derive

    L = pack.load_grammar("statechart.dg")
    L_flat = flatten([L], "Statechart")
    dL_flat = flatten([pack.load_grammar("extended-delta-statechart.dg"),
                       derive(L_flat, "Statechart").grammar,
                       pack.load_common_grammar(), L],
                      "ExtendedDeltaStatechart")
    # one case per line
    DATA.write_text("[\n%s\n]\n" % ",\n".join(
        json.dumps(case, separators=(",", ":"))
        for case in record(L_flat, dL_flat)))
