"""Relaxed-tail parsing and the printing of what it reads must reproduce,
byte for byte, the trees, failure texts and printed texts recorded in
``data/golden_relaxed.json``.

Every input is parsed with ``parse_fragment(..., relaxed_tail=True)``
and cut after each of its tokens:

- every bracketed element identifier (``[Idle -> Call]``) of
  ``voicemail.delta`` and of the seeded deltas of ``test_golden_trees``,
  whole against its identifier production, and its inner text against
  the production it names;
- one full sentence of each concrete statechart production;
- sentences of three small grammars whose tails are a nested
  alternative, an optional group holding a sequence with a ``;``, and a
  ``*`` group before a ``;``, used directly and through an identifier.

The file was recorded with the parser and printer that ran relaxed tails
as a mode of their matchers.  Re-record it only when a relaxed tree, a
failure text or a printed text is meant to change:

    PYTHONPATH=src python tests/test_golden_relaxed.py
"""

import json
from pathlib import Path

import pytest

from deltaforge import pack, parse, parse_fragment
from deltaforge.applier import pretty_print
from deltaforge.model import GrammarError, flatten
from deltaforge.parsing import ParseFailure, tokenize
from deltaforge.reader import parse_grammar

from test_golden_trees import dump, rename_delta

DATA = Path(__file__).parent / "data" / "golden_relaxed.json"

#: One full sentence per concrete production of the statechart language.
STATECHART = {
    "SCDefinition": "statechart T { initial state A; state B { A -> B; } "
                    "A -> B : [!g] m(); }",
    "State": "initial state A { state B; B -> A : m(); }",
    "Transition": "A -> B : [!g] m();",
    "TransitionBody": "[!g] m()",
    "Guard": "[!g]",
    "MethodCall": "m()",
}

_IDENTIFIED = ('interface ModelElementIdentifier;'
               ' PIdentifier implements ModelElementIdentifier = "[" P "]";'
               ' Use = "use" PIdentifier ";";')

#: Grammars whose tails a relaxed parse may leave out in several ways,
#: with sentences of their ``P`` and ``Use`` productions.
GRAMMARS = {
    "nested": ('grammar Nested { P = "p" x:Name ("a" (y:Name | "b" z:Name'
               ' ";") | "c" ";"); %s }' % _IDENTIFIED,
               ["p x a y", "p x a b z ;", "p x c ;", "use [ p x a b z ; ] ;",
                "use [ p x c ; ] ;"]),
    "optional": ('grammar Optional { P = "p" x:Name (":" y:Name ";")?; %s }'
                 % _IDENTIFIED,
                 ["p x : y ;", "use [ p x : y ; ] ;"]),
    "star": ('grammar Star { P = "p" x:Name ("," xs:Name)* ";"; %s }'
             % _IDENTIFIED,
             ["p x , y , z ;", "use [ p x , y ; ] ;"]),
}


def _flats(L_flat, dL_flat):
    flats = {"L": L_flat, "dL": dL_flat}
    for lang, (text, _) in GRAMMARS.items():
        grammar = parse_grammar(text)
        flats[lang] = flatten([grammar], grammar.name)
    return flats


def _bracketed(flat, tree):
    """(production, text) of each bracketed identifier in the tree, and
    of the element it names."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        p = flat.production(node.production) \
            if node.production != "Name" else None
        if p is not None and "ModelElementIdentifier" in p.implements \
                and node.terminals[:1] == ("[",):
            (inner,) = node.slots.values()
            for n in (node, inner):
                texts = [t.text for t in tree.tokens[n.span[0]:n.span[1]]]
                out.append(("dL" if n is node else "L", n.production,
                            " ".join(texts)))
        for val in node.slots.values():
            stack += val if isinstance(val, list) else [val]
    return out


def inputs(dL_flat):
    """(language, start, text) of every whole input, each once."""
    deltas = [pack.load_builtin("voicemail.delta")]
    deltas += [rename_delta(seed)[1] for seed in range(10)]
    out = []
    for text in deltas:
        out += _bracketed(dL_flat, parse(dL_flat, "Delta", text))
    out += [("L", start, text) for start, text in STATECHART.items()]
    for lang, (_, sentences) in GRAMMARS.items():
        out += [(lang, "Use" if text.startswith("use ") else "P", text)
                for text in sentences]
    return list(dict.fromkeys(out))


def cases(dL_flat):
    """(language, start, text) of each input cut after each token."""
    out = []
    for lang, start, text in inputs(dL_flat):
        texts = [t.text for t in tokenize(text)]
        out += [(lang, start, " ".join(texts[:i]))
                for i in range(1, len(texts) + 1)]
    return out


def outcome(flat, start, text):
    """The tree and its printed text, or the failure text."""
    try:
        tree = parse_fragment(flat, start, text, relaxed_tail=True)
    except ParseFailure as exc:
        return {"error": str(exc)}
    try:
        printed = pretty_print(flat, tree)
    except GrammarError as exc:
        printed = "GrammarError: %s" % exc
    return {"tree": dump(tree), "printed": printed}


def record(L_flat, dL_flat):
    flats = _flats(L_flat, dL_flat)
    return [dict({"language": lang, "start": start, "text": text},
                 **outcome(flats[lang], start, text))
            for lang, start, text in cases(dL_flat)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_inputs_are_the_recorded_ones(golden, L_flat, dL_flat):
    assert sorted(STATECHART) == sorted(L_flat.concrete_names())
    assert [(c["language"], c["start"], c["text"]) for c in golden] == \
        cases(dL_flat)
    # each source of input is there: identifiers of both kinds, whole
    # and inner, trees and failures
    starts = {c["start"] for c in golden}
    assert {"TransitionIdentifier", "TransitionBodyIdentifier", "Transition",
            "TransitionBody", "Use", "P"} <= starts
    assert all(any(k in c for c in golden) for k in ("tree", "error"))


def test_relaxed_outcomes_match(golden, L_flat, dL_flat):
    flats = _flats(L_flat, dL_flat)
    for case in golden:
        got = outcome(flats[case["language"]], case["start"], case["text"])
        want = {k: case[k] for k in ("tree", "printed", "error") if k in case}
        assert got == want, (case["language"], case["start"], case["text"])


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
