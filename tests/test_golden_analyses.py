"""The grammar analyses must reproduce, fact for fact, what
``data/golden_analyses.json`` records: per grammar, its nullable
productions, its last-terminal map, its terminal literals and its
derived delta grammar (rendered, with provenance), or the text of the
``GrammarError`` that flattening or deriving raised.

The grammars are the statechart language, the 25 seeded grammars of
AC-5, hand-written ones that recurse on the left through a nullable
prefix, an interface or a cycle of interfaces, that have nullable
alternatives or end in a ``Name``, and, for each one that derives, the
flattened stack of its delta language.  The file was recorded with the
analyses that each had their own walker over rhs expressions.  Re-record
it only when an analysis is meant to change:

    PYTHONPATH=src python tests/test_golden_analyses.py
"""

import json
from pathlib import Path

import pytest

from deltaforge import pack
from deltaforge.derive import derive, render_grammar
from deltaforge.model import GrammarError, flatten
from deltaforge.reader import parse_grammar

from test_acceptance import _grammar_corpus

DATA = Path(__file__).parent / "data" / "golden_analyses.json"

HAND_WRITTEN = {
    "left-nullable-prefix": 'grammar G { A = "t"? A "x"; }',
    "left-nullable-production": 'grammar G { A = E A "x"; E = "e"?; }',
    "left-interface": 'grammar G { interface I; A implements I = I "x"; }',
    "left-nullable-interface":
        'grammar G { interface I; E implements I = "e"*; A = I A ";"; }',
    "left-interface-cycle":
        'grammar G { interface I; interface J; C = "c" A;'
        ' A implements I = J "x"; B implements J = "b" | I "y"; }',
    "left-mutual": 'grammar G { S = "s"; A = B; B = C "x"; C = "c" | A "y"; }',
    "nullable-alternatives":
        'grammar N { S = "s" a:A b:B "end"; A = "a"* | "b"?;'
        ' B = (x:Name | "c")?; D = A B; interface I; E implements I = D;'
        ' F = "f" I ";"?; G = "g" (A | "{" F* "}"); }',
    "name-tail":
        'grammar T { A = "kw" x:Name; B = "b" A; C = "c" (y:Name | "z");'
        ' D = "d" C? A?; }',
    "right-recursion":
        'grammar R { A = "a" A?; B = "b" (";" | "{" B* "}"); interface I;'
        ' C implements I = "c" I?; E implements I = "e" ";"; }',
}


def cases():
    """(id, grammars of the chain, root, derive it) of every recorded
    grammar."""
    common = pack.load_common_grammar()
    out = [("statechart", [pack.load_grammar("statechart.dg")])]
    out += [(g.name, [g]) for g in _grammar_corpus()]
    out += [(cid, [parse_grammar(text)]) for cid, text in HAND_WRITTEN.items()]
    stacks = []
    for cid, (g,) in out:
        try:
            derived = derive(flatten([g], g.name), g.name, common).grammar
        except GrammarError:
            continue
        stacks.append((cid + "+delta", [derived, common, g]))
    return [(cid, chain, chain[0].name, len(chain) == 1)
            for cid, chain in out + stacks]


def analyse(chain, root, with_derive):
    """The recorded facts of one grammar chain."""
    facts = {"grammar": render_grammar(chain[0]),
             "extends": [g.name for g in chain[1:]]}
    try:
        flat = flatten(chain, root)
    except GrammarError as exc:
        facts["error"] = "%s: %s" % (type(exc).__name__, exc)
        return facts
    facts["nullable"] = sorted(flat.nullable_set())
    facts["last"] = {n: sorted(ts)
                     for n, ts in sorted(flat.last_terminal_map().items())}
    facts["terminals"] = sorted(flat.terminal_literals())
    if with_derive:
        try:
            derived = derive(flat, root, pack.load_common_grammar())
        except GrammarError as exc:
            facts["derived"] = "%s: %s" % (type(exc).__name__, exc)
        else:
            facts["derived"] = render_grammar(derived.grammar)
            facts["provenance"] = [[e.production, e.rule, e.source]
                                   for e in derived.provenance]
    return facts


def record():
    return [dict(id=cid, **analyse(chain, root, with_derive))
            for cid, chain, root, with_derive in cases()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_inputs_are_the_recorded_ones(golden):
    assert [(g["id"], g["grammar"]) for g in golden] == \
        [(cid, render_grammar(chain[0])) for cid, chain, _, _ in cases()]
    errors = {g["id"]: g["error"] for g in golden if "error" in g}
    assert sorted(errors) == sorted(
        cid for cid in HAND_WRITTEN if cid.startswith("left-"))
    assert all(e.startswith("LeftRecursionError") for e in errors.values())
    assert sum("derived" in g for g in golden) == 29


def test_analyses_match(golden):
    for case, (cid, chain, root, with_derive) in zip(golden, cases()):
        assert dict(id=cid, **analyse(chain, root, with_derive)) == case, cid


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(), indent=1) + "\n")
