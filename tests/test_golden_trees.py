"""The parser must reproduce, node for node, the trees and failure texts
recorded in ``data/golden_trees.json``.

The file was recorded with the parser that kept every result per memo
entry (before results were collapsed to one per end position), over the
bundled models and deltas, seeded deltas full of ``set name`` blocks
(each parses both as a statechart and as a state rename), and truncated
inputs.  The mutated inputs (one token of those texts dropped,
duplicated, swapped with the next, or the text cut after it) were
recorded with the parser that descended into every production, before it
predicted from the next two tokens; they pin the "expected one of" lists
of hundreds of failures.  Re-record the file only when the tree shape or
a failure text is meant to change:

    PYTHONPATH=src python tests/test_golden_trees.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from deltaforge import pack, parse, parse_fragment
from deltaforge.model import flatten
from deltaforge.parsing import LexError, ParseFailure, tokenize

from test_acceptance import _random_statechart

DATA = Path(__file__).parent / "data" / "golden_trees.json"


def dump(node):
    """Everything a node records: production, captured text, terminals,
    span and slots, children in slot order."""
    out = {"production": node.production, "span": list(node.span)}
    if node.text is not None:
        out["text"] = node.text
    else:
        out["terminals"] = list(node.terminals)
        out["slots"] = [[key, [dump(v) for v in val]
                         if isinstance(val, list) else dump(val)]
                        for key, val in node.slots.items()]
    return out


# ---------------------------------------------------------------------------
# Inputs

def _path(rng, states):
    return ".".join(rng.choice(states)) if states else "S0"


def _operation(rng, states, i, depth=0):
    """One operation of a ``modify statechart`` body; renames dominate."""
    kind = rng.choice(["rename"] * 4 + [
        "add", "add_block", "add_transition", "remove", "remove_transition",
        "retarget", "nested", "doc_rename", "body"])
    name = "N%d" % i
    if kind == "rename":
        return "modify state %s { set name %s; }" % (_path(rng, states), name)
    if kind == "add":
        return "add %sstate %s;" % ("initial " if rng.random() < 0.3 else "",
                                     name)
    if kind == "add_block":
        return "add state %s { state %s_in; %s_in -> %s_in : [!g] m(); }" \
            % (name, name, name, name)
    if kind == "add_transition":
        return "add %s -> %s : m%d();" % (name, name, i)
    if kind == "remove":
        return "remove %s;" % _path(rng, states)
    if kind == "remove_transition":
        return "remove [A%d -> B%d];" % (i, i)
    if kind == "retarget":
        return "modify transition [A -> B] { set target %s; }" % name
    if kind == "body":
        return "modify transition [A -> B] { set [c] m(); remove [m()]; }"
    if kind == "doc_rename":
        return "set name %s;" % name
    if depth < 2:
        inner = " ".join(_operation(rng, states, i * 10 + k, depth + 1)
                         for k in range(rng.randint(1, 3)))
        return "modify state %s { %s }" % (_path(rng, states), inner)
    return "modify state %s { set name %s; }" % (_path(rng, states), name)


def _states(text):
    """Dotted paths of the states declared in generated core text."""
    paths, stack = [], []
    for line in text.splitlines():
        words = line.split()
        if "state" in words:
            name = words[words.index("state") + 1].rstrip(";")
            depth = (len(line) - len(line.lstrip())) // 2 - 1
            del stack[depth:]
            paths.append(tuple(stack) + (name,))
            if line.rstrip().endswith("{"):
                stack.append(name)
    return paths


def rename_delta(seed):
    """A seeded delta over a seeded core with at least ten renames."""
    rng = random.Random(seed)
    core = _random_statechart(rng, seed)
    states = _states(core)
    ops = []
    while sum(op.count("set name") for op in ops) < 10 or len(ops) < 16:
        ops.append(_operation(rng, states, len(ops)))
    after = " after A && !(B || C)" if seed % 3 == 0 else ""
    return core, "delta D%d%s {\n  modify statechart M%d {\n    %s\n  }\n}\n" \
        % (seed, after, seed, "\n    ".join(ops))


def cases():
    """(id, language, start, text, relaxed) of every recorded input."""
    out = [("telephone.sc", "L", "SCDefinition",
            pack.load_builtin("telephone.sc"), False),
           ("telephone-voicemail.sc", "L", "SCDefinition",
            pack.load_builtin("telephone-voicemail.sc"), False),
           ("voicemail.delta", "dL", "Delta",
            pack.load_builtin("voicemail.delta"), False),
           ("fragment-transition", "L", "Transition", "Idle -> Call", True),
           ("fragment-guarded", "L", "Transition",
            "A -> B : [!c] m()", True)]
    for seed in range(10):
        core, delta = rename_delta(seed)
        out.append(("core-%d" % seed, "L", "SCDefinition", core, False))
        out.append(("delta-%d" % seed, "dL", "Delta", delta, False))
    return out


def truncations():
    """(id, language, start, text) of inputs cut short or garbled."""
    voicemail = pack.load_builtin("voicemail.delta")
    telephone = pack.load_builtin("telephone.sc")
    _, delta = rename_delta(3)
    out = []
    for frac in (0.2, 0.45, 0.7, 0.95):
        out.append(("voicemail-%d" % int(frac * 100), "dL", "Delta",
                    voicemail[:int(len(voicemail) * frac)]))
        out.append(("delta-3-%d" % int(frac * 100), "dL", "Delta",
                    delta[:int(len(delta) * frac)]))
        out.append(("telephone-%d" % int(frac * 100), "L", "SCDefinition",
                    telephone[:int(len(telephone) * frac)]))
    out += [
        ("empty", "dL", "Delta", ""),
        ("missing-semicolon", "L", "SCDefinition",
         "statechart T { state A state B; }"),
        ("stray-word", "dL", "Delta",
         "delta D { modify statechart T { set name X; bogus } }"),
        ("bad-constraint", "dL", "Delta", "delta D after A && { }"),
        ("trailing", "L", "SCDefinition", "statechart T {} trailing"),
    ]
    return out


OPERANDS = ("add", "set", "remove")


def _text(tokens):
    """Token texts joined by blanks, a line per source line."""
    lines = {}
    for tok in tokens:
        lines.setdefault(tok.line, []).append(tok.text)
    return "\n".join(" ".join(words) for words in lines.values())


def _mutate(tokens, kind, i):
    toks = list(tokens)
    if kind == "drop":
        del toks[i]
    elif kind == "dup":
        toks.insert(i, toks[i])
    elif kind == "swap":
        toks[i], toks[i + 1] = toks[i + 1], toks[i]
    else:                          # "cut": the text ends after token i
        del toks[i + 1:]
    return _text(toks)


def mutations():
    """(id, language, start, text, relaxed) of one-token mutations of every
    recorded input: at three random tokens, and in deltas also at and after
    three operands (a cut there ends the text one token after the
    operand, as in ``modify state A { set``)."""
    out = []
    for cid, lang, start, text, relaxed in cases():
        toks = tokenize(text)
        rng = random.Random("mutations-" + cid)
        spots = rng.sample(range(len(toks) - 1), min(3, len(toks) - 1))
        operands = [i for i, t in enumerate(toks[:-2]) if t.text in OPERANDS]
        spots += [j for i in rng.sample(operands, min(3, len(operands)))
                  for j in (i, i + 1)]
        for i in spots:
            for kind in ("drop", "dup", "swap", "cut"):
                out.append(("%s-%s-%d" % (cid, kind, i), lang, start,
                            _mutate(toks, kind, i), relaxed))
    return out


# ---------------------------------------------------------------------------
# Recording and checking

@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def _flats(L_flat, dL_flat):
    return {"L": L_flat, "dL": dL_flat}


def _parse(flat, start, text, relaxed):
    if relaxed:
        return parse_fragment(flat, start, text, relaxed_tail=True)
    return parse(flat, start, text)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(flat, start, text, relaxed):
    """The failure text, or a digest of the whole tree."""
    try:
        tree = _parse(flat, start, text, relaxed)
    except (LexError, ParseFailure) as exc:
        return {"error": str(exc)}
    return {"tree_sha256": _digest(json.dumps(dump(tree),
                                              separators=(",", ":")))}


def record(L_flat, dL_flat):
    flats = _flats(L_flat, dL_flat)
    trees = [{"id": cid, "language": lang, "start": start, "text": text,
              "relaxed": relaxed,
              "tree": dump(_parse(flats[lang], start, text, relaxed))}
             for cid, lang, start, text, relaxed in cases()]
    failures = []
    for cid, lang, start, text in truncations():
        try:
            parse(flats[lang], start, text)
        except (LexError, ParseFailure) as exc:
            failures.append({"id": cid, "language": lang, "start": start,
                             "text": text, "error": str(exc)})
        else:
            raise AssertionError("%s parses" % cid)
    mutated = [dict({"id": cid, "text_sha256": _digest(text)},
                    **_outcome(flats[lang], start, text, relaxed))
               for cid, lang, start, text, relaxed in mutations()]
    return {"trees": trees, "failures": failures, "mutations": mutated}


def test_inputs_are_the_recorded_ones(golden):
    assert [(t["id"], t["text"]) for t in golden["trees"]] == \
        [(c[0], c[3]) for c in cases()]
    assert [(f["id"], f["text"]) for f in golden["failures"]] == \
        [(c[0], c[3]) for c in truncations()]
    assert [(m["id"], m["text_sha256"]) for m in golden["mutations"]] == \
        [(c[0], _digest(c[3])) for c in mutations()]
    renames = [t["text"].count("set name") for t in golden["trees"]
               if t["id"].startswith("delta-")]
    assert len(renames) == 10 and min(renames) >= 10


def test_trees_match(golden, L_flat, dL_flat):
    flats = _flats(L_flat, dL_flat)
    for case in golden["trees"]:
        tree = _parse(flats[case["language"]], case["start"], case["text"],
                      case["relaxed"])
        assert dump(tree) == case["tree"], case["id"]


def test_failures_match(golden, L_flat, dL_flat):
    flats = _flats(L_flat, dL_flat)
    for case in golden["failures"]:
        with pytest.raises((LexError, ParseFailure)) as err:
            parse(flats[case["language"]], case["start"], case["text"])
        assert str(err.value) == case["error"], case["id"]


def test_mutations_match(golden, L_flat, dL_flat):
    flats = _flats(L_flat, dL_flat)
    for (cid, lang, start, text, relaxed), case in zip(mutations(),
                                                       golden["mutations"]):
        got = _outcome(flats[lang], start, text, relaxed)
        assert got == {k: case[k] for k in ("error", "tree_sha256")
                       if k in case}, cid


if __name__ == "__main__":
    from deltaforge.derive import derive

    L = pack.load_grammar("statechart.dg")
    L_flat = flatten([L], "Statechart")
    dL_flat = flatten([pack.load_grammar("extended-delta-statechart.dg"),
                       derive(L_flat, "Statechart").grammar,
                       pack.load_common_grammar(), L],
                      "ExtendedDeltaStatechart")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(L_flat, dL_flat), separators=(",", ":"))
                    + "\n")
