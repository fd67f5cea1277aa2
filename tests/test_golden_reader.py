"""The ``.dg`` reader must reproduce, byte for byte, what
``data/golden_reader.json`` records: the text of the
``GrammarSyntaxError`` each malformed grammar below raises, and the
``render_grammar`` text of each bundled grammar.

The cases up to ``duplicate`` were recorded with the reader that lexed a
grammar character by character; the rest, one or more for each error
site of the reader, with the reader that walked its token texts through
per-token helper methods; the two ``double-suffix-on-*`` cases with the
reader that reads one loop per level.  Re-record the file only when the
reader is meant to change:

    PYTHONPATH=src python tests/test_golden_reader.py
"""

import json
from pathlib import Path

import pytest

from deltaforge import pack
from deltaforge.derive import render_grammar
from deltaforge.reader import GrammarSyntaxError, parse_grammar

DATA = Path(__file__).parent / "data" / "golden_reader.json"

BUNDLED = ("delta-common.dg", "statechart.dg", "extended-delta-statechart.dg",
           "delta-statechart.golden.dg")

MALFORMED = {
    "bad-escape": 'grammar G { A = "a\\q"; }',
    "escape-before-newline": 'grammar G {\n  A = "a\\\n"; }',
    "escape-at-end": 'grammar G { A = "a\\',
    "bad-escape-then-newline": 'grammar G { A = "a\\q\nb"; }',
    "newline-in-literal": 'grammar G { A = "a\nb"; }',
    "literal-open-at-end": 'grammar G { A = "abc',
    "escaped-quote-open-at-end": 'grammar G { A = "a\\"',
    "unterminated-comment": 'grammar G {\n  A = "a"; /* never closed\n',
    "after-multiline-comment": 'grammar G {\n  /* a\n   b */ $ }',
    "after-inline-comment": 'grammar G { /* x */ A = ; }',
    "tab-and-crlf": 'grammar G {\r\n\tA = "a";\r\n\t\tB = ; }',
    "tab-and-crlf-lex": 'grammar G {\r\n\tA = "a";\r\n\t\t# }',
    "carriage-return-in-line": "grammar G {\r A = ; }",
    "empty-terminal": 'grammar G {\n  A = "x" "";\n}',
    "lex-error-wins": "grammar G { A = ; $ }",
    "eof-after-newline": 'grammar G { A = "a";\n',
    "eof-after-blanks": 'grammar G { A = "a";  ',
    "comment-marks-in-literals": 'grammar G { A = "//" "/*" "*/"; B = ; }',
    "escapes-then-error": 'grammar G { A = "a\\"b\\\\" = ; }',
    "carriage-return-in-literal": 'grammar G { A = "a\rb"; B = ; }',
    "non-ascii": 'grammar G { A = "a" é; }',
    "lone-slash": 'grammar G { A = "a" / ; }',
    "empty-text": "",
    "trailing-input": 'grammar G { A = "a"; } x',
    "missing-target": 'grammar G { A = x: ; }',
    "duplicate": 'grammar G {\n  A = "a";\n  A = "b";\n}',
    "missing-grammar": 'G { A = "a"; }',
    "grammar-without-name": 'grammar { A = "a"; }',
    "grammar-name-is-a-literal": 'grammar "G" { A = "a"; }',
    "extends-without-name": 'grammar G extends { A = "a"; }',
    "extends-trailing-comma": 'grammar G extends A, { A = "a"; }',
    "extends-at-end": 'grammar G extends',
    "missing-open-brace": 'grammar G A = "a"; }',
    "missing-open-brace-at-end": 'grammar G',
    "missing-equals": 'grammar G { A "a"; }',
    "implements-without-name": 'grammar G { A implements = "a"; }',
    "implements-trailing-comma": 'grammar G { A implements I, = "a"; }',
    "implements-missing-equals": 'grammar G { A implements I J = "a"; }',
    "production-name-is-a-literal": 'grammar G { "A" = "a"; }',
    "missing-semicolon": 'grammar G {\n  A = "a"\n  B = "b";\n}',
    "missing-semicolon-before-brace": 'grammar G { A = "a" }',
    "missing-semicolon-at-end": 'grammar G { A = "a"',
    "double-suffix": 'grammar G { A = "a"*?; }',
    "missing-close-paren": 'grammar G { A = ("a" | b:B ; }',
    "missing-close-paren-at-end": 'grammar G { A = (("a")',
    "nested-error-in-group": 'grammar G { A = ("a" (b | ) c); }',
    "empty-group": 'grammar G { A = (); }',
    "interface-without-name": 'grammar G { interface ; }',
    "interface-name-is-a-literal": 'grammar G { interface "I"; }',
    "interface-without-semicolon": 'grammar G { interface I A = "a"; }',
    "interface-at-end": 'grammar G { interface',
    "dangling-suffix": 'grammar G { A = * ; }',
    "dangling-suffix-after-bar": 'grammar G { A = "a" | + "b"; }',
    "dangling-suffix-in-group": 'grammar G { A = ( ? ); }',
    "nothing-after-bar": 'grammar G { A = "a" | ; }',
    "nothing-after-equals-at-end": 'grammar G { A =',
    "item-is-punctuation": 'grammar G { A = "a" { ; }',
    "label-on-literal": 'grammar G { A = x:"a"; }',
    "label-at-end": 'grammar G { A = x:',
    "production-named-Name": 'grammar G {\n  A = "a";\n  Name = "n";\n}',
    "interface-named-Name": 'grammar G { interface Name; }',
    "Name-twice": 'grammar G { Name = "a"; Name = "b"; }',
    "duplicate-interface": 'grammar G { interface I; A = "a"; interface I; }',
    "interface-then-same-name": 'grammar G { interface I; I = "i"; }',
    "escape-then-error-in-group": 'grammar G { A = ("a\\\\" "\\"" ; }',
    # one cardinality suffix per item, on a group as on a leaf
    "double-suffix-on-group": 'grammar G { A = ("a")+*; }',
    "double-suffix-on-sequence": 'grammar G { A = ("a" "b")*?; }',
}


def record():
    errors = {}
    for key, text in MALFORMED.items():
        try:
            parse_grammar(text, "bad.dg")
        except GrammarSyntaxError as exc:
            errors[key] = str(exc)
        else:
            raise AssertionError("%s reads without an error" % key)
    rendered = {name: render_grammar(parse_grammar(pack.load_builtin(name),
                                                   name))
                for name in BUNDLED}
    return {"errors": errors, "rendered": rendered}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(MALFORMED))
def test_reader_errors_match_the_record(golden, key):
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar(MALFORMED[key], "bad.dg")
    assert str(err.value) == golden["errors"][key]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_grammars_render_as_recorded(golden, name):
    grammar = parse_grammar(pack.load_builtin(name), name)
    assert render_grammar(grammar) == golden["rendered"][name]


if __name__ == "__main__":
    DATA.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
