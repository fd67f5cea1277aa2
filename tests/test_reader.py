import pytest

from deltaforge.model import (
    Alternative,
    Group,
    NontermRef,
    Sequence,
    Terminal,
)
from deltaforge.reader import GrammarSyntaxError, parse_grammar


def test_basic_grammar():
    g = parse_grammar('grammar G extends A, B { X = "x" y:Name; }')
    assert g.name == "G"
    assert g.extends == ("A", "B")
    (p,) = g.productions
    assert p.name == "X"
    assert p.rhs == Sequence(items=(
        Terminal(text="x"), NontermRef(target="Name", label="y")))


def test_interface_and_implements():
    g = parse_grammar(
        'grammar G { interface I; A implements I, J = "a"; }')
    assert g.productions[0].kind == "interface"
    assert g.productions[1].implements == ("I", "J")


def test_alternatives_groups_cardinalities():
    g = parse_grammar('grammar G { A = ("x" | y:Name)* "end" Name?; }')
    rhs = g.productions[0].rhs
    assert isinstance(rhs, Sequence)
    star, end, opt = rhs.items
    assert isinstance(star, Group) and star.cardinality == "star"
    assert isinstance(star.inner, Alternative)
    assert end == Terminal(text="end")
    assert opt == Group(inner=NontermRef(target="Name"), cardinality="optional")


def test_string_escapes_and_comments():
    g = parse_grammar(
        'grammar G { /* block */ A = "a\\"b" "c\\\\d"; // line\n }')
    rhs = g.productions[0].rhs
    assert rhs == Sequence(items=(Terminal(text='a"b'), Terminal(text="c\\d")))


def test_parens_without_suffix_flatten():
    a = parse_grammar('grammar G { A = ("x") y:Name; }')
    b = parse_grammar('grammar G { A = "x" y:Name; }')
    assert a.productions[0].rhs == b.productions[0].rhs


def test_error_duplicate_production():
    with pytest.raises(GrammarSyntaxError, match="duplicate"):
        parse_grammar('grammar G { A = "a"; A = "b"; }')


def test_error_reserved_builtin_name():
    with pytest.raises(GrammarSyntaxError, match="Name"):
        parse_grammar('grammar G { Name = "n"; }')


def test_error_dangling_suffix():
    with pytest.raises(GrammarSyntaxError, match="cardinality suffix"):
        parse_grammar('grammar G { A = * "x"; }')


def test_error_positions():
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar('grammar G {\n  A = ;\n}', origin="bad.dg")
    assert err.value.origin == "bad.dg"
    assert err.value.line == 2


def test_end_of_input_is_the_end_of_the_text():
    # also after a trailing line comment that no newline ends
    with pytest.raises(GrammarSyntaxError) as err:
        parse_grammar("grammar G { // c", "bad.dg")
    assert str(err.value) == "bad.dg:1:17: expected production name"


def test_bundled_grammars_parse():
    from deltaforge import pack
    for asset in ("delta-common.dg", "statechart.dg",
                  "extended-delta-statechart.dg",
                  "delta-statechart.golden.dg"):
        g = parse_grammar(pack.load_builtin(asset), asset)
        assert g.productions


def _nested(depth):
    return 'grammar G { A = %s"a"%s; }' % ("(" * depth, ")" * depth)


def test_a_grammar_nested_too_deeply_is_a_syntax_error():
    with pytest.raises(GrammarSyntaxError, match="nests too deeply") as err:
        parse_grammar(_nested(1000), "deep.dg")
    assert err.value.origin == "deep.dg" and err.value.line == 1
    # the position is that of a token the reader stopped on, an open group
    assert _nested(1000)[err.value.column - 1] == "("


def test_a_grammar_nested_two_hundred_deep_still_reads():
    (p,) = parse_grammar(_nested(200)).productions
    assert p.rhs == Terminal(text="a")
