import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaforge import pack
from deltaforge.derive import render_grammar
from deltaforge.model import (
    Alternative,
    Grammar,
    Group,
    NontermRef,
    Production,
    Sequence,
    Terminal,
)
from deltaforge.reader import MAX_DEPTH, GrammarSyntaxError, parse_grammar

from test_acceptance import _grammar_corpus
from test_golden_analyses import HAND_WRITTEN


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


def test_groups_nest_up_to_max_depth_and_no_deeper():
    assert parse_grammar(_nested(MAX_DEPTH)).productions
    text = _nested(MAX_DEPTH + 1)
    with pytest.raises(GrammarSyntaxError, match="nests too deeply") as err:
        parse_grammar(text)
    # the error is at the first open group too many, the innermost
    assert err.value.column == text.index('"a"')


# ---------------------------------------------------------------------------
# Rendering a grammar and reading the text gives the same grammar

def _reread(grammar):
    return parse_grammar(render_grammar(grammar), grammar.source)


def test_rendered_grammars_read_back_equal():
    bundled = [pack.load_grammar(name) for name in (
        "delta-common.dg", "statechart.dg", "extended-delta-statechart.dg",
        "delta-statechart.golden.dg")]
    hand_written = [parse_grammar(text) for text in HAND_WRITTEN.values()]
    for g in bundled + _grammar_corpus() + hand_written:
        assert _reread(g) == g


# Rhs expressions in the shapes the reader builds: a sequence holds no
# sequence or alternative, an alternative holds no alternative, and a
# group without a suffix holds a sequence or an alternative.
names = st.sampled_from(["A", "b2", "_c", "Name", "interface", "grammar"])
leaf_exprs = st.one_of(
    st.builds(Terminal, st.text(st.sampled_from('a "\\;(|)*/'),
                                min_size=1, max_size=4)),
    st.builds(NontermRef, names, st.none() | names))


def _compounds(items):
    sequences = st.lists(items, min_size=2, max_size=4).map(
        lambda xs: Sequence(tuple(xs)))
    alternatives = st.lists(items | sequences, min_size=2, max_size=3).map(
        lambda xs: Alternative(tuple(xs)))
    return sequences | alternatives


def _groups(items):
    compounds = _compounds(items)
    return st.builds(Group, items | compounds,
                     st.sampled_from(["optional", "star", "plus"])) | \
        st.builds(Group, compounds, st.just("one"))


items = st.recursive(leaf_exprs, lambda inner: inner | _groups(inner),
                     max_leaves=12)
rhs = items | _compounds(items)


@settings(max_examples=60, deadline=None)
@given(st.lists(rhs, min_size=1, max_size=3), st.booleans())
def test_generated_grammars_read_back_equal(rhss, with_interface):
    productions = [Production("P%d" % i, "concrete",
                              ("I", "J")[:i] if with_interface else (), r)
                   for i, r in enumerate(rhss)]
    if with_interface:
        productions.insert(0, Production("I", "interface"))
    g = Grammar("G", ("Base", "Other"), tuple(productions), "g.dg")
    assert _reread(g) == g
