import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaforge.model import (
    BUILTIN_NAME,
    Alternative,
    Grammar,
    GrammarError,
    Group,
    LeftRecursionError,
    NO_TERMINAL,
    NontermRef,
    Production,
    Sequence,
    Terminal,
    flatten,
    is_addressable_by_name,
    leaves,
    slot_plan,
)
from deltaforge import pack
from deltaforge.derive import derive
from deltaforge.reader import parse_grammar


def _flat(text, root=None):
    g = parse_grammar(text)
    return flatten([g], root or g.name)


def test_slot_plan_cardinalities(L_flat):
    plan = L_flat.slot_plan("Transition")
    assert [(k, v.cardinality) for k, v in plan.items()] == [
        ("source", "one"), ("target", "one"), ("body", "optional")]
    assert plan["source"].targets == frozenset({BUILTIN_NAME})
    assert plan["body"].targets == frozenset({"TransitionBody"})

    plan = L_flat.slot_plan("SCDefinition")
    assert plan["elements"].cardinality == "many"
    assert plan["elements"].targets == frozenset({"Element"})


def test_slot_plan_alternative_optional():
    flat = _flat('grammar G { A = "a" (x:Name | "z"); }')
    # x appears in only one branch, so it is optional overall
    assert flat.slot_plan("A")["x"].cardinality == "optional"


def test_addressable_by_name(L_flat):
    assert is_addressable_by_name(L_flat.production("SCDefinition"))
    assert is_addressable_by_name(L_flat.production("State"))
    assert not is_addressable_by_name(L_flat.production("Transition"))
    assert not is_addressable_by_name(L_flat.production("Guard"))


def test_addressable_requires_every_branch():
    flat = _flat('grammar G { A = "a" (name:Name | "anon"); }')
    assert not is_addressable_by_name(flat.production("A"))


# -- the three walks of an rhs that came before the one fold, as reference

_INF = float("inf")


def _counts(expr):
    """Per slot key: (min, max) occurrence bounds over one derivation."""
    if isinstance(expr, Terminal):
        return {}
    if isinstance(expr, NontermRef):
        return {expr.key: (1, 1)}
    if isinstance(expr, Sequence):
        acc = {}
        for it in expr.items:
            for k, (lo, hi) in _counts(it).items():
                plo, phi = acc.get(k, (0, 0))
                acc[k] = (plo + lo, phi + hi)
        return acc
    if isinstance(expr, Alternative):
        per = [_counts(b) for b in expr.branches]
        keys = set().union(*per) if per else set()
        acc = {}
        for k in keys:
            los = [c.get(k, (0, 0))[0] for c in per]
            his = [c.get(k, (0, 0))[1] for c in per]
            acc[k] = (min(los), max(his))
        return acc
    inner = _counts(expr.inner)
    out = {}
    for k, (lo, hi) in inner.items():
        if expr.cardinality == "optional":
            out[k] = (0, hi)
        elif expr.cardinality == "star":
            out[k] = (0, _INF if hi else 0)
        elif expr.cardinality == "plus":
            out[k] = (lo, _INF if hi else 0)
        else:
            out[k] = (lo, hi)
    return out


def _reference_plan(rhs):
    """Per slot key: (cardinality, low, targets, once): once if the key's
    one reference is the whole inner part of a ``*``/``+`` group that no
    other such group holds."""
    plan = {}
    for k, (lo, hi) in _counts(rhs).items():
        card = "many" if hi > 1 else "optional" if lo == 0 else "one"
        plan[k] = [card, lo, set(), False]
    refs = [ref for ref in leaves(rhs) if type(ref) is NontermRef]
    for ref in refs:
        plan[ref.key][2].add(ref.target)
    stack = [(rhs, 0)]            # (expression, ``*``/``+`` groups around)
    while stack:
        expr, around = stack.pop()
        kind = type(expr)
        if kind is Group:
            inner = expr.inner
            many = expr.cardinality in ("star", "plus")
            if many and not around and type(inner) is NontermRef and \
                    sum(ref.key == inner.key for ref in refs) == 1:
                plan[inner.key][3] = True
            stack.append((inner, around + many))
        elif kind is Sequence or kind is Alternative:
            stack += [(part, around) for part in
                      (expr.items if kind is Sequence else expr.branches)]
    return {k: tuple(v) for k, v in plan.items()}


def _reference_addressable(expr):
    if isinstance(expr, NontermRef):
        return (expr.label == "name"
                and expr.target in (BUILTIN_NAME, "QualifiedModelElementName"))
    if isinstance(expr, Sequence):
        return any(_reference_addressable(it) for it in expr.items)
    if isinstance(expr, Alternative):
        return all(_reference_addressable(b) for b in expr.branches)
    if isinstance(expr, Group):
        return expr.cardinality == "one" and _reference_addressable(expr.inner)
    return False


# slot keys from three labels, so that keys repeat across parts
_RHS = st.recursive(
    st.one_of(
        st.builds(Terminal, st.sampled_from(["t", ";"])),
        st.builds(NontermRef,
                  st.sampled_from([BUILTIN_NAME, "QualifiedModelElementName",
                                   "Item"]),
                  st.sampled_from(["name", "a", "b"]))),
    lambda parts: st.one_of(
        st.builds(Group, parts,
                  st.sampled_from(["one", "optional", "star", "plus"])),
        st.builds(Sequence, st.lists(parts, min_size=1, max_size=3)
                  .map(tuple)),
        st.builds(Alternative, st.lists(parts, min_size=2, max_size=3)
                  .map(tuple))),
    max_leaves=12)


@settings(max_examples=500, deadline=None)
@given(_RHS)
def test_one_fold_gives_the_facts_of_the_three_walks(rhs):
    production = Production("P", rhs=rhs)
    plan = slot_plan(production)
    assert {k: (i.key, i.cardinality, i.low, i.targets, i.once)
            for k, i in plan.items()} == \
        {k: (k,) + facts for k, facts in _reference_plan(rhs).items()}
    # the plan's reading differs only where two references bind ``name``,
    # a grammar ``derive`` refuses (rule 4 emits two colliding operations)
    addressable = _reference_addressable(rhs)
    names = sum(type(leaf) is NontermRef and leaf.label == "name"
                for leaf in leaves(rhs))
    if names < 2:
        assert is_addressable_by_name(production) == addressable
    else:
        assert addressable or not is_addressable_by_name(production)


def test_two_name_references_do_not_derive():
    g = parse_grammar('grammar G { A = "a" name:Name name:Name; }')
    with pytest.raises(GrammarError, match="DeltaANameOperation"):
        derive(flatten([g], "G"), "G", pack.load_common_grammar())


def test_last_terminals(L_flat):
    assert L_flat.last_terminal_map()["State"] == frozenset({"}", ";"})
    assert L_flat.last_terminal_map()["Transition"] == frozenset({";"})
    assert L_flat.last_terminal_map()["MethodCall"] == frozenset({")"})
    # a production ending in a bare identifier has no final terminal
    assert L_flat.last_terminal_map()["Guard"] == frozenset({"]"})


def test_last_terminals_name_tail():
    flat = _flat('grammar G { A = "kw" x:Name; }')
    assert flat.last_terminal_map()["A"] == frozenset({NO_TERMINAL})


def test_left_recursion_detected():
    with pytest.raises(LeftRecursionError) as err:
        _flat('grammar G { A = B "x"; B = A "y"; }')
    assert "A" in err.value.cycle and "B" in err.value.cycle


def test_left_recursion_through_nullable_prefix():
    with pytest.raises(LeftRecursionError):
        _flat('grammar G { A = "t"? A "x"; }')


def test_left_recursion_through_interface():
    with pytest.raises(LeftRecursionError):
        _flat('grammar G { interface I; A implements I = I "x"; }')


def test_flatten_child_wins():
    parent = parse_grammar('grammar P { A = "old"; }')
    child = parse_grammar('grammar C extends P { A = "new"; }')
    flat = flatten([child, parent], "C")
    assert flat.production("A").rhs == Terminal(text="new")


def test_flatten_unresolved_reference():
    with pytest.raises(GrammarError, match="unresolved"):
        _flat('grammar G { A = B; }')


def test_flatten_implements_must_be_interface():
    with pytest.raises(GrammarError, match="not an interface"):
        _flat('grammar G { B = "b"; A implements B = "a"; }')


# -- the records: plain slotted values ------------------------------------

def test_records_of_two_kinds_never_compare_equal():
    a, b = Terminal("a"), NontermRef("b")
    assert Terminal("a") != NontermRef("a")
    assert Sequence((a, b)) != Alternative((a, b))
    assert Group(a, "one") != Group(a, "optional")
    assert Terminal("a") != ("a",) and Terminal("a") != "a"


def test_equal_records_hash_equal():
    def build():
        a = Terminal("a")
        ref = NontermRef("Item", "items")
        rhs = Sequence((a, Alternative((Group(ref, "star"), Terminal(";")))))
        p = Production("P", "concrete", ("I",), rhs)
        return Grammar("G", ("Base",), (Production("I", "interface"), p),
                       "g.dg")

    first, second = build(), build()
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert len({first, second, build().productions[1].rhs}) == 2


def test_positional_and_keyword_construction_agree():
    a = Terminal("a")
    assert Terminal("a") == Terminal(text="a")
    assert NontermRef("T") == NontermRef(target="T", label=None)
    assert NontermRef("T", "x") == NontermRef(target="T", label="x")
    assert Sequence((a,)) == Sequence(items=(a,))
    assert Alternative((a, a)) == Alternative(branches=(a, a))
    assert Group(a) == Group(inner=a, cardinality="one")
    assert Production("P", rhs=a) == \
        Production(name="P", kind="concrete", implements=(), rhs=a)
    assert Production("I", "interface").rhs is None
    assert Grammar("G") == \
        Grammar(name="G", extends=(), productions=(), source=None)


_A = Terminal("a")


@pytest.mark.parametrize("build, message", [
    (lambda: Terminal(""), "empty terminal"),
    (lambda: Sequence(()), "empty sequence"),
    (lambda: Alternative((_A,)), "alternative needs at least two branches"),
    (lambda: Group(_A, "many"), "bad cardinality 'many'"),
    (lambda: Production("P", "abstract", rhs=_A),
     "bad production kind 'abstract'"),
    (lambda: Production("I", "interface", rhs=_A),
     "interface production 'I' cannot have an rhs"),
    (lambda: Production("P"), "concrete production 'P' needs an rhs"),
    (lambda: Grammar("not a name"),
     "grammar name 'not a name' is not an identifier"),
    (lambda: Grammar("G", productions=(Production("P", rhs=_A),
                                       Production("P", rhs=_A))),
     "duplicate production 'P' in grammar G"),
])
def test_a_malformed_record_is_a_grammar_error(build, message):
    with pytest.raises(GrammarError) as err:
        build()
    assert str(err.value) == message


def test_leaves_in_rhs_order():
    a, b, c = Terminal("a"), NontermRef("B"), Terminal("c")
    rhs = Sequence((a, Alternative((b, Group(c, "star")))))
    assert list(leaves(rhs)) == [a, b, c]


def test_leaves_of_an_rhs_nested_5000_groups_deep():
    # built in code: the reader stops at MAX_DEPTH
    rhs = Terminal("a")
    for _ in range(5000):
        rhs = Group(rhs, "optional")
    assert list(leaves(rhs)) == [Terminal("a")]


def test_implementors_child_first(L_flat, dL_flat):
    assert L_flat.implementors["Element"] == ["Transition", "State"]
    ops = dL_flat.implementors["DeltaOperation"]
    # generated operations come before the common modify/remove forms
    assert ops.index("DeltaStateOperation") < ops.index("DeltaModify")
    assert "DeltaRemoveOperation" in ops
