"""Each engine edit costs what it touches, counted rather than timed:
adds, renames and removes into a flat block of 4,000 states do the same
work as into a block of 1,000, and the reference index a rename reads is
built once per engine, and only by an engine that renames.  One engine
runs a whole plan, so a plan builds one symbol table and at most one
index, however many deltas it holds."""

import pytest

from deltaforge import checker, parse, parsing
from deltaforge.applier import apply_all
from deltaforge.checker import Engine, SymbolTable
from deltaforge.model import flatten


def _block(n):
    """n states plus n - 1 guarded transitions, in one flat block."""
    lines = ["statechart Big {"]
    lines += ["  state S%d;" % i for i in range(n)]
    lines += ["  S%d -> S%d : [g%d] m();" % (i, i + 1, i % 7)
              for i in range(n - 1)]
    lines.append("}")
    return "\n".join(lines)


def _ops(kind, n):
    """50 operations of one kind, spread over the block."""
    picks = [i * (n // 50) + 1 for i in range(50)]
    if kind == "add":
        return ["add state N%d;" % i for i in range(50)]
    if kind == "rename":
        return ["modify state S%d { set name R%d; }" % (i, i) for i in picks]
    return ["remove state S%d;" % i if k % 2 else "remove S%d;" % i
            for k, i in enumerate(picks)]


def _counted(counts, name, fn):
    """``fn``, adding one to ``counts[name]`` at each call."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.fixture(scope="module")
def blocks(L_flat):
    return {n: parse(L_flat, "SCDefinition", _block(n)) for n in (1000, 4000)}


def _counts(blocks, L_grammar, dL_flat, monkeypatch, n, kind):
    """The work one engine run of 50 ``kind`` operations does on a block
    of n states, past building its symbol table."""
    L_flat = flatten([L_grammar], "Statechart")   # an empty resync cache
    delta = parse(dL_flat, "Delta", "delta D { modify statechart Big { %s } }"
                  % " ".join(_ops(kind, n)))
    engine = Engine(blocks[n].clone(), L_flat, dL_flat)
    counts = dict(add_entry=0, replay=0, builds=0, leaves=0, lookups=0)

    rename = SymbolTable.rename_references

    def read(self, old, new, target):
        # the leaves bearing ``old`` before: those moved to ``new`` and
        # those left
        before = set((self.references or {}).get(new, ()))
        rename(self, old, new, target)
        counts["leaves"] += len(set(self.references.get(new, ())) - before) \
            + len(self.references.get(old, ()))

    monkeypatch.setattr(checker, "_add_entry",
                        _counted(counts, "add_entry", checker._add_entry))
    monkeypatch.setattr(parsing, "replay",
                        _counted(counts, "replay", parsing.replay))
    monkeypatch.setattr(SymbolTable, "_index_tree",
                        _counted(counts, "builds", SymbolTable._index_tree))
    monkeypatch.setattr(SymbolTable, "rename_references", read)
    monkeypatch.setattr(checker.SymbolTable, "lookup_unique",
                        _counted(counts, "lookups",
                                 checker.SymbolTable.lookup_unique))
    assert engine.run(delta) == []
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("kind", ["add", "rename", "remove"])
def test_work_does_not_grow_with_the_block(blocks, L_grammar, dL_flat,
                                           monkeypatch, kind):
    small = _counts(blocks, L_grammar, dL_flat, monkeypatch, 1000, kind)
    large = _counts(blocks, L_grammar, dL_flat, monkeypatch, 4000, kind)
    assert small == large
    assert small["replay"] <= 2                # one per new shape
    assert small["add_entry"] == (50 if kind == "add" else 0)
    if kind == "rename":
        # each state is referenced by the transitions into and out of it
        assert small["builds"] == 1
        assert small["leaves"] == 100
        assert small["lookups"] == 50
    else:
        assert small["builds"] == small["leaves"] == small["lookups"] == 0


def test_a_value_put_in_place_of_another_keeps_the_terminals(
        core, L_grammar, dL_flat, monkeypatch):
    # a set of a present source or target leaves the transition's shape,
    # and so its terminals, as they were: nothing is resynced or replayed
    L_flat = flatten([L_grammar], "Statechart")   # an empty resync cache
    delta = parse(dL_flat, "Delta", "delta D { modify statechart Telephone {"
                  " modify transition [Idle -> Call] { set target Active; }"
                  " modify transition [Idle -> Busy] { set source Call; }"
                  " modify transition [Active -> Idle] { set target Call;"
                  " set source Busy; } } }")
    engine = Engine(core.clone(), L_flat, dL_flat)
    counts = dict(resync=0, replay=0)
    monkeypatch.setattr(checker, "resync_terminals",
                        _counted(counts, "resync", checker.resync_terminals))
    monkeypatch.setattr(parsing, "replay",
                        _counted(counts, "replay", parsing.replay))
    assert engine.run(delta) == []
    assert counts == dict(resync=0, replay=0)
    arrows = [(t.slots["source"].text, t.slots["target"].text, t.terminals)
              for t in engine.work.slots["elements"]
              if t.production == "Transition"]
    assert arrows == [("Idle", "Active", ("->", ":", ";")),
                      ("Call", "Busy", ("->", ":", ";")),
                      ("Busy", "Call", ("->", ":", ";"))]


def test_the_index_is_built_by_the_first_rename(core, L_flat, dL_flat,
                                                monkeypatch):
    def run(text):
        delta = parse(dL_flat, "Delta",
                      "delta D { modify statechart Telephone { %s } }" % text)
        engine = Engine(core.clone(), L_flat, dL_flat)
        assert engine.table.references is None
        engine.run(delta)
        return engine.table.references

    assert run("add state A; remove Active.Busy;") is None
    references = run("add state A; modify state A { set name B; } remove B;")
    assert references is not None
    assert set(references) == {"Idle", "Call", "Busy", "Active",
                                 "isEngaged", "numberDialed", "hangUp"}


def test_a_plan_builds_one_table_and_one_index(blocks, L_flat, dL_flat,
                                               monkeypatch):
    counts = dict(builds=0, add_entry=0, indexes=0)

    monkeypatch.setattr(checker, "build_symbols",
                        _counted(counts, "builds", checker.build_symbols))
    monkeypatch.setattr(checker, "_add_entry",
                        _counted(counts, "add_entry", checker._add_entry))
    monkeypatch.setattr(SymbolTable, "_index_tree",
                        _counted(counts, "indexes", SymbolTable._index_tree))
    checker.build_symbols(blocks[1000], L_flat)
    one_build = counts["add_entry"]
    assert one_build == 1 + 1000 + 999       # the document, states, arrows

    def plan(bodies):
        counts.update(builds=0, add_entry=0, indexes=0)
        apply_all(blocks[1000], [
            parse(dL_flat, "Delta", "delta D%d { modify statechart Big "
                  "{ %s } }" % (i, body)) for i, body in enumerate(bodies)],
            L_flat, dL_flat)
        return counts

    assert plan(["add state N%d;" % i for i in range(10)]) \
        == dict(builds=1, add_entry=one_build + 10, indexes=0)
    renames = ["modify state S%d { set name R%d; }" % (i, i)
               for i in (1, 2)]
    assert plan(["add state N;"] + renames + ["remove R1;"]) \
        == dict(builds=1, add_entry=one_build + 1, indexes=1)
