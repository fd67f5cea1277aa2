"""No input ends in exit 3: ``check`` on a bundled or generated core and
delta with one token dropped, duplicated or swapped with the next exits
0 or 1.  A drop or a swap near the end also sends the parser's lookahead
past the end of the input."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaforge import pack
from deltaforge.cli import main
from deltaforge.parsing import tokenize

from test_golden_trees import _mutate, rename_delta

SOURCES = [(pack.load_builtin("telephone.sc"),
            pack.load_builtin("voicemail.delta"))]
SOURCES += [rename_delta(seed) for seed in (1, 2, 4)]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutated")
    for asset in ("statechart.dg", "delta-statechart.golden.dg",
                  "extended-delta-statechart.dg"):
        (path / asset).write_text(pack.load_builtin(asset))
    return path


@settings(max_examples=80, deadline=None)
@given(source=st.sampled_from(SOURCES), in_delta=st.booleans(),
       kind=st.sampled_from(["drop", "dup", "swap"]), at=st.floats(0, 1))
def test_check_of_mutated_input_exits_0_or_1(workdir, source, in_delta,
                                              kind, at):
    core, delta = source
    tokens = tokenize(delta if in_delta else core)
    i = min(int(at * (len(tokens) - 1)), len(tokens) - 2)
    mutated = _mutate(tokens, kind, i)
    if in_delta:
        delta = mutated
    else:
        core = mutated
    (workdir / "core.sc").write_text(core)
    (workdir / "d.delta").write_text(delta)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check",
                     "--grammar", str(workdir / "statechart.dg"),
                     "--delta-grammar",
                     str(workdir / "delta-statechart.golden.dg"),
                     "--extend", str(workdir / "extended-delta-statechart.dg"),
                     "--core", str(workdir / "core.sc"),
                     "--delta", str(workdir / "d.delta")])
    assert code in (0, 1), (core, delta, err.getvalue())
