import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deltaforge import (cli, derive, flatten, node_eq, pack, parse,
                        parse_grammar)
from deltaforge.applier import apply, apply_all, pretty_print
from deltaforge.checker import check_delta
from deltaforge.cli import main
from deltaforge.reader import MAX_DEPTH


@pytest.fixture()
def assets(tmp_path):
    """Bundled assets copied to disk so the CLI reads ordinary files."""
    for asset in pack.ASSET_IDS:
        (tmp_path / asset).write_text(pack.load_builtin(asset))
    return tmp_path


def _stack_args(assets, *deltas, extra=()):
    args = ["--grammar", str(assets / "statechart.dg"),
            "--delta-grammar", str(assets / "delta-statechart.golden.dg"),
            "--extend", str(assets / "extended-delta-statechart.dg"),
            "--core", str(assets / "telephone.sc")]
    for d in deltas:
        args += ["--delta", str(d)]
    return args + list(extra)


def test_derive_matches_golden(assets, tmp_path, capsys):
    out = tmp_path / "derived.dg"
    code = main(["derive", "--grammar", str(assets / "statechart.dg"),
                 "--out", str(out)])
    assert code == 0
    assert out.read_text() == pack.load_builtin("delta-statechart.golden.dg")
    table = capsys.readouterr().out
    assert "TransitionIdentifier" in table
    assert "rule 1b" in table and "rule 3" in table


def test_derive_left_recursive_grammar(tmp_path, capsys):
    bad = tmp_path / "bad.dg"
    bad.write_text('grammar Bad { A = B "x"; B = A "y"; }')
    code = main(["derive", "--grammar", str(bad),
                 "--out", str(tmp_path / "out.dg")])
    assert code == 1
    assert "DERIVE" in capsys.readouterr().out


def test_derive_missing_file(tmp_path, capsys):
    code = main(["derive", "--grammar", str(tmp_path / "missing.dg"),
                 "--out", str(tmp_path / "out.dg")])
    assert code == 2


@pytest.mark.parametrize("which", ["core", "delta", "grammar"])
def test_a_file_that_is_not_utf8_is_unreadable(assets, tmp_path, capsys,
                                               which):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    args = _stack_args(assets, assets / "voicemail.delta")
    flag = {"core": "--core", "delta": "--delta", "grammar": "--grammar"}
    args[args.index(flag[which]) + 1] = str(bad)
    assert main(["check"] + args) == 2
    err = capsys.readouterr().err
    assert "cannot read %s: 'utf-8' codec can't decode" % bad in err
    assert "internal error" not in err


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_paused_for_the_command_and_restored(
        assets, tmp_path, capsys, monkeypatch, enabled):
    paused = []
    read = cli._read

    def spy(path):
        paused.append(not gc.isenabled())
        return read(path)

    monkeypatch.setattr(cli, "_read", spy)
    dup = tmp_path / "dup.delta"
    dup.write_text(
        "delta Dup { modify statechart Telephone { add state Idle; } }")
    deltas = {0: assets / "voicemail.delta", 1: dup,
              2: tmp_path / "missing.delta"}
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for code, delta in deltas.items():
            assert main(["check"] + _stack_args(assets, delta)) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused and all(paused)


def test_check_case_study(assets, capsys):
    code = main(["check"] + _stack_args(assets, assets / "voicemail.delta"))
    assert code == 0
    assert capsys.readouterr().out == ""


def test_check_duplicate_add(assets, tmp_path, capsys):
    delta = tmp_path / "dup.delta"
    delta.write_text(
        "delta Dup { modify statechart Telephone { add state Idle; } }")
    code = main(["check"] + _stack_args(assets, delta))
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and " CC6 " in lines[0]


def test_check_circular_aoc(assets, tmp_path, capsys):
    a = tmp_path / "a.delta"
    b = tmp_path / "b.delta"
    a.write_text("delta A after B { }")
    b.write_text("delta B after A { }")
    for order in ((a, b), (b, a)):
        code = main(["check"] + _stack_args(assets, *order))
        assert code == 1
        assert "AOC" in capsys.readouterr().out


def test_aoc_findings_name_their_file(assets, tmp_path, capsys):
    delta = tmp_path / "x.delta"
    delta.write_text("delta X after Y { }")
    assert main(["check"] + _stack_args(assets, delta)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "%s:1:15 AOC constraint of delta 'X' mentions 'Y', which is not "
        "part of the plan" % delta,
        "%s:1:15 AOC application-order constraint of delta 'X' is not "
        "satisfied at position 1" % delta]
    assert main(["check"] + _stack_args(assets, delta, extra=["--json"])) \
        == 1
    got = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["file"], d["line"], d["column"]) for d in got] \
        == [(str(delta), 1, 15)] * 2


def test_check_json_output(assets, tmp_path, capsys):
    delta = tmp_path / "bad.delta"
    delta.write_text(
        "delta Bad { modify statechart Telephone { remove Nope; } }")
    code = main(["check"] + _stack_args(assets, delta, extra=["--json"]))
    assert code == 1
    (line,) = capsys.readouterr().out.strip().splitlines()
    data = json.loads(line)
    assert data["code"] == "CC7" and data["severity"] == "error"


def test_apply_case_study(assets, tmp_path, L_flat, expected_variant, capsys):
    out = tmp_path / "variant.sc"
    code = main(["apply"] + _stack_args(assets, assets / "voicemail.delta",
                                        extra=["--out", str(out)]))
    assert code == 0
    variant = parse(L_flat, "SCDefinition", out.read_text())
    assert node_eq(variant, expected_variant, {"elements"})


def test_apply_failing_delta_writes_nothing(assets, tmp_path, capsys):
    delta = tmp_path / "bad.delta"
    delta.write_text(
        "delta Bad { modify statechart Telephone { remove Nope; } }")
    out = tmp_path / "variant.sc"
    code = main(["apply"] + _stack_args(assets, delta,
                                        extra=["--out", str(out)]))
    assert code == 1
    assert not out.exists()


def test_apply_empty_delta_identity(assets, tmp_path, L_flat, core, capsys):
    delta = tmp_path / "nop.delta"
    delta.write_text("delta Nop { }")
    out = tmp_path / "variant.sc"
    code = main(["apply"] + _stack_args(assets, delta,
                                        extra=["--out", str(out)]))
    assert code == 0
    assert node_eq(parse(L_flat, "SCDefinition", out.read_text()), core)


def test_parse_error_states_position_and_expected_once(assets, tmp_path,
                                                      capsys):
    delta = tmp_path / "d0.delta"
    delta.write_text("delta D {\n  modify statechart { }\n}\n")
    code = main(["check"] + _stack_args(assets, delta))
    assert code == 1
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert line.startswith("%s:2:" % delta)
    column = line.split(" ")[0].rsplit(":", 1)[1]
    assert line.count("2:%s" % column) == 1
    assert line.count("expected one of") == 1


# ---------------------------------------------------------------------------
# Delta chains: one engine run per delta must agree with the library calls

CHAIN = (
    "delta First {\n  modify statechart Telephone {\n"
    "    add state Extra;\n    add Extra -> Idle : back();\n  }\n}\n",
    "delta Second after First {\n  modify statechart Telephone {\n"
    "    modify state Extra { set name Final; }\n"
    "    modify state Active.Busy { set name Voicemail; }\n  }\n}\n",
    "delta Third after Second {\n  modify statechart Telephone {\n"
    "    remove Active.Call;\n    add state Spare;\n  }\n}\n",
)

FAILING_SECOND = (
    "delta Second after First {\n  modify statechart Telephone {\n"
    "    modify state Extra { set name Final; }\n"
    "    remove Extra;\n"
    "    add state Final;\n  }\n}\n"
)


def _write_chain(tmp_path, texts):
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / ("d%d.delta" % i)
        path.write_text(text)
        paths.append(path)
    return paths


def test_apply_chain_equals_apply_all(assets, tmp_path, core, L_flat,
                                      dL_flat, capsys):
    paths = _write_chain(tmp_path, CHAIN)
    out = tmp_path / "variant.sc"
    code = main(["apply"] + _stack_args(assets, *paths,
                                        extra=["--out", str(out)]))
    assert code == 0
    deltas = [parse(dL_flat, "Delta", text) for text in CHAIN]
    expected = apply_all(core, deltas, L_flat, dL_flat)
    assert out.read_text() == pretty_print(L_flat, expected)


def test_check_chain_equals_check_delta_by_delta(assets, tmp_path, core,
                                                 L_flat, dL_flat, capsys):
    texts = (CHAIN[0], FAILING_SECOND, CHAIN[2])
    paths = _write_chain(tmp_path, texts)
    code = main(["check"] + _stack_args(assets, *paths, extra=["--json"]))
    assert code == 1
    got = [json.loads(line)
           for line in capsys.readouterr().out.strip().splitlines()]
    first, second = (parse(dL_flat, "Delta", t) for t in texts[:2])
    expected = []
    for d in check_delta(core, first, L_flat, dL_flat):
        d.file = str(paths[0])
        expected.append(json.loads(d.json_line()))
    model = apply(core, first, L_flat, dL_flat)
    for d in check_delta(model, second, L_flat, dL_flat):
        d.file = str(paths[1])
        expected.append(json.loads(d.json_line()))
    assert [(d["code"], d["line"]) for d in expected] \
        == [("CC7", 4), ("CC6", 5)]
    assert got == expected


def test_duplicate_warnings_name_their_file_once(assets, tmp_path, capsys):
    core = tmp_path / "dup.sc"
    core.write_text("statechart T { state A; state A; }")
    paths = _write_chain(tmp_path, (
        # brings in a duplicate of its own, found before the next delta
        "delta D1 { modify statechart T {"
        " add state B { state X; state X; } } }",
        "delta D2 after D1 { modify statechart T { add state C; } }",
        "delta D3 after D2 { }"))
    args = _stack_args(assets, *paths)
    args[args.index("--core") + 1] = str(core)
    code = main(["check"] + args)
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "%s:1:25 CC1 duplicate element name 'A' in scope SCDefinition T; "
        "paths must disambiguate" % core,
        "%s:1:57 CC1 duplicate element name 'X' in scope State B; "
        "paths must disambiguate" % paths[0],
    ]


def test_a_duplicate_the_last_delta_brings_in_is_reported(assets, tmp_path,
                                                          capsys):
    # the one delta of the plan, and so its last, brings the duplicate in
    (path,) = _write_chain(tmp_path, (
        "delta D1 { modify statechart Telephone {"
        " add state B { state X; state X; } } }",))
    code = main(["check"] + _stack_args(assets, path))
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "%s:1:65 CC1 duplicate element name 'X' in scope State B; "
        "paths must disambiguate" % path]


def _core_args(assets, tmp_path, core_text, *delta_texts):
    """``check`` arguments for ``core_text``, saved as ``core.sc``, and
    the deltas, saved by ``_write_chain``; with the core's and the deltas'
    paths."""
    core = tmp_path / "core.sc"
    core.write_text(core_text)
    paths = _write_chain(tmp_path, delta_texts)
    args = _stack_args(assets, *paths)
    args[args.index("--core") + 1] = str(core)
    return args, core, paths


def test_each_doubled_scope_gets_its_own_placed_warning(assets, tmp_path,
                                                        capsys):
    args, core, _ = _core_args(
        assets, tmp_path, "statechart T { state A { state X; state X; }"
        " state B { state X; state X; } }", "delta D { }")
    assert main(["check"] + args) == 0
    assert capsys.readouterr().out.splitlines() == [
        "%s:1:35 CC1 duplicate element name 'X' in scope State A; "
        "paths must disambiguate" % core,
        "%s:1:65 CC1 duplicate element name 'X' in scope State B; "
        "paths must disambiguate" % core,
    ]


def test_a_delta_that_doubles_a_name_the_core_doubles_too_is_warned_of(
        assets, tmp_path, capsys):
    # the pair is the scope and the name: C's X is not A's
    args, core, (path,) = _core_args(
        assets, tmp_path,
        "statechart T { state A { state X; state X; } state B; }",
        "delta D { modify statechart T {\n"
        "  add state C { state X; state X; } } }")
    assert main(["check"] + args) == 0
    assert capsys.readouterr().out.splitlines() == [
        "%s:1:35 CC1 duplicate element name 'X' in scope State A; "
        "paths must disambiguate" % core,
        "%s:2:26 CC1 duplicate element name 'X' in scope State C; "
        "paths must disambiguate" % path,
    ]
    assert main(["check", "--json"] + args) == 0
    found = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["file"], d["line"], d["column"]) for d in found] \
        == [(str(core), 1, 35), (str(path), 2, 26)]


def test_parse_json(assets, capsys):
    code = main(["parse", "--grammar", str(assets / "statechart.dg"),
                 "--start", "SCDefinition",
                 "--input", str(assets / "telephone.sc"), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    elements = dict(data["slots"])["elements"]
    assert len(elements) == 5


def test_parse_empty_document(assets, tmp_path, capsys):
    doc = tmp_path / "t.sc"
    doc.write_text("statechart T {}")
    code = main(["parse", "--grammar", str(assets / "statechart.dg"),
                 "--start", "SCDefinition", "--input", str(doc)])
    assert code == 0


def test_parse_truncated_input(assets, tmp_path, capsys):
    doc = tmp_path / "t.sc"
    doc.write_text("statechart T { state")
    code = main(["parse", "--grammar", str(assets / "statechart.dg"),
                 "--start", "SCDefinition", "--input", str(doc)])
    assert code == 1
    out = capsys.readouterr().out
    assert "PARSE" in out and "expected" in out


@pytest.mark.parametrize("start", ["Nope", "Element", "Name"])
def test_parse_unknown_start_is_a_usage_error(assets, capsys, start):
    # Element is an interface, Name the builtin identifier
    code = main(["parse", "--grammar", str(assets / "statechart.dg"),
                 "--start", start, "--input", str(assets / "telephone.sc")])
    assert code == 2
    assert "--start %s is not a concrete production" % start \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "apply"])
def test_grammar_without_concrete_production(tmp_path, capsys, command):
    grammar = tmp_path / "empty.dg"
    grammar.write_text("grammar Empty { interface I; }")
    derived = tmp_path / "delta-empty.dg"
    assert main(["derive", "--grammar", str(grammar),
                 "--out", str(derived)]) == 0
    (tmp_path / "core.txt").write_text("anything")
    (tmp_path / "d.delta").write_text("delta D { }")
    args = [command, "--grammar", str(grammar), "--delta-grammar",
            str(derived), "--core", str(tmp_path / "core.txt"),
            "--delta", str(tmp_path / "d.delta")]
    if command == "apply":
        args += ["--out", str(tmp_path / "out.txt")]
    capsys.readouterr()
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "DERIVE" in out and "no concrete production" in out
    # a grammar-level finding has no position to print
    assert out.startswith("%s DERIVE " % grammar)


@pytest.mark.parametrize("command", ["check", "apply"])
@pytest.mark.parametrize("broken", ["--grammar", "--extend",
                                    "--delta-grammar"])
def test_a_grammar_that_does_not_flatten_is_named(assets, tmp_path, capsys,
                                                  command, broken):
    # the base grammar's finding names --grammar; the delta stack's names
    # its root: --extend if given, else --delta-grammar
    bad = tmp_path / "bad.dg"
    bad.write_text({
        "--grammar": 'grammar Statechart { A = "a" x:Missing; }',
        "--extend": 'grammar BadExtension extends DeltaStatechart {\n'
                    '  A = "a" x:Missing;\n}\n',
        "--delta-grammar": pack.load_builtin("delta-statechart.golden.dg")
        .replace("{", '{\n  A = "a" x:Missing;', 1)}[broken])
    (delta,) = _write_chain(tmp_path, ("delta D { }",))
    args = _stack_args(assets, delta)
    args[args.index(broken) + 1] = str(bad)
    if broken == "--delta-grammar":
        del args[args.index("--extend"):args.index("--extend") + 2]
    if command == "apply":
        args += ["--out", str(tmp_path / "variant.sc")]
    assert main([command] + args) == 1
    assert capsys.readouterr().out == "%s DERIVE unresolved nonterminal " \
        "'Missing' referenced from 'A'\n" % bad
    assert not (tmp_path / "variant.sc").exists()


def test_parse_names_a_grammar_that_does_not_flatten(tmp_path, capsys):
    bad = tmp_path / "bad.dg"
    bad.write_text('grammar Bad { A = "a" x:Missing; }')
    (tmp_path / "a.txt").write_text("a")
    assert main(["parse", "--grammar", str(bad), "--start", "A",
                 "--input", str(tmp_path / "a.txt")]) == 1
    assert capsys.readouterr().out == "%s DERIVE unresolved nonterminal " \
        "'Missing' referenced from 'A'\n" % bad


def test_the_command_line_parser_is_built_once(assets, monkeypatch, capsys):
    # building argparse's parser tree costs more than reading a grammar,
    # so a second command in the process builds none
    argv = ["parse", "--grammar", str(assets / "statechart.dg"),
            "--start", "SCDefinition", "--input", str(assets / "telephone.sc")]
    assert main(argv) == 0
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []
    assert '"SCDefinition"' in capsys.readouterr().out


def test_out_into_a_missing_directory(assets, tmp_path, capsys):
    missing = tmp_path / "missing" / "out.dg"
    assert main(["derive", "--grammar", str(assets / "statechart.dg"),
                 "--out", str(missing)]) == 2
    assert "cannot write %s" % missing in capsys.readouterr().err
    args = _stack_args(assets, assets / "voicemail.delta",
                       extra=["--out", str(missing)])
    assert main(["apply"] + args) == 2
    assert "cannot write %s" % missing in capsys.readouterr().err
    assert not missing.parent.exists()


def test_pipeline_equivalence(assets, tmp_path, L_flat, expected_variant):
    """derive then apply, with no hand-edited intermediate."""
    derived = tmp_path / "derived.dg"
    assert main(["derive", "--grammar", str(assets / "statechart.dg"),
                 "--out", str(derived)]) == 0
    out = tmp_path / "variant.sc"
    args = ["apply", "--grammar", str(assets / "statechart.dg"),
            "--delta-grammar", str(derived),
            "--extend", str(assets / "extended-delta-statechart.dg"),
            "--core", str(assets / "telephone.sc"),
            "--delta", str(assets / "voicemail.delta"),
            "--out", str(out)]
    assert main(args) == 0
    variant = parse(L_flat, "SCDefinition", out.read_text())
    assert node_eq(variant, expected_variant, {"elements"})


def test_ten_thousand_element_block(assets, tmp_path, capsys):
    core = tmp_path / "flat.sc"
    core.write_text("statechart Flat {\n%s}\n" % "".join(
        "  state P%d;\n" % i for i in range(10000)))
    (delta,) = _write_chain(tmp_path, (
        "delta Grow { modify statechart Flat { add state Q; } }",))
    out = tmp_path / "variant.sc"
    args = _stack_args(assets, delta, extra=["--out", str(out)])
    args[args.index("--core") + 1] = str(core)
    assert main(["apply"] + args) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == core.read_text()[:-2] + "  state Q;\n}\n"


def _chain(depth):
    return "".join("  state N%d {\n" % i for i in range(depth)) + \
        "  state Leaf;\n" + "}\n" * depth


@pytest.mark.parametrize("which", ["core", "delta"])
def test_deep_nesting_is_a_parse_diagnostic(assets, tmp_path, capsys, which):
    depth = 500
    core = tmp_path / "deep.sc"
    core.write_text("statechart Deep {\n%s}\n"
                    % (_chain(depth) if which == "core" else ""))
    (delta,) = _write_chain(tmp_path, (
        "delta Deep { modify statechart Deep {\n  add %s\n} }\n"
        % (_chain(depth).strip() if which == "delta" else "state Q;"),))
    args = _stack_args(assets, delta)
    args[args.index("--core") + 1] = str(core)
    assert main(["check"] + args) == 1
    (line,) = capsys.readouterr().out.splitlines()
    path = core if which == "core" else delta
    position, code, message = line.split(" ", 2)
    assert code == "PARSE" and "nests too deeply" in message
    file, row, column = position.rsplit(":", 2)
    assert file == str(path) and int(row) > 2 and int(column) > 1


def _check_nested(assets, tmp_path, capsys, depth):
    core = tmp_path / "deep.sc"
    core.write_text("statechart Deep {\n%s}\n" % _chain(depth))
    (delta,) = _write_chain(tmp_path, (
        "delta Deep { modify statechart Deep {\n  add state Q;\n} }\n",))
    args = _stack_args(assets, delta)
    args[args.index("--core") + 1] = str(core)
    assert main(["check"] + args) == 0
    assert capsys.readouterr().out == ""


def test_150_nested_states_go_through_check(assets, tmp_path, capsys):
    _check_nested(assets, tmp_path, capsys, 150)


def test_190_nested_states_go_through_check(assets, tmp_path, capsys):
    # direct descent takes three frames per nesting level
    _check_nested(assets, tmp_path, capsys, 190)


def test_a_closed_standard_output_is_output_that_cannot_be_written(
        assets, tmp_path):
    # the tree of 3,000 states is far more JSON than a pipe buffers, so
    # the CLI is still writing when the pipe closes
    core = tmp_path / "big.sc"
    core.write_text("statechart Big {\n%s}\n" % "".join(
        "  state S%d;\n" % i for i in range(3000)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltaforge.cli", "parse",
         "--grammar", str(assets / "statechart.dg"),
         "--start", "SCDefinition", "--input", str(core)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{\n  "produ'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write standard output: Broken pipe\n"


def test_a_missing_semicolon_150_states_deep_gets_its_own_message(
        assets, tmp_path):
    # a fresh interpreter, so the stack is the CLI's own: the general
    # parser reads the failing text at six frames per nesting level
    depth = 150
    core = tmp_path / "nested-error.sc"
    core.write_text("statechart T {\n%s  state Leaf\n%s}\n" % (
        "".join("  state N%d {\n" % i for i in range(depth)), "}\n" * depth))
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "deltaforge.cli", "parse",
         "--grammar", str(assets / "statechart.dg"),
         "--start", "SCDefinition", "--input", str(core)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert (run.returncode, run.stdout, run.stderr) == (
        1, "%s:153:1 PARSE cannot parse SCDefinition (got '}'); expected "
        "one of: ';', '{'\n" % core, "")


def test_importing_the_cli_imports_no_dataclasses_or_inspect():
    # a fresh interpreter, as pytest and Hypothesis import both modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-S", "-c",
         "import deltaforge.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        cwd=src, capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_derive_of_a_grammar_nested_too_deeply(tmp_path, capsys):
    grammar = tmp_path / "deep.dg"
    grammar.write_text('grammar G { A = %s"a"%s; }' % ("(" * 1000, ")" * 1000))
    assert main(["derive", "--grammar", str(grammar),
                 "--out", str(tmp_path / "out.dg")]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    position, code, message = line.split(" ", 2)
    assert code == "PARSE" and message.endswith("the grammar nests too deeply")
    assert position.rsplit(":", 2)[0] == str(grammar)
    assert not (tmp_path / "out.dg").exists()


def _deep_rule(shape, depth):
    """A rule that nests ``depth`` groups that stay groups when read:
    each holds a terminal and, in sequence or as its other branch, the
    next group."""
    between = " " if shape == "sequence" else " | "
    return 'Deep = %s"a"%s;' % ('("a"%s' % between * depth, ")" * depth)


def _deep_grammar(path, shape, depth):
    path.write_text('grammar G { Root = "r" name:Name Deep; %s }'
                    % _deep_rule(shape, depth))
    return path


@pytest.mark.parametrize("shape", ["sequence", "alternative"])
def test_a_grammar_nested_as_deep_as_the_reader_allows_is_processed(
        assets, tmp_path, capsys, shape):
    # the grammar is derived, and its deepest rule compiled and parsed
    # with; in the extension it is flattened for check and apply
    grammar = _deep_grammar(tmp_path / "deep.dg", shape, MAX_DEPTH)
    assert main(["derive", "--grammar", str(grammar),
                 "--out", str(tmp_path / "out.dg")]) == 0
    model = tmp_path / "deep.txt"
    model.write_text("a " * (MAX_DEPTH + 1 if shape == "sequence" else 1))
    assert main(["parse", "--grammar", str(grammar), "--start", "Deep",
                 "--input", str(model)]) == 0
    ext = assets / "extended-delta-statechart.dg"
    ext.write_text(ext.read_text().replace(
        "}", "  %s\n}" % _deep_rule(shape, MAX_DEPTH)))
    args = _stack_args(assets, assets / "voicemail.delta")
    assert main(["check"] + args) == 0
    assert main(["apply"] + args + ["--out", str(tmp_path / "v.sc")]) == 0
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 500])
@pytest.mark.parametrize("command", ["derive", "check"])
def test_a_grammar_nested_deeper_than_the_reader_allows_is_a_parse_line(
        assets, tmp_path, capsys, command, depth):
    grammar = _deep_grammar(tmp_path / "deep.dg", "sequence", depth)
    if command == "derive":
        args = ["--grammar", str(grammar), "--out", str(tmp_path / "out.dg")]
    else:
        args = _stack_args(assets, assets / "voicemail.delta")
        args[args.index("--grammar") + 1] = str(grammar)
    assert main([command] + args) == 1
    (line,) = capsys.readouterr().out.splitlines()
    position, code, message = line.split(" ", 2)
    assert code == "PARSE" and message.endswith("the grammar nests too deeply")
    file, row, column = position.rsplit(":", 2)
    text = grammar.read_text()
    assert file == str(grammar) and row == "1"
    # at the first open group too many
    assert text[int(column) - 1] == "(" and \
        text[:int(column)].count("(") == MAX_DEPTH + 1


# ---------------------------------------------------------------------------
# --common: a common delta grammar read from a file instead of the bundled one

def test_derive_with_common(assets, tmp_path, capsys):
    out = tmp_path / "derived.dg"
    assert main(["derive", "--grammar", str(assets / "statechart.dg"),
                 "--common", str(assets / "delta-common.dg"),
                 "--out", str(out)]) == 0
    assert out.read_text() == pack.load_builtin("delta-statechart.golden.dg")


@pytest.mark.parametrize("command", ["check", "apply"])
@pytest.mark.parametrize("text", [
    None, "delta Bad { modify statechart Telephone { remove Nope; } }"])
def test_common_gives_what_the_bundled_one_gives(assets, tmp_path, capsys,
                                                 command, text):
    delta = assets / "voicemail.delta"
    if text is not None:
        delta = tmp_path / "bad.delta"
        delta.write_text(text)
    outcomes = []
    for extra in ([], ["--common", str(assets / "delta-common.dg")]):
        out = tmp_path / ("variant%d.sc" % len(outcomes))
        if command == "apply":
            extra = extra + ["--out", str(out)]
        code = main([command] + _stack_args(assets, delta, extra=extra))
        outcomes.append((code, capsys.readouterr().out,
                         out.read_text() if out.exists() else None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if text is None else 1)


@pytest.mark.parametrize("command", ["derive", "check", "apply"])
def test_a_common_that_does_not_parse(assets, tmp_path, capsys, command):
    common = tmp_path / "common.dg"
    common.write_text(pack.load_builtin("delta-common.dg").replace("=", ":", 1))
    out = ["--out", str(tmp_path / "out")] if command != "check" else []
    if command == "derive":
        args = ["--grammar", str(assets / "statechart.dg")]
    else:
        args = _stack_args(assets, assets / "voicemail.delta")
    assert main([command] + args + ["--common", str(common)] + out) == 1
    (line,) = capsys.readouterr().out.splitlines()
    position, code, _ = line.split(" ", 2)
    assert code == "PARSE" and position.rsplit(":", 2)[0] == str(common)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# A grammar other than statecharts, end to end

DOC = 'grammar Doc { Doc = "doc" name:Name "{" items:Item+ "}";' \
    ' Item = "item" name:Name ";"; }'

PAIRS = 'grammar P { P = "p" name:Name "{" (k:Key v:Val)+ "}";' \
    ' Key = "key" name:Name ";"; Val = "val" name:Name ";"; }'


def _language(tmp_path, capsys, grammar):
    """Derive the delta language of ``grammar`` through the CLI; returns
    ``run(command, core, delta)``, which runs ``check`` or ``apply`` on
    the texts and gives its exit code, what it printed and the variant's
    path."""
    (tmp_path / "lang.dg").write_text(grammar)
    assert main(["derive", "--grammar", str(tmp_path / "lang.dg"),
                 "--out", str(tmp_path / "delta-lang.dg")]) == 0
    capsys.readouterr()

    def run(command, core, delta):
        (tmp_path / "core.txt").write_text(core)
        (tmp_path / "edit.delta").write_text(delta)
        out = tmp_path / "variant.txt"
        if out.exists():
            out.unlink()
        args = ["--grammar", str(tmp_path / "lang.dg"),
                "--delta-grammar", str(tmp_path / "delta-lang.dg"),
                "--core", str(tmp_path / "core.txt"),
                "--delta", str(tmp_path / "edit.delta")]
        if command == "apply":
            args += ["--out", str(out)]
        return main([command] + args), capsys.readouterr().out, out
    return run


@pytest.mark.parametrize("remove", ["remove item A;", "remove A;"],
                         ids=["inline", "path"])
def test_a_remove_may_not_empty_a_plus_slot(tmp_path, capsys, remove):
    run = _language(tmp_path, capsys, DOC)
    delta = "delta R { modify Doc D { %s } }\n" % remove
    for command in ("check", "apply"):
        rc, printed, _ = run(command, "doc D { item A; }\n", delta)
        assert rc == 1, command
        (line,) = printed.splitlines()
        assert line.split(" ", 2)[1:] == [
            "CC5", "slot 'items' of Doc must keep at least 1 element"]
    rc, printed, out = run("apply", "doc D { item A; item B; }\n", delta)
    assert (rc, printed) == (0, "")
    assert out.read_text() == "doc D {\n  item B;\n}\n"


@pytest.mark.parametrize("op", ["remove key A;", "add key Z;"],
                         ids=["remove", "add"])
def test_slots_that_repeat_together_keep_their_counts(tmp_path, capsys, op):
    """``k`` and ``v`` repeat together: an operation on one alone leaves
    a node that no derivation of ``P`` gives, which is a CC5 finding, and
    no variant is written."""
    run = _language(tmp_path, capsys, PAIRS)
    for command in ("check", "apply"):
        rc, printed, out = run(command,
                               "p D { key A; val B; key C; val E; }\n",
                               "delta R { modify P D { %s } }\n" % op)
        assert rc == 1, command
        (line,) = printed.splitlines()
        assert line.split(" ", 2)[1:] == [
            "CC5", "slots of P would no longer fit its production"]
        assert not out.exists()


CHOICE = 'grammar G { P = "p" name:Name v:V ("{" items:I* "}" | ";");' \
    ' V = "v" Name; I = "i" name:Name ";"; }'


def test_a_set_keeps_the_spelling_of_its_node(tmp_path, capsys):
    """``set v y;`` puts one ``V`` in place of another, so the node keeps
    its shape and its ``;``, which an empty ``{ }`` block would also
    derive; through the CLI and the library alike."""
    core, delta = "p A v x;\n", "delta R { modify P A { set v y; } }\n"
    run = _language(tmp_path, capsys, CHOICE)
    rc, printed, out = run("apply", core, delta)
    assert (rc, printed) == (0, "")
    assert out.read_text() == "p A v y;\n"
    g = parse_grammar(CHOICE)
    L_flat = flatten([g], "G")
    common = pack.load_common_grammar()
    dL_flat = flatten([derive(L_flat, "G", common).grammar, common, g],
                      "DeltaG")
    variant = apply(parse(L_flat, "P", core), parse(dL_flat, "Delta", delta),
                    L_flat, dL_flat)
    assert pretty_print(L_flat, variant) == "p A v y;\n"


#: A production with 600 trailing optional items: its relaxed copy, which
#: the printer replays after a delta, must not nest a group per item.
OPTIONALS = 'grammar Doc { Doc = "doc" name:Name "{" elements:P* "}";' \
    ' P = "p" name:Name %s ";"; }' % " ".join('"k%d"?' % i for i in range(600))


def test_apply_prints_a_production_of_600_trailing_optional_items(
        tmp_path, capsys):
    run = _language(tmp_path, capsys, OPTIONALS)
    rc, printed, out = run("apply", "doc D { p X k1 ; }\n",
                           "delta A { modify Doc D { add p Y k2; } }\n")
    assert (rc, printed) == (0, "")
    assert out.read_text() == "doc D {\n  p X k1;\n  p Y k2;\n}\n"
