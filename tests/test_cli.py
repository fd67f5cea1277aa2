import json

import pytest

from deltaforge import node_eq, pack, parse
from deltaforge.applier import apply, apply_all, pretty_print
from deltaforge.checker import check_delta
from deltaforge.cli import main


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


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 2


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
        "%s:0:0 CC1 duplicate element name 'A' in scope SCDefinition; "
        "paths must disambiguate" % core,
        "%s:0:0 CC1 duplicate element name 'X' in scope State; "
        "paths must disambiguate" % paths[0],
    ]


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
