"""Command-line interface: derive, check, apply, parse.

Exit codes: 0 success, 1 diagnostics reported, 2 usage error (bad flags,
unreadable files, output that cannot be written, be it an ``--out`` file
or a standard output closed early), 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import applier, pack
from .derive import DeriveError, derive, render_grammar
from .diagnostics import Diagnostic, has_errors
from .model import GrammarError, LeftRecursionError, flatten
from .parsing import ParseFailure, PausedGC, parse, to_json
from .reader import GrammarSyntaxError, parse_grammar

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError("cannot read %s: %s"
                          % (path, getattr(exc, "strerror", None) or exc))


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError("cannot write %s: %s" % (path, exc.strerror or exc))


def _emit(diags, as_json):
    for d in diags:
        print(d.json_line() if as_json else d.human())


def _parse_diag(exc, path):
    return Diagnostic(code="PARSE", severity="error", message=exc.detail,
                      file=path, line=exc.line, column=exc.column)


def _load_grammar(path):
    try:
        return parse_grammar(_read(path), path)
    except GrammarSyntaxError as exc:
        raise _DiagAbort([Diagnostic(
            code="PARSE", severity="error", message=str(exc), file=path,
            line=exc.line, column=exc.column)])


class _DiagAbort(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# Subcommands

def cmd_derive(args):
    grammar = _load_grammar(args.grammar)
    common = _load_grammar(args.common) if args.common \
        else pack.load_common_grammar()
    try:
        flat = flatten([grammar], grammar.name)
        derived = derive(flat, grammar.name, common)
    except (LeftRecursionError, DeriveError, GrammarError) as exc:
        raise _DiagAbort([Diagnostic(
            code="DERIVE", severity="error", message=str(exc),
            file=args.grammar)])
    _write(args.out, render_grammar(derived.grammar))
    for entry in derived.provenance:
        name = entry.production or "(default qualified-name identifier)"
        print("%-44s rule %-2s  from %s" % (name, entry.rule, entry.source))
    return EXIT_OK


def _load_stack(args):
    """Grammars and parsed models shared by check and apply."""
    L = _load_grammar(args.grammar)
    dg = _load_grammar(args.delta_grammar)
    common = _load_grammar(args.common) if args.common \
        else pack.load_common_grammar()
    grammars = [dg, common, L]
    root = dg.name
    if args.extend:
        ext = _load_grammar(args.extend)
        grammars.insert(0, ext)
        root = ext.name
    # a finding names the file of the grammar, or of the stack's root
    L_flat = _flatten([L], L.name, args.grammar)
    dL_flat = _flatten(grammars, root, args.extend or args.delta_grammar)

    starts = L_flat.concrete_names()
    if not starts:
        raise _DiagAbort([Diagnostic(
            code="DERIVE", severity="error", file=args.grammar,
            message="grammar %s has no concrete production to parse the "
                    "core model with" % L.name)])
    try:
        core = parse(L_flat, starts[0], _read(args.core))
    except ParseFailure as exc:
        raise _DiagAbort([_parse_diag(exc, args.core)])

    deltas = []
    for path in args.delta:
        try:
            deltas.append((path, parse(dL_flat, "Delta", _read(path))))
        except ParseFailure as exc:
            raise _DiagAbort([_parse_diag(exc, path)])
    return L_flat, dL_flat, core, deltas


def _flatten(grammars, root, path):
    try:
        return flatten(grammars, root)
    except GrammarError as exc:
        raise _DiagAbort([Diagnostic(
            code="DERIVE", severity="error", message=str(exc), file=path)])


def cmd_check(args):
    L_flat, dL_flat, core, deltas = _load_stack(args)
    diags = applier.run_plan(core, deltas, L_flat, dL_flat, args.core)
    _emit(diags, args.json)
    return EXIT_DIAGNOSTICS if has_errors(diags) else EXIT_OK


def cmd_apply(args):
    L_flat, dL_flat, core, deltas = _load_stack(args)
    diags = applier.run_plan(core, deltas, L_flat, dL_flat, args.core)
    _emit(diags, args.json)
    if has_errors(diags):
        return EXIT_DIAGNOSTICS
    _write(args.out, applier.pretty_print(L_flat, core))
    return EXIT_OK


def cmd_parse(args):
    grammar = _load_grammar(args.grammar)
    flat = _flatten([grammar], grammar.name, args.grammar)
    if args.start not in flat.concrete_names():
        raise _UsageError("--start %s is not a concrete production of %s"
                          % (args.start, grammar.name))
    try:
        node = parse(flat, args.start, _read(args.input))
    except ParseFailure as exc:
        raise _DiagAbort([_parse_diag(exc, args.input)])
    print(to_json(node))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing

def _add_stack_flags(sub):
    sub.add_argument("--grammar", required=True,
                     help="base language grammar (.dg)")
    sub.add_argument("--delta-grammar", required=True,
                     help="derived delta grammar (.dg)")
    sub.add_argument("--extend", help="extension grammar overriding "
                     "generated productions (.dg)")
    sub.add_argument("--common", help="common delta grammar override (.dg)")
    sub.add_argument("--core", required=True, help="core model file")
    sub.add_argument("--delta", action="append", default=[], required=True,
                     help="delta file, in application order (repeatable)")
    sub.add_argument("--json", action="store_true",
                     help="print diagnostics as JSON lines")


@functools.cache
def build_parser():
    """The command line's parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="deltaforge",
        description="Derive delta languages from grammars, check deltas "
                    "against core models, and generate product variants.")
    subs = p.add_subparsers(dest="command", required=True)

    d = subs.add_parser("derive", help="derive a delta grammar")
    d.add_argument("--grammar", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--common")
    d.set_defaults(func=cmd_derive)

    c = subs.add_parser("check", help="check deltas against a core model")
    _add_stack_flags(c)
    c.set_defaults(func=cmd_check)

    a = subs.add_parser("apply", help="apply deltas and write the variant")
    _add_stack_flags(a)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_apply)

    q = subs.add_parser("parse", help="parse a model and print its tree")
    q.add_argument("--grammar", required=True)
    q.add_argument("--start", required=True)
    q.add_argument("--input", required=True)
    q.add_argument("--json", action="store_true",
                   help="print diagnostics as JSON lines")
    q.set_defaults(func=cmd_parse)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        try:
            # the collector would only rescan the grammars, trees and
            # tables the command builds (see ``parsing.PausedGC``)
            with PausedGC():
                return args.func(args)
        except _DiagAbort as abort:
            _emit(abort.diagnostics, getattr(args, "json", False))
            return EXIT_DIAGNOSTICS
        finally:
            sys.stdout.flush()
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError as exc:
        # what is left in the buffer goes to the null device, so the
        # interpreter's last flush of standard output stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write standard output: %s" % exc.strerror,
              file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
