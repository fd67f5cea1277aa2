"""perfbench's tracer still fits the package: every name it wraps exists.

The tracer (``perfbench/spans.py``) rebinds module attributes such as
``checker.build_symbols``, ``checker.copy`` and ``applier.apply``; a
change that deletes or renames one of them breaks the traced benchmark
runs, so this test installs it on the package and runs a check through
it.  The tracer's file is only read, never written.
"""

import copy
import importlib.util
import sys
from pathlib import Path

import deltaforge
import deltaforge.cli  # noqa: F401  (the tracer wraps names in cli too)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_names_the_package_has(monkeypatch, core, voicemail,
                                                L_flat, dL_flat):
    spans = _load_spans(monkeypatch)
    checker = deltaforge.checker
    tracer = spans.Tracer()
    try:
        tracer.install(deltaforge)
        assert checker.check_delta(core, voicemail, L_flat, dL_flat) == []
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"checker.check_delta", "checker.build_symbols",
            "checker.deepcopy"} <= names
    # uninstalling puts every original back
    assert checker.copy is copy
    assert all(getattr(getattr(deltaforge, module), attr).__name__ == attr
               for module, attr, _ in spans.TARGETS)
