"""Spans around the calls deltaforge's modules make into each other.

The tracer rebinds the module attributes the callers look up (for
example ``deltaforge.checker.build_symbols``, which ``Engine`` calls by
its global name), so the program itself is unchanged.  Each call records
a span: name, start, end, parent span and product id.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import types
from time import perf_counter

# (module, attribute, span name): the functions whose calls are timed.
TARGETS = (
    ("checker", "build_symbols", "checker.build_symbols"),
    ("checker", "resync_terminals", "parsing.resync_terminals"),
    ("checker", "check_delta", "checker.check_delta"),
    ("applier", "apply", "applier.apply"),
    ("applier", "pretty_print", "applier.pretty_print"),
    ("applier", "validate_order", "applier.validate_order"),
    ("cli", "parse", "parsing.parse"),
    ("cli", "parse_grammar", "reader.parse_grammar"),
    ("cli", "flatten", "model.flatten"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "product", "args",
                 "result")

    def __init__(self, name, parent, product, args):
        self.name = name
        self.parent = parent
        self.product = product
        self.args = args
        self.start = self.end = 0.0
        self.result = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.product = None

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; the arguments and the
        result (None if it raised) are kept on the span for counting after
        the product."""
        span = Span(name, self._stack[-1] if self._stack else None,
                    self.product, args)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        span.result = result
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self, package):
        """Rebind every target in the deltaforge ``package``."""
        for mod_name, attr, name in TARGETS:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        # only the checker's own copy.deepcopy calls, not deepcopy's
        # recursion into the tree, which goes through the copy module
        checker = package.checker
        self._saved.append((checker, "copy", checker.copy))
        checker.copy = types.SimpleNamespace(
            deepcopy=self._wrap("checker.deepcopy", checker.copy.deepcopy))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def drop_refs(self, spans):
        """Forget arguments and results once a product was counted."""
        for span in spans:
            span.args = span.result = None

    def write(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index[id(s.parent)] if s.parent else None,
                    "product": s.product}) + "\n")


def self_seconds(span, children):
    """Duration minus the time covered by the span's direct children
    (which run one after another, never overlapping)."""
    return span.seconds - sum(c.seconds for c in children)
