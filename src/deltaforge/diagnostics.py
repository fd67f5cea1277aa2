"""Diagnostics shared by the checker, applier, and CLI."""

from __future__ import annotations

import json

from .model import Record

#: code -> context condition, fixed mapping:
#: CC1 existence of the referenced element, CC2 scope-type agreement,
#: CC3 path validity, CC4 operation-in-scope, CC5 operand cardinality,
#: CC6 add-duplicate, CC7 remove-missing.
CODES = ("CC1", "CC2", "CC3", "CC4", "CC5", "CC6", "CC7",
         "PARSE", "DERIVE", "AOC", "APPLY")


class Diagnostic(Record):
    """One finding, equal to a finding of equal fields; its place
    (``file``, ``line``, ``column``) may be filled in after it is made."""

    __slots__ = ("code", "severity", "message", "file", "line", "column")
    __hash__ = None

    def __init__(self, code, severity, message, file=None, line=None,
                 column=None):
        if code not in CODES:
            raise ValueError("unknown diagnostic code %r" % code)
        if severity not in ("error", "warning"):
            raise ValueError("unknown severity %r" % severity)
        self.code = code
        self.severity = severity      # error | warning
        self.message = message
        self.file = file
        self.line = line
        self.column = column

    def human(self):
        where = self.file or "-"
        if self.line is not None:
            where += ":%s:%s" % (self.line, self.column or 0)
        return "%s %s %s" % (where, self.code, self.message)

    def json_line(self):
        return json.dumps({
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
        })


def has_errors(diagnostics):
    return any(d.severity == "error" for d in diagnostics)
