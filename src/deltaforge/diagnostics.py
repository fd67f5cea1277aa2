"""Diagnostics shared by the checker, applier, and CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass

#: code -> context condition, fixed mapping:
#: CC1 existence of the referenced element, CC2 scope-type agreement,
#: CC3 path validity, CC4 operation-in-scope, CC5 operand cardinality,
#: CC6 add-duplicate, CC7 remove-missing.
CODES = ("CC1", "CC2", "CC3", "CC4", "CC5", "CC6", "CC7",
         "PARSE", "DERIVE", "AOC", "APPLY")


@dataclass
class Diagnostic:
    code: str
    severity: str            # error | warning
    message: str
    file: str | None = None
    line: int | None = None
    column: int | None = None

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError("unknown diagnostic code %r" % self.code)
        if self.severity not in ("error", "warning"):
            raise ValueError("unknown severity %r" % self.severity)

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
