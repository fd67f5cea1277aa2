"""Delta application: order constraints, application, pretty-printing.

A delta may declare an application-order constraint -- a boolean formula
over delta names that must hold, with each name reading as "that delta was
applied earlier", at the moment the delta is applied.  ``validate_order``
checks a whole plan, and ``run_plan``, the CLI's and the library's one
plan loop, runs it on one ``checker.Engine``; ``apply``/``apply_all`` run
a delta or a plan on a copy of the core and raise on any violated
condition.

``pretty_print`` turns a model tree back into source text by replaying
each node's slots and recorded terminals against its grammar production
(``parsing.replay``), once per node shape.
"""

from __future__ import annotations

import copy
import dataclasses

from .checker import Engine, duplicate_warnings, position
from .diagnostics import Diagnostic, has_errors
from .parsing import PausedGC, replay
from .model import BUILTIN_NAME, GrammarError


class DeltaApplyError(Exception):
    """Raised when a delta cannot be applied; carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        head = self.diagnostics[0].message if self.diagnostics else "apply failed"
        super().__init__(head)


# ---------------------------------------------------------------------------
# Application-order constraints

def _holds(node, applied):
    """Does an order constraint hold when the deltas named in ``applied``
    came before?  An ``ApplicationOrderConstraint`` node is the
    disjunction of its terms, an ``AocTerm`` the conjunction of its
    factors, and an ``AocFactor`` a negation, a parenthesized constraint
    or a delta name."""
    slots = node.slots
    if node.production == "ApplicationOrderConstraint":
        return any(_holds(term, applied) for term in slots["terms"])
    if node.production == "AocTerm":
        return all(_holds(factor, applied) for factor in slots["factors"])
    if "negated" in slots:
        return not _holds(slots["negated"], applied)
    if "inner" in slots:
        return _holds(slots["inner"], applied)
    return slots["delta"].text in applied


def _mentioned(node):
    """The delta names in an order constraint."""
    names, stack = set(), [node]
    while stack:
        for key, val in stack.pop().slots.items():
            if key == "delta":
                names.add(val.text)
            else:
                stack += val if isinstance(val, list) else [val]
    return names


def validate_order(deltas, files=None):
    """Check order constraints of a plan (parsed Delta nodes, application
    order).  A delta's atoms read as "applied before me"; violations are
    errors, references to deltas outside the plan are warnings.  Each
    diagnostic is placed at its delta's constraint, in ``files[i]`` for
    the i-th delta if the files are given."""
    diags = []
    names = [d.name() for d in deltas]
    known = set(names)
    for i, node in enumerate(deltas):
        aoc = node.slots.get("ApplicationOrderConstraint")
        if aoc is None:
            continue
        where = dict(position(node.tokens, aoc),
                     file=files[i] if files else None)
        for unknown in sorted(_mentioned(aoc) - known):
            diags.append(Diagnostic(
                code="AOC", severity="warning",
                message="constraint of delta %r mentions %r, which is not "
                        "part of the plan" % (names[i], unknown), **where))
        if not _holds(aoc, set(names[:i])):
            diags.append(Diagnostic(
                code="AOC", severity="error",
                message="application-order constraint of delta %r is not "
                        "satisfied at position %d" % (names[i], i + 1),
                **where))
    return diags


# ---------------------------------------------------------------------------
# Application

def run_plan(work, plan, L_flat, dL_flat, core_file=None):
    """Run a plan of ``(file, Delta node)`` pairs in place on ``work``
    through one engine; returns the diagnostics, each under its file (a
    duplicate-name warning once per plan, under ``core_file`` or the delta
    before it).  No delta runs if the order fails, none after an error."""
    diags = validate_order([node for _, node in plan],
                           [path for path, _ in plan])
    if has_errors(diags):
        return diags
    engine = Engine(work, L_flat, dL_flat)
    reported = set()
    source = core_file
    for path, node in plan:
        for d in duplicate_warnings(engine.table):
            if d.message not in reported:
                reported.add(d.message)
                d.file = source
                diags.append(d)
        step = engine.run(node)
        for d in step:
            d.file = path
        diags += step
        if has_errors(step):
            break
        source = path
    return diags


def _applied(work, diags):
    """``work``, unless ``diags`` hold an error: then raise them, failed
    order constraints as they are, the engine's errors recoded as APPLY."""
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise DeltaApplyError(diags if errors[0].code == "AOC" else [
            dataclasses.replace(d, code="APPLY",
                                message="%s: %s" % (d.code, d.message))
            for d in errors])
    return work


def apply(core, delta, L_flat, dL_flat):
    """Apply one delta to a core model; returns the new model tree and
    leaves ``core`` as it was.  Any violated context condition aborts with
    DeltaApplyError."""
    work = copy.deepcopy(core)
    return _applied(work, Engine(work, L_flat, dL_flat).run(delta))


def apply_all(core, deltas, L_flat, dL_flat):
    """Left-fold a delta sequence over a copy of the core model, once
    its order constraints hold (``run_plan``)."""
    work = copy.deepcopy(core)
    return _applied(work, run_plan(work, [(None, d) for d in deltas],
                                   L_flat, dL_flat))


# ---------------------------------------------------------------------------
# Grammar-driven pretty-printing

def _render(flat, root):
    """Atoms of the tree, in order, by a loop over an explicit stack of
    atoms and nodes still to render, so nesting depth costs no
    recursion."""
    atoms = []
    templates = {}            # node shape -> the way its replay found
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            atoms.append(node)
            continue
        if node.production == BUILTIN_NAME:
            atoms.append(node.text)
            continue
        # the replay reads the terminals and how many values each slot
        # holds, never the values: nodes of one shape share its result
        shape = (node.production, node.terminals) + tuple(
            (key, len(val) if isinstance(val, list) else None)
            for key, val in node.slots.items())
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = replay(flat, node, recorded=True)
            if template is None:
                raise GrammarError("cannot render %s node against its "
                                   "production" % node.production)
        for item in reversed(template):
            if not isinstance(item, str):
                key, i = item
                item = node.slots[key]
                if isinstance(item, list):
                    item = item[i]
            stack.append(item)
    return atoms


_NO_SPACE_BEFORE = frozenset({";", ",", ".", "(", ")", "]"})
_NO_SPACE_AFTER = ("(", "[", ".", "!")


def pretty_print(flat, node):
    """Render a model tree to source text with block indentation: a line
    ends after ``{``, after ``}`` and after a ``;`` that no ``{`` follows,
    and a ``}`` starts its own line.  The cyclic collector is paused while
    the tree is rendered (see ``parsing.PausedGC``)."""
    with PausedGC():
        atoms = _render(flat, node)
    lines = []
    cur = ""
    indent = 0
    for i, atom in enumerate(atoms):
        if atom == "}":
            if cur:
                lines.append(cur)
            cur = ""
            indent -= 1
        if not cur:
            cur = "  " * indent + atom
        elif atom in _NO_SPACE_BEFORE or cur.endswith(_NO_SPACE_AFTER):
            cur += atom
        else:
            cur += " " + atom
        if atom == "{" or atom == "}" or \
                atom == ";" and atoms[i + 1:i + 2] != ["{"]:
            lines.append(cur)
            cur = ""
        if atom == "{":
            indent += 1
    if cur:
        lines.append(cur)
    return "\n".join(lines) + "\n"
