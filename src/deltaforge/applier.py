"""Delta application: order constraints, application, pretty-printing.

A delta may declare an application-order constraint -- a boolean formula
over delta names that must hold, with each name reading as "that delta was
applied earlier", at the moment the delta is applied.  ``validate_order``
checks a whole plan, and ``run_plan``, the CLI's and the library's one
plan loop, runs it on one ``checker.Engine``; ``apply``/``apply_all`` run
a delta or a plan on a copy of the core and raise on any violated
condition.

``pretty_print`` turns a model tree back into source text, in one walk
that costs what the tree holds.  A node's way through its production
(``parsing.replay``) depends only on its shape (``parsing.shape``): its
production, recorded terminals and how many values each slot holds,
where a list that one run of its group reads counts only as empty or
not.  So each shape class is replayed once per grammar, and its template
is cached on the grammar; a block of any length is one class.  The walk
lays each atom out as it meets it: a line ends after ``{``, after ``}``
and after a ``;`` that no ``{`` follows, a ``}`` starts its own line,
and within a line atoms are glued by one space, except none before
``; , . ( ) ]`` and none after ``( [ . !``.
"""

from __future__ import annotations

import copy

from .checker import Engine, position
from .diagnostics import Diagnostic, has_errors
from .parsing import PausedGC, replay, shape
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
    name borne twice in a scope once per plan, in ``core_file`` or the
    delta that brought it in, ``Engine.run``).  No delta runs if the
    order fails, none after an error."""
    diags = validate_order([node for _, node in plan],
                           [path for path, _ in plan])
    if has_errors(diags):
        return diags
    engine = Engine(work, L_flat, dL_flat)
    diags += engine.duplicates(core_file)
    for path, node in plan:
        step = engine.run(node, path)
        diags += step
        if has_errors(step):
            break
    return diags


def _applied(work, diags):
    """``work``, unless ``diags`` hold an error: then raise them, failed
    order constraints as they are, the engine's errors recoded as APPLY."""
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise DeltaApplyError(diags if errors[0].code == "AOC" else [
            Diagnostic("APPLY", d.severity, "%s: %s" % (d.code, d.message),
                       d.file, d.line, d.column)
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

_NO_SPACE_BEFORE = frozenset({";", ",", ".", "(", ")", "]"})
_NO_SPACE_AFTER = frozenset({"(", "[", ".", "!"})
#: The atoms laid out past the common case: those that end or start a
#: line, and those glued to the atom before.
_BREAKS_OR_TIGHT = _NO_SPACE_BEFORE | {"{", "}"}


def _template(flat, kind):
    """The way of the nodes of one shape (``parsing.shape``), reversed for
    the printer's stack and cached on the grammar: a literal, or ``(slot,
    None)`` for a slot's one value, ``(slot, i)`` for the i-th value of a
    list, and ``(slot, True)`` for every value of a list that one run
    reads (``model.SlotInfo.once``), whose one value in the shape stands
    for them all."""
    way = replay(flat, kind, recorded=True)
    if way is None:
        raise GrammarError("cannot render %s node against its production"
                           % kind[0])
    plan = flat.slot_plan(kind[0])
    lists = {entry[0] for entry in kind[2:] if type(entry) is tuple}
    template = flat.printed[kind] = tuple(
        item if type(item) is str else
        (item[0], None) if item[0] not in lists else
        (item[0], True) if plan[item[0]].once else item
        for item in reversed(way))
    return template


def pretty_print(flat, node):
    """Render a model tree to source text with block indentation.

    One walk, by a loop over an explicit stack so nesting depth costs no
    recursion, replays each shape class of node once (``_template``:
    nodes of one production, terminals and slot counts, a list that one
    run reads counting only as empty or not) and lays each atom (a
    literal or a ``Name`` text) out as it meets it.  A line ends after
    ``{``, after ``}`` and after a ``;`` that no ``{`` follows, and a
    ``}`` starts its own line, two spaces less indented than the block it
    closes; an unbalanced ``}`` may take the depth below zero, which
    indents as zero.  Within a line atoms are glued by one space, except
    none before ``; , . ( ) ]`` and none after an atom that ends in one
    of ``( [ . !``.  The cyclic collector is paused while the tree is
    rendered (see ``parsing.PausedGC``)."""
    out = []
    depth = 0
    glue = None               # before the next atom; None at a line's start
    semi = False              # the atom before was a ";"
    stack = [node]
    push, pop, emit = stack.append, stack.pop, out.append
    printed = flat.printed
    with PausedGC():
        while stack:
            atom = pop()
            if atom.__class__ is not str:
                if atom.production != BUILTIN_NAME:
                    slots = atom.slots
                    kind = shape(flat, atom)
                    template = printed.get(kind)
                    if template is None:
                        template = _template(flat, kind)
                    for item in template:
                        if item.__class__ is str:
                            push(item)
                            continue
                        key, i = item
                        val = slots[key]
                        if i is None:
                            push(val.text if val.production == BUILTIN_NAME
                                 else val)
                        elif i is True:
                            stack += reversed(val)
                        else:
                            push(val[i])
                    continue
                atom = atom.text
            if semi:
                semi = False
                if atom != "{":
                    emit("\n")
                    glue = None
            if atom not in _BREAKS_OR_TIGHT:
                emit(("  " * depth if glue is None else glue) + atom)
                if atom:
                    glue = "" if atom[-1] in _NO_SPACE_AFTER else " "
                elif glue is None and depth > 0:
                    glue = " "    # an empty atom: the line holds its indent
                continue
            if atom == "}":
                depth -= 1
                emit(("" if glue is None else "\n") + "  " * depth + "}\n")
                glue = None
                continue
            if glue is None:
                emit("  " * depth + atom)
            elif atom == "{":
                emit(glue + atom)
            else:
                emit(atom)
            if atom == "{":
                emit("\n")
                glue = None
                depth += 1
            else:
                glue = "" if atom[-1] in _NO_SPACE_AFTER else " "
                semi = atom == ";"
    if glue is not None:
        emit("\n")
    return "".join(out) or "\n"
