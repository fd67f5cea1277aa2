"""Delta application: order constraints, application, pretty-printing.

A delta may declare an application-order constraint -- a boolean formula
over delta names that must hold, with each name reading as "that delta was
applied earlier", at the moment the delta is applied.  ``validate_order``
checks a whole plan; ``apply``/``apply_all`` run deltas through the same
engine the context checker uses, on one copy of the core, and raise on any
violated condition.

``pretty_print`` turns a model tree back into source text by replaying
the node's slots and recorded terminals against its grammar production.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

from .checker import Engine
from .diagnostics import Diagnostic, has_errors
from .parsing import _omissible
from .model import (
    Alternative,
    BUILTIN_NAME,
    GrammarError,
    Group,
    NontermRef,
    Sequence,
    Terminal,
)


class DeltaApplyError(Exception):
    """Raised when a delta cannot be applied; carries diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        head = self.diagnostics[0].message if self.diagnostics else "apply failed"
        super().__init__(head)


# ---------------------------------------------------------------------------
# Application-order constraints

class AocExpr:
    def evaluate(self, applied):
        raise NotImplementedError

    def names(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Atom(AocExpr):
    name: str

    def evaluate(self, applied):
        return self.name in applied

    def names(self):
        return {self.name}


@dataclass(frozen=True)
class Not(AocExpr):
    inner: AocExpr

    def evaluate(self, applied):
        return not self.inner.evaluate(applied)

    def names(self):
        return self.inner.names()


@dataclass(frozen=True)
class And(AocExpr):
    items: tuple

    def evaluate(self, applied):
        return all(i.evaluate(applied) for i in self.items)

    def names(self):
        out = set()
        for i in self.items:
            out |= i.names()
        return out


@dataclass(frozen=True)
class Or(AocExpr):
    items: tuple

    def evaluate(self, applied):
        return any(i.evaluate(applied) for i in self.items)

    def names(self):
        out = set()
        for i in self.items:
            out |= i.names()
        return out


def _aoc_from_node(node):
    if node.production == "ApplicationOrderConstraint":
        terms = tuple(_aoc_from_node(t) for t in node.slots.get("terms", []))
        return terms[0] if len(terms) == 1 else Or(items=terms)
    if node.production == "AocTerm":
        factors = tuple(_aoc_from_node(f) for f in node.slots.get("factors", []))
        return factors[0] if len(factors) == 1 else And(items=factors)
    if node.production == "AocFactor":
        if "negated" in node.slots:
            return Not(inner=_aoc_from_node(node.slots["negated"]))
        if "inner" in node.slots:
            return _aoc_from_node(node.slots["inner"])
        return Atom(name=node.slots["delta"].text)
    raise GrammarError(
        "unexpected node %r in order constraint" % node.production)


def extract_aoc(delta_node):
    """The delta's application-order constraint, or None if absent."""
    raw = delta_node.slots.get("ApplicationOrderConstraint")
    return _aoc_from_node(raw) if raw is not None else None


def validate_order(deltas):
    """Check order constraints of a plan (parsed Delta nodes, application
    order).  A delta's atoms read as "applied before me"; violations are
    errors, references to deltas outside the plan are warnings."""
    diags = []
    names = [d.name() for d in deltas]
    known = set(names)
    for i, node in enumerate(deltas):
        aoc = extract_aoc(node)
        if aoc is None:
            continue
        for unknown in sorted(aoc.names() - known):
            diags.append(Diagnostic(
                code="AOC", severity="warning",
                message="constraint of delta %r mentions %r, which is not "
                        "part of the plan" % (names[i], unknown)))
        if not aoc.evaluate(set(names[:i])):
            diags.append(Diagnostic(
                code="AOC", severity="error",
                message="application-order constraint of delta %r is not "
                        "satisfied at position %d" % (names[i], i + 1)))
    return diags


# ---------------------------------------------------------------------------
# Application

def apply(core, delta, L_flat, dL_flat):
    """Apply one delta to a core model; returns the new model tree and
    leaves ``core`` as it was.  Any violated context condition aborts with
    DeltaApplyError."""
    return _apply_in_place(copy.deepcopy(core), delta, L_flat, dL_flat)


def _apply_in_place(work, delta, L_flat, dL_flat):
    work, diags = Engine(work, delta, L_flat, dL_flat).run()
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise DeltaApplyError([
            dataclasses.replace(d, code="APPLY",
                                message="%s: %s" % (d.code, d.message))
            for d in errors])
    return work


def apply_all(core, deltas, L_flat, dL_flat, validate=True):
    """Left-fold a delta sequence over a copy of the core model."""
    if validate:
        diags = validate_order(deltas)
        if has_errors(diags):
            raise DeltaApplyError(diags)
    work = copy.deepcopy(core)
    for delta in deltas:
        work = _apply_in_place(work, delta, L_flat, dL_flat)
    return work


# ---------------------------------------------------------------------------
# Grammar-driven pretty-printing

_MISSING = object()


def _take_slot(slots, key):
    val = slots.get(key, _MISSING)
    if val is _MISSING:
        return None
    if isinstance(val, tuple):
        if not val:
            return None
        new = dict(slots)
        new[key] = val[1:]
        return val[0], new
    new = dict(slots)
    del new[key]
    return val, new


def _match(flat, expr, state):
    """Yield (atoms, remaining state) for every way ``expr`` can account
    for a prefix of the node's slot values and recorded terminals."""
    slots, terms = state
    if isinstance(expr, Terminal):
        if terms and terms[0] == expr.text:
            yield [expr.text], (slots, terms[1:])
    elif isinstance(expr, NontermRef):
        taken = _take_slot(slots, expr.key)
        if taken is not None:
            child, new_slots = taken
            yield _render(flat, child), (new_slots, terms)
    elif isinstance(expr, Sequence):
        yield from _match_seq(flat, expr.items, 0, state)
    elif isinstance(expr, Alternative):
        for branch in expr.branches:
            yield from _match(flat, branch, state)
    elif isinstance(expr, Group):
        if expr.cardinality == "one":
            yield from _match(flat, expr.inner, state)
        elif expr.cardinality == "optional":
            yield from _match(flat, expr.inner, state)
            yield [], state
        else:
            yield from _match_rep(flat, expr.inner, state,
                                  expr.cardinality == "plus")
    else:
        raise TypeError(expr)


def _match_seq(flat, items, i, state):
    if i == len(items):
        yield [], state
        return
    for atoms, st in _match(flat, items[i], state):
        for rest, st2 in _match_seq(flat, items, i + 1, st):
            yield atoms + rest, st2
    # relaxed-parsed fragments omit trailing omissible items; allow the
    # same early stop here (the exhaustion check at the top filters it)
    if all(_omissible(it) for it in items[i:]):
        yield [], state


def _match_rep(flat, inner, state, need_one):
    for atoms, st in _match(flat, inner, state):
        if st == state:
            break
        for rest, st2 in _match_rep(flat, inner, st, False):
            yield atoms + rest, st2
    if not need_one:
        yield [], state


def _render(flat, node):
    if node.production == BUILTIN_NAME:
        return [node.text]
    prod = flat.production(node.production)
    slots = {k: tuple(v) if isinstance(v, list) else v
             for k, v in node.slots.items()}
    for atoms, (left, terms) in _match(flat, prod.rhs, (slots, tuple(node.terminals))):
        exhausted = not terms and all(
            isinstance(v, tuple) and not v for v in left.values())
        if exhausted:
            return atoms
    raise GrammarError(
        "cannot render %s node against its production" % node.production)


_NO_SPACE_BEFORE = frozenset({";", ",", ".", "(", ")", "]"})
_NO_SPACE_AFTER = ("(", "[", ".", "!")


def pretty_print(flat, node):
    """Render a model tree to source text with block indentation."""
    atoms = _render(flat, node)
    lines = []
    cur = ""
    indent = 0

    def emit(atom):
        nonlocal cur
        if not cur:
            cur = "  " * indent + atom
        elif atom in _NO_SPACE_BEFORE or cur.endswith(_NO_SPACE_AFTER):
            cur += atom
        else:
            cur += " " + atom

    def newline():
        nonlocal cur
        if cur:
            lines.append(cur)
            cur = ""

    for i, atom in enumerate(atoms):
        following = atoms[i + 1] if i + 1 < len(atoms) else None
        if atom == "{":
            emit("{")
            newline()
            indent += 1
        elif atom == "}":
            newline()
            indent -= 1
            emit("}")
            newline()
        elif atom == ";":
            emit(";")
            if following != "{":
                newline()
        else:
            emit(atom)
    newline()
    return "\n".join(lines) + "\n"
