"""Seeded statechart product lines with an independent reference model.

A product is a core statechart plus a chain of deltas. The generator
draws both from a ``random.Random``; it keeps its own plain-Python model
of the statechart and applies every generated operation to it, so it
knows, without running deltaforge, the variant each chain must produce
(rendered in the pretty-printer's canonical layout) or, for rejected
deltas, the ``(code, line)`` diagnostics and the exit code.

Nothing here imports deltaforge.  The model follows the documented
semantics of the statechart language and its delta language:

* names are resolved segment by segment among the direct child states of
  the current scope; bracketed transition identifiers match on the
  slots they give;
* ``add`` appends to the scope's element list, ``remove`` deletes the
  addressed element with its subtree;
* ``set name`` renames a state and rewrites every identifier that
  resolves to it: from the scope that holds the identifier, the nearest
  enclosing scope whose subtree holds states of that name decides, and
  only a unique match is rewritten;
* a state whose element list was added to or removed from is printed
  with a block, even when the block is empty.

State names are globally unique and never reused, guard conditions are
``c<k>`` and methods ``m<k>``, so no identifier is ambiguous.
"""

from __future__ import annotations

import random

# Share of operations that are renames (``modify state X { set name Y; }``),
# the rate of the bundled voicemail case study: one of its six operations.
RENAME_EVERY = 6

# Elements per composite state of a bigmodel core: well below the parser's
# recursion cap of about 977 elements in one block.
BIG_BLOCK = 400

CC_CODES = ("CC1", "CC2", "CC3", "CC4", "CC5", "CC6", "CC7")


# ---------------------------------------------------------------------------
# Reference model

class State:
    __slots__ = ("name", "initial", "block", "children", "parent")

    def __init__(self, name, parent=None, initial=False, block=False):
        self.name = name
        self.parent = parent
        self.initial = initial
        self.block = block
        self.children = []

    def states(self):
        return [c for c in self.children if isinstance(c, State)]

    def transitions(self):
        return [c for c in self.children if isinstance(c, Transition)]

    def walk(self):
        """Every state strictly below this one, depth first."""
        for c in self.children:
            if isinstance(c, State):
                yield c
                yield from c.walk()

    def path(self):
        """Names from the chart's direct child down to this state."""
        out = []
        s = self
        while s.parent is not None:
            out.append(s.name)
            s = s.parent
        return out[::-1]

    def depth(self):
        return len(self.path())

    def size(self):
        """Elements in this subtree, the state itself included."""
        return 1 + sum(c.size() if isinstance(c, State) else 1
                       for c in self.children)


class Transition:
    __slots__ = ("source", "target", "guard", "call")

    def __init__(self, source, target, guard=None, call=None):
        self.source = source
        self.target = target
        self.guard = guard      # None or (negated, condition)
        self.call = call        # None (no body) or method name

    def text(self):
        out = "%s -> %s" % (self.source, self.target)
        if self.call is None:
            return out + ";"
        guard = ""
        if self.guard is not None:
            guard = "[%s%s] " % ("!" if self.guard[0] else "", self.guard[1])
        return out + " : %s%s();" % (guard, self.call)

    def fragment(self):
        return "[%s -> %s]" % (self.source, self.target)


class Chart(State):
    """The document: a state-like container whose name is the chart's."""

    __slots__ = ()

    def render(self):
        lines = ["statechart %s {" % self.name]
        _render_children(self.children, 1, lines)
        lines.append("}")
        return "\n".join(lines) + "\n"


def _state_head(s):
    return "%sstate %s" % ("initial " if s.initial else "", s.name)


def _render_children(children, depth, lines):
    ind = "  " * depth
    for c in children:
        if isinstance(c, Transition):
            lines.append(ind + c.text())
        elif c.block:
            lines.append(ind + _state_head(c) + " {")
            _render_children(c.children, depth + 1, lines)
            lines.append(ind + "}")
        else:
            lines.append(ind + _state_head(c) + ";")


def state_text(s):
    """One-line source of a state subtree, as written inside a delta."""
    if not s.block:
        return _state_head(s) + ";"
    inner = " ".join(state_text(c) if isinstance(c, State) else c.text()
                     for c in s.children)
    return "%s { %s }" % (_state_head(s), inner) if inner \
        else _state_head(s) + " { }"


def lookup(chart, scope, name):
    """The state an identifier ``name`` held in ``scope`` resolves to for
    a rename, or None when no unique state answers."""
    cur = scope
    while cur is not None:
        found = [s for s in cur.walk() if s.name == name]
        if found:
            return found[0] if len(found) == 1 else None
        cur = cur.parent
    return chart if chart.name == name else None


def rename(chart, state, new):
    old = state.name
    rewrites = []
    if old != new:
        for scope in [chart] + list(chart.walk()):
            for t in scope.transitions():
                fields = [("source", t.source), ("target", t.target)]
                if t.guard is not None:
                    fields.append(("guard", t.guard[1]))
                if t.call is not None:
                    fields.append(("call", t.call))
                for key, text in fields:
                    if text == old and lookup(chart, scope, old) is state:
                        rewrites.append((t, key))
    state.name = new
    for t, key in rewrites:
        if key == "guard":
            t.guard = (t.guard[0], new)
        else:
            setattr(t, key, new)


# ---------------------------------------------------------------------------
# Generation

class Names:
    """Fresh identifiers; a name is never handed out twice."""

    def __init__(self):
        self.next = 0

    def state(self):
        self.next += 1
        return "S%d" % self.next


def _random_transition(rng, source, target):
    if rng.random() < 0.15:
        return Transition(source, target)
    guard = None
    if rng.random() < 0.8:
        guard = (rng.random() < 0.4, "c%d" % rng.randrange(12))
    return Transition(source, target, guard, "m%d" % rng.randrange(12))


def _add_transitions(rng, scope, count):
    """Add up to ``count`` transitions between states of the scope's
    subtree, keeping (source, target) pairs unique within the scope."""
    pool = [s.name for s in scope.walk()] or [scope.name]
    pairs = {(t.source, t.target) for t in scope.transitions()}
    for _ in range(count):
        for _try in range(8):
            pair = (rng.choice(pool), rng.choice(pool))
            if pair not in pairs:
                pairs.add(pair)
                scope.children.append(_random_transition(rng, *pair))
                break


def make_core(rng, names, n_states, depth, chart_name="M"):
    """A core with ``n_states`` states and about as many transitions.

    The skeleton is fixed by the shape, so products of one shape cost
    about the same: one composite state per 12 states, spread evenly over
    nesting levels 1 to ``depth`` (each under a random composite of the
    level above), a third of the leaves in the chart's own block and the
    rest dealt round-robin to the composites."""
    chart = Chart(chart_name, block=True)
    levels = [[chart]]
    composites = []
    for i in range(max(depth, n_states // 12)):
        level = 1 + i % depth
        parent = rng.choice(levels[level - 1])
        s = State(names.state(), parent, block=True)
        parent.children.append(s)
        composites.append(s)
        if len(levels) == level:
            levels.append([])
        levels[level].append(s)
    leaves = n_states - len(composites)
    for j in range(leaves):
        parent = chart if j < leaves // 3 else \
            composites[j % len(composites)]
        parent.children.append(State(names.state(), parent,
                                     initial=rng.random() < 0.05))
    # about as many transitions as states, in the scopes that own them
    for scope in [chart] + composites:
        _add_transitions(rng, scope, len(scope.states()))
        rng.shuffle(scope.children)
    return chart


def make_big_core(rng, names, n_elements):
    """About ``n_elements`` states and transitions in composite states of
    at most ``BIG_BLOCK`` elements, one or two levels deep."""
    chart = Chart("Big", block=True)
    made = 0
    while made < n_elements:
        outer = State(names.state(), chart, block=True)
        chart.children.append(outer)
        made += 1
        target = min(BIG_BLOCK, n_elements - made)
        scopes = [outer]
        if rng.random() < 0.5 and target > 40:
            inner = State(names.state(), outer, block=True)
            outer.children.append(inner)
            scopes.append(inner)
            made += 1
            target -= 1
        for scope in scopes:
            share = target // len(scopes)
            for _ in range(share // 2):
                scope.children.append(State(names.state(), scope))
            _add_transitions(rng, scope, share - share // 2)
            made += share
    return chart


class Op:
    """One generated delta operation: its source lines and, for rejected
    operations, which line the diagnostic points at and its code."""

    __slots__ = ("lines", "diag_at", "code", "mutates")

    def __init__(self, lines, diag_at=0, code=None, mutates=True):
        self.lines = lines
        self.diag_at = diag_at
        self.code = code
        self.mutates = mutates


def _wrap(scope, inner):
    """Lines that run ``inner`` in the scope of ``scope`` from the chart's
    modify block: a dotted ``modify state`` path unless it is the chart."""
    if scope.parent is None:
        return inner, 0
    return (["modify state %s {" % ".".join(scope.path())]
            + ["  " + line for line in inner] + ["}"], 1)


def _target_scope(rng, chart):
    """Where an add goes: the chart's own (large) block one time in four,
    else a random state, which turns a leaf into a composite."""
    states = list(chart.walk())
    return chart if not states or rng.random() < 0.25 else rng.choice(states)


def _pick_transition(rng, chart):
    """A random transition of the whole chart, with the scope holding it."""
    found = [(scope, t) for scope in [chart] + list(chart.walk())
             for t in scope.transitions()]
    return rng.choice(found) if found else (None, None)


def _valid_op(rng, chart, names, kind):
    """Draw one applicable operation of ``kind``, apply it to the model
    and return its Op; None when the model offers no target."""
    states = list(chart.walk())
    if kind == "rename":
        if not states:
            return None
        s = rng.choice(states)
        new = names.state()
        lines = ["modify state %s {" % ".".join(s.path()),
                 "  set name %s;" % new, "}"]
        rename(chart, s, new)
        return Op(lines)
    if kind == "add_state":
        scope = _target_scope(rng, chart)
        s = State(names.state(), scope, initial=rng.random() < 0.05)
        if rng.random() < 0.25:
            s.block = True
            for _ in range(rng.randint(1, 3)):
                s.children.append(State(names.state(), s))
            _add_transitions(rng, s, rng.randint(0, 2))
        scope.children.append(s)
        scope.block = True
        inner, at = _wrap(scope, ["add %s" % state_text(s)])
        return Op(inner, at)
    if kind == "add_transition":
        scope = _target_scope(rng, chart)
        pool = [x.name for x in scope.walk()] or [x.name for x in states]
        if not pool:
            return None
        pairs = {(t.source, t.target) for t in scope.transitions()}
        pair = (rng.choice(pool), rng.choice(pool))
        if pair in pairs:
            return None
        t = _random_transition(rng, *pair)
        scope.children.append(t)
        scope.block = True
        inner, at = _wrap(scope, ["add %s" % t.text()])
        return Op(inner, at)
    if kind == "retarget":
        scope, t = _pick_transition(rng, chart)
        if t is None:
            return None
        key = rng.choice(("source", "target"))
        new = rng.choice([x.name for x in scope.walk()]
                         or [x.name for x in states])
        pair = (new, t.target) if key == "source" else (t.source, new)
        if pair in {(u.source, u.target) for u in scope.transitions()}:
            return None
        lines = ["modify transition %s {" % t.fragment(),
                 "  set %s %s;" % (key, new), "}"]
        setattr(t, key, new)
        inner, at = _wrap(scope, lines)
        return Op(inner, at)
    if kind == "remove_state":
        small = [s for s in states if s.size() <= 4]
        if not small:
            return None
        s = rng.choice(small)
        path = s.path()
        s.parent.children.remove(s)
        s.parent.block = True
        return Op(["remove %s;" % ".".join(path)])
    if kind == "remove_transition":
        scope, t = _pick_transition(rng, chart)
        if t is None:
            return None
        scope.children.remove(t)
        scope.block = True
        inner, at = _wrap(scope, ["remove %s;" % t.fragment()])
        return Op(inner, at)
    raise ValueError(kind)


_VALID_KINDS = ("add_state", "add_transition", "retarget", "remove_state",
                "remove_transition")
_VALID_WEIGHTS = (3, 3, 3, 1, 1)


def _kinds(rng, m):
    """Operation kinds of one delta: ``m`` operations of which one in
    ``RENAME_EVERY`` (rounded half up) is a rename, at seeded positions."""
    renames = (m + RENAME_EVERY // 2) // RENAME_EVERY
    kinds = ["rename"] * renames + rng.choices(
        _VALID_KINDS, _VALID_WEIGHTS, k=m - renames)
    rng.shuffle(kinds)
    return kinds


def valid_ops(rng, chart, names, m):
    ops = []
    for kind in _kinds(rng, m):
        op = None
        while op is None:
            op = _valid_op(rng, chart, names, kind)
            if op is None:
                kind = rng.choice(_VALID_KINDS[:2])
        ops.append(op)
    return ops


def _reject_op(rng, chart, names, code, rename_shaped):
    """One operation that violates exactly ``code`` and changes nothing.
    With ``rename_shaped`` it is a ``modify state P { set name Y; }``
    block whose path fails."""
    states = list(chart.walk())
    scope, t = _pick_transition(rng, chart)
    fresh = names.state()
    if rename_shaped:
        body = ["  set name %s;" % names.state(), "}"]
        if code == "CC1":
            prefix = rng.choice(states).path() if rng.random() < 0.5 \
                else []
            return Op(["modify state %s {" % ".".join(prefix + [fresh])]
                      + body, code=code, mutates=False)
        path = t.fragment() + ("." + fresh if code == "CC3" else "")
        inner, at = _wrap(scope, ["modify state %s {" % path] + body)
        return Op(inner, at, code, False)
    if code == "CC1":
        if rng.random() < 0.5:
            prefix = rng.choice(states).path()
            lines = ["modify state %s {" % ".".join(prefix + [fresh]),
                     "  add state %s;" % names.state(), "}"]
            return Op(lines, 0, code, False)
        lines = ["modify transition [%s -> %s] {" % (fresh, fresh),
                 "  set target %s;" % fresh, "}"]
        inner, at = _wrap(scope, lines)
        return Op(inner, at, code, False)
    if code == "CC2":
        s = rng.choice(states)
        return Op(["modify transition %s {" % ".".join(s.path()),
                             "  set target %s;" % s.name, "}"],
                  0, code, False)
    if code == "CC3":
        inner, at = _wrap(scope, ["modify state %s.%s {" % (t.fragment(),
                                                             fresh),
                                  "  add state %s;" % names.state(), "}"])
        return Op(inner, at, code, False)
    if code == "CC4":
        inner, at = _wrap(scope, ["modify transition %s {" % t.fragment(),
                                  "  add state %s;" % fresh, "}"])
        return Op(inner, at + 1, code, False)
    if code == "CC5":
        if rng.random() < 0.5:
            inner, at = _wrap(_target_scope(rng, chart),
                              ["set state %s;" % fresh])
            return Op(inner, at, code, False)
        inner, at = _wrap(scope, ["modify transition %s {" % t.fragment(),
                                  "  remove source %s;" % t.source, "}"])
        return Op(inner, at + 1, code, False)
    if code == "CC6":
        if rng.random() < 0.5:
            s = rng.choice(states)
            inner, at = _wrap(s.parent, ["add state %s;" % s.name])
            return Op(inner, at, code, False)
        inner, at = _wrap(scope, ["add %s" % t.text()])
        return Op(inner, at, code, False)
    if code == "CC7":
        if rng.random() < 0.5:
            prefix = rng.choice(states).path() if rng.random() < 0.5 else []
            return Op(["remove %s;" % ".".join(prefix + [fresh])],
                      0, code, False)
        inner, at = _wrap(scope, ["remove [%s -> %s];" % (fresh, fresh)])
        return Op(inner, at, code, False)
    raise ValueError(code)


def reject_ops(rng, chart, names, m):
    ops = []
    for kind in _kinds(rng, m):
        if kind == "rename":
            code = rng.choice(("CC1", "CC2", "CC3"))
        else:
            code = rng.choice(CC_CODES)
        ops.append(_reject_op(rng, chart, names, code, kind == "rename"))
    return ops


# ---------------------------------------------------------------------------
# Deltas and products

def _true_constraint(rng, before, later):
    """An order constraint over plan deltas that holds when the deltas in
    ``before`` were applied and those in ``later`` were not."""
    while True:
        terms = []
        for _ in range(rng.randint(1, 2)):
            factors = []
            for _ in range(rng.randint(1, 2)):
                if later and rng.random() < 0.3:
                    factors.append(("!" + rng.choice(later), False))
                else:
                    factors.append((rng.choice(before), True))
            terms.append(factors)
        # the formula is a disjunction of conjunctions; evaluate it here
        if any(all(holds for _, holds in t) for t in terms):
            return " || ".join(" && ".join(f for f, _ in t) for t in terms)


def delta_text(name, constraint, chart_name, ops):
    """Source text of a delta and, per op, the 1-based line its
    diagnostic would point at."""
    head = "delta %s%s {" % (name, " after " + constraint if constraint
                             else "")
    lines = [head, "  modify statechart %s {" % chart_name]
    at = []
    for op in ops:
        at.append(len(lines) + 1 + op.diag_at)
        lines.extend("    " + line for line in op.lines)
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n", at


class Product:
    """A core and its delta chain, with what deltaforge must answer."""

    def __init__(self, pid, core_text, deltas, variant, diagnostics,
                 exit_code, ops, mutating_ops):
        self.pid = pid
        self.core_text = core_text
        self.deltas = deltas            # [(delta name, text)], in order
        self.variant = variant          # expected output text, or None
        self.diagnostics = diagnostics  # expected [(code, line)]
        self.exit_code = exit_code
        self.ops = ops                  # operations per delta
        self.mutating_ops = mutating_ops


def evolve_product(rng, pid, n_states, m, chain, depth):
    names = Names()
    chart = make_core(rng, names, n_states, depth)
    core_text = chart.render()
    plan = ["D%d" % (i + 1) for i in range(chain)]
    deltas, ops, mut = [], [], []
    for i, name in enumerate(plan):
        constraint = None
        if i > 0 and rng.random() < 0.7:
            constraint = _true_constraint(rng, plan[:i], plan[i + 1:])
        delta_ops = valid_ops(rng, chart, names, m)
        text, _ = delta_text(name, constraint, chart.name, delta_ops)
        deltas.append((name, text))
        ops.append(len(delta_ops))
        mut.append(sum(op.mutates for op in delta_ops))
    return Product(pid, core_text, deltas, chart.render(), [], 0, ops, mut)


def bigmodel_product(rng, pid, n_elements, m):
    names = Names()
    chart = make_big_core(rng, names, n_elements)
    core_text = chart.render()
    delta_ops = valid_ops(rng, chart, names, m)
    text, _ = delta_text("Big", None, chart.name, delta_ops)
    return Product(pid, core_text, [("Big", text)], chart.render(),
                   [], 0, [m], [m])


def reject_product(rng, pid, n_states, m, depth):
    names = Names()
    chart = make_core(rng, names, n_states, depth)
    core_text = chart.render()
    delta_ops = reject_ops(rng, chart, names, m)
    text, at = delta_text("R", None, chart.name, delta_ops)
    diags = [(op.code, line) for op, line in zip(delta_ops, at)]
    return Product(pid, core_text, [("R", text)], None, diags, 1,
                   [m], [0])


def probe_products():
    """Fixed inputs past the parser's recursion cap: one element list of
    2,000 states, and 100 states nested in a chain.  Not seeded."""
    flat = Chart("Flat", block=True)
    flat.children = [State("P%d" % i, flat) for i in range(2000)]
    deep = Chart("Deep", block=True)
    scope = deep
    for i in range(100):
        s = State("N%d" % i, scope, block=True)
        scope.children.append(s)
        scope = s
    scope.block = False
    out = []
    for pid, chart in (("probe-flat", flat), ("probe-deep", deep)):
        core_text = chart.render()
        delta = "delta Probe {\n  modify statechart %s {\n    add state Q;\n" \
                "  }\n}\n" % chart.name
        chart.children.append(State("Q", chart))
        out.append(Product(pid, core_text, [("Probe", delta)],
                           chart.render(), [], 0, [1], [1]))
    return out


def token_count(text):
    """Tokens of model or delta text: identifiers and punctuation, with
    ``->``, ``&&`` and ``||`` as one token each."""
    count = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalnum() or c == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            count += 1
        else:
            i += 2 if text[i:i + 2] in ("->", "&&", "||") else 1
            count += 1
    return count


def rng_for(seed, workload, index):
    return random.Random("%s/%d/%d" % (workload, seed, index))
