"""Reader for the textual ``.dg`` grammar format.

The format::

    grammar <Name> (extends <Name> (, <Name>)*)? {
      interface <Name> ;
      <Name> (implements <Name> (, <Name>)*)? = <rhs> ;
    }

Rhs expressions support double-quoted terminals, ``label:Target``
references, ``|`` alternatives, parenthesized groups and ``? * +``
cardinality suffixes.  ``//`` and ``/* */`` comments are skipped.

A text is read once, by one master regex (``scan.Scan``): ``findall``
gives its token texts, and a position is computed only for a
``GrammarSyntaxError``.  End of input is the end of the text.
"""

from __future__ import annotations

import re

from .model import (
    Alternative,
    BUILTIN_NAME,
    Grammar,
    GrammarError,
    Group,
    IDENT_RE,
    NontermRef,
    Production,
    Sequence,
    Terminal,
)
from .scan import Scan, master


class GrammarSyntaxError(GrammarError):
    def __init__(self, message, origin, line, column):
        self.origin = origin
        self.line = line
        self.column = column
        super().__init__("%s:%d:%d: %s" % (origin, line, column, message))


_PUNCT = frozenset("{}();,=:|?*+")

#: A token is an identifier, a string literal (closed or not), an
#: unterminated comment, any other single character, or, at the end of
#: the text, nothing.
_SCANNER = master(r'%s|"(?:[^"\\\n]|\\.?)*"?|/\*.*|\Z|.' % IDENT_RE.pattern)
#: The well-formed start of a string literal.
_LITERAL = re.compile(r'"(?:[^"\\\n]|\\["\\])*')
_ESCAPE = re.compile(r"\\(.)")
_CARDINALITY = {"?": "optional", "*": "star", "+": "plus"}


def _fault(text):
    """What is wrong with a token text, or None if it lexes."""
    if text[0] == '"':
        rest = text[_LITERAL.match(text).end():]
        return None if rest == '"' else \
            "bad escape" if rest else "unterminated string"
    if IDENT_RE.match(text) or text in _PUNCT:
        return None
    if text.startswith("/*"):
        return "unterminated comment"
    return "illegal character %r" % text


def _begins_item(text):
    return text[:1] == '"' or text == "(" or IDENT_RE.match(text) is not None


class _Reader:
    """Walks the token texts of a grammar: a text that starts with ``"``
    is a string literal, one shaped like an identifier an identifier, and
    any other punctuation; the end of the text reads as the empty text.
    The texts are checked for lex errors up front, so a lex error wins
    over a syntax error before it."""

    def __init__(self, text, origin):
        self.origin = origin
        self.scan = Scan(text, _SCANNER)
        self.texts = self.scan.texts + [""]
        self.pos = 0
        fault = self.scan.first(t for t in set(self.scan.texts) if _fault(t))
        if fault is not None:
            self.error(_fault(self.texts[fault]), fault)

    def peek(self):
        return self.texts[self.pos]

    def next(self):
        self.pos += 1
        return self.texts[self.pos - 1]

    def error(self, message, at=None):
        line, column = self.scan.where(self.pos if at is None else at)
        raise GrammarSyntaxError(message, self.origin, line, column)

    def take(self, text):
        """Step over the next token if its text is ``text``."""
        if self.texts[self.pos] != text:
            return False
        self.pos += 1
        return True

    def expect(self, text):
        if not self.take(text):
            self.error("expected %r" % text)

    def expect_ident(self, what):
        if not IDENT_RE.match(self.peek()):
            self.error("expected %s" % what)
        return self.next()

    def idents(self, what):
        """One or more identifiers, separated by commas."""
        out = [self.expect_ident(what)]
        while self.take(","):
            out.append(self.expect_ident(what))
        return tuple(out)

    # -- grammar level -------------------------------------------------

    def grammar(self):
        self.expect("grammar")
        name = self.expect_ident("grammar name")
        extends = self.idents("grammar name") if self.take("extends") else ()
        self.expect("{")
        productions = []
        seen = set()
        while self.peek() != "}":
            at = self.pos
            p = self.production()
            if p.name in seen:
                self.error("duplicate production %r" % p.name, at)
            if p.name == BUILTIN_NAME:
                self.error("production may not be named %r" % BUILTIN_NAME, at)
            seen.add(p.name)
            productions.append(p)
        self.expect("}")
        if self.peek():
            self.error("trailing input after grammar")
        return Grammar(name=name, extends=extends,
                       productions=tuple(productions), source=self.origin)

    def production(self):
        if self.take("interface"):
            name = self.expect_ident("interface name")
            self.expect(";")
            return Production(name=name, kind="interface")
        name = self.expect_ident("production name")
        implements = self.idents("interface name") \
            if self.take("implements") else ()
        self.expect("=")
        rhs = self.alternative()
        self.expect(";")
        return Production(name=name, implements=implements, rhs=rhs)

    # -- rhs level -----------------------------------------------------

    def alternative(self):
        branches = [self.sequence()]
        while self.take("|"):
            branches.append(self.sequence())
        if len(branches) == 1:
            return branches[0]
        return Alternative(branches=tuple(branches))

    def sequence(self):
        items = [self.item()]
        while _begins_item(self.peek()):
            items.append(self.item())
        if len(items) == 1:
            return items[0]
        return Sequence(items=tuple(items))

    def item(self):
        if self.peek() in _CARDINALITY:
            self.error("cardinality suffix with nothing to apply to")
        return self.suffixed(self.primary())

    def suffixed(self, inner):
        """``inner``, in a group if a cardinality suffix follows."""
        card = _CARDINALITY.get(self.peek())
        if card is None:
            return inner
        self.next()
        return Group(inner=inner, cardinality=card)

    def primary(self):
        t = self.peek()
        if t[:1] == '"':
            if t == '""':
                self.error("empty terminal")
            self.next()
            return Terminal(text=_ESCAPE.sub(r"\1", t[1:-1]))
        if IDENT_RE.match(t):
            self.next()
            if self.take(":"):
                target = self.expect_ident("reference target")
                return NontermRef(target=target, label=t)
            return NontermRef(target=t)
        if self.take("("):
            inner = self.alternative()
            self.expect(")")
            if self.peek() in _CARDINALITY:
                return self.suffixed(inner)
            if isinstance(inner, (Terminal, NontermRef, Group)):
                return inner
            return Group(inner=inner, cardinality="one")
        self.error("expected a terminal, reference, or group")


def parse_grammar(text, origin="<string>"):
    """Parse ``.dg`` text into a Grammar value.  The reader recurses once
    per nested group, so a grammar nested too deeply for the interpreter's
    stack is a ``GrammarSyntaxError`` at the token it stopped on."""
    reader = _Reader(text, origin)
    try:
        return reader.grammar()
    except RecursionError:
        line, column = reader.scan.where(reader.pos)
    raise GrammarSyntaxError("the grammar nests too deeply", origin, line,
                             column)
