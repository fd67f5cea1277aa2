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
``GrammarSyntaxError``.  End of input is the end of the text.  Each
distinct token text is classed once; the descent is one loop per level
(grammar, production, rhs) with the position in a local, and an rhs
recurses only into a parenthesized group, at most ``MAX_DEPTH`` deep.
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
#: The well-formed start of a string literal, and a whole one.
_LITERAL = re.compile(r'"(?:[^"\\\n]|\\["\\])*')
_STRING = re.compile(_LITERAL.pattern + '"')
_ESCAPE = re.compile(r"\\(.)")
_CARDINALITY = {"?": "optional", "*": "star", "+": "plus"}
#: How deep groups may nest.  Flattening, deriving and rendering recurse
#: once or more per rhs node, so a bound well inside the interpreter's
#: stack keeps a deeper grammar a syntax error rather than a crash there.
MAX_DEPTH = 200


def _fault(text):
    """What is wrong with a token text that is neither an identifier nor
    punctuation, or None if it is a string literal."""
    if text[0] == '"':
        rest = text[_LITERAL.match(text).end():]
        return None if rest == '"' else \
            "bad escape" if rest else "unterminated string"
    if text.startswith("/*"):
        return "unterminated comment"
    return "illegal character %r" % text


class _Reader:
    """Walks the token texts of a grammar: a text that starts with ``"``
    is a string literal, one shaped like an identifier an identifier
    (one of ``words``), and any other punctuation; the end of the text
    reads as the empty text.  An rhs item starts with one of ``starts``.
    The texts are checked for lex errors up front, so a lex error wins
    over a syntax error before it."""

    def __init__(self, text, origin):
        self.origin = origin
        self.scan = Scan(text, _SCANNER)
        self.texts = self.scan.texts + [""]
        distinct = set(self.scan.texts)
        self.words = set(filter(IDENT_RE.match, distinct))
        literals = distinct - self.words - _PUNCT
        if not all(map(_STRING.fullmatch, literals)):
            fault = self.scan.first(t for t in literals if _fault(t))
            self.error(_fault(self.texts[fault]), fault)
        self.starts = self.words | literals | {"("}

    def error(self, message, at):
        line, column = self.scan.where(at)
        raise GrammarSyntaxError(message, self.origin, line, column)

    def expect(self, text, pos):
        """The position after the token at ``pos``, which must be ``text``."""
        if self.texts[pos] != text:
            self.error("expected %r" % text, pos)
        return pos + 1

    def ident(self, pos, what):
        """The identifier at ``pos``."""
        if self.texts[pos] not in self.words:
            self.error("expected %s" % what, pos)
        return self.texts[pos]

    def idents(self, pos, what):
        """The identifiers, separated by commas, at ``pos``, and the
        position after them."""
        out = [self.ident(pos, what)]
        while self.texts[pos + 1] == ",":
            pos += 2
            out.append(self.ident(pos, what))
        return tuple(out), pos + 1

    def grammar(self):
        texts = self.texts
        name = self.ident(self.expect("grammar", 0), "grammar name")
        extends, pos = self.idents(3, "grammar name") \
            if texts[2] == "extends" else ((), 2)
        pos = self.expect("{", pos)
        productions = []
        seen = set()
        while texts[pos] != "}":
            at = pos
            p, pos = self.production(pos)
            if p.name in seen:
                self.error("duplicate production %r" % p.name, at)
            if p.name == BUILTIN_NAME:
                self.error("production may not be named %r" % BUILTIN_NAME, at)
            seen.add(p.name)
            productions.append(p)
        if texts[pos + 1]:
            self.error("trailing input after grammar", pos + 1)
        return Grammar(name, extends, tuple(productions), self.origin)

    def production(self, pos):
        """The production at ``pos``, and the position after it."""
        texts = self.texts
        if texts[pos] == "interface":
            name = self.ident(pos + 1, "interface name")
            return Production(name, "interface"), self.expect(";", pos + 2)
        name = self.ident(pos, "production name")
        implements, pos = self.idents(pos + 2, "interface name") \
            if texts[pos + 1] == "implements" else ((), pos + 1)
        rhs, pos = self.alternative(self.expect("=", pos))
        return Production(name, "concrete", implements, rhs), \
            self.expect(";", pos)

    def alternative(self, pos, depth=0):
        """The rhs at ``pos``, inside ``depth`` groups, and the position
        after it: branches split by ``|``, each a sequence of items, each
        a terminal, a reference or a group, with a cardinality suffix or
        not."""
        texts, words, starts = self.texts, self.words, self.starts
        branches, items = [], []
        while True:
            t = texts[pos]
            if t in starts:
                pos += 1
                if t in words:
                    if texts[pos] == ":":
                        node = NontermRef(
                            self.ident(pos + 1, "reference target"), t)
                        pos += 2
                    else:
                        node = NontermRef(t)
                elif t == "(":
                    if depth == MAX_DEPTH:
                        self.error("the grammar nests too deeply", pos - 1)
                    node, pos = self.alternative(pos, depth + 1)
                    pos = self.expect(")", pos)
                    if texts[pos] not in _CARDINALITY and (
                            type(node) is Sequence or
                            type(node) is Alternative):
                        node = Group(node, "one")
                elif t == '""':
                    self.error("empty terminal", pos - 1)
                else:
                    node = Terminal(_ESCAPE.sub(r"\1", t[1:-1])
                                    if "\\" in t else t[1:-1])
                card = _CARDINALITY.get(texts[pos])
                if card is not None:
                    node = Group(node, card)
                    pos += 1
                items.append(node)
            elif items:
                branches.append(items[0] if len(items) == 1
                                else Sequence(tuple(items)))
                if t != "|":
                    return (branches[0] if len(branches) == 1
                            else Alternative(tuple(branches))), pos
                items = []
                pos += 1
            elif t in _CARDINALITY:
                self.error("cardinality suffix with nothing to apply to", pos)
            else:
                self.error("expected a terminal, reference, or group", pos)


def parse_grammar(text, origin="<string>"):
    """Parse ``.dg`` text into a Grammar value.  Groups nested more than
    ``MAX_DEPTH`` deep are a ``GrammarSyntaxError`` at the first open
    group too many."""
    return _Reader(text, origin).grammar()
