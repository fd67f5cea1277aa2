"""One reading of a text by a master regex: token texts at once,
positions only when asked.

A master regex skips blanks and ``//`` / ``/* */`` comments and captures
the next token's text, so ``findall`` gives every token text in one pass
at C speed; that is all a parser reads.  Positions are for messages.
The first time one is asked for, the same regex with its group made
non-capturing gives every whole match, whose summed lengths are the
tokens' end offsets; the summed lengths of the text's lines are where
its lines start.  Both run at C speed, and a position is then a
bisection away.
"""

from __future__ import annotations

import functools
import operator
import re
from bisect import bisect_right
from itertools import accumulate, count

#: Blanks and comments, skipped before each token.
_SKIP = r"[ \t\r\n]*(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"


def master(token):
    """The master regex of a token pattern.  The pattern must match at
    every character and at the end of the text (``\\Z``): then the regex
    never backtracks into the blanks and comments before a token, and
    each match costs what it consumes."""
    return re.compile("%s(%s)" % (_SKIP, token), re.DOTALL)


@functools.lru_cache(maxsize=64)
def _whole(regex):
    """The master regex with its group made non-capturing."""
    return re.compile("%s(?:%s" % (_SKIP, regex.pattern[len(_SKIP) + 1:]),
                      regex.flags)


class Scan:
    """The token ``texts`` of a text, read by a master regex, with their
    positions computed on first ask."""

    def __init__(self, text, regex):
        self.source = text
        self.regex = regex
        self.texts = texts = regex.findall(text)
        while texts and not texts[-1]:
            texts.pop()           # the end of the text
        self._starts = self._lines = None

    def __len__(self):
        return len(self.texts)

    def first(self, texts):
        """The index of the first token with one of the texts, or None."""
        return min(map(self.texts.index, texts), default=None)

    def where(self, index):
        """The position of the token at ``index``; at ``len(self)``, that
        of the end of the text."""
        if self._starts is None:
            ends = accumulate(map(len, _whole(self.regex).findall(self.source)))
            self._starts = [*map(operator.sub, ends, map(len, self.texts)),
                            len(self.source)]
        return self.position(self._starts[index])

    def position(self, offset):
        """``(line, column)`` of an offset, both 1-based: a tab or ``\\r``
        is one column, and ``\\n`` starts a new line."""
        if self._lines is None:
            lengths = accumulate(map(len, self.source.split("\n")))
            self._lines = [0, *map(operator.add, lengths, count(1))]
        line = bisect_right(self._lines, offset)
        return line, offset - self._lines[line - 1] + 1
