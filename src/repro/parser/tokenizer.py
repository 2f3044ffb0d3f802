"""Tokenizer for the assess statement language (Section 4.1 syntax).

Turns statement text into a stream of typed tokens.  Keywords are
recognised case-insensitively at parse time (the tokenizer only emits
IDENT); string literals use single quotes with ``''`` escaping, numbers are
unsigned decimal digits with an optional fraction (sign handling belongs
to the grammar, e.g. in label ranges), and ``*`` is a plain punctuation
token so that both ``assess*`` and star labels (``***``) can be assembled
by the parser.

One compiled pattern does the scanning: each match is the whitespace
before a token plus the token, and its capture group names the token
type, so consecutive matches tile the text.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from ..core.diagnostics import Span
from ..core.errors import ParseError

PUNCTUATION = {
    ",": "COMMA",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ":": "COLON",
    ".": "DOT",
    "=": "EQUALS",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
}


class TokenType(enum.Enum):
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    COMMA = "COMMA"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    LBRACE = "LBRACE"
    RBRACE = "RBRACE"
    LBRACKET = "LBRACKET"
    RBRACKET = "RBRACKET"
    COLON = "COLON"
    DOT = "DOT"
    EQUALS = "EQUALS"
    PLUS = "PLUS"
    MINUS = "MINUS"
    STAR = "STAR"
    SLASH = "SLASH"
    END = "END"


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int
    line: int = 1
    column: int = 1
    end: int = -1

    def matches_keyword(self, keyword: str) -> bool:
        """Case-insensitive keyword check; ``keyword`` is given in lower case."""
        return self.type is TokenType.IDENT and self.value.lower() == keyword

    @property
    def span(self) -> Span:
        """The token's source :class:`~repro.core.diagnostics.Span`."""
        end = self.end if self.end >= 0 else self.position + max(len(self.value), 1)
        return Span(self.position, end, self.line, self.column)


# One group per token shape, the plain ones (value = matched text) first.
# ``\w`` is ``str.isalnum`` plus ``_`` and ``\d`` is ``str.isdecimal``, so
# identifiers continue as they always did and a number is made of digits
# ``float`` accepts.  A closing quote must not be followed by another
# (``''`` is an escaped quote).  An identifier with a non-ASCII start is
# checked for ``str.isalpha`` after the match; anything left is an error.
_TOKEN = re.compile(
    r"\s*(?:"
    r"([A-Za-z_][\w#]*)"
    r"|(\d+(?:\.\d+)?)"
    + "".join(f"|({re.escape(char)})" for char in PUNCTUATION)
    + r"|('[^']*(?:''[^']*)*'(?!'))"
    r"|([^\W\d][\w#]*)"
    r"|(\S))"
)
_GROUP_TYPES = (
    (None, TokenType.IDENT, TokenType.NUMBER)
    + tuple(TokenType[name] for name in PUNCTUATION.values())
    + (TokenType.STRING, TokenType.IDENT, None)
)
_STRING_GROUP = len(_GROUP_TYPES) - 3
_new_token = tuple.__new__  # a Token from a ready tuple, half the cost of Token(...)


def tokenize(text: str) -> List[Token]:
    """Tokenize statement text; raises :class:`ParseError` on bad input.

    Tokens carry their start offset, 1-based line/column, and end offset,
    so parse and analysis diagnostics can point at exact source spans.
    """
    tokens: List[Token] = []
    append = tokens.append
    n = len(text)
    line, line_start = 1, 0
    newline = text.find("\n") % (n + 1)  # the next newline, n when none is left
    # Trailing whitespace is cut off so that every search matches where it
    # starts; otherwise each trailing position would rescan to the end.
    for match in _TOKEN.finditer(text, 0, len(text.rstrip())):
        index = match.lastindex
        start, end = match.span(index)
        while newline < start:  # whitespace or a string literal crossed lines
            line += 1
            line_start = newline + 1
            newline = text.find("\n", line_start) % (n + 1)
        if index < _STRING_GROUP:
            value = text[start:end]
        elif index == _STRING_GROUP:
            value = text[start + 1 : end - 1].replace("''", "'")
        elif _GROUP_TYPES[index] is not None and text[start].isalpha():
            value = text[start:end]
        elif text[start] == "'":
            raise ParseError("unterminated string literal", position=start, text=text)
        else:
            raise ParseError(
                f"unexpected character {text[start]!r}", position=start, text=text
            )
        append(_new_token(Token, (
            _GROUP_TYPES[index], value, start, line, start - line_start + 1, end
        )))
    while newline < n:
        line += 1
        line_start = newline + 1
        newline = text.find("\n", line_start) % (n + 1)
    append(Token(TokenType.END, "", n, line, n - line_start + 1, n))
    return tokens
