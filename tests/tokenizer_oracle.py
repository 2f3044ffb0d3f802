"""The character-loop tokenizer, kept as the test oracle of the regex one.

This is the tokenizer ``repro.parser.tokenizer`` used before it became
one compiled pattern, unchanged but for one thing it is kept to show:
it starts a number on ``str.isdigit``, so a superscript or circled
digit becomes a NUMBER token that ``float`` then rejects.  The
production tokenizer starts numbers on ``str.isdecimal`` and reports
such a character as unexpected; ``tests/test_parser.py`` asserts that
difference explicitly and identity everywhere else.
"""

from __future__ import annotations

from typing import List

from repro.core.errors import ParseError
from repro.parser.tokenizer import PUNCTUATION, Token, TokenType


def _is_ident_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_ident_char(char: str) -> bool:
    return char.isalnum() or char in "_#"


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n = 0, len(text)
    line, line_start = 1, 0

    def emit(token_type: TokenType, value: str, start: int, end: int) -> None:
        tokens.append(
            Token(token_type, value, start, line, start - line_start + 1, end)
        )

    while i < n:
        char = text[i]
        if char.isspace():
            if char == "\n":
                line += 1
                line_start = i + 1
            i += 1
            continue
        if char == "'":
            start = i
            value, i = _read_string(text, i)
            emit(TokenType.STRING, value, start, i)
            raw = text[start:i]
            if "\n" in raw:  # keep line tracking right across multi-line literals
                line += raw.count("\n")
                line_start = start + raw.rfind("\n") + 1
            continue
        if char.isdigit():
            start = i
            value, i = _read_number(text, i)
            emit(TokenType.NUMBER, value, start, i)
            continue
        if _is_ident_start(char):
            start = i
            while i < n and _is_ident_char(text[i]):
                i += 1
            emit(TokenType.IDENT, text[start:i], start, i)
            continue
        if char in PUNCTUATION:
            emit(TokenType[PUNCTUATION[char]], char, i, i + 1)
            i += 1
            continue
        raise ParseError(f"unexpected character {char!r}", position=i, text=text)
    tokens.append(Token(TokenType.END, "", n, line, n - line_start + 1, n))
    return tokens


def _read_string(text: str, start: int) -> tuple:
    """Read a single-quoted string literal starting at ``start``."""
    i = start + 1
    n = len(text)
    parts: List[str] = []
    while i < n:
        char = text[i]
        if char == "'":
            if i + 1 < n and text[i + 1] == "'":  # escaped quote
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(char)
        i += 1
    raise ParseError("unterminated string literal", position=start, text=text)


def _read_number(text: str, start: int) -> tuple:
    """Read an unsigned numeric literal (integer or decimal)."""
    i = start
    n = len(text)
    while i < n and text[i].isdigit():
        i += 1
    if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
        i += 1
        while i < n and text[i].isdigit():
            i += 1
    return text[start:i], i
