"""Tokenizer for rules files.

One pattern, ``_TOKEN``, reads the source: its named groups are the token
kinds, tried in order at each position, and a position that none of them
matches is an invalid character. Spaces, comments and newlines only separate
tokens; a comment runs from ``#`` to end of line, which also covers a leading
``#!`` interpreter line. The Unicode arrow connectors U+2192 and U+219B are
normalized to ``=>`` and ``!>`` here, so the parser only ever sees the ASCII
forms. Number literals and identifiers are ASCII. A token's column is its
offset from the start of its line, counted in characters from 1.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from .errors import LexError


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    INT = auto()
    FLOAT = auto()
    STRING = auto()
    BOOL = auto()
    OPERATOR = auto()
    CONNECTOR = auto()
    PUNCT = auto()
    EOF = auto()


# Section and declaration keywords. Type names (string/int/bool/float) stay
# identifiers so the builtin call `string(...)` keeps working.
KEYWORDS = frozenset({"levels", "consts", "vars", "rules", "Graph", "Msg", "External", "soft"})

# The token table. Two-character operators come before their one-character
# prefixes. A string runs to its closing quote; without one (a line break or
# the end of input comes first) the ``closed`` group stays empty. An escaped
# line break is read past here and refused as an invalid escape.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r\f\v]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<connector>=>|!>|→|↛)
  | (?P<operator>==|!=|<=|>=|&&|\|\||[-+*/%<>!~&|^=])
  | (?P<punct>[:;?(),])
  | (?P<string>"(?:[^"\\\n]|\\[\s\S])*(?P<closed>")?)
  | (?P<binary>0[bB][01]*)
  | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<invalid>[\s\S])
""", re.VERBOSE)

_SYMBOLS = {"connector": TokenKind.CONNECTOR, "operator": TokenKind.OPERATOR, "punct": TokenKind.PUNCT}

# Unicode arrows accepted as connector aliases.
_ARROWS = {"→": "=>", "↛": "!>"}

# A string escape: a backslash and the character after it, or ``\x`` and two
# hex digits.
_ESCAPE = re.compile(r"\\(x[0-9a-fA-F]{2}|[\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    line: int
    column: int
    value: object = None  # decoded literal value for INT/FLOAT/STRING/BOOL

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.lexeme!r}, {self.line}:{self.column})"


def _string_value(body: str, line: int, column: int) -> str:
    """Decode the escapes of a string body that starts at ``column``, in
    order, raising LexError at the first invalid one."""

    def unescape(m: re.Match) -> str:
        esc = m[1]
        if esc in _ESCAPES:
            return _ESCAPES[esc]
        if len(esc) == 3:
            return chr(int(esc[1:], 16))
        message = "invalid \\x escape: expected two hex digits" if esc == "x" else f"invalid escape sequence \\{esc}"
        raise LexError(message, line, column + m.start())

    return _ESCAPE.sub(unescape, body)


def tokenize(source: str) -> list[Token]:
    """Tokenize a rules source string, raising LexError on bad input."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    m = None
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m[0]
        column = m.start() - line_start + 1
        if kind in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[kind], _ARROWS.get(text, text), line, column))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "string":
            closed = m["closed"] is not None
            value = _string_value(text[1:-1] if closed else text[1:], line, column + 1)
            if not closed:
                raise LexError("unterminated string literal", line, column)
            tokens.append(Token(TokenKind.STRING, value, line, column, value))
        elif kind == "binary":
            if len(text) == 2:
                raise LexError("binary literal needs at least one digit", line, column)
            tokens.append(Token(TokenKind.INT, text, line, column, int(text, 2)))
        elif kind == "number":
            if text.isdigit():  # no fraction and no exponent
                # Past 19 significant digits a literal is outside the 64-bit
                # range, and int() refuses one of over 4,300 digits: its
                # value is then 10**19, which the checker reports.
                digits = text.lstrip("0")
                value = int(digits or "0") if len(digits) <= 19 else 10**19
                tokens.append(Token(TokenKind.INT, text, line, column, value))
            else:
                tokens.append(Token(TokenKind.FLOAT, text, line, column, float(text)))
        elif kind == "word":
            if text in ("true", "false"):
                tokens.append(Token(TokenKind.BOOL, text, line, column, text == "true"))
            else:
                tokens.append(Token(TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT, text, line, column))
        elif kind == "invalid":
            raise LexError(f"invalid character {text!r}", line, column)
    # After a trailing comment the end of input is where the comment starts.
    end = m.start() if m is not None and m.lastgroup == "comment" else len(source)
    tokens.append(Token(TokenKind.EOF, "", line, end - line_start + 1))
    return tokens
