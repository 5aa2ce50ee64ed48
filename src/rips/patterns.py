"""Payload pattern files: a YARA-compatible subset.

A file holds one or more rules. Each rule names byte patterns (quoted
strings with ``\\xNN`` escapes) in a ``strings:`` section and combines them
in a ``condition:`` section with ``and`` / ``or`` / ``not`` and parentheses.
A pattern identifier is true when its byte sequence occurs anywhere in the
payload. The file matches a payload when any of its rules' conditions hold.

One pattern, ``_TOKEN``, reads the file: its named groups are the token
kinds, tried in order at each position (white space and the ``#``, ``//``
and ``/* */`` comments, string, ``$name``, name, punctuation), and a
position that none of them matches is an unexpected character. The whole
file is read before it is parsed, so a token error anywhere wins. One
recursive-descent ``_Parser`` then reads the rules and their conditions. A
chain of ``and`` or of ``or`` is one n-ary node, which matching checks with
``all`` or ``any``. Parentheses and ``not`` count toward ``MAX_NESTING``;
a condition nested deeper is refused, so neither parsing nor matching
recurses past Python's limit.

Hex wildcards, jumps, regex strings and modules are out of scope.
"""

from __future__ import annotations

import re
from typing import NamedTuple

# The deepest a condition may nest, counting each '(' and each 'not'.
MAX_NESTING = 100

# The token table. A string runs to its closing quote; without one (a line
# break or the end of input comes first) the ``closed`` group stays empty.
# An escaped line break is read past here and refused as an invalid escape.
# A name is ``\w+`` and must start with a letter or '_', which ``_lex``
# checks: ``\w`` also admits digits such as '²'.
_TOKEN = re.compile(r"""
    (?P<space>(?:[ \t\r\f\v\n]|(?:\#|//)[^\n]*|/\*[\s\S]*?\*/)+)
  | (?P<open>/\*)
  | (?P<string>"(?P<body>(?:[^"\\\n]|\\[\s\S])*)(?P<closed>")?)
  | (?P<var>\$\w*)
  | (?P<ident>\w+)
  | (?P<punct>[{}():=])
  | (?P<invalid>[\s\S])
""", re.VERBOSE)

# A string body in order: an escape (a backslash and the character after
# it, or ``\x`` and two hex digits) or a run of plain text.
_ESCAPE = re.compile(r"\\(x[0-9a-fA-F]{2}|[\s\S])|[^\\]+")
_ESCAPES = {"n": 0x0A, "t": 0x09, "\\": 0x5C, '"': 0x22}


class PatternFileError(ValueError):
    """Malformed pattern file."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Tok(NamedTuple):
    kind: str  # ident | var | string | punct
    text: str
    data: bytes | None
    line: int


def _string_bytes(body: str, line: int) -> bytes:
    """The bytes of a string body: escapes decoded in order, the rest as
    UTF-8. The first invalid escape raises PatternFileError."""
    data = bytearray()
    for m in _ESCAPE.finditer(body):
        esc = m[1]
        if esc is None:
            data += m[0].encode("utf-8")
        elif esc in _ESCAPES:
            data.append(_ESCAPES[esc])
        elif len(esc) == 3:
            data.append(int(esc[1:], 16))
        elif esc == "x":
            raise PatternFileError("\\x escape needs two hex digits", line)
        else:
            raise PatternFileError(f"invalid escape \\{esc}", line)
    return bytes(data)


def _lex(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line = 1
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m[0]
        if kind == "space":
            line += text.count("\n")
        elif kind == "open":
            raise PatternFileError("unterminated comment", line)
        elif kind == "string":
            data = _string_bytes(m["body"], line)
            if m["closed"] is None:
                raise PatternFileError("unterminated string", line)
            toks.append(_Tok("string", "", data, line))
        elif kind == "var":
            if text == "$":
                raise PatternFileError("expected a name after '$'", line)
            toks.append(_Tok("var", text[1:], None, line))
        elif kind == "ident" and (text[0].isalpha() or text[0] == "_"):
            toks.append(_Tok("ident", text, None, line))
        elif kind == "punct":
            toks.append(_Tok("punct", text, None, line))
        else:
            raise PatternFileError(f"unexpected character {text[0]!r}", line)
    return toks


# Condition tree: ("var", name) | ("not", x) | ("and", x, y, ...) | ("or", x, y, ...)


class PatternRule(NamedTuple):
    name: str
    strings: dict[str, bytes]
    condition: tuple

    def match(self, payload: bytes) -> bool:
        return self._eval(self.condition, payload)

    def _eval(self, node, payload: bytes) -> bool:
        op = node[0]
        if op == "var":
            return self.strings[node[1]] in payload
        if op == "not":
            return not self._eval(node[1], payload)
        if op == "and":
            return all(self._eval(x, payload) for x in node[1:])
        return any(self._eval(x, payload) for x in node[1:])


class PatternFile(NamedTuple):
    rules: list[PatternRule]
    # The text it was parsed from, which a generated program embeds.
    source: str = ""

    def match(self, payload: bytes) -> bool:
        return any(rule.match(payload) for rule in self.rules)


class _Parser:
    """Recursive descent over a file's tokens: its rules, and in each its
    condition. An error is reported at the current token, or at the last
    one when the tokens have run out."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.strings: dict[str, bytes] = {}

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind and text in (None, tok.text)

    def fail(self, message: str):
        raise PatternFileError(message, (self.peek() or self.toks[-1]).line)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of file")
        if not self.at(kind, text):
            self.fail(f"expected {text or kind!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def rule(self) -> PatternRule:
        self.expect("ident", "rule")
        name = self.expect("ident").text
        if self.at("punct", ":"):  # a list of tags, which are ignored
            self.pos += 1
            while self.at("ident") and self.peek().text not in ("rule", "strings", "condition"):
                self.pos += 1
        self.expect("punct", "{")
        self.strings = {}
        if self.at("ident", "strings"):
            self.pos += 1
            self.expect("punct", ":")
            while self.at("var"):
                var = self.expect("var")
                self.expect("punct", "=")
                data = self.expect("string").data
                if var.text in self.strings:
                    raise PatternFileError(f"duplicate pattern ${var.text}", var.line)
                self.strings[var.text] = data
        self.expect("ident", "condition")
        self.expect("punct", ":")
        condition = self.condition()
        self.expect("punct", "}")
        return PatternRule(name, self.strings, condition)

    def condition(self, op: str = "or") -> tuple:
        """Terms joined by ``op``, as one node when there are several;
        ``and`` binds tighter than ``or``."""
        items = []
        while True:
            items.append(self.condition("and") if op == "or" else self.term())
            if not self.at("ident", op):
                return (op, *items) if len(items) > 1 else items[0]
            self.pos += 1

    def term(self) -> tuple:
        tok = self.peek()
        if tok is None:
            self.fail("condition ended unexpectedly")
        if tok.kind == "var":
            if tok.text not in self.strings:
                self.fail(f"condition references undefined pattern ${tok.text}")
            self.pos += 1
            return ("var", tok.text)
        if not (self.at("ident", "not") or self.at("punct", "(")):
            self.fail(f"unexpected token in condition: {tok.text!r}")
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("condition nesting too deep")
        self.pos += 1
        if tok.text == "not":
            node = ("not", self.term())
        else:
            node = self.condition()
            if not self.at("punct", ")"):
                self.fail("expected ')'")
            self.pos += 1
        self.depth -= 1
        return node


def parse_pattern_text(source: str) -> PatternFile:
    parser = _Parser(_lex(source))
    rules = []
    while parser.peek():
        rules.append(parser.rule())
    if not rules:
        raise PatternFileError("pattern file declares no rules", 1)
    return PatternFile(rules, source)


def load_pattern_file(path: str) -> PatternFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern_text(fh.read())
