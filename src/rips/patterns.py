"""Payload pattern files: a YARA-compatible subset.

A file holds one or more rules. Each rule names byte patterns (quoted
strings with ``\\xNN`` escapes) in a ``strings:`` section and combines them
in a ``condition:`` section with ``and`` / ``or`` / ``not`` and parentheses.
A pattern identifier is true when its byte sequence occurs anywhere in the
payload. The file matches a payload when any of its rules' conditions hold.

Hex wildcards, jumps, regex strings and modules are out of scope.
"""

from __future__ import annotations

from typing import NamedTuple

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


def _lex(source: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise PatternFileError("unterminated comment", line)
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if c == '"':
            start_line = line
            i += 1
            data = bytearray()
            while True:
                if i >= n:
                    raise PatternFileError("unterminated string", start_line)
                ch = source[i]
                if ch == '"':
                    i += 1
                    break
                if ch == "\n":
                    raise PatternFileError("unterminated string", start_line)
                if ch == "\\":
                    if i + 1 >= n:
                        raise PatternFileError("unterminated string", start_line)
                    esc = source[i + 1]
                    if esc in _ESCAPES:
                        data.append(_ESCAPES[esc])
                        i += 2
                    elif esc == "x":
                        hexpart = source[i + 2 : i + 4]
                        if len(hexpart) < 2 or not all(h in "0123456789abcdefABCDEF" for h in hexpart):
                            raise PatternFileError("\\x escape needs two hex digits", line)
                        data.append(int(hexpart, 16))
                        i += 4
                    else:
                        raise PatternFileError(f"invalid escape \\{esc}", line)
                else:
                    data.extend(ch.encode("utf-8"))
                    i += 1
            toks.append(_Tok("string", "", bytes(data), start_line))
            continue
        if c == "$":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            if j == i + 1:
                raise PatternFileError("expected a name after '$'", line)
            toks.append(_Tok("var", source[i + 1 : j], None, line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(_Tok("ident", source[i:j], None, line))
            i = j
            continue
        if c in "{}():=":
            toks.append(_Tok("punct", c, None, line))
            i += 1
            continue
        raise PatternFileError(f"unexpected character {c!r}", line)
    return toks


# Condition AST: ("var", name) | ("not", x) | ("and", a, b) | ("or", a, b)


class _CondParser:
    def __init__(self, toks: list[_Tok], pos: int, strings: dict[str, bytes]):
        self.toks = toks
        self.pos = pos
        self.strings = strings

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def error(self, msg: str):
        tok = self.peek()
        line = tok.line if tok else (self.toks[-1].line if self.toks else 0)
        raise PatternFileError(msg, line)

    def parse_or(self):
        node = self.parse_and()
        while (t := self.peek()) and t.kind == "ident" and t.text == "or":
            self.pos += 1
            node = ("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while (t := self.peek()) and t.kind == "ident" and t.text == "and":
            self.pos += 1
            node = ("and", node, self.parse_not())
        return node

    def parse_not(self):
        t = self.peek()
        if t and t.kind == "ident" and t.text == "not":
            self.pos += 1
            return ("not", self.parse_not())
        return self.parse_atom()

    def parse_atom(self):
        t = self.peek()
        if t is None:
            self.error("condition ended unexpectedly")
        if t.kind == "punct" and t.text == "(":
            self.pos += 1
            node = self.parse_or()
            t2 = self.peek()
            if not (t2 and t2.kind == "punct" and t2.text == ")"):
                self.error("expected ')'")
            self.pos += 1
            return node
        if t.kind == "var":
            if t.text not in self.strings:
                self.error(f"condition references undefined pattern ${t.text}")
            self.pos += 1
            return ("var", t.text)
        self.error(f"unexpected token in condition: {t.text!r}")


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
            return self._eval(node[1], payload) and self._eval(node[2], payload)
        return self._eval(node[1], payload) or self._eval(node[2], payload)


class PatternFile(NamedTuple):
    rules: list[PatternRule]
    # The text it was parsed from, which a generated program embeds.
    source: str = ""

    def match(self, payload: bytes) -> bool:
        return any(rule.match(payload) for rule in self.rules)


def parse_pattern_text(source: str) -> PatternFile:
    toks = _lex(source)
    pos = 0
    rules: list[PatternRule] = []

    def expect(kind: str, text: str | None = None) -> _Tok:
        nonlocal pos
        if pos >= len(toks):
            raise PatternFileError("unexpected end of file", toks[-1].line if toks else 0)
        tok = toks[pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise PatternFileError(f"expected {want!r}, found {tok.text!r}", tok.line)
        pos += 1
        return tok

    while pos < len(toks):
        expect("ident", "rule")
        name = expect("ident")
        # Optional tag list after a colon.
        if pos < len(toks) and toks[pos].kind == "punct" and toks[pos].text == ":":
            pos += 1
            while pos < len(toks) and toks[pos].kind == "ident" and toks[pos].text not in ("rule",):
                if toks[pos].text in ("strings", "condition"):
                    break
                pos += 1
        expect("punct", "{")
        strings: dict[str, bytes] = {}
        if pos < len(toks) and toks[pos].kind == "ident" and toks[pos].text == "strings":
            pos += 1
            expect("punct", ":")
            while pos < len(toks) and toks[pos].kind == "var":
                var = toks[pos]
                pos += 1
                expect("punct", "=")
                lit = expect("string")
                if var.text in strings:
                    raise PatternFileError(f"duplicate pattern ${var.text}", var.line)
                strings[var.text] = lit.data
        expect("ident", "condition")
        expect("punct", ":")
        cond_parser = _CondParser(toks, pos, strings)
        condition = cond_parser.parse_or()
        pos = cond_parser.pos
        expect("punct", "}")
        rules.append(PatternRule(name.text, strings, condition))

    if not rules:
        raise PatternFileError("pattern file declares no rules", 1)
    return PatternFile(rules, source)


def load_pattern_file(path: str) -> PatternFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern_text(fh.read())
