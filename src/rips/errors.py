"""Error types shared by the whole engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    """A positioned problem report (1-based line and column)."""

    message: str
    line: int
    column: int

    def render(self, filename: str = "") -> str:
        where = f"{filename}:{self.line}:{self.column}" if filename else f"{self.line}:{self.column}"
        return f"{where}: {self.message}"


class RipsError(Exception):
    """Base class for all engine errors."""


class StaticError(RipsError):
    """A rules file failed its static reading; carries every diagnostic
    found, in source order. The checker reports all it finds; the tokenizer
    and the parser stop at the first, a ``LexError`` or ``ParseError``."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


class LexError(StaticError):
    """Lexical error with source position."""

    def __init__(self, message: str, line: int, column: int):
        self.diagnostic = Diagnostic(message, line, column)
        super().__init__([self.diagnostic])


class ParseError(StaticError):
    """Syntax error with source position; parsing stops at the first one."""

    def __init__(self, message: str, line: int, column: int):
        self.diagnostic = Diagnostic(message, line, column)
        super().__init__([self.diagnostic])


class EvalFault(RipsError):
    """Runtime fault inside one rule (e.g. division by zero).

    The engine skips the offending rule, reports a diagnostic alert, and
    keeps running.
    """


class EngineCrash(RipsError):
    """Raised by the crash action: the engine must terminate with nonzero status."""

    def __init__(self, message: str):
        super().__init__(message)
        self.text = message
