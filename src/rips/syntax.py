"""AST for rules programs.

Positions (line/column) and checker annotations are excluded from equality,
so two structurally identical programs compare equal regardless of layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


class SectionKind(Enum):
    """The section a rule sits in, which decides the events it sees; a
    builtin's ``BuiltinSig.section`` names the one section that may call
    it."""

    GRAPH = "Graph"
    MSG = "Msg"
    EXTERNAL = "External"


@dataclass(eq=True)
class Node:
    line: int = field(compare=False, repr=False, kw_only=True, default=0)
    column: int = field(compare=False, repr=False, kw_only=True, default=0)


@dataclass(eq=True)
class Literal(Node):
    value: object = None
    kind: str = ""  # int | float | bool | string
    # The source text of an int literal, which its diagnostics quote.
    lexeme: str = field(compare=False, repr=False, kw_only=True, default="")


@dataclass(eq=True)
class Name(Node):
    name: str = ""
    # Resolved symbol, filled in by the checker.
    binding: object = field(compare=False, repr=False, kw_only=True, default=None)


@dataclass(eq=True)
class Unary(Node):
    op: str = ""
    operand: "Expr" = None
    # The operator's function from ``values.UNARY``, filled in by the
    # checker; engines call it as they call ``Call.sig.impl``.
    impl: object = field(compare=False, repr=False, kw_only=True, default=None)


@dataclass(eq=True)
class Binary(Node):
    op: str = ""
    left: "Expr" = None
    right: "Expr" = None
    # The operator's function from ``values.BINARY``, filled in by the
    # checker; None for the short-circuit ``&&`` and ``||``.
    impl: object = field(compare=False, repr=False, kw_only=True, default=None)


@dataclass(eq=True)
class Call(Node):
    name: str = ""
    args: list["Expr"] = field(default_factory=list)
    # Resolved builtin signature, filled in by the checker.
    sig: object = field(compare=False, repr=False, kw_only=True, default=None)
    # Prepared first argument, filled in by the checker: a compiled regex,
    # a loaded pattern file, a plugin path, a signal name, or the variable
    # name of a set. Engines pass it in place of that argument.
    resource: object = field(compare=False, repr=False, kw_only=True, default=None)


Expr = Union[Literal, Name, Unary, Binary, Call]


@dataclass(eq=True)
class ChainItem:
    action: Call
    connector: Optional[str]  # "," | "=>" | "!>" | None on the last action


@dataclass(eq=True)
class Rule(Node):
    trigger: Expr = None
    chain: list[ChainItem] = field(default_factory=list)
    rule_id: str = ""


@dataclass(eq=True)
class RuleSection(Node):
    kind: SectionKind = SectionKind.GRAPH
    rules: list[Rule] = field(default_factory=list)


@dataclass(eq=True)
class LevelDecl(Node):
    name: str = ""
    soft: bool = False
    ordinal: int = 0


@dataclass(eq=True)
class ConstDecl(Node):
    name: str = ""
    type_name: str = ""  # string | int | bool | float
    init: Expr = None


@dataclass(eq=True)
class VarDecl(Node):
    name: str = ""
    type_name: str = ""
    init: Expr = None


@dataclass(eq=True)
class Program:
    levels: list[LevelDecl] = field(default_factory=list)
    consts: list[ConstDecl] = field(default_factory=list)
    vars: list[VarDecl] = field(default_factory=list)
    rule_sections: list[RuleSection] = field(default_factory=list)
    source_name: str = field(default="rules", compare=False)


# Binary operator precedence, higher binds tighter. All left-associative.
# The parser climbs it.
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}
