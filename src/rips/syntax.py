"""AST for rules programs, plus a formatter that regenerates source text.

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
    # Prepared first argument, filled in by the checker: the index of a
    # precompiled regex, pattern file or plugin, a signal name, or the
    # variable name of a set. Engines pass it in place of that argument.
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
# The parser climbs it and the formatter parenthesizes by it.
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


# --- formatting back to source ---------------------------------------------

_UNARY_PREC = 10


def _escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\x{ord(ch):02x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Literal):
        if e.kind == "string":
            return _escape_string(e.value)
        if e.kind == "bool":
            return "true" if e.value else "false"
        if e.kind == "float":
            return repr(e.value)
        return str(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Call):
        return f"{e.name}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, Unary):
        inner = format_expr(e.operand, _UNARY_PREC)
        return f"{e.op}{inner}"
    if isinstance(e, Binary):
        prec = BINARY_PRECEDENCE[e.op]
        left = format_expr(e.left, prec)
        # All binary operators associate left; force parens on an equal-
        # precedence right child so the reparse rebuilds the same tree.
        right = format_expr(e.right, prec + 1)
        text = f"{left} {e.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {e!r}")


def format_program(p: Program) -> str:
    lines: list[str] = []
    if p.levels:
        lines.append("levels:")
        for lv in p.levels:
            lines.append(f"    {lv.name} soft;" if lv.soft else f"    {lv.name};")
        lines.append("")
    if p.consts:
        lines.append("consts:")
        for c in p.consts:
            lines.append(f"    {c.name} {c.type_name} = {format_expr(c.init)};")
        lines.append("")
    if p.vars:
        lines.append("vars:")
        for v in p.vars:
            lines.append(f"    {v.name} {v.type_name} = {format_expr(v.init)};")
        lines.append("")
    for section in p.rule_sections:
        lines.append(f"rules {section.kind.value}:")
        for rule in section.rules:
            parts = [f"    {format_expr(rule.trigger)} ?"]
            body = []
            for item in rule.chain:
                body.append(format_expr(item.action))
                if item.connector == ",":
                    body.append(", ")
                elif item.connector is not None:
                    body.append(f" {item.connector} ")
            parts.append("        " + "".join(body) + ";")
            lines.extend(parts)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
