"""AST for rules programs.

Positions (line/column) and checker annotations are excluded from equality,
so two structurally identical programs compare equal regardless of layout.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Union


class SectionKind(Enum):
    """The section a rule sits in, which decides the events it sees; a
    builtin's ``BuiltinSig.section`` names the one section that may call
    it."""

    GRAPH = "Graph"
    MSG = "Msg"
    EXTERNAL = "External"


class _Fields:
    """Equality and ``repr`` over the fields a class names in ``_FIELDS``,
    in its positional order. Positions, the int literal's ``lexeme``, the
    checker's annotations and ``Program.source_name`` are not among them.
    Instances are unhashable: they hold lists and the checker fills them
    in."""

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._FIELDS] == [getattr(other, f) for f in self._FIELDS]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._FIELDS)})"


class Node(_Fields):
    __slots__ = ("line", "column")


class Literal(Node):
    __slots__ = ("value", "kind", "lexeme")
    _FIELDS = ("value", "kind")

    def __init__(self, value: object = None, kind: str = "", *, line: int = 0, column: int = 0, lexeme: str = ""):
        self.value = value
        self.kind = kind  # int | float | bool | string
        self.line, self.column = line, column
        # The source text of an int literal, which its diagnostics quote.
        self.lexeme = lexeme


class Name(Node):
    __slots__ = ("name", "binding")
    _FIELDS = ("name",)

    def __init__(self, name: str = "", *, line: int = 0, column: int = 0, binding: object = None):
        self.name = name
        self.line, self.column = line, column
        # Resolved symbol, filled in by the checker.
        self.binding = binding


class Unary(Node):
    __slots__ = ("op", "operand", "impl")
    _FIELDS = ("op", "operand")

    def __init__(self, op: str = "", operand: Expr = None, *, line: int = 0, column: int = 0, impl: object = None):
        self.op, self.operand = op, operand
        self.line, self.column = line, column
        # The operator's function from ``values.UNARY``, filled in by the
        # checker; engines call it as they call ``Call.sig.impl``.
        self.impl = impl


class Binary(Node):
    __slots__ = ("op", "left", "right", "impl")
    _FIELDS = ("op", "left", "right")

    def __init__(self, op: str = "", left: Expr = None, right: Expr = None, *,
                 line: int = 0, column: int = 0, impl: object = None):
        self.op, self.left, self.right = op, left, right
        self.line, self.column = line, column
        # The operator's function from ``values.BINARY``, filled in by the
        # checker; None for the short-circuit ``&&`` and ``||``.
        self.impl = impl


class Call(Node):
    __slots__ = ("name", "args", "sig", "resource")
    _FIELDS = ("name", "args")

    def __init__(self, name: str = "", args: list[Expr] | None = None, *,
                 line: int = 0, column: int = 0, sig: object = None, resource: object = None):
        self.name = name
        self.args = [] if args is None else args
        self.line, self.column = line, column
        # Resolved builtin signature, filled in by the checker.
        self.sig = sig
        # Prepared first argument, filled in by the checker: a compiled
        # regex, a loaded pattern file, a plugin path, a signal name, or the
        # variable name of a set. Engines pass it in place of that argument.
        self.resource = resource


Expr = Union[Literal, Name, Unary, Binary, Call]


class ChainItem(_Fields):
    __slots__ = ("action", "connector")
    _FIELDS = __slots__

    def __init__(self, action: Call, connector: Optional[str]):
        self.action = action
        self.connector = connector  # "," | "=>" | "!>" | None on the last action


class Rule(Node):
    __slots__ = ("trigger", "chain", "rule_id")
    _FIELDS = __slots__

    def __init__(self, trigger: Expr = None, chain: list[ChainItem] | None = None, rule_id: str = "", *,
                 line: int = 0, column: int = 0):
        self.trigger = trigger
        self.chain = [] if chain is None else chain
        self.rule_id = rule_id
        self.line, self.column = line, column


class RuleSection(Node):
    __slots__ = ("kind", "rules")
    _FIELDS = __slots__

    def __init__(self, kind: SectionKind = SectionKind.GRAPH, rules: list[Rule] | None = None, *,
                 line: int = 0, column: int = 0):
        self.kind = kind
        self.rules = [] if rules is None else rules
        self.line, self.column = line, column


class LevelDecl(Node):
    __slots__ = ("name", "soft", "ordinal")
    _FIELDS = __slots__

    def __init__(self, name: str = "", soft: bool = False, ordinal: int = 0, *, line: int = 0, column: int = 0):
        self.name, self.soft, self.ordinal = name, soft, ordinal
        self.line, self.column = line, column


class _TypedDecl(Node):
    __slots__ = ("name", "type_name", "init")
    _FIELDS = __slots__

    def __init__(self, name: str = "", type_name: str = "", init: Expr = None, *, line: int = 0, column: int = 0):
        self.name = name
        self.type_name = type_name  # string | int | bool | float
        self.init = init
        self.line, self.column = line, column


class ConstDecl(_TypedDecl):
    __slots__ = ()


class VarDecl(_TypedDecl):
    __slots__ = ()


class Program(_Fields):
    __slots__ = ("levels", "consts", "vars", "rule_sections", "source_name")
    _FIELDS = ("levels", "consts", "vars", "rule_sections")

    def __init__(self, levels: list[LevelDecl] | None = None, consts: list[ConstDecl] | None = None,
                 vars: list[VarDecl] | None = None, rule_sections: list[RuleSection] | None = None,
                 source_name: str = "rules"):
        self.levels = [] if levels is None else levels
        self.consts = [] if consts is None else consts
        self.vars = [] if vars is None else vars
        self.rule_sections = [] if rule_sections is None else rule_sections
        self.source_name = source_name


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
