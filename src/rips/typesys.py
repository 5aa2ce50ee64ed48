"""Two-part static types: a value type paired with an expression type.

The value type classifies the result (string/int/bool/float); the expression
type records which rule section may evaluate the expression (Graph/Msg/
External). Universal is compatible with everything; a combination that fails
yields Undefined, which is a type error wherever it surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ValueType(Enum):
    STRING = "string"
    INT = "int"
    BOOL = "bool"
    FLOAT = "float"
    UNIVERSAL = "Universal"
    UNDEFINED = "Undefined"


class ExprType(Enum):
    GRAPH = "Graph"
    MSG = "Msg"
    EXTERNAL = "External"
    UNIVERSAL = "Universal"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class TypeTuple:
    value_type: ValueType
    expr_type: ExprType

    def __str__(self) -> str:
        return f"({self.value_type.value}, {self.expr_type.value})"


def meet_expr(a: ExprType, b: ExprType) -> ExprType:
    """Combine the expression types of two operands: the more specific wins."""
    if a is b:
        return a
    if a is ExprType.UNIVERSAL:
        return b
    if b is ExprType.UNIVERSAL:
        return a
    return ExprType.UNDEFINED


VALUE_TYPE_BY_NAME = {
    "string": ValueType.STRING,
    "int": ValueType.INT,
    "bool": ValueType.BOOL,
    "float": ValueType.FLOAT,
}

SECTION_EXPR_TYPE = {
    "Graph": ExprType.GRAPH,
    "Msg": ExprType.MSG,
    "External": ExprType.EXTERNAL,
}
