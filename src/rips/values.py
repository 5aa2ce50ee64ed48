"""Value types and the value semantics shared by the checker, the
interpreter and generated code.

``ValueType`` is the static type of a value; the checker gives every
expression one, and the operator tables below are keyed on it.

Integers behave as wrapping two's-complement 64-bit values, division and
modulo truncate toward zero (the remainder takes the dividend's sign), and
floats follow IEEE 754 double rules. Strings are capped at STRING_CAP code
points; concatenation silently truncates the excess.

Operators dispatch through ``UNARY`` and ``BINARY``: the checker binds each
operator node's ``impl`` from them, and the constant folder, the interpreter
and the generated code call that function, as they call a builtin's
``BuiltinSig.impl``.
"""

from __future__ import annotations

import math
import operator
from enum import Enum

from .errors import EvalFault


class ValueType(Enum):
    STRING = "string"
    INT = "int"
    BOOL = "bool"
    FLOAT = "float"
    # A builtin parameter that accepts a value of any type.
    UNIVERSAL = "Universal"


# The declared type names of consts, vars and literals.
VALUE_TYPE_BY_NAME = {vt.value: vt for vt in ValueType if vt is not ValueType.UNIVERSAL}

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
_MASK = (1 << 64) - 1

STRING_CAP = 4096


def wrap64(x: int) -> int:
    return ((x + (1 << 63)) & _MASK) - (1 << 63)


def iadd(a: int, b: int) -> int:
    return wrap64(a + b)


def isub(a: int, b: int) -> int:
    return wrap64(a - b)


def imul(a: int, b: int) -> int:
    return wrap64(a * b)


def ineg(a: int) -> int:
    return wrap64(-a)


def idiv(a: int, b: int) -> int:
    if b == 0:
        raise EvalFault("integer division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap64(q)


def imod(a: int, b: int) -> int:
    if b == 0:
        raise EvalFault("integer modulo by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return a - q * b


def fdiv(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def clamp_str(s: str) -> str:
    if len(s) > STRING_CAP:
        return s[:STRING_CAP]
    return s


def concat(a: str, b: str) -> str:
    return clamp_str(a + b)


def to_string(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, float):
        return clamp_str(repr(v))
    if isinstance(v, str):
        return clamp_str(v)
    return str(v)


# The operator table: (operator, operand value type) -> implementation. A
# pair with no row is a type error. ``&&`` and ``||`` short-circuit, so they
# have no row.
UNARY = {
    ("!", ValueType.BOOL): operator.not_,
    ("~", ValueType.INT): operator.invert,
    ("-", ValueType.INT): ineg,
    ("-", ValueType.FLOAT): operator.neg,
    ("+", ValueType.INT): operator.pos,
    ("+", ValueType.FLOAT): operator.pos,
}

BINARY = {
    ("+", ValueType.INT): iadd,
    ("+", ValueType.FLOAT): operator.add,
    ("+", ValueType.STRING): concat,
    ("-", ValueType.INT): isub,
    ("-", ValueType.FLOAT): operator.sub,
    ("*", ValueType.INT): imul,
    ("*", ValueType.FLOAT): operator.mul,
    ("/", ValueType.INT): idiv,
    ("/", ValueType.FLOAT): fdiv,
    ("%", ValueType.INT): imod,
    ("&", ValueType.INT): operator.and_,
    ("^", ValueType.INT): operator.xor,
    ("|", ValueType.INT): operator.or_,
    **{(op, vt): fn
       for op, fn in (("==", operator.eq), ("!=", operator.ne))
       for vt in (ValueType.INT, ValueType.FLOAT, ValueType.STRING, ValueType.BOOL)},
    **{(op, vt): fn
       for op, fn in (("<", operator.lt), ("<=", operator.le), (">", operator.gt), (">=", operator.ge))
       for vt in (ValueType.INT, ValueType.FLOAT, ValueType.STRING)},
}
