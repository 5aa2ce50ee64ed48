import math

import pytest

from rips import values
from rips.errors import EvalFault
from rips.values import ValueType


def test_int_overflow_wraps_two_complement():
    assert values.iadd(2**63 - 1, 1) == -(2**63)
    assert values.isub(-(2**63), 1) == 2**63 - 1
    assert values.imul(2**62, 4) == 0
    assert values.ineg(-(2**63)) == -(2**63)


def test_division_truncates_toward_zero():
    assert values.idiv(7, 2) == 3
    assert values.idiv(-7, 2) == -3
    assert values.idiv(7, -2) == -3
    assert values.idiv(-7, -2) == 3


def test_modulo_sign_follows_dividend():
    assert values.imod(7, 3) == 1
    assert values.imod(-7, 3) == -1
    assert values.imod(7, -3) == 1
    assert values.imod(-7, -3) == -1
    # (a/b)*b + a%b == a
    for a in (-9, -1, 0, 5, 13):
        for b in (-4, -1, 2, 7):
            assert values.iadd(values.imul(values.idiv(a, b), b), values.imod(a, b)) == a


def test_division_overflow_edge():
    assert values.idiv(-(2**63), -1) == -(2**63)
    assert values.imod(-(2**63), -1) == 0


def test_integer_division_by_zero_faults():
    with pytest.raises(EvalFault, match="division by zero"):
        values.idiv(1, 0)
    with pytest.raises(EvalFault, match="modulo by zero"):
        values.imod(1, 0)


def test_float_division_follows_ieee():
    assert values.fdiv(1.0, 0.0) == math.inf
    assert values.fdiv(-1.0, 0.0) == -math.inf
    assert math.isnan(values.fdiv(0.0, 0.0))
    assert values.fdiv(1.0, 2.0) == 0.5


def test_string_concat_caps_length():
    a = "x" * 3000
    b = "y" * 3000
    out = values.concat(a, b)
    assert len(out) == values.STRING_CAP
    assert out == ("x" * 3000 + "y" * 1096)


def test_concat_below_cap_unchanged():
    assert values.concat("ab", "cd") == "abcd"


def test_to_string_renderings():
    assert values.to_string(29) == "29"  # e.g. the value of 0b11101
    assert values.to_string(True) == "true"
    assert values.to_string(False) == "false"
    assert values.to_string(2.5) == "2.5"
    assert values.to_string(0.1) == "0.1"  # shortest round-trip repr
    assert values.to_string("s") == "s"
    assert values.to_string(-7) == "-7"


def test_float_to_string_round_trips():
    for f in (0.1, 1.0, 3.14159, 1e300, 5e-324):
        assert float(values.to_string(f)) == f


def test_operator_table_dispatch():
    assert values.BINARY["+", ValueType.STRING]("a", "b") == "ab"
    assert values.BINARY["+", ValueType.INT](2**63 - 1, 1) == -(2**63)
    assert values.BINARY["+", ValueType.FLOAT](0.5, 0.25) == 0.75
    assert values.BINARY["<", ValueType.STRING]("fff", "zzz") is True
    assert values.BINARY["&", ValueType.INT](0b1100, 0b1010) == 0b1000
    assert values.BINARY["^", ValueType.INT](-1, -1) == 0
