import os

import pytest
from hypothesis import given, settings, strategies as st

from rips.errors import ParseError
from rips.parser import MAX_NESTING, parse_source
from rips.syntax import Binary, Call, Literal, Name, SectionKind, Unary

from conftest import DATA_DIR
from randprog import DEEP_EXPRESSIONS, format_program, random_program


def load(name):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return fh.read()


def test_minimal_level_program():
    p = parse_source("levels: A;")
    assert len(p.levels) == 1
    assert p.levels[0].name == "A"
    assert p.levels[0].ordinal == 0
    assert not p.levels[0].soft


def test_empty_program_is_valid():
    p = parse_source("")
    assert p.levels == [] and p.consts == [] and p.vars == [] and p.rule_sections == []


def test_camera_rules_shape():
    p = parse_source(load("camera.rul"), "camera.rul")
    assert len(p.levels) == 2
    assert len(p.consts) == 2
    assert len(p.vars) == 0
    assert len(p.rule_sections) == 1
    section = p.rule_sections[0]
    assert section.kind is SectionKind.GRAPH
    assert len(section.rules) == 1
    rule = section.rules[0]
    assert len(rule.chain) == 5
    # All five actions run unconditionally, in order.
    assert [item.connector for item in rule.chain] == [",", ",", ",", ",", None]
    assert [item.action.name for item in rule.chain] == ["trigger", "alert", "exec", "exec", "exec"]


def test_soft_levels_example_shape():
    p = parse_source(load("soft_levels.rul"), "soft_levels.rul")
    assert [(l.name, l.soft) for l in p.levels] == [("A", False), ("B", False), ("C", True), ("D", False)]
    assert len(p.consts) == 2
    assert len(p.vars) == 4
    shapes = [(s.kind, len(s.rules)) for s in p.rule_sections]
    assert shapes == [(SectionKind.MSG, 2), (SectionKind.GRAPH, 3)]


def test_monitor_demo_shape():
    p = parse_source(load("monitor_demo.rul"), "monitor_demo.rul")
    assert len(p.levels) == 4
    assert p.levels[1].soft  # ALERT soft
    shapes = [(s.kind, len(s.rules)) for s in p.rule_sections]
    assert shapes == [(SectionKind.GRAPH, 7), (SectionKind.MSG, 1)]


def test_rule_ids_are_unique_and_positional():
    p = parse_source(load("soft_levels.rul"), "soft_levels.rul")
    ids = [r.rule_id for s in p.rule_sections for r in s.rules]
    assert ids == [
        "soft_levels.rul:Msg:0",
        "soft_levels.rul:Msg:1",
        "soft_levels.rul:Graph:0",
        "soft_levels.rul:Graph:1",
        "soft_levels.rul:Graph:2",
    ]


def test_repeated_sections_concatenate():
    p = parse_source("rules Msg: true ? alert(\"a\"); rules Msg: true ? alert(\"b\");")
    assert len(p.rule_sections) == 2
    assert [r.rule_id for s in p.rule_sections for r in s.rules] == ["rules:Msg:0", "rules:Msg:1"]


def test_duplicate_level_rejected():
    with pytest.raises(ParseError, match="duplicate level name 'A'"):
        parse_source("levels: A; B; A;")


def test_unicode_connectors_parse_to_identical_ast():
    ascii_src = 'rules Msg: true ? alert("a") => alert("b") !> alert("c");'
    uni_src = 'rules Msg: true ? alert("a") → alert("b") ↛ alert("c");'
    assert parse_source(ascii_src) == parse_source(uni_src)


def test_expression_precedence_c_like():
    p = parse_source("consts: X int = 1 + 2 * 3;")
    init = p.consts[0].init
    assert isinstance(init, Binary) and init.op == "+"
    assert isinstance(init.right, Binary) and init.right.op == "*"

    p2 = parse_source("consts: X bool = 1 < 2 == true;")
    init2 = p2.consts[0].init
    assert init2.op == "==" and init2.left.op == "<"

    p3 = parse_source("consts: X bool = true || false && true;")
    init3 = p3.consts[0].init
    assert init3.op == "||" and init3.right.op == "&&"

    p4 = parse_source("consts: X int = 1 | 2 ^ 3 & 4;")
    init4 = p4.consts[0].init
    assert init4.op == "|" and init4.right.op == "^" and init4.right.right.op == "&"


def test_unary_binds_tighter_than_binary():
    p = parse_source("rules Graph: ! nodecount(1, 5) && true ? alert(\"x\");")
    trig = p.rule_sections[0].rules[0].trigger
    assert trig.op == "&&"
    assert isinstance(trig.left, Unary) and trig.left.op == "!"
    assert isinstance(trig.left.operand, Call)


def test_parenthesized_grouping():
    p = parse_source("consts: X int = (1 + 2) * 3;")
    init = p.consts[0].init
    assert init.op == "*" and init.left.op == "+"


def test_chain_connector_recording():
    p = parse_source('rules Msg: true ? alert("a") => set(x, 1), False() !> True();')
    chain = p.rule_sections[0].rules[0].chain
    assert [c.connector for c in chain] == ["=>", ",", "!>", None]


def test_missing_semicolon_position():
    with pytest.raises(ParseError) as exc:
        parse_source("levels: A")
    assert "';'" in str(exc.value)


def test_missing_question_mark():
    with pytest.raises(ParseError, match=r"\?"):
        parse_source("rules Msg: true alert(\"a\");")


def test_action_must_be_call():
    with pytest.raises(ParseError, match="actions are calls"):
        parse_source("rules Msg: true ? alert;")


def test_bad_section_kind():
    with pytest.raises(ParseError, match="'Graph', 'Msg' or 'External'"):
        parse_source("rules Bogus: true ? alert(\"a\");")


def test_stray_token_outside_section():
    with pytest.raises(ParseError, match="section marker"):
        parse_source("wibble")


def test_deep_nesting_bounded():
    src = "consts: X int = " + "(" * 300 + "1" + ")" * 300 + ";"
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_source(src)


@pytest.mark.parametrize("form", sorted(DEEP_EXPRESSIONS))
def test_expression_depth_is_bounded(form):
    """The bound is on the depth of the tree the parser builds: the deepest
    expression at it parses, and one level more, or a nesting far past
    Python's recursion limit, is one error."""
    rule = "rules Graph: {} ? alert(\"x\");"
    parse_source(rule.format(DEEP_EXPRESSIONS[form](MAX_NESTING)))
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="^1:[0-9]+: expression nesting too deep$"):
            parse_source(rule.format(DEEP_EXPRESSIONS[form](depth)))


def test_the_depth_error_names_the_first_operator_past_the_bound():
    chain = " && ".join(["true"] * 3000)
    with pytest.raises(ParseError) as exc:
        parse_source(f"rules Graph: {chain} ? alert(\"x\");")
    assert exc.value.diagnostic.column == len("rules Graph: ") + len("true && ") * MAX_NESTING + len("true ") + 1


def test_empty_decl_sections_allowed():
    p = parse_source("consts:\nvars:\nrules Graph:\n")
    assert p.consts == [] and p.vars == []
    assert p.rule_sections[0].rules == []


FIXTURES = ["camera.rul", "navigation.rul", "payload.rul", "monitor_demo.rul", "soft_levels.rul"]


@pytest.mark.parametrize("name", FIXTURES)
def test_format_round_trip_fixtures(name):
    original = parse_source(load(name), name)
    printed = format_program(original)
    assert parse_source(printed, name) == original


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_format_round_trip_random_programs(seed):
    source = random_program(seed)
    original = parse_source(source, "gen.rul")
    assert parse_source(format_program(original), "gen.rul") == original


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_positions_monotonic_on_random_programs(seed):
    from rips.tokens import tokenize

    toks = tokenize(random_program(seed))
    positions = [(t.line, t.column) for t in toks]
    assert positions == sorted(positions)
