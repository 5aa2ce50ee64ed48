import os
import shutil

import pytest

from rips import signatures
from rips.checker import check_file, check_scripts, check_source
from rips.errors import StaticError
from rips.parser import parse_source
from rips.syntax import SectionKind
from rips.values import ValueType

from conftest import DATA_DIR, write_script


def diag_messages(exc_info):
    return [d.message for d in exc_info.value.diagnostics]


def expect_error(source, fragment, **kwargs):
    with pytest.raises(StaticError) as exc:
        check_source(source, **kwargs)
    messages = diag_messages(exc)
    assert any(fragment in m for m in messages), messages
    for diag in exc.value.diagnostics:
        assert diag.line >= 1 and diag.column >= 1
    return exc.value


# --- typing basics ---


def test_simple_arithmetic_types_and_folding():
    checked = check_source("consts: X int = 3 + 4;")
    sym = checked.symbols["X"]
    assert sym.value == 7
    assert sym.type is ValueType.INT


def test_const_folding_examples():
    checked = check_source('consts: X int = 2*3+1; Y string = "a"+"b";')
    assert checked.symbols["X"].value == 7
    assert checked.symbols["Y"].value == "ab"


def test_no_implicit_casting_int_float():
    expect_error("consts: X int = 1 + 1.0;", "no implicit casting")


def test_string_compared_to_int_rejected():
    expect_error('rules Msg: "a" < 1 ? alert("x");', "no implicit casting")


def test_bool_arithmetic_rejected():
    expect_error("consts: X bool = true + false;", "'+' needs numbers or strings")


def test_modulo_floats_rejected():
    expect_error("consts: X float = 1.0 % 2.0;", "'%' needs int")


def test_declared_type_must_match_initializer():
    expect_error('consts: X int = "s";', "declared int but its initializer has type string")


def test_non_constant_initializer_rejected():
    expect_error("vars: A int = 1; rules Graph: true ? set(A, 1);\nvars: Z int = somevar;", "unknown identifier")
    expect_error(
        "vars: A int = 0; Z int = A;\nrules Graph: true ? set(A, Z) , set(Z, A);",
        "not a constant expression",
    )


def test_division_by_zero_in_constant_expression():
    expect_error("consts: X int = 1 / 0;", "division by zero")
    expect_error("consts: X int = 7 % (3 - 3);", "modulo by zero")


def test_overflow_wraps_in_constant_fold():
    checked = check_source("consts: X int = 9223372036854775807 + 1;")
    assert checked.symbols["X"].value == -(2**63)


@pytest.mark.parametrize("source, line, column", [
    ("consts: X int = 99999999999999999999;", 1, 17),
    ("consts: X int = 9223372036854775808;", 1, 17),
    ("consts: X int = 0b" + "1" * 64 + ";", 1, 17),
    ("vars: v int = 0;\nrules Graph: true ? set(v, 99999999999999999999 & -1) => True(v);", 2, 28),
], ids=["decimal", "max-plus-one", "binary", "in-rule"])
def test_int_literal_outside_i64_rejected(source, line, column):
    err = expect_error(source, "outside the 64-bit range")
    assert (err.diagnostics[0].line, err.diagnostics[0].column) == (line, column)


def test_int_literal_at_i64_max_accepted():
    assert check_source("consts: X int = 9223372036854775807;").symbols["X"].value == 2**63 - 1


# --- sections and builtins ---


def test_msg_builtin_in_graph_section_rejected():
    err = expect_error(
        'rules Graph: topicmatches("x") ? alert("y");',
        "expression type Msg and cannot be used in a Graph rule",
    )
    assert err.diagnostics[0].line == 1


def test_graph_builtin_in_msg_section_rejected():
    expect_error('rules Msg: nodecount(1, 2) ? alert("y");', "cannot be used in a Msg rule")


def test_external_builtin_in_graph_section_rejected():
    expect_error('rules Graph: signal("SIGUSR1") ? alert("y");', "cannot be used in a Graph rule")


def test_universal_helpers_usable_everywhere():
    check_source(
        "levels: A;\n"
        "rules Graph: levelname(CurrLevel) == \"A\" ? alert(string(1));\n"
        "rules Msg: string(Time) != \"\" ? alert(\"m\");\n"
        "rules External: string(Uptime) != \"\" ? alert(\"e\");\n"
    )


def test_trigger_must_be_bool():
    expect_error("rules Graph: 1 + 2 ? alert(\"x\");", "trigger must be bool")


def test_builtin_arity_checked():
    expect_error("rules Graph: nodecount(1) ? alert(\"x\");", "expects 2 arguments, got 1")
    expect_error("rules Msg: msgsubtype(\"a\") ? alert(\"x\");", "expects 2 arguments, got 1")
    expect_error("rules Graph: true ? alert();", "expects 1 argument, got 0")


def test_builtin_arg_types_checked():
    expect_error("rules Graph: nodecount(\"a\", 2) ? alert(\"x\");", "must be int, got string")
    expect_error("rules Graph: true ? alert(1);", "must be string, got int")


def test_variadic_accepts_zero_or_more():
    check_source('rules Msg: topicin() || topicin("/a", "/b", "/c") ? True() , False(1, "x", 2.5);')


def test_action_in_expression_rejected():
    expect_error('rules Msg: alert("x") ? alert("y");', "is an action and cannot be used in an expression")


def test_predicate_as_action_rejected():
    expect_error('rules Msg: true ? topicmatches("x");', "is an expression builtin, not an action")


def test_unknown_identifier_and_builtin():
    expect_error("rules Msg: nosuch ? alert(\"x\");", "unknown identifier 'nosuch'")
    expect_error("rules Msg: nosuchfn(1) ? alert(\"x\");", "unknown builtin 'nosuchfn'")
    expect_error("rules Msg: true ? nosuchact(1);", "unknown action 'nosuchact'")


# --- set and predefined variables ---


def test_set_to_predefined_rejected():
    expect_error("rules Graph: true ? set(CurrLevel, 1);", "predefined variable 'CurrLevel' cannot be set")
    expect_error("rules Graph: true ? set(Time, 1);", "predefined variable 'Time' cannot be set")


def test_set_to_const_or_level_rejected():
    expect_error("consts: K int = 1;\nrules Graph: K > 0 ? set(K, 2);", "'K' is a const, not a variable")
    expect_error("levels: A;\nrules Graph: true ? set(A, 2);", "'A' is a level, not a variable")


def test_set_type_mismatch():
    expect_error(
        "vars: v int = 0;\nrules Graph: v == 0 ? set(v, \"s\");",
        "cannot set 'v' (int) to a string value",
    )


def test_set_first_arg_must_be_name():
    expect_error("rules Graph: true ? set(1 + 2, 3);", "first argument of set must be a variable name")


def test_predefined_are_ints():
    checked = check_source("rules Graph: Time > 0 && Uptime >= 0 && CurrLevel == CurrLevel ? True();")
    assert checked.symbols["Time"].type is ValueType.INT


def test_reserved_names_cannot_be_declared():
    expect_error("vars: CurrLevel int = 0;", "predefined name")
    expect_error("consts: Time int = 0;", "predefined name")
    expect_error("levels: CurrRule;", "predefined name")


def test_duplicate_declarations_rejected():
    expect_error("consts: X int = 1;\nvars: X int = 2;", "'X' is already declared")
    expect_error("levels: A;\nconsts: A int = 1;", "'A' is already declared")


# --- scope ---


def test_scope_starts_at_declaration():
    expect_error(
        "rules Graph: later > 0 ? True();\nvars: later int = 1;",
        "unknown identifier 'later'",
    )
    # Forward reference inside an initializer is also out of scope.
    expect_error("consts: A int = B; B int = 1;", "unknown identifier 'B'")


def test_self_reference_in_initializer_rejected():
    expect_error("consts: X int = X;", "unknown identifier 'X'")


def test_currrule_is_rule_local():
    check_source('vars: last string = "";\nrules Msg: CurrRule != "" ? set(last, CurrRule) , alert(last);')
    expect_error("consts: X string = CurrRule;", "only defined inside a rule")


# --- usage analysis ---


def test_unused_variable_rejected():
    expect_error(
        "vars: used int = 0; unused int = 0;\nrules Graph: used > 0 ? set(used, 0);",
        "variable 'unused' is never accessed",
    )


def test_never_read_variable_rejected():
    expect_error(
        "vars: w int = 0;\nrules Graph: true ? set(w, 1);",
        "variable 'w' is unused (never read)",
    )


def test_never_set_variable_rejected():
    expect_error(
        "vars: r int = 0;\nrules Graph: r > 0 ? True();",
        "variable 'r' is never set",
    )


def test_set_counts_as_write_not_read():
    # set(x, x) both writes and reads x, so it passes.
    check_source("vars: x int = 0;\nrules Graph: true ? set(x, x);")


# --- levels and trigger forms ---


def test_trigger_level_literal_ok():
    check_source("levels: A; B;\nrules Graph: true ? trigger(B);")


def test_trigger_currlevel_ok():
    check_source("levels: A;\nrules Graph: true ? trigger(CurrLevel);")


def test_trigger_level_initialized_var_ok():
    check_source(
        "levels: A; B;\nvars: lv int = A;\nrules Graph: lv >= A ? set(lv, lv + 1) , trigger(lv);"
    )


def test_trigger_plain_int_var_rejected():
    expect_error(
        "levels: A;\nvars: lv int = 0;\nrules Graph: lv >= 0 ? set(lv, lv + 1) , trigger(lv);",
        "trigger needs a level name, CurrLevel, or an int variable initialized with a level",
    )


def test_trigger_int_literal_rejected():
    expect_error("levels: A;\nrules Graph: true ? trigger(1);", "trigger needs a level name")


def test_levelname_form_rule():
    check_source("levels: A;\nrules Graph: levelname(A) == \"A\" ? True();")
    expect_error("levels: A;\nrules Graph: levelname(3) == \"\" ? True();", "levelname needs a level name")


def test_trigger_without_levels_rejected():
    expect_error("rules Graph: true ? trigger(CurrLevel);", "declares no levels")


def test_levels_are_int_constants():
    checked = check_source("levels: A; B; C;\nconsts: X int = C;")
    assert checked.symbols["X"].value == 2


# --- constant-argument validation ---


def test_non_constant_regex_rejected():
    expect_error(
        'vars: pat string = "x";\nrules Msg: topicmatches(pat) ? set(pat, pat);',
        "argument 1 of topicmatches must be a constant",
    )


def test_invalid_regex_rejected():
    expect_error('rules Msg: topicmatches("(unclosed") ? True();', "invalid regular expression")


def test_regex_from_const_is_accepted_and_compiled():
    checked = check_source('consts: P string = "/pose.*";\nrules Msg: topicmatches(P) ? True();')
    regex = checked.rules[SectionKind.MSG][0].trigger.resource
    assert regex.pattern == "/pose.*"
    assert regex.full_match("/pose2d")


def test_signal_names_validated():
    check_source('rules External: signal("SIGUSR1") || signal("SIGUSR2") ? True();')
    expect_error('rules External: signal("SIGHUP") ? True();', "unknown signal name 'SIGHUP'")
    expect_error(
        'vars: s string = "SIGUSR1";\nrules External: signal(s) ? set(s, s);',
        "argument 1 of signal must be a constant",
    )


def test_missing_pattern_file_rejected(tmp_path):
    expect_error(
        'rules Msg: payload("nope.yar") ? True();',
        "cannot read pattern file",
        base_dir=str(tmp_path),
    )


def test_bad_pattern_file_rejected(tmp_path):
    bad = tmp_path / "bad.yar"
    bad.write_text("rule x { strings: $a = }")
    expect_error('rules Msg: payload("bad.yar") ? True();', "bad pattern file", base_dir=str(tmp_path))


def test_pattern_file_that_is_not_utf8_rejected(tmp_path):
    (tmp_path / "bad.yar").write_bytes(b'rule x { strings: $a = "\xff" condition: $a }\n')
    exc = expect_error('rules Msg: payload("bad.yar") ? True();', "cannot read pattern file 'bad.yar':",
                       base_dir=str(tmp_path))
    assert [(d.line, d.column) for d in exc.diagnostics] == [(1, 20)]


def test_missing_plugin_rejected(tmp_path):
    expect_error(
        'rules Msg: plugin("nope.py") ? True();',
        "plugin 'nope.py' is missing or not executable",
        base_dir=str(tmp_path),
    )


def test_plugin_must_be_executable(tmp_path):
    plug = tmp_path / "p.sh"
    plug.write_text("#!/bin/sh\nexit 0\n")
    expect_error('rules Msg: plugin("p.sh") ? True();', "missing or not executable", base_dir=str(tmp_path))


# --- scripts ---


def test_check_scripts_complete_dir(scripts_factory):
    program = parse_source("levels: A; B; C soft; D;")
    scripts_dir = scripts_factory(["A", "B", "C", "D"])
    assert check_scripts(program.levels, scripts_dir) == []


def test_check_scripts_missing_one(scripts_factory, tmp_path):
    program = parse_source("levels: A; B; C soft; D;")
    scripts_dir = scripts_factory(["A", "B", "C", "D"])
    os.unlink(os.path.join(scripts_dir, "D.from"))
    diags = check_scripts(program.levels, scripts_dir)
    assert len(diags) == 1
    assert "D.from" in diags[0].message


def test_check_scripts_not_executable(scripts_factory):
    program = parse_source("levels: A;")
    scripts_dir = scripts_factory(["A"])
    os.chmod(os.path.join(scripts_dir, "A.to"), 0o644)
    diags = check_scripts(program.levels, scripts_dir)
    assert len(diags) == 1 and "not executable" in diags[0].message


def test_check_scripts_vacuous_without_levels(tmp_path):
    assert check_scripts([], str(tmp_path)) == []


def test_missing_script_is_compile_error(scripts_factory):
    scripts_dir = scripts_factory(["A"])
    os.unlink(os.path.join(scripts_dir, "A.to"))
    expect_error("levels: A; rules Graph: true ? trigger(A);", "missing transition script A.to",
                 scripts_dir=scripts_dir)


# --- whole fixtures ---


@pytest.mark.parametrize("name", ["camera.rul", "navigation.rul", "payload.rul", "monitor_demo.rul", "soft_levels.rul"])
def test_fixture_files_check_clean(name):
    checked = check_file(os.path.join(DATA_DIR, name))
    assert checked.source_name == name


def test_checker_determinism():
    source = (
        "vars: a int = 0; b int = 1.5; c float = 2;\n"
        "rules Graph: topicmatches(\"x\") && \"s\" < 1 ? set(CurrLevel, 1);\n"
    )
    def run():
        try:
            check_source(source)
        except StaticError as exc:
            return [(d.message, d.line, d.column) for d in exc.diagnostics]
    first = run()
    assert first and first == run()


# --- the signature tables themselves ---


MSG_BUILTINS = {
    "msgsubtype", "msgtypein", "payload", "plugin",
    "publishercount", "publishers", "publishersinclude",
    "subscribercount", "subscribers", "subscribersinclude",
    "topicin", "topicmatches",
}
GRAPH_BUILTINS = {
    "nodes", "nodesinclude", "nodecount",
    "service", "servicecount", "services", "servicesinclude",
    "topiccount", "topics", "topicsinclude",
    "topicpublishercount", "topicpublishers", "topicpublishersinclude",
    "topicsubscribercount", "topicsubscribers", "topicsubscribersinclude",
}
EXTERNAL_BUILTINS = {"idsalert", "signal"}
UNIVERSAL_BUILTINS = {"levelname", "string"}


def _in_section(section):
    return {name for name, sig in signatures.EXPRESSION_BUILTINS.items() if sig.section is section}


def test_every_builtin_in_exactly_one_table():
    assert not set(signatures.ACTIONS) & set(signatures.EXPRESSION_BUILTINS)
    assert set(signatures.ACTIONS) == {"set", "crash", "alert", "exec", "True", "False", "trigger"}
    assert all(sig.section is None for sig in signatures.ACTIONS.values())
    assert _in_section(SectionKind.MSG) == MSG_BUILTINS
    assert _in_section(SectionKind.GRAPH) == GRAPH_BUILTINS
    assert _in_section(SectionKind.EXTERNAL) == EXTERNAL_BUILTINS
    assert _in_section(None) == UNIVERSAL_BUILTINS


def test_variadic_flags_match_tables():
    assert signatures.ACTIONS["exec"].vararg is not None
    assert signatures.ACTIONS["True"].vararg is not None
    assert signatures.ACTIONS["alert"].vararg is None
    assert signatures.EXPRESSION_BUILTINS["topicin"].vararg is not None
    assert signatures.EXPRESSION_BUILTINS["topicmatches"].vararg is None
    assert signatures.EXPRESSION_BUILTINS["services"].vararg is not None
    assert signatures.EXPRESSION_BUILTINS["nodecount"].vararg is None


# --- the section check, for every expression builtin ---

_SECTION_BUILTINS = {"Msg": MSG_BUILTINS, "Graph": GRAPH_BUILTINS, "External": EXTERNAL_BUILTINS}
_SAMPLE_ARGUMENT = {"string": '"x"', "int": "1", "Universal": "1"}
# Builtins whose arguments the checker needs to be a valid resource or level.
_WRITTEN_CALL = {
    "payload": 'payload("yaraexp3.yar")',
    "plugin": 'plugin("p.sh")',
    "topicmatches": 'topicmatches("/a.*")',
    "signal": 'signal("SIGUSR1")',
    "levelname": "levelname(A)",
}


def _well_formed_call(name: str) -> str:
    """A call of builtin ``name`` that the checker accepts in a rule of its
    own section, given level ``A``, the pattern file and the plugin."""
    if name in _WRITTEN_CALL:
        return _WRITTEN_CALL[name]
    sig = signatures.EXPRESSION_BUILTINS[name]
    params = [*sig.params, *([sig.vararg] if sig.vararg is not None else [])]
    return f"{name}({', '.join(_SAMPLE_ARGUMENT[p.value] for p in params)})"


@pytest.mark.parametrize("name", sorted(signatures.EXPRESSION_BUILTINS))
def test_section_check_for_every_expression_builtin(name, tmp_path):
    shutil.copy(os.path.join(DATA_DIR, "yaraexp3.yar"), tmp_path)
    write_script(tmp_path / "p.sh")
    call = _well_formed_call(name)
    result = signatures.EXPRESSION_BUILTINS[name].result.value
    trigger = call if result == "bool" else f'{call} != ""'
    own = [section for section, names in _SECTION_BUILTINS.items() if name in names]

    def rule_in(section):
        return f"levels: A;\nrules {section}: {trigger} ? True();"

    for section in _SECTION_BUILTINS:
        if own and section != own[0]:
            expect_error(rule_in(section), f"{name} has expression type {own[0]} and cannot"
                         f" be used in a {section} rule", base_dir=str(tmp_path))
        else:
            check_source(rule_in(section), base_dir=str(tmp_path))
    with pytest.raises(StaticError) as exc:
        check_source(f"levels: A;\nconsts: X {result} = {call};", base_dir=str(tmp_path))
    outside = [m for m in diag_messages(exc) if "cannot be used outside rules" in m]
    assert outside == ([f"{name} cannot be used outside rules"] if own else [])
    assert name in UNIVERSAL_BUILTINS or len(own) == 1
