"""Differential test: the tree-walking interpreter is the reference, and the
transpiled program must match it outcome for outcome, variable for variable
and child process for child process (McKeeman, "Differential Testing for
Software", 1998).

Each seed yields one random well-typed program and one random corpus; both
engines get the same decoded events, the same signal deliveries and the same
clock steps, with External ticks interleaved. A run ends after the corpus or
at the first ``EngineCrash``, which both engines must raise at the same step.
"""

from __future__ import annotations

import ast
import base64
import functools
import os
import re
import shutil

import pytest

from rips import cli, predicates, values
from rips.bus import SignalCounters
from rips.checker import check_file, check_source
from rips.errors import EngineCrash, StaticError
from rips.interpreter import InterpretedEngine
from rips.runtime import Engine, EngineConfig, FakeClock, RecordingRunner
from rips.scenario import encode_event
from rips.signatures import ACTIONS, EXPRESSION_BUILTINS
from rips.syntax import Binary, Call, SectionKind, Unary
from rips.transpiler import load_generated, transpile
from rips.values import ValueType
from rips.wire import decode_event

from conftest import DATA_DIR
from randprog import IDS_NEEDLE_POOL, extreme_programs, random_corpus, random_program

SEEDS = range(50)
N_EVENTS = 40
STEP_NS = 37_000_000
TICK_EVERY = 3
SIGNAL_EVERY = 5
# Builtins random programs do not call: they need pattern files or plugins.
NOT_GENERATED = {"payload", "plugin"}


@pytest.fixture(scope="module")
def ids_dir(tmp_path_factory) -> str:
    """Alert files holding two of the three needles random programs use."""
    path = tmp_path_factory.mktemp("ids")
    (path / "alert.log").write_text(f"[**] {IDS_NEEDLE_POOL[0]} [**]\n")
    (path / "nested").mkdir()
    (path / "nested" / "alert-2.log").write_text(f"{IDS_NEEDLE_POOL[1]} from 10.0.0.7\n")
    return str(path)


def _runner(call: tuple) -> bool:
    """Deterministic child-process results, so both outcomes occur."""
    return len(repr(call)) % 3 != 0


class _Run:
    """One engine under test, with everything it observes recorded."""

    def __init__(self, build):
        self.clock = FakeClock(1_000)
        self.counters = SignalCounters()
        self.runner = RecordingRunner(_runner)
        self.delivered: list = []
        self.engine = build(
            clock=self.clock,
            runner=self.runner,
            counters=self.counters,
            sink=lambda o: self.delivered.append(o) or True,
        )
        self.steps: list = []

    def replay(self, events) -> None:
        e = self.engine
        try:
            self.steps.append(e.start())
            for i, event in enumerate(events):
                self.clock.advance(STEP_NS)
                if i % SIGNAL_EVERY == 0:
                    self.counters.deliver("SIGUSR1" if i % 2 else "SIGUSR2")
                self.steps.append(e.handle_event(event))
                if i % TICK_EVERY == TICK_EVERY - 1:
                    self.steps.append(e.tick())
        except EngineCrash as crash:
            self.steps.append(("crash", crash.text))


def _engines(checked, config):
    module = load_generated(transpile(checked, timestamp="fixed"), "differential_generated")
    interp = _Run(lambda **kw: InterpretedEngine(checked, config=config, **kw))
    gen = _Run(lambda **kw: module.build_engine(config=config, **kw))
    return interp, gen


def _same(a, b) -> bool:
    # repr makes NaN equal to itself; float variables may overflow into it.
    return repr(a) == repr(b)


def _replay(checked, seed: int, ids_dir: str) -> tuple[_Run, _Run]:
    """Both engines of ``checked`` over the random corpus of ``seed``."""
    events = [decode_event(doc) for doc in random_corpus(seed, N_EVENTS)]
    interp, gen = _engines(checked, EngineConfig(ids_dir=ids_dir, tick_interval=0.1))
    interp.replay(events)
    gen.replay(events)
    return interp, gen


@functools.lru_cache(maxsize=None)
def _replayed(seed: int, ids_dir: str) -> tuple[_Run, _Run]:
    return _replay(check_source(random_program(seed), f"random{seed}.rul"), seed, ids_dir)


def _assert_agree(interp: _Run, gen: _Run) -> None:
    assert _same(gen.steps, interp.steps)
    assert _same(gen.delivered, interp.delivered)
    assert _same(gen.engine.dump_variables(), interp.engine.dump_variables())
    assert gen.engine.current == interp.engine.current
    assert gen.runner.calls == interp.runner.calls
    assert gen.counters.consumed == interp.counters.consumed


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_on_random_programs(seed, ids_dir):
    _assert_agree(*_replayed(seed, ids_dir))


# The longest diagnostic line a program past a bound may give.
MAX_DIAGNOSTIC_LINE = 160


@pytest.mark.parametrize("extreme", extreme_programs(), ids=lambda extreme: extreme.name)
def test_programs_at_the_bounds_run_and_past_them_get_one_line(extreme, tmp_path, ids_dir, capsys):
    """``rips check`` accepts each program at a bound, and both engines then
    agree on it over a random corpus; it refuses each one past a bound with
    one short diagnostic line and no traceback."""
    for name, text in extreme.files:
        (tmp_path / name).write_text(text)
    rules = tmp_path / "extreme.rul"
    rules.write_text(extreme.source)
    status = cli.main(["check", str(rules)])
    err = capsys.readouterr().err
    if not extreme.accepted:
        assert status == 1
        (line,) = err.splitlines()
        assert len(line) <= MAX_DIAGNOSTIC_LINE
        return
    assert (status, err) == (0, "")
    interp, gen = _replay(check_file(str(rules)), 0, ids_dir)
    _assert_agree(interp, gen)
    assert interp.delivered


def test_random_programs_cover_every_expression_builtin():
    called = set()
    for seed in SEEDS:
        called |= set(re.findall(r"\b(\w+)\(", random_program(seed)))
    assert set(EXPRESSION_BUILTINS) - called == NOT_GENERATED


def test_differential_runs_reach_crash_and_faults(ids_dir):
    """The seeds exercise the paths that end or divert a run, not only the
    plain ones: some runs crash, and some rules fault."""
    crashed = faulted = 0
    for seed in SEEDS:
        run, _ = _replayed(seed, ids_dir)
        crashed += isinstance(run.steps[-1], tuple)
        faulted += any(o.text.startswith("rule ") for o in run.delivered)
    assert crashed and faulted


# The shellcode that tests/data/yaraexp3.yar matches.
SHELLCODE = bytes.fromhex("31c050682f2f7368682f62696e89e3505389e1b00bcd80")


@pytest.mark.parametrize("builtin", ['plugin("inspect.sh")', 'payload("yaraexp3.yar")'], ids=["plugin", "payload"])
def test_plugin_under_both_engines(tmp_path, monkeypatch, builtin):
    """The builtins random programs do not generate, under both engines.

    The files are named relative to the working directory, so the plugin
    path, and with it ``_runner``'s answers, do not depend on where the
    temporary directory is."""
    monkeypatch.chdir(tmp_path)
    plugin = tmp_path / "inspect.sh"
    plugin.write_text("#!/bin/sh\nexit 0\n")
    plugin.chmod(0o755)
    shutil.copy(os.path.join(DATA_DIR, "yaraexp3.yar"), tmp_path)
    source = (
        'rules Msg:\n'
        f'    {builtin} ? alert("accepted");\n'
        f'    ! {builtin} ? alert("rejected");\n'
    )
    checked = check_source(source, "plugin.rul", base_dir=".")
    docs = [
        {"event": "message", "topic": "/cam", "msgtype": "std_msgs/msg/String",
         "payload": base64.b64encode(payload).decode(), "context": {"nodes": [], "topics": []}}
        for payload in (b"hi", b"", b"\x00\x01\x02", b"\x90" + SHELLCODE)
    ]
    events = [decode_event(encode_event(doc)) for doc in docs]
    interp, gen = _engines(checked, EngineConfig())
    interp.replay(events)
    gen.replay(events)
    assert gen.steps == interp.steps
    assert gen.runner.calls == interp.runner.calls
    texts = [o.text for o in interp.delivered]
    if builtin.startswith("plugin"):
        assert interp.runner.calls[:2] == [("plugin", "./inspect.sh", b"hi")] * 2
        assert set(texts) == {"accepted", "rejected"}
    else:
        assert texts == ["rejected"] * 3 + ["accepted"]


def test_each_prepared_argument_reaches_its_own_call(tmp_path):
    """Two pattern files and two regexes in one program: each call sees its
    own, under both engines, message for message."""
    shutil.copy(os.path.join(DATA_DIR, "yaraexp3.yar"), tmp_path)
    (tmp_path / "greeting.yar").write_text('rule greeting { strings: $a = "hi" condition: $a }\n')
    checked = check_source(
        'rules Msg:\n'
        '    payload("yaraexp3.yar") ? alert("shellcode");\n'
        '    payload("greeting.yar") ? alert("greeting");\n'
        '    topicmatches("/cam.*") ? alert("camera topic");\n'
        '    topicmatches("/nav.*") ? alert("navigation topic");\n',
        "prepared.rul", base_dir=str(tmp_path))
    module = load_generated(transpile(checked), "prepared_generated")
    messages = [("/cam", b"hi"), ("/nav/goal", b"\x90" + SHELLCODE), ("/other", b"x"), ("/camera", SHELLCODE + b"hi")]
    events = [decode_event(encode_event({"event": "message", "topic": topic, "msgtype": "std_msgs/msg/String",
                                         "payload": base64.b64encode(payload).decode(), "context": {}}))
              for topic, payload in messages]
    interp = InterpretedEngine(checked, clock=FakeClock(0), runner=RecordingRunner())
    gen = module.build_engine(clock=FakeClock(0), runner=RecordingRunner())
    outcomes = [[engine.handle_event(event) for event in events] for engine in (interp, gen)]
    assert outcomes[0] == outcomes[1]
    assert [[o.text for o in step] for step in outcomes[0]] == [
        ["greeting", "camera topic"], ["shellcode", "navigation topic"], [], ["shellcode", "greeting", "camera topic"]]


def test_both_engines_dispatch_through_the_signature_table():
    source = (
        'levels: A; B;\n'
        'vars: n int = 0;\n'
        'rules Graph: nodecount(0, 3) && levelname(CurrLevel) == "A" ? alert(string(n)) => set(n, 1);\n'
        'rules Msg: topicmatches("/c.*") && topicin("/cam") ? trigger(B), exec("/bin/true", "x"), True(1) !> False();\n'
        'rules External: signal("SIGUSR1") || idsalert("x") ? alert("ext"), crash("stop");\n'
    )
    checked = check_source(source, "dispatch.rul")
    module = load_generated(transpile(checked), "dispatch_generated")
    assert module._P is predicates
    for name, sig in EXPRESSION_BUILTINS.items():
        assert callable(sig.impl), name
        assert getattr(module._P, sig.impl.__name__) is sig.impl, name
    for name, sig in ACTIONS.items():
        assert sig.impl is getattr(Engine, sig.impl.__name__), name
    assert module._rt.Engine is Engine
    interp_calls = []

    def walk(node):
        if isinstance(node, Call):
            interp_calls.append(node)
            children = node.args
        elif isinstance(node, Binary):
            children = (node.left, node.right)
        else:
            children = (node.operand,) if isinstance(node, Unary) else ()
        for child in children:
            walk(child)

    for rule in sum(checked.rules.values(), []):
        walk(rule.trigger)
        for item in rule.chain:
            walk(item.action)
    assert {c.name for c in interp_calls} == {
        "nodecount", "levelname", "string", "topicmatches", "topicin", "signal", "idsalert",
        "alert", "trigger", "set", "exec", "True", "False", "crash"}
    generated = transpile(checked)
    for call in interp_calls:
        if call.name in ACTIONS:
            assert call.sig.impl is ACTIONS[call.name].impl
            assert f"r = E.{call.sig.impl.__name__}(" in generated
        else:
            assert call.sig.impl is EXPRESSION_BUILTINS[call.name].impl
            assert f"_P.{call.name}(E, ctx" in generated


def _compared_constants(node) -> set:
    """The constants that the code under ``node`` compares with anything."""
    return {
        n.value
        for cmp in ast.walk(node) if isinstance(cmp, ast.Compare)
        for side in (cmp.left, *cmp.comparators)
        for n in ast.walk(side) if isinstance(n, ast.Constant)
    }


def _module_tree(module: str) -> ast.Module:
    import rips

    with open(os.path.join(os.path.dirname(rips.__file__), module), encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("module", ["runtime.py", "interpreter.py", "transpiler.py"])
def test_engines_do_not_dispatch_on_builtin_names(module):
    """No string ladder: neither engine compares a name with a builtin's
    name, action or expression. (``RecordingRunner`` labels its records
    "plugin" and "exec", child-process kinds, which is not a comparison.)"""
    assert not _compared_constants(_module_tree(module)) & {*ACTIONS, *EXPRESSION_BUILTINS}


@pytest.mark.parametrize("module, function", [("interpreter.py", "evaluate"), ("checker.py", "fold")])
def test_evaluators_do_not_dispatch_on_operators(module, function):
    """The interpreter and the constant folder call the ``impl`` the checker
    bound on each operator node; only the short-circuit operators, which
    have none, are told apart by their symbol."""
    (fn,) = [n for n in ast.walk(_module_tree(module)) if isinstance(n, ast.FunctionDef) and n.name == function]
    operators = {op for op, _ in values.UNARY} | {op for op, _ in values.BINARY} | {"&&", "||"}
    assert _compared_constants(fn) & operators <= {"&&", "||"}


# Source text for edge operands of each value type: i64 wrap, zero divisors,
# negative modulo, NaN, infinities, float /0.0 and strings at the cap.
_EDGE_OPERANDS = {
    ValueType.INT: ["9223372036854775807", "(-9223372036854775807 - 1)", "-7", "3", "0", "-1"],
    ValueType.FLOAT: ["(0.0 / 0.0)", "(1.0 / 0.0)", "-1.5", "0.0", "1e308", "0.25"],
    ValueType.STRING: [f'"{"x" * (values.STRING_CAP + 10)}"', '"y"', '""', '"fff"'],
    ValueType.BOOL: ["true", "false"],
}
_DEFAULT = {ValueType.INT: "0", ValueType.FLOAT: "0.0", ValueType.STRING: '""', ValueType.BOOL: "false"}


_ROWS = [(op, vt, True) for op, vt in values.UNARY] + [(op, vt, False) for op, vt in values.BINARY]


@pytest.mark.parametrize("op, vt, unary", _ROWS, ids=[f"{'unary' if u else ''}{op}{vt.value}" for op, vt, u in _ROWS])
def test_operator_table_parity(op, vt, unary):
    """Every row of the operator table gives the same value, or the same
    fault, when the checker folds it, the interpreter runs it and the
    generated code runs it."""
    table = values.UNARY if unary else values.BINARY
    result = ValueType.BOOL if op in ("==", "!=", "<", "<=", ">", ">=") else vt
    expr = f"{op}A" if unary else f"A {op} B"
    edges = _EDGE_OPERANDS[vt]
    pairs = [(a, a) for a in edges] if unary else [(a, b) for a in edges for b in edges]

    folded = []
    for a, b in pairs:
        source = f"consts: A {vt.value} = {a}; B {vt.value} = {b}; F {result.value} = {expr};\n"
        try:
            folded.append(("value", repr(check_source(source, "fold.rul").symbols["F"].value)))
        except StaticError as exc:
            (diag,) = exc.diagnostics
            folded.append(("fault", diag.message.removeprefix("in constant expression: ")))

    lines = ["consts:"]
    lines += [f"    A{i} {vt.value} = {a}; B{i} {vt.value} = {b};" for i, (a, b) in enumerate(pairs)]
    lines.append("vars:")
    lines += [f"    R{i} {result.value} = {_DEFAULT[result]};" for i in range(len(pairs))]
    lines.append("rules External:")
    lines += [
        f"    true ? set(R{i}, {expr.replace('A', f'A{i}').replace('B', f'B{i}')}) => True(R{i});"
        for i in range(len(pairs))
    ]
    checked = check_source("\n".join(lines) + "\n", "ops.rul")
    for node in (r.chain[0].action.args[1] for r in checked.rules[SectionKind.EXTERNAL]):
        assert node.impl is table[op, vt]

    for run in _engines(checked, EngineConfig()):
        run.engine.tick()
        faults = {o.text.split(": ", 1)[0]: o.text.split(": ", 1)[1] for o in run.delivered}
        variables = run.engine.dump_variables()
        ran = [
            ("fault", faults[f"rule ops.rul:External:{i}"]) if f"rule ops.rul:External:{i}" in faults
            else ("value", repr(variables[f"R{i}"]))
            for i in range(len(pairs))
        ]
        assert ran == folded


def test_generated_code_spells_non_finite_floats():
    """NaN and the infinities have no Python literal. A generated program
    that inlines one, as a literal, a constant or a variable's initial
    value, still runs, and agrees with the interpreter."""
    checked = check_source(
        "consts: N float = 0.0 / 0.0;\n"
        "vars: v float = -1e999;\n"
        "rules External: true ? set(v, N + 1e999) => True(v);\n",
        "nonfinite.rul",
    )
    for run in _engines(checked, EngineConfig()):
        assert repr(run.engine.dump_variables()) == "{'v': -inf}"
        run.engine.tick()
        assert repr(run.engine.dump_variables()) == "{'v': nan}"
        assert run.delivered == []


@pytest.mark.parametrize("chain", [
    " => ".join(["set(v, v + 1)"] * 121),
    " !> ".join(["False(v)"] * 119) + " !> set(v, 7)",
    " => ".join(["set(v, v + 1)"] * 60 + ["False(v)"] + ["set(v, v + 1)"] * 59),
    " !> ".join(["False(v)"] * 60 + ["set(v, 3)"] + ["set(v, 7)"] * 59),
    " => ".join(["set(v, v + 1)"] * 40 + ["False(v) !> set(v, v + 100), set(v, v + 1)"] + ["alert(string(v))"] * 40),
], ids=["120-then", "119-else", "then-stops", "else-stops", "mixed"])
def test_long_chains_run_under_both_engines(chain):
    """A rule with 120 "=>" or 119 "!>" connectors compiles to a generated
    program that starts and runs the chain as the interpreter does, up to
    the action that stops it."""
    checked = check_source(f"vars: v int = 0;\nrules External: true ? {chain};\n", "chain.rul")
    ran = []
    for run in _engines(checked, EngineConfig()):
        run.engine.start()
        run.engine.tick()
        ran.append((run.engine.dump_variables(), [o.text for o in run.delivered]))
    assert ran[0] == ran[1]
    assert ran[0][0]["v"] > 0
