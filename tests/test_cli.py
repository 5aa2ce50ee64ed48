"""Command-line entry points: one engine-options path for `rips run`,
`rips simulate` and generated programs, `python -m rips`, intervals that
are refused before anything runs, and a generated program refusing to
start."""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys

import pytest

import rips
from rips import cli, parser
from rips.checker import check_source
from rips.interpreter import InterpretedEngine
from rips.runtime import EngineConfig, FakeClock, RecordingRunner
from rips.scenario import encode_event
from rips.support import add_engine_args, config_from_args
from rips.transpiler import load_generated, transpile

from conftest import DATA_DIR, make_scripts, write_script

SERVING_ARGV = ["-s", "/tmp/x.sock", "--tick", "0.5", "--exec-timeout", "3",
                "--ids-dir", "alerts", "--ids-pattern", "ids*", "--dump-vars"]


def _parse(argv, serving):
    parser = argparse.ArgumentParser()
    add_engine_args(parser, serving=serving)
    return parser.parse_args(argv)


def test_serving_options_build_the_config():
    args = _parse(SERVING_ARGV, serving=True)
    config = config_from_args(args)
    assert (config.socket_path, config.tick_interval, config.exec_timeout, config.ids_dir, config.ids_pattern) == (
        "/tmp/x.sock", 0.5, 3.0, "alerts", "ids*")
    assert args.dump_vars


def test_defaults_come_from_engine_config():
    assert config_from_args(_parse([], serving=True)) == EngineConfig()
    assert config_from_args(_parse([], serving=False)) == EngineConfig()


def test_simulate_options_have_no_serving_flags():
    with pytest.raises(SystemExit):
        _parse(["-s", "/tmp/x.sock"], serving=False)
    args = _parse(["--tick", "0.2", "--ids-dir", "d"], serving=False)
    assert config_from_args(args) == EngineConfig(tick_interval=0.2, ids_dir="d")


def test_python_dash_m_rips_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    proc = subprocess.run([sys.executable, "-m", "rips", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"rips {rips.__version__}"


@pytest.mark.parametrize("broken", ["script", "plugin"])
def test_generated_program_refuses_to_start(tmp_path, capsys, broken):
    """The run host lacks what the program was compiled against: the program
    names the problem and exits 1 before it opens its socket."""
    scripts_dir = make_scripts(tmp_path / "scripts", ["A", "B"])
    write_script(tmp_path / "inspect.sh")
    checked = check_source('levels: A; B;\nrules Msg: plugin("inspect.sh") ? trigger(B);',
                           "startup.rul", scripts_dir=scripts_dir, base_dir=str(tmp_path))
    module = load_generated(transpile(checked), "startup_generated")
    if broken == "script":
        os.unlink(os.path.join(scripts_dir, "B.from"))
        problem = "error: missing transition script B.from"
    else:
        (tmp_path / "inspect.sh").chmod(0o644)
        problem = f"error: plugin {str(tmp_path / 'inspect.sh')!r} is missing or not executable"
    sock = tmp_path / "rips.sock"
    assert module.main(["-s", str(sock)]) == 1
    assert capsys.readouterr().err.splitlines() == [problem]
    assert not sock.exists()


def test_a_doubled_plugin_is_reported_once(tmp_path, capsys):
    """Two calls of one plugin compile to one path, so a run host that
    cannot run it gets one line."""
    write_script(tmp_path / "p.sh")
    checked = check_source('rules Msg: plugin("p.sh") ? alert("one");\n  plugin("p.sh") ? alert("two");',
                           "twice.rul", base_dir=str(tmp_path))
    module = load_generated(transpile(checked), "twice_generated")
    (tmp_path / "p.sh").chmod(0o644)
    assert module.main(["-s", str(tmp_path / "rips.sock")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: plugin {str(tmp_path / 'p.sh')!r} is missing or not executable"]


def test_a_generated_program_does_not_reread_its_pattern_file(tmp_path):
    """The pattern text is compiled into the program: with the ``.yar``
    file gone, the program still starts."""
    for name in ("payload.rul", "yaraexp3.yar"):
        shutil.copy(os.path.join(DATA_DIR, name), tmp_path / name)
    scripts = make_scripts(tmp_path / "scripts", ["__DEFAULT__", "HALT"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    compiled = subprocess.run([sys.executable, "-m", "rips", "compile", str(tmp_path / "payload.rul"), "-c", scripts],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
    (tmp_path / "payload_rules.py").write_text(compiled.stdout)
    (tmp_path / "yaraexp3.yar").unlink()
    proc = subprocess.run([sys.executable, str(tmp_path / "payload_rules.py"), "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["run", "scripts", "rules.rul", "--tick", "0"],
    ["run", "scripts", "rules.rul", "--tick", "-1"],
    ["run", "scripts", "rules.rul", "--exec-timeout", "0"],
    ["run", "scripts", "rules.rul", "--exec-timeout", "-3"],
    ["simulate", "rules.rul", "scenario.yaml", "--polling", "0"],
    ["simulate", "rules.rul", "scenario.yaml", "--polling", "-0.5"],
    ["simulate", "rules.rul", "scenario.yaml", "--tick", "0"],
], ids=" ".join)
def test_non_positive_interval_is_a_usage_error(monkeypatch, capsys, argv):
    """A zero or negative interval would make a loop that never waits: the
    option is refused before the rules are even read."""
    monkeypatch.setattr(cli, "_check", lambda *_: pytest.fail("the rules were read"))
    assert cli.main(argv) == cli.USAGE_ERROR
    assert f"invalid positive_float value: {argv[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("interval", [["--tick", "0"], ["--exec-timeout", "-1"]], ids=" ".join)
def test_generated_program_refuses_a_non_positive_interval(tmp_path, capsys, interval):
    module = load_generated(transpile(check_source('rules Graph: nodecount(1, 1) ? alert("one");', "one.rul")),
                            "interval_generated")
    sock = tmp_path / "rips.sock"
    with pytest.raises(SystemExit) as exc:
        module.main(["-s", str(sock), *interval])
    assert exc.value.code == cli.USAGE_ERROR
    assert "invalid positive_float value" in capsys.readouterr().err
    assert not sock.exists()


def test_a_rules_file_name_cannot_inject_code_into_the_generated_program():
    name = "x\nINJECTED = 1\n#.rul"
    source = transpile(check_source('rules Graph: nodecount(1, 1) ? alert("one");', name))
    module = load_generated(source, "named_generated")
    assert not hasattr(module, "INJECTED")
    assert "\n# source: x\\nINJECTED = 1\\n#.rul\n" in source


def test_a_non_ascii_digit_is_one_diagnostic(tmp_path, capsys):
    """`rips check` reports a superscript digit as an invalid character; it
    used to end in a ValueError traceback."""
    rules = tmp_path / "digit.rul"
    rules.write_text("consts: X int = ²;\n", encoding="utf-8")
    assert cli.main(["check", str(rules)]) == cli.STATIC_ERROR
    assert capsys.readouterr().err == "digit.rul:1:17: invalid character '²'\n"


@pytest.mark.parametrize("name, summary", [
    ("monitor_demo.rul", "4 levels, 7 Graph / 1 Msg / 0 External rules"),
    ("soft_levels.rul", "4 levels, 3 Graph / 2 Msg / 0 External rules"),
])
def test_check_prints_one_summary_line(capsys, name, summary):
    assert cli.main(["check", os.path.join(DATA_DIR, name)]) == 0
    assert capsys.readouterr() == (f"{name}: OK ({summary})\n", "")


@pytest.mark.parametrize("literal", ["1" * 5000, "0b" + "1" * 20000], ids=["decimal", "binary"])
def test_an_over_long_int_literal_is_one_diagnostic(tmp_path, capsys, literal):
    """An int literal too long for ``int()`` (decimal) or for ``str()`` of
    its value (binary) gets the range diagnostic, which quotes a prefix of
    its text; both used to end in a ValueError traceback."""
    rules = tmp_path / "long.rul"
    rules.write_text(f"consts: X int = {literal};\n")
    assert cli.main(["check", str(rules)]) == cli.STATIC_ERROR
    assert capsys.readouterr().err == f"long.rul:1:17: int literal {literal[:40]}... is outside the 64-bit range\n"


def test_a_simulated_crash_writes_its_text_once(tmp_path, capsys, caplog):
    """The crash action prints its text; nothing logs it again."""
    rules = tmp_path / "crash.rul"
    rules.write_text('levels: A;\nrules Graph: true ? crash("fatal");\n')
    scenario = tmp_path / "crash.yaml"
    scenario.write_text("timeline:\n  - at: 0.1\n    graph: {nodes: [{node: n1}]}\non_change_only: true\n")
    assert cli.main(["simulate", str(rules), str(scenario)]) == 1
    out, err = capsys.readouterr()
    assert err == "fatal\n"
    assert "aborted: engine crashed: fatal" in out.splitlines()
    assert caplog.records == []


@pytest.mark.parametrize("command", [["check"], ["compile", "-c", "scripts"]], ids=["check", "compile"])
def test_a_rules_file_that_is_not_utf8_is_an_error(tmp_path, command):
    rules = tmp_path / "bad.rul"
    rules.write_bytes(b'rules Graph: true ? alert("\xff");\n')
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    proc = subprocess.run([sys.executable, "-m", "rips", command[0], str(rules), *command[1:]], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.STATIC_ERROR
    assert proc.stderr.startswith(f"error: {rules} is not UTF-8: ")
    assert "Traceback" not in proc.stderr


DEEP_INPUTS = {
    "pattern-parens": ('rules Msg: payload("deep.yar") ? alert("x");',
                       "1:20: bad pattern file 'deep.yar': line 1: condition nesting too deep"),
    "regex-groups": ('rules Msg: topicmatches("' + "(" * 400 + "a" + ")" * 400 + '") ? alert("x");',
                     "1:25: invalid regular expression: groups nested too deep (at offset 101 in "),
    "and-chain": ("rules Graph: " + " && ".join(["true"] * 3000) + ' ? alert("x");',
                  "1:819: expression nesting too deep"),
    "short-and-chain": ("rules Graph: " + " && ".join(["true"] * 250) + ' ? alert("x");',
                        "1:819: expression nesting too deep"),
    "unary-minus": ("vars: v int = 0;\nrules Graph: " + "-" * 199 + 'v == 0 ? set(v, 1);',
                    "2:114: expression nesting too deep"),
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_a_deep_input_is_one_diagnostic(tmp_path, name):
    """Nesting past a bound is one diagnostic and exit status 1 from
    ``rips check``; each of these used to end in a RecursionError
    traceback, or passed and left a program that could not start."""
    rules, diagnostic = DEEP_INPUTS[name]
    (tmp_path / "deep.yar").write_text('rule r { strings: $a = "A" condition: ' + "(" * 300 + "$a" + ")" * 300 + " }")
    (tmp_path / "deep.rul").write_text(rules + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    proc = subprocess.run([sys.executable, "-m", "rips", "check", str(tmp_path / "deep.rul")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.STATIC_ERROR
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("deep.rul:" + diagnostic)


def test_deep_expressions_at_the_bound_run_alike_under_both_engines(tmp_path):
    """Expressions at the depth bound, in each deep form, give the same
    outcomes and variables under the interpreter and a generated program
    started in a fresh interpreter."""
    d = parser.MAX_NESTING
    source = (
        'vars: v int = 0; s string = "";\n'
        "rules Graph:\n"
        f"  v == 0 ? set(v, {'-' * (d - 1)}7);\n"
        f"  s == \"\" ? set(s, {'string(' * (d - 1)}7{')' * (d - 1)});\n"
        f"  {' && '.join(['nodecount(1, 1)'] * d)} ? alert(\"chain\");\n"
        f"  {'(' * d}true{')' * d} ? alert(\"parens\");\n"
        f"  {'!' * d}{str(d % 2 == 0).lower()} ? alert(\"not\");\n"
    )
    checked = check_source(source, "deep.rul")
    graph = encode_event({"event": "graph", "context": {"nodes": [{"node": "n1"}], "topics": []}})
    engine = InterpretedEngine(checked, clock=FakeClock(0), runner=RecordingRunner())
    expected = ([[(o.kind, o.text) for o in engine.handle_document(graph)] for _ in range(2)],
                dict(engine.variables))
    assert expected[0][0] == [("alert", "chain"), ("alert", "parens"), ("alert", "not")]
    assert expected[1] == {"v": -7 if d % 2 == 0 else 7, "s": "7"}
    (tmp_path / "deep_rules.py").write_text(transpile(checked))
    driver = (
        "from rips.runtime import FakeClock, RecordingRunner\n"
        "import deep_rules\n"
        "engine = deep_rules.build_engine(clock=FakeClock(0), runner=RecordingRunner())\n"
        f"outcomes = [[(o.kind, o.text) for o in engine.handle_document({graph!r})] for _ in range(2)]\n"
        "print(repr((outcomes, dict(engine.variables))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    proc = subprocess.run([sys.executable, "-c", driver], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == expected
