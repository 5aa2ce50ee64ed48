"""Command-line entry points: one engine-options path for `rips run`,
`rips simulate` and generated programs, `python -m rips`, intervals that
are refused before anything runs, and a generated program refusing to
start."""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

import pytest

import rips
from rips import cli
from rips.checker import check_source
from rips.runtime import EngineConfig
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
