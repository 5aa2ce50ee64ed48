"""The runtime loads without the compiler, and serves without PyYAML,
``dataclasses``, ``inspect`` or ``json``. ``rips.cli`` and the interpreter's
start load none of them either, nor the ``ast`` and ``dis`` that ``inspect``
loads: no module of the package imports ``dataclasses``. Each check imports
in a fresh interpreter, whose ``sys.modules`` no other test has filled."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import rips
from rips import cli

from conftest import DATA_DIR, make_scripts

RUNTIME = {f"rips.{name}" for name in (
    "errors", "values", "wire", "bus",
    "predicates", "regexlite", "patterns", "runtime", "support")} | {"rips"}
COMPILER = {f"rips.{name}" for name in ("checker", "parser", "tokens", "signatures", "transpiler", "scenario", "cli")}
# Standard modules that serving never runs: PyYAML, ``dataclasses`` (which
# loads ``inspect``) and ``--dump-vars``'s ``json``.
NOT_SERVING = {"yaml", "dataclasses", "inspect", "json"}
# What ``inspect`` loads besides, which no engine's start needs.
INTROSPECTION = {"ast", "dis"}


def _modules_after(code: str, cwd=None) -> set[str]:
    """The ``rips`` modules loaded once ``code`` has run, and those of
    ``NOT_SERVING`` and ``INTROSPECTION`` that are loaded."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    report = f"import sys; print(*(m for m in sys.modules if m in {sorted(NOT_SERVING | INTROSPECTION | {'rips'})!r} or m.startswith('rips.')))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_runtime_imports_load_only_the_runtime():
    assert _modules_after("import rips.support, rips.predicates") == RUNTIME


def test_generated_program_loads_no_compiler_module(tmp_path, capsys):
    scripts = make_scripts(tmp_path / "scripts", ["__DEFAULT__", "COMPROMISED"])
    assert cli.main(["compile", os.path.join(DATA_DIR, "navigation.rul"), "-c", scripts]) == 0
    (tmp_path / "navigation_rules.py").write_text(capsys.readouterr().out)
    loaded = _modules_after("import navigation_rules", cwd=tmp_path)
    assert not loaded & COMPILER
    assert loaded == RUNTIME


def test_cli_loads_no_subcommand_module():
    """``rips.cli`` imports the walker at its top, so that it is compiled
    before ``check_file`` builds a checked program."""
    loaded = _modules_after("import rips.cli")
    assert "rips.interpreter" in loaded
    assert not loaded & ({"rips.transpiler", "rips.scenario"} | NOT_SERVING | INTROSPECTION)


def test_the_interpreter_starts_without_dataclasses():
    """What ``rips run`` does before it serves: check the rules file, then
    build the engine."""
    rules = os.path.join(DATA_DIR, "navigation.rul")
    loaded = _modules_after("from rips.cli import InterpretedEngine, check_file\n"
                            f"InterpretedEngine(check_file({rules!r}))")
    assert "rips.syntax" in loaded
    assert not loaded & (NOT_SERVING | INTROSPECTION)


def test_no_module_imports_dataclasses():
    package = os.path.dirname(rips.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
            imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
            assert "dataclasses" not in imported, name


def test_the_dialect_and_outcomes_need_no_pyyaml():
    """The fixture decodes, a flow-style document is one DecodeError, and a
    levelchange, an alert and a non-ASCII, multi-line alert encode, all
    without PyYAML."""
    fixture = os.path.join(DATA_DIR, "graph_event.yaml")
    serve = f"""
from rips.wire import DecodeError, Outcome, decode_event, encode_outcome
event = decode_event(open({fixture!r}, encoding="utf-8").read())
assert sorted(event.graph.node_names) == ["recorder", "rips"]
assert encode_outcome(Outcome("levelchange", "COMPROMISED", 1, 1.0, "", 5)).startswith("---\\nevent: levelchange\\n")
assert "text: 'intruder: /cmd_vel'" in encode_outcome(Outcome("alert", "COMPROMISED", 1, 0.5, "intruder: /cmd_vel", 5))
assert 'text: "\\\\xE9\\\\n...\\\\nb"' in encode_outcome(Outcome("alert", "A", 0, 0.5, "\\xe9\\n...\\nb", 5))
try:
    decode_event("event: graph\\ncontext: {{nodes: [{{node: n1}}]}}\\n")
except DecodeError as exc:
    assert "outside the monitor's dialect" in str(exc)
else:
    raise AssertionError("a flow-style document decoded")
"""
    assert "yaml" not in _modules_after(serve)
