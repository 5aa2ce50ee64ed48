"""The runtime loads without the compiler, and serves without PyYAML,
``dataclasses``, ``inspect`` or ``json``. Each check imports in a fresh
interpreter, whose ``sys.modules`` no other test has filled."""

from __future__ import annotations

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
# Standard modules that serving never runs: PyYAML, the records' old
# ``dataclasses`` (which loads ``inspect``) and ``--dump-vars``'s ``json``.
NOT_SERVING = {"yaml", "dataclasses", "inspect", "json"}


def _modules_after(code: str, cwd=None) -> set[str]:
    """The ``rips`` modules loaded once ``code`` has run, and those of
    ``NOT_SERVING`` that are loaded."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    report = f"import sys; print(*(m for m in sys.modules if m in {sorted(NOT_SERVING | {'rips'})!r} or m.startswith('rips.')))"
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
    assert not loaded & {"rips.transpiler", "rips.scenario", "rips.bench", "rips.randprog", "yaml"}


def test_the_dialect_and_outcomes_need_no_pyyaml():
    """The fixture decodes and a levelchange and an alert encode without
    PyYAML; a flow-style document, which the recognizer declines, then
    loads it and decodes."""
    fixture = os.path.join(DATA_DIR, "graph_event.yaml")
    serve = f"""
from rips.wire import Outcome, decode_event, encode_outcome
event = decode_event(open({fixture!r}, encoding="utf-8").read())
assert sorted(event.graph.node_names) == ["recorder", "rips"]
assert encode_outcome(Outcome("levelchange", "COMPROMISED", 1, 1.0, "", 5)).startswith("---\\nevent: levelchange\\n")
assert "text: 'intruder: /cmd_vel'" in encode_outcome(Outcome("alert", "COMPROMISED", 1, 0.5, "intruder: /cmd_vel", 5))
"""
    assert "yaml" not in _modules_after(serve)
    flow = serve + """
event = decode_event("event: graph\\ncontext: {nodes: [{node: n1}]}\\n")
assert event.graph.node_names == {"n1"}
"""
    assert "yaml" in _modules_after(flow)
