"""The runtime loads without the compiler. Each check imports in a fresh
interpreter, whose ``sys.modules`` no other test has filled."""

from __future__ import annotations

import os
import subprocess
import sys

import rips
from rips import cli

from conftest import DATA_DIR, make_scripts

RUNTIME = {f"rips.{name}" for name in (
    "errors", "values", "syntax", "wire", "bus",
    "predicates", "regexlite", "patterns", "runtime", "support")} | {"rips"}
COMPILER = {f"rips.{name}" for name in ("checker", "parser", "tokens", "signatures", "transpiler", "scenario", "cli")}


def _rips_modules_after(code: str, cwd=None) -> set[str]:
    """The ``rips`` modules loaded once ``code`` has run."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    report = "import sys; print(*(m for m in sys.modules if m == 'rips' or m.startswith('rips.')))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_runtime_imports_load_only_the_runtime():
    assert _rips_modules_after("import rips.support, rips.predicates") == RUNTIME


def test_generated_program_loads_no_compiler_module(tmp_path, capsys):
    scripts = make_scripts(tmp_path / "scripts", ["__DEFAULT__", "COMPROMISED"])
    assert cli.main(["compile", os.path.join(DATA_DIR, "navigation.rul"), "-c", scripts]) == 0
    (tmp_path / "navigation_rules.py").write_text(capsys.readouterr().out)
    loaded = _rips_modules_after("import navigation_rules", cwd=tmp_path)
    assert not loaded & COMPILER
    assert loaded == RUNTIME


def test_cli_loads_no_subcommand_module():
    loaded = _rips_modules_after("import rips.cli")
    assert not loaded & {"rips.transpiler", "rips.scenario", "rips.bench", "rips.randprog"}
