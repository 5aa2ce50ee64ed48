"""Command-line entry points: one engine-options path for `rips run`,
`rips simulate` and generated programs, `python -m rips`,
`rips bench --synthetic`, and a generated program refusing to start."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import pytest

import rips
from rips import cli, wire
from rips.bench import run_benchmark
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


def test_bench_synthetic_corpus(capsys):
    assert cli.main(["bench", os.path.join(DATA_DIR, "navigation.rul"), "--synthetic", "12", "--seed", "3"]) == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()]
    assert ["interpreted", "12"] in rows and ["generated", "12"] in rows


def test_bench_skips_and_counts_a_malformed_document(tmp_path, capsys):
    corpus = tmp_path / "corpus.yaml"
    corpus.write_text("---\nevent: graph\ncontext: {nodes: 5}\n...\n"
                      "---\nevent: graph\ncontext:\n  nodes:\n  - node: a\n...\n")
    assert cli.main(["bench", os.path.join(DATA_DIR, "navigation.rul"), str(corpus)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[:3] == ["mode", "events", "skipped"]
    rows = [line.split()[:3] for line in out.splitlines()]
    assert ["interpreted", "1", "1"] in rows and ["generated", "1", "1"] in rows


def test_bench_modes_start_with_an_empty_context_cache(monkeypatch):
    """Each mode builds the graph of a repeated context once: the generated
    run does not decode against the interpreter's warm cache."""
    calls = []
    build = wire.parse_graph_context
    monkeypatch.setattr(wire, "parse_graph_context", lambda m: calls.append(1) or build(m))
    doc = "event: graph\ncontext:\n  nodes:\n  - node: a\n"
    checked = check_source('rules Graph: nodecount(1, 1) ? alert("one");', "one.rul")
    report = run_benchmark(checked, [doc] * 3)
    assert (report.interpreted.outcomes, report.generated.outcomes) == (3, 3)
    assert len(calls) == 2


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
