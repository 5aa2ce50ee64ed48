"""Command-line entry points: one engine-options path for `rips run`,
`rips simulate` and generated programs, `python -m rips`, and
`rips bench --synthetic`."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import pytest

import rips
from rips import cli
from rips.runtime import EngineConfig
from rips.support import add_engine_args, config_from_args

from conftest import DATA_DIR

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
