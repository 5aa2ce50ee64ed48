"""Runtime support layer for generated rule programs, and the engine options
that `rips run`, `rips simulate` and generated programs share.

Generated source imports this module, ``predicates`` and ``values``: this
module supplies the resource loaders, the ``Engine`` class that the
interpreter uses too, and the program's entry point; every expression
builtin is called straight from ``predicates``, every operator function
straight from ``values``, and every action as an ``Engine`` method, the
same functions the interpreter reaches through ``BuiltinSig.impl`` and the
operator's ``impl``.

A generated program loads what these three modules import and no more:
what serving runs, and not the AST or its walker, ``dataclasses``, PyYAML
or (unless ``--dump-vars`` asks for it at exit) ``json``.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bus import SocketServer, serve
from .patterns import parse_pattern_text
from .regexlite import compile_pattern as compile_regex
from .runtime import Engine, EngineConfig, run_host_problems

# The names generated source reads as ``_rt.<name>``.
__all__ = ["Engine", "compile_regex", "parse_pattern_text", "compiled_main"]


def positive_float(text) -> float:
    """An interval in seconds, a finite number above zero; the ``type`` of
    the interval options. A zero or negative tick or polling interval would
    make a loop that never waits, and a zero child timeout would kill every
    child at once."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError(f"not a positive number of seconds: {text!r}")
    return value


def add_engine_args(parser: argparse.ArgumentParser, *, serving: bool = True) -> None:
    """Add the engine options; ``serving`` adds those that only a socket
    server has (socket path, child-process timeout, ``--dump-vars``)."""
    defaults = EngineConfig()
    if serving:
        parser.add_argument("-s", "--socket", default=defaults.socket_path,
                            help="unix socket path (default %(default)s)")
    parser.add_argument("--tick", type=positive_float, default=defaults.tick_interval,
                        help="External-rule tick interval in seconds (default %(default)s)")
    if serving:
        parser.add_argument("--exec-timeout", type=positive_float, default=defaults.exec_timeout)
    parser.add_argument("--ids-dir", default=defaults.ids_dir)
    parser.add_argument("--ids-pattern", default=defaults.ids_pattern)
    if serving:
        parser.add_argument("--dump-vars", action="store_true",
                            help="print the final variable store to stderr at exit")


def config_from_args(args: argparse.Namespace) -> EngineConfig:
    """The ``EngineConfig`` that the options of ``add_engine_args`` describe."""
    defaults = EngineConfig()
    return EngineConfig(
        socket_path=getattr(args, "socket", defaults.socket_path),
        tick_interval=args.tick,
        exec_timeout=getattr(args, "exec_timeout", defaults.exec_timeout),
        ids_dir=args.ids_dir,
        ids_pattern=args.ids_pattern,
    )


def serve_from_args(build_engine, args: argparse.Namespace) -> int:
    """Serve ``build_engine(config=...)`` on the socket the options name until
    it stops; returns the exit status."""
    config = config_from_args(args)
    engine = build_engine(config=config)
    status = serve(engine, SocketServer(config.socket_path))
    if args.dump_vars:
        import json

        print(json.dumps(engine.dump_variables(), sort_keys=True, default=repr), file=sys.stderr)
    return status


def compiled_main(build_engine, argv=None, *, levels=(), scripts_dir=None, plugins=()) -> int:
    """Entry point shared by all generated programs."""
    parser = argparse.ArgumentParser(description="generated rule program")
    add_engine_args(parser)
    args = parser.parse_args(argv)

    problems = run_host_problems(scripts_dir, [name for name, _ in levels], plugins)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    return serve_from_args(build_engine, args)
