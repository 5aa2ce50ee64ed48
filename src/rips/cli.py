"""Command-line interface.

Subcommands: run (interpret a rules file against a socket), check (static
analysis only), compile (emit the generated Python program on stdout) and
simulate (replay a scenario in-process and print the report). Each
subcommand imports what only it needs, so `rips run` loads no transpiler
or simulator.
Invoking with a rules-file path as the first argument runs it with default
paths, which is what a hash-bang line in an executable rules file does.

Exit status: 0 success, 1 static/compile errors (and failed simulations),
2 usage errors, 3 engine crash.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .checker import check_file
from .errors import StaticError
from .interpreter import InterpretedEngine
from .runtime import SubprocessRunner
from .support import add_engine_args, config_from_args, positive_float, serve_from_args

# Where `rips run` looks for transition scripts unless told otherwise.
SCRIPTS_DIR = "/etc/rips/scripts"

USAGE_ERROR = 2
STATIC_ERROR = 1

_SUBCOMMANDS = ("run", "check", "compile", "simulate")


def _check(path: str, scripts_dir: str | None):
    try:
        return check_file(path, scripts_dir=scripts_dir)
    except StaticError as exc:
        for diag in exc.diagnostics:
            print(diag.render(os.path.basename(path)), file=sys.stderr)
        return None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: {path} is not UTF-8: {exc}", file=sys.stderr)
        return None


class _SimulationRunner(SubprocessRunner):
    """Runs transition scripts and plugins, whose exit status is a
    predicate's value; an exec action succeeds without starting a process."""

    def run_exec(self, path: str, args: tuple[str, ...]) -> bool:
        return True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rips", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"rips {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="interpret a rules file, serving the engine socket")
    p_run.add_argument("scriptsdir", nargs="?", default=SCRIPTS_DIR,
                       help="transition-scripts directory (default %(default)s)")
    p_run.add_argument("rules", help="rules file (.rul)")
    add_engine_args(p_run)

    p_check = sub.add_parser("check", help="static analysis only")
    p_check.add_argument("rules")
    p_check.add_argument("scriptsdir", nargs="?", default=None,
                         help="also validate transition scripts in this directory")

    p_compile = sub.add_parser("compile", help="emit the generated program on stdout")
    p_compile.add_argument("rules")
    p_compile.add_argument("-c", "--scripts", required=True, dest="scriptsdir",
                           help="transition-scripts directory embedded in the program")

    p_sim = sub.add_parser("simulate", help="replay a scenario in-process and report",
                           description="Replay a scenario in-process and report. Exec actions are"
                           " not run; transition scripts (with --scripts) and plugins are.")
    p_sim.add_argument("rules")
    p_sim.add_argument("scenario", help="scenario YAML file")
    p_sim.add_argument("--scripts", dest="scriptsdir", default=None,
                       help="transition-scripts directory (omit to skip scripts)")
    p_sim.add_argument("--polling", type=positive_float, default=None,
                       help="graph polling interval in seconds (overrides RIPSPOLLING)")
    add_engine_args(p_sim, serving=False)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Hash-bang form: `rips <file.rul>` runs the file with default paths.
    if argv and argv[0] not in _SUBCOMMANDS and not argv[0].startswith("-") and os.path.isfile(argv[0]):
        argv = ["run", *argv[1:], argv[0]]

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR

    if args.command == "check":
        checked = _check(args.rules, args.scriptsdir)
        if checked is None:
            return STATIC_ERROR
        print(f"{os.path.basename(args.rules)}: OK "
              f"({len(checked.levels)} levels, "
              f"{len(checked.graph_rules)} Graph / {len(checked.msg_rules)} Msg / "
              f"{len(checked.external_rules)} External rules)")
        return 0

    if args.command == "compile":
        checked = _check(args.rules, args.scriptsdir)
        if checked is None:
            return STATIC_ERROR
        from .transpiler import transpile

        sys.stdout.write(transpile(checked))
        return 0

    if args.command == "run":
        checked = _check(args.rules, args.scriptsdir)
        if checked is None:
            return STATIC_ERROR
        return serve_from_args(lambda **kw: InterpretedEngine(checked, **kw), args)

    if args.command == "simulate":
        checked = _check(args.rules, args.scriptsdir)
        if checked is None:
            return STATIC_ERROR
        from .scenario import ScenarioError, load_scenario, run_scenario

        try:
            scenario = load_scenario(args.scenario)
        except Exception as exc:  # noqa: BLE001 - report and exit
            print(f"error: cannot load scenario: {exc}", file=sys.stderr)
            return STATIC_ERROR
        config = config_from_args(args)

        def build_engine(clock, counters):
            return InterpretedEngine(checked, clock=clock, counters=counters, config=config,
                                     runner=_SimulationRunner(config.exec_timeout))

        try:
            report = run_scenario(scenario, build_engine, polling_s=args.polling)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return STATIC_ERROR
        print(report.format())
        return 0 if report.passed else 1

    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
