"""Rule execution: the engine, its actions and the level transitions.

One ``Engine`` class runs both engines. It takes its rules as one table of
``(rule_id, fn)`` lists and runs each as ``fn(engine, ctx)``: a generated
program hands over the functions it defines, and
``interpreter.InterpretedEngine`` hands over functions that walk the
checked AST. This module does not import the AST, so a generated program
loads neither it nor the walker.

One logical loop owns the engine's state; rules never run concurrently.
Each rule evaluation first reads the clock into ``time_ns``, from which
``Uptime`` derives; ``CurrLevel`` is read live. A fault inside one rule
(say, division by zero) skips that rule, queues a diagnostic alert and
keeps the engine alive: an attacker-influenced message must not kill the
engine.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import time
from typing import NamedTuple

from . import values
from .bus import SignalCounters
from .errors import EngineCrash, EvalFault
from .predicates import IdsAlertScanner
from .wire import DecodeError, InboundEvent, Outcome, decode_event

log = logging.getLogger("rips.engine")


class EngineConfig(NamedTuple):
    socket_path: str = "/tmp/rips.sock"
    tick_interval: float = 0.1
    exec_timeout: float = 30.0
    ids_dir: str = "./ids-alerts"
    ids_pattern: str = "alert*"


class SystemClock:
    @staticmethod
    def now_ns() -> int:
        return time.time_ns()


class FakeClock:
    """Injectable clock for deterministic runs."""

    def __init__(self, start_ns: int = 0):
        self._ns = start_ns

    def now_ns(self) -> int:
        return self._ns

    def advance(self, ns: int) -> None:
        self._ns += ns

    def set_ns(self, ns: int) -> None:
        self._ns = ns


def script_path(scripts_dir: str, level: str, suffix: str) -> str:
    """The transition script ``<scripts_dir>/<level>.<suffix>``; ``suffix``
    is ``to`` (entering the level) or ``from`` (leaving it)."""
    return os.path.join(scripts_dir, f"{level}.{suffix}")


def script_problems(scripts_dir: str, level: str) -> list[str]:
    """What keeps the two transition scripts of ``level`` from running."""
    problems = []
    for suffix in ("to", "from"):
        path = script_path(scripts_dir, level, suffix)
        if not os.path.isfile(path):
            problems.append(f"missing transition script {level}.{suffix}")
        elif not os.access(path, os.X_OK):
            problems.append(f"transition script {level}.{suffix} is not executable")
    return problems


def plugin_problem(path: str, written: str) -> str | None:
    """Why the plugin at ``path``, written ``written`` in the rules, cannot
    run; None if it can."""
    if os.path.isfile(path) and os.access(path, os.X_OK):
        return None
    return f"plugin {written!r} is missing or not executable"


def run_host_problems(scripts_dir: str | None, level_names, plugins=()) -> list[str]:
    """What keeps a program from running on this host: the problems of the
    transition scripts of ``level_names`` in ``scripts_dir`` (none without
    one), then those of the resolved ``plugins`` paths."""
    problems: list[str] = []
    if scripts_dir is not None:
        for name in level_names:
            problems += script_problems(scripts_dir, name)
    return problems + list(filter(None, (plugin_problem(path, path) for path in plugins)))


class SubprocessRunner:
    """Runs transition scripts, exec actions and plugins as child processes."""

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout

    def _run(self, what: str, argv: list[str], input: bytes | None = None, **kwargs) -> bool:
        """The child runs in its own session; a timeout kills all of it."""
        try:
            with subprocess.Popen(argv, start_new_session=True, **kwargs) as proc:
                try:
                    proc.communicate(input, timeout=self.timeout)
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                    raise
        except (OSError, subprocess.TimeoutExpired) as exc:
            log.warning("%s %s failed to run: %s", what, argv[0], exc)
            return False
        return proc.returncode == 0

    def run_script(self, path: str, from_name: str, to_name: str) -> bool:
        env = dict(os.environ, RIPS_LEVEL_FROM=from_name, RIPS_LEVEL_TO=to_name)
        return self._run("transition script", [path], env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def run_exec(self, path: str, args: tuple[str, ...]) -> bool:
        return self._run("exec", [path, *args])

    def run_plugin(self, path: str, payload: bytes) -> bool:
        return self._run("plugin", [path], input=payload, stdin=subprocess.PIPE,
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class RecordingRunner:
    """Test double: records every child-process request, returns scripted
    results (True unless a result function says otherwise)."""

    def __init__(self, result_fn=None):
        self.calls: list[tuple] = []
        self.result_fn = result_fn

    def _record(self, call: tuple) -> bool:
        self.calls.append(call)
        return self.result_fn is None or bool(self.result_fn(call))

    def run_script(self, path: str, from_name: str, to_name: str) -> bool:
        return self._record(("script", path, from_name, to_name))

    def run_exec(self, path: str, args: tuple[str, ...]) -> bool:
        return self._record(("exec", path, tuple(args)))

    def run_plugin(self, path: str, payload: bytes) -> bool:
        return self._record(("plugin", path, payload))


class Engine:
    """The rule engine.

    ``levels`` are ``(name, soft)`` pairs in declaration order; with a
    ``scripts_dir`` every transition runs ``<scripts_dir>/<level>.from`` and
    ``.to``. ``rules`` maps each section's name to its ``(rule_id, fn)``
    pairs, run as ``fn(engine, ctx)``: the functions a generated program
    defines, or those of ``interpreter.InterpretedEngine``, which walk the
    AST.

    The run's state: ``current``, the ordinal of the current level, which
    only rises except that a soft level may step down one; ``variables``;
    and ``time_ns`` and ``start_ns``, the clock at the running rule and at
    ``start``.

    Outcomes leave through ``sink`` (if any), which ``bus.drive``'s callers
    set: the socket in ``serve``, the report in the simulator. Each one also
    goes into one flat buffer that each entry point (``start``,
    ``handle_event``, ``tick``) returns and empties. Those returned lists
    stay only for perfbench's ``reference_outcomes`` and for tests that
    step an engine by hand, until a benchmark change moves perfbench onto
    ``drive``.
    """

    def __init__(
        self,
        *,
        levels: list[tuple[str, bool]],
        scripts_dir: str | None,
        var_init: dict[str, object],
        rules: dict[str, list],
        clock=None,
        runner=None,
        counters: SignalCounters | None = None,
        sink=None,
        config: EngineConfig | None = None,
    ):
        self.config = config or EngineConfig()
        self.clock = clock or SystemClock()
        self.runner = runner if runner is not None else SubprocessRunner(self.config.exec_timeout)
        self.counters = counters or SignalCounters()
        self.sink = sink
        self.levels = list(levels)
        self.current = 0
        self.scripts_dir = scripts_dir
        self.variables = dict(var_init)
        self.time_ns = 0
        self.start_ns = 0
        self.ids = IdsAlertScanner(self.config.ids_dir, self.config.ids_pattern)
        self._rules = rules
        self._outcomes: list[Outcome] = []
        self._started = False

    # --- lifecycle ---

    def start(self) -> list[Outcome]:
        """Enter the first level (running its ``.to`` script) once; returns
        the outcomes of doing so. ``handle_event`` and ``tick`` start an
        engine not yet started and return those outcomes before their own."""
        self._start()
        return self._take_outcomes()

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self.start_ns = self.time_ns = self.clock.now_ns()
        if self.levels:
            name = self.levels[0][0]
            if not self._run_script(name, "to", from_name="", to_name=name):
                self._script_failure_alert(f"{name}.to")

    def handle_document(self, text: str) -> list[Outcome]:
        """Decode one framed document and handle its event. This is the one
        place a document that fails to decode is skipped, with no outcomes: a
        ``DecodeError`` is logged as a warning, anything else with its
        traceback."""
        try:
            event = decode_event(text)
        except DecodeError as exc:
            log.warning("skipping malformed event: %s", exc)
            return []
        except Exception:  # noqa: BLE001 - one document must not stop the engine
            log.exception("skipping event that failed to decode")
            return []
        return self.handle_event(event)

    def handle_event(self, event: InboundEvent) -> list[Outcome]:
        self._start()
        if event.kind == "graph":
            self._run_rules(self._rules["Graph"], event.graph)
        else:
            self._run_rules(self._rules["Msg"], event)
        return self._take_outcomes()

    def tick(self) -> list[Outcome]:
        """One periodic pass over the External rules, with no event context."""
        self._start()
        self._run_rules(self._rules["External"], None)
        return self._take_outcomes()

    def dump_variables(self) -> dict[str, object]:
        return dict(self.variables)

    @property
    def uptime_ns(self) -> int:
        return self.time_ns - self.start_ns

    # --- core loop pieces ---

    def _run_rules(self, rules, ctx) -> None:
        for rule_id, fn in rules:
            self.time_ns = self.clock.now_ns()
            try:
                fn(self, ctx)
            except EvalFault as fault:
                self.act_alert(f"rule {rule_id}: {fault}")

    def _take_outcomes(self) -> list[Outcome]:
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def _deliver(self, kind: str, ordinal: int, text: str) -> bool:
        """Emit an outcome of ``kind`` at level ``ordinal``, stamped with
        the running rule's time; returns what the sink made of it."""
        outcome = Outcome(kind, self.levelname(ordinal), ordinal, self.gravity(ordinal), text, self.time_ns)
        self._outcomes.append(outcome)
        if self.sink is None:
            return True
        try:
            return bool(self.sink(outcome))
        except Exception:
            return False

    def _script_failure_alert(self, label: str) -> None:
        self.act_alert(f"transition script failed: {label}")

    def _run_script(self, level_name: str, suffix: str, *, from_name: str, to_name: str) -> bool:
        if self.scripts_dir is None:
            return True
        return self.runner.run_script(script_path(self.scripts_dir, level_name, suffix), from_name, to_name)

    # --- actions: the impl of each action's BuiltinSig, act_<name lowercased> ---

    def act_set(self, name: str, value) -> bool:
        self.variables[name] = value
        return True

    def act_alert(self, text: str) -> bool:
        return self._deliver("alert", self.current, text)

    def act_trigger(self, target) -> bool:
        """Move to level ``target``: False if it is out of range, or lower
        than the current level and not one step below a soft one; True,
        running no script, if it is the current level."""
        old = self.current
        if not 0 <= target < len(self.levels):
            return False
        if target == old:
            return True
        if target < old and not (self.levels[old][1] and target == old - 1):
            return False
        old_name = self.levelname(old)
        new_name = self.levelname(target)
        ok_from = self._run_script(old_name, "from", from_name=old_name, to_name=new_name)
        ok_to = self._run_script(new_name, "to", from_name=old_name, to_name=new_name)
        self.current = target
        self._deliver("levelchange", target, "")
        if not ok_from:
            self._script_failure_alert(f"{old_name}.from")
        if not ok_to:
            self._script_failure_alert(f"{new_name}.to")
        return True

    def act_exec(self, path: str, *args: str) -> bool:
        return self.runner.run_exec(path, args)

    def act_crash(self, text: str) -> bool:
        self.act_alert(text)
        print(text, file=sys.stderr)
        raise EngineCrash(text)

    def act_true(self, *vals) -> bool:
        for v in vals:
            log.info("True: %s", values.to_string(v))
        return True

    def act_false(self, *vals) -> bool:
        for v in vals:
            log.info("False: %s", values.to_string(v))
        return False

    def levelname(self, ordinal) -> str:
        """The name of level ``ordinal``; "" if there is no such level."""
        if 0 <= ordinal < len(self.levels):
            return self.levels[ordinal][0]
        return ""

    def gravity(self, ordinal) -> float:
        """Level ``ordinal`` on a 0..1 scale, the last level being 1."""
        n = len(self.levels)
        return ordinal / (n - 1) if n > 1 else 0.0


def __getattr__(name):
    """``InterpretedEngine``, which moved to ``rips.interpreter``. perfbench
    still imports it from here; this stays only until the benchmark change
    of ROADMAP item 1 moves that import."""
    if name == "InterpretedEngine":
        from .interpreter import InterpretedEngine

        return InterpretedEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
