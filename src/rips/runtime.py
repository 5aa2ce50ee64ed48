"""Rule execution: the engine, its actions, the level transitions and the
tree-walking interpreter.

One ``Engine`` class runs both engines. It takes its rules as tables of
``(rule_id, fn)`` and runs each as ``fn(engine, env, ctx)``: a generated
program hands over the functions it defines, and ``InterpretedEngine``
builds functions that walk the checked AST. Every builtin call, action or
expression, goes through its ``BuiltinSig.impl``, with the same arguments in
both engines: the first argument the checker prepared in ``Call.resource``,
if there is one, then the evaluated rest. Every operator goes through the
``impl`` the checker bound on its ``Unary`` or ``Binary`` node from the
operator table in ``values``; only ``&&`` and ``||``, which short-circuit,
are walked here.

One logical loop owns the environment; rules never run concurrently. Each
rule evaluation refreshes Time/Uptime/CurrLevel first. A fault inside one
rule (say, division by zero) skips that rule, queues a diagnostic alert and
keeps the engine alive: an attacker-influenced message must not kill the
engine.
"""

from __future__ import annotations

import functools
import logging
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import values
from .bus import SignalCounters
from .errors import EngineCrash, EvalFault
from .machine import Level, LevelMachine
from .predicates import IdsAlertScanner
from .syntax import Binary, Call, Literal, Name, Rule, Unary
from .wire import DecodeError, InboundEvent, Outcome, decode_event

log = logging.getLogger("rips.engine")


@dataclass
class EngineConfig:
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


class SubprocessRunner:
    """Runs transition scripts, exec actions and plugins as child processes."""

    def __init__(self, timeout: float = 30.0):
        self.timeout = timeout

    def _run(self, what: str, argv: list[str], **kwargs) -> bool:
        try:
            proc = subprocess.run(argv, timeout=self.timeout, **kwargs)
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
        return self._run("plugin", [path], input=payload,
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


@dataclass
class RuntimeEnv:
    variables: dict[str, object] = field(default_factory=dict)
    time_ns: int = 0
    start_ns: int = 0


class Engine:
    """The rule engine.

    ``levels`` are ``(name, soft)`` pairs in declaration order; with a
    ``scripts_dir`` every transition runs ``<scripts_dir>/<level>.from`` and
    ``.to``. The three rule tables hold ``(rule_id, fn)`` pairs, run as
    ``fn(engine, env, ctx)``. ``regexes``, ``patterns`` and ``plugins`` are
    the precompiled resources that ``Call.resource`` indexes.

    Every outcome goes to ``sink`` (if any) and into one flat buffer; each
    entry point (``start``, ``handle_event``, ``tick``) returns and empties
    that buffer.
    """

    def __init__(
        self,
        *,
        levels: list[tuple[str, bool]],
        scripts_dir: str | None,
        var_init: dict[str, object],
        graph_rules: list,
        msg_rules: list,
        external_rules: list,
        regexes=(),
        patterns=(),
        plugins=(),
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
        self.machine = LevelMachine([Level(name, soft, i) for i, (name, soft) in enumerate(levels)])
        self.scripts_dir = scripts_dir
        self.env = RuntimeEnv(variables=dict(var_init))
        self.ids = IdsAlertScanner(self.config.ids_dir, self.config.ids_pattern)
        self.regexes = list(regexes)
        self.patterns = list(patterns)
        self.plugins = list(plugins)
        self._graph_rules = list(graph_rules)
        self._msg_rules = list(msg_rules)
        self._external_rules = list(external_rules)
        self._outcomes: list[Outcome] = []
        self._started = False

    # --- lifecycle ---

    def start(self) -> list[Outcome]:
        """Enter the first level (running its ``.to`` script) once; returns
        the outcomes of doing so."""
        if self._started:
            return []
        self._started = True
        now = self.clock.now_ns()
        self.env.start_ns = now
        self.env.time_ns = now
        if self.machine.levels:
            name = self.machine.levels[0].name
            if not self._run_script(name, "to", from_name="", to_name=name):
                self._script_failure_alert(f"{name}.to")
        return self._take_outcomes()

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
        self.start()
        if event.kind == "graph":
            rules, ctx = self._graph_rules, event.graph
        else:
            rules, ctx = self._msg_rules, event
        self._run_rules(rules, ctx)
        return self._take_outcomes()

    def tick(self) -> list[Outcome]:
        """One periodic pass over the External rules, with no event context."""
        self.start()
        self._run_rules(self._external_rules, None)
        return self._take_outcomes()

    def dump_variables(self) -> dict[str, object]:
        return dict(self.env.variables)

    # --- core loop pieces ---

    def _run_rules(self, rules, ctx) -> None:
        env = self.env
        for rule_id, fn in rules:
            env.time_ns = self.clock.now_ns()
            try:
                fn(self, env, ctx)
            except EvalFault as fault:
                self.act_alert(f"rule {rule_id}: {fault}")

    def _take_outcomes(self) -> list[Outcome]:
        outcomes, self._outcomes = self._outcomes, []
        return outcomes

    def _deliver(self, outcome: Outcome) -> bool:
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
        self.env.variables[name] = value
        return True

    def act_alert(self, text: str) -> bool:
        m = self.machine
        return self._deliver(
            Outcome(
                kind="alert",
                level=m.current_name,
                ordinal=m.current,
                gravity=m.gravity(),
                text=text,
                timestamp_ns=self.env.time_ns,
            )
        )

    def act_trigger(self, target) -> bool:
        m = self.machine
        kind = m.classify(target)
        if kind == "invalid" or kind == "denied":
            return False
        if kind == "noop":
            return True
        old = m.current
        old_name = m.name_of(old)
        new_name = m.name_of(target)
        ok_from = self._run_script(old_name, "from", from_name=old_name, to_name=new_name)
        ok_to = self._run_script(new_name, "to", from_name=old_name, to_name=new_name)
        m.commit(target)
        self._deliver(
            Outcome(
                kind="levelchange",
                level=new_name,
                ordinal=target,
                gravity=m.gravity(target),
                text="",
                timestamp_ns=self.env.time_ns,
            )
        )
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
        log.critical("crash: %s", text)
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
        return self.machine.name_of(ordinal)


def InterpretedEngine(checked, **kwargs) -> Engine:
    """The engine of a ``CheckedProgram`` whose rule functions walk its AST;
    keywords as for ``Engine``: clock, runner, counters, sink, config."""
    res = checked.resources
    return Engine(
        levels=[(d.name, d.soft) for d in checked.levels],
        scripts_dir=checked.scripts_dir,
        var_init=checked.var_initial,
        graph_rules=[(r.rule_id, functools.partial(run_rule, r)) for r in checked.graph_rules],
        msg_rules=[(r.rule_id, functools.partial(run_rule, r)) for r in checked.msg_rules],
        external_rules=[(r.rule_id, functools.partial(run_rule, r)) for r in checked.external_rules],
        regexes=res.regexes,
        patterns=res.patterns,
        plugins=res.plugins,
        **kwargs,
    )


def run_rule(rule: Rule, E: Engine, env: RuntimeEnv, ctx) -> None:
    """Interpret one rule: its trigger, then its chain of actions."""
    if evaluate(E, rule.trigger, ctx) is not True:
        return
    prev = None
    for idx, item in enumerate(rule.chain):
        if idx:
            conn = rule.chain[idx - 1].connector
            if conn == "=>" and prev is not True:
                return
            if conn == "!>" and prev is not False:
                return
        call = item.action
        prev = call.sig.impl(E, *_arguments(E, call, ctx))


def _arguments(E: Engine, call: Call, ctx) -> list:
    """The prepared first argument, if any, then the evaluated rest."""
    if call.resource is None:
        return [evaluate(E, a, ctx) for a in call.args]
    return [call.resource, *[evaluate(E, a, ctx) for a in call.args[1:]]]


def evaluate(E: Engine, e, ctx):
    """The value of expression ``e`` in rule context ``ctx``."""
    cls = type(e)
    if cls is Literal:
        return e.value
    if cls is Name:
        sym = e.binding
        kind = sym.kind
        if kind == "var":
            return E.env.variables[sym.name]
        if kind == "predefined":
            if sym.name == "CurrLevel":
                return E.machine.current
            if sym.name == "Time":
                return E.env.time_ns
            return E.env.time_ns - E.env.start_ns
        return sym.value
    if cls is Binary:
        if e.impl is not None:
            return e.impl(evaluate(E, e.left, ctx), evaluate(E, e.right, ctx))
        if e.op == "&&":
            return evaluate(E, e.left, ctx) and evaluate(E, e.right, ctx)
        return evaluate(E, e.left, ctx) or evaluate(E, e.right, ctx)
    if cls is Unary:
        return e.impl(evaluate(E, e.operand, ctx))
    # Call
    return e.sig.impl(E, ctx, *_arguments(E, e, ctx))
