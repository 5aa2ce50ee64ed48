"""Rule execution: the environment, actions, the level transitions and the
tree-walking interpreter.

One logical loop owns the environment; rules never run concurrently. Each
rule evaluation refreshes Time/Uptime/CurrLevel first. A fault inside one
rule (say, division by zero) skips that rule, queues a diagnostic alert and
keeps the engine alive: an attacker-influenced message must not kill the
engine.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import values
from .bus import SignalCounters
from .checker import CheckedProgram
from .errors import EngineCrash, EvalFault
from .machine import Level, LevelMachine
from .predicates import IdsAlertScanner
from .syntax import Binary, Call, Literal, Name, Rule, Unary
from .wire import DecodeError, InboundEvent, Outcome, decode_event

log = logging.getLogger("rips.engine")


@dataclass
class EngineConfig:
    socket_path: str = "/tmp/rips.sock"
    scripts_dir: str = "/etc/rips/scripts"
    tick_interval: float = 0.1
    exec_timeout: float = 30.0
    ids_dir: str = "./ids-alerts"
    ids_pattern: str = "alert*"
    queue_max: int = 1024


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


class EngineBase:
    """Shared engine behavior: interpreted and generated programs differ
    only in how a single rule is dispatched.

    Every outcome goes to ``sink`` (if any) and into one flat buffer; each
    entry point (``start``, ``handle_event``, ``tick``) returns and empties
    that buffer.
    """

    def __init__(
        self,
        *,
        levels: list[Level],
        scripts: dict[str, tuple[str, str]] | None,
        var_init: dict[str, object],
        clock=None,
        runner=None,
        counters: SignalCounters | None = None,
        sink=None,
        config: EngineConfig | None = None,
        regexes=(),
        patterns=(),
        plugins=(),
    ):
        self.config = config or EngineConfig()
        self.clock = clock or SystemClock()
        self.runner = runner if runner is not None else SubprocessRunner(self.config.exec_timeout)
        self.counters = counters or SignalCounters()
        self.sink = sink
        self.machine = LevelMachine(levels)
        self.scripts = scripts
        self.env = RuntimeEnv(variables=dict(var_init))
        self.ids = IdsAlertScanner(self.config.ids_dir, self.config.ids_pattern)
        # Precompiled resources, indexed by Call.resource.
        self.regexes = list(regexes)
        self.patterns = list(patterns)
        self.plugins = list(plugins)
        self.events_processed = 0
        self._outcomes: list[Outcome] = []
        self._started = False

    # Rule tables filled by subclasses: lists of (rule_id, impl).
    _graph_rules: list
    _msg_rules: list
    _external_rules: list

    def _call_rule(self, impl, ctx) -> None:
        raise NotImplementedError

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
            if not self._run_script(name, enter=True, from_name="", to_name=name):
                self._script_failure_alert(f"{name}.to")
        return self._take_outcomes()

    def handle_document(self, text: str) -> list[Outcome]:
        try:
            event = decode_event(text)
        except DecodeError as exc:
            log.warning("skipping malformed event: %s", exc)
            return []
        return self.handle_event(event)

    def handle_event(self, event: InboundEvent) -> list[Outcome]:
        self.start()
        if event.kind == "graph":
            rules, ctx = self._graph_rules, event.graph
        else:
            rules, ctx = self._msg_rules, event.message_context()
        self._run_rules(rules, ctx)
        self.events_processed += 1
        return self._take_outcomes()

    def tick(self) -> list[Outcome]:
        """One periodic pass over the External rules, with no event context."""
        self.start()
        self._run_rules(self._external_rules, None)
        return self._take_outcomes()

    def dump_variables(self) -> dict[str, object]:
        return dict(self.env.variables)

    # --- core loop pieces ---

    def _refresh(self) -> None:
        self.env.time_ns = self.clock.now_ns()

    def _run_rules(self, rules, ctx) -> None:
        for rule_id, impl in rules:
            self._refresh()
            try:
                self._call_rule(impl, ctx)
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

    def _run_script(self, level_name: str, *, enter: bool, from_name: str, to_name: str) -> bool:
        if self.scripts is None:
            return True
        to_path, from_path = self.scripts[level_name]
        path = to_path if enter else from_path
        return self.runner.run_script(path, from_name, to_name)

    # --- actions ---

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
        ok_from = self._run_script(old_name, enter=False, from_name=old_name, to_name=new_name)
        ok_to = self._run_script(new_name, enter=True, from_name=old_name, to_name=new_name)
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

    def act_exec(self, path: str, args) -> bool:
        return self.runner.run_exec(path, tuple(args))

    def act_crash(self, text: str) -> bool:
        self.act_alert(text)
        print(text, file=sys.stderr)
        log.critical("crash: %s", text)
        raise EngineCrash(text)

    def act_true(self, vals) -> bool:
        for v in vals:
            log.info("True: %s", values.to_string(v))
        return True

    def act_false(self, vals) -> bool:
        for v in vals:
            log.info("False: %s", values.to_string(v))
        return False

    def levelname(self, ordinal) -> str:
        return self.machine.name_of(ordinal)


class CompiledEngine(EngineBase):
    """Engine driven by generated rule functions instead of an AST.

    Generated programs hand over their embedded tables (levels, initial
    variable values, precompiled resources) plus one function per rule; the
    rest of the behavior is shared with the interpreter.
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
        **kwargs,
    ):
        level_objs = [Level(name, soft, i) for i, (name, soft) in enumerate(levels)]
        scripts = None
        if scripts_dir is not None:
            scripts = {
                name: (os.path.join(scripts_dir, f"{name}.to"), os.path.join(scripts_dir, f"{name}.from"))
                for name, _soft in levels
            }
        super().__init__(levels=level_objs, scripts=scripts, var_init=var_init, **kwargs)
        self._graph_rules = list(graph_rules)
        self._msg_rules = list(msg_rules)
        self._external_rules = list(external_rules)

    def _call_rule(self, impl, ctx) -> None:
        impl(self, self.env, ctx)


class InterpretedEngine(EngineBase):
    """Tree-walking execution of a checked program."""

    def __init__(self, checked: CheckedProgram, **kwargs):
        levels = [Level(d.name, d.soft, d.ordinal) for d in checked.levels]
        res = checked.resources
        super().__init__(
            levels=levels,
            scripts=checked.scripts,
            var_init=checked.var_initial,
            regexes=res.regexes,
            patterns=res.patterns,
            plugins=res.plugins,
            **kwargs,
        )
        self.checked = checked
        self._graph_rules = [(r.rule_id, r) for r in checked.graph_rules]
        self._msg_rules = [(r.rule_id, r) for r in checked.msg_rules]
        self._external_rules = [(r.rule_id, r) for r in checked.external_rules]

    def _call_rule(self, rule: Rule, ctx) -> None:
        if self._eval(rule.trigger, ctx) is True:
            self._run_chain(rule, ctx)

    def _run_chain(self, rule: Rule, ctx) -> None:
        prev = None
        for idx, item in enumerate(rule.chain):
            if idx:
                conn = rule.chain[idx - 1].connector
                if conn == "=>" and prev is not True:
                    return
                if conn == "!>" and prev is not False:
                    return
            prev = self._exec_action(item.action, ctx)

    def _exec_action(self, call: Call, ctx) -> bool:
        name = call.name
        if name == "set":
            return self.act_set(call.args[0].name, self._eval(call.args[1], ctx))
        if name == "alert":
            return self.act_alert(self._eval(call.args[0], ctx))
        if name == "trigger":
            return self.act_trigger(self._eval(call.args[0], ctx))
        if name == "exec":
            vals = [self._eval(a, ctx) for a in call.args]
            return self.act_exec(vals[0], vals[1:])
        if name == "crash":
            return self.act_crash(self._eval(call.args[0], ctx))
        if name == "True":
            return self.act_true([self._eval(a, ctx) for a in call.args])
        return self.act_false([self._eval(a, ctx) for a in call.args])

    def _eval(self, e, ctx):
        cls = type(e)
        if cls is Literal:
            return e.value
        if cls is Name:
            sym = e.binding
            kind = sym.kind
            if kind == "var":
                return self.env.variables[sym.name]
            if kind == "predefined":
                if sym.name == "CurrLevel":
                    return self.machine.current
                if sym.name == "Time":
                    return self.env.time_ns
                return self.env.time_ns - self.env.start_ns
            return sym.value
        if cls is Binary:
            op = e.op
            if op == "&&":
                return self._eval(e.left, ctx) and self._eval(e.right, ctx)
            if op == "||":
                return self._eval(e.left, ctx) or self._eval(e.right, ctx)
            a = self._eval(e.left, ctx)
            b = self._eval(e.right, ctx)
            return values.apply_binary(op, a, b, e.ty.value_type)
        if cls is Unary:
            v = self._eval(e.operand, ctx)
            op = e.op
            if op == "!":
                return not v
            if op == "-":
                return values.ineg(v) if e.ty.value_type.value == "int" else -v
            if op == "~":
                return ~v
            return v
        # Call
        return self._eval_call(e, ctx)

    def _eval_call(self, call: Call, ctx):
        if call.resource is not None:
            args = (call.resource[1],)
        else:
            args = [self._eval(a, ctx) for a in call.args]
        return call.sig.impl(self, ctx, *args)
