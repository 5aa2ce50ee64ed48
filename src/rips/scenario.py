"""Monitor simulator: replays scripted timelines against an engine over the
YAML wire format and checks expected outcomes.

A scenario is a YAML file with a timeline of graph changes, published
messages and Unix signals at relative times, plus ordered expectations
(level names or alert-text substrings). The simulator is a ``bus.drive``
source that mimics the monitor: it emits a graph event every polling
interval and immediately on a change (periodic emission can be disabled),
filters message topics through the white/black lists, and tracks the
level and last alert from the engine's sink to fill the event envelope.
What it sends goes through one ``DocumentStream``, as a socket's bytes do,
so the engine sees the documents ``serve`` would frame from them.
Its ``FakeClock`` moves only when the source moves it, so runs are
deterministic and fast, and ``drive`` ticks as it does on a socket: at
one time, timeline entries (in file order) come before the graph poll,
and a tick that falls due then runs after the first of them.
"""

from __future__ import annotations

import base64
import math
import os
from typing import NamedTuple

import yaml

from .bus import SIGNALS, SignalCounters, drive
from .errors import EngineCrash, RipsError
from .runtime import FakeClock
from .support import positive_float
from .wire import DocumentStream, Outcome, encode_event

DEFAULT_POLLING_S = 0.5
DEFAULT_GRACE_S = 1.0

_NS = 1_000_000_000

# The most ticks and polls one run may schedule. A step costs about 50 us
# (soft_levels.rul, navigation.rul and monitor_demo.rul, with no timeline
# entries due, on a 2-vCPU x86-64 host), so this keeps a run under about
# a minute; a scenario that reaches further is refused, not simulated.
MAX_STEPS = 1_000_000

class ScenarioError(RipsError):
    pass


class TimelineEntry(NamedTuple):
    at_s: float
    kind: str  # "graph" | "message" | "signal"
    graph: dict | None = None
    topic: str = ""
    msg_type: str = ""
    payload: bytes = b""
    signal: str = ""


class Expectation(NamedTuple):
    level: str | None = None
    alert: str | None = None

    def describe(self) -> str:
        if self.level is not None:
            return f"levelchange {self.level}"
        return f"alert containing {self.alert!r}"

    def matches(self, outcome: Outcome) -> bool:
        if self.level is not None:
            return outcome.kind == "levelchange" and outcome.level == self.level
        return outcome.kind == "alert" and self.alert in outcome.text


class Scenario(NamedTuple):
    name: str
    timeline: list[TimelineEntry]
    expect: list[Expectation]
    polling_s: float | None = None
    grace_s: float = DEFAULT_GRACE_S
    on_change_only: bool = False
    expect_none: bool = False


class ObservedOutcome(NamedTuple):
    time_s: float
    anchor_s: float  # time of the most recent timeline entry
    outcome: Outcome


class ExpectationResult(NamedTuple):
    expectation: Expectation
    matched: bool
    latency_s: float | None = None


class RunReport(NamedTuple):
    scenario: str
    outcomes: list[ObservedOutcome]
    results: list[ExpectationResult]
    aborted: bool = False
    crash_text: str = ""
    expect_none: bool = False

    @property
    def passed(self) -> bool:
        if self.aborted:
            return False
        if self.expect_none and self.outcomes:
            return False
        return all(r.matched for r in self.results)

    def format(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        lines.append(f"outcomes ({len(self.outcomes)}):")
        for obs in self.outcomes:
            o = obs.outcome
            if o.kind == "levelchange":
                lines.append(f"  [{obs.time_s:8.3f}s] levelchange -> {o.level} (gravity {o.gravity:g})")
            else:
                lines.append(f"  [{obs.time_s:8.3f}s] alert: {o.text}")
        if self.expect_none:
            status = "PASS" if not self.outcomes else "FAIL"
            lines.append(f"  {status} expected no outcomes")
        if self.results:
            lines.append("expectations:")
            for r in self.results:
                if r.matched:
                    lines.append(f"  PASS {r.expectation.describe()} (latency {r.latency_s:.3f}s)")
                else:
                    lines.append(f"  FAIL {r.expectation.describe()} (not observed)")
        if self.aborted:
            lines.append(f"aborted: engine crashed: {self.crash_text}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _seconds(value, what: str) -> float:
    """A scenario time: a finite number of seconds, not negative. A NaN or
    infinite time has no place in the simulated schedule."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not 0.0 <= seconds < math.inf:
        raise ScenarioError(f"{what} must be a finite number of seconds, not negative: {value!r}")
    return seconds


def _parse_entry(raw: dict, index: int) -> TimelineEntry:
    if not isinstance(raw, dict) or "at" not in raw:
        raise ScenarioError(f"timeline entry {index} needs an 'at' time")
    at = _seconds(raw["at"], f"'at' of timeline entry {index}")
    if "graph" in raw:
        graph = raw["graph"] or {}
        if not isinstance(graph, dict):
            raise ScenarioError(f"timeline entry {index}: 'graph' must be a mapping")
        graph.setdefault("nodes", [])
        graph.setdefault("topics", [])
        return TimelineEntry(at, "graph", graph=graph)
    if "message" in raw:
        msg = raw["message"] or {}
        topic = str(msg.get("topic") or "")
        if not topic:
            raise ScenarioError(f"timeline entry {index}: message needs a topic")
        if "payload_b64" in msg:
            payload = base64.b64decode(str(msg["payload_b64"]))
        else:
            payload = str(msg.get("payload") or "").encode("utf-8")
        return TimelineEntry(
            at,
            "message",
            topic=topic,
            msg_type=str(msg.get("type") or "std_msgs/msg/String"),
            payload=payload,
        )
    if "signal" in raw:
        sig = str(raw["signal"])
        if sig not in SIGNALS:
            raise ScenarioError(f"timeline entry {index}: unknown signal {sig!r}")
        return TimelineEntry(at, "signal", signal=sig)
    raise ScenarioError(f"timeline entry {index} needs one of 'graph', 'message' or 'signal'")


def parse_scenario(doc: dict, name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario file must hold a mapping")
    timeline = [_parse_entry(raw, i) for i, raw in enumerate(doc.get("timeline") or [])]
    for prev, cur in zip(timeline, timeline[1:]):
        if cur.at_s < prev.at_s:
            raise ScenarioError("timeline times must be non-decreasing")
    expect: list[Expectation] = []
    for i, raw in enumerate(doc.get("expect") or []):
        if not isinstance(raw, dict) or ("level" not in raw) == ("alert" not in raw):
            raise ScenarioError(f"expectation {i} needs exactly one of 'level' or 'alert'")
        if "level" in raw:
            expect.append(Expectation(level=str(raw["level"])))
        else:
            expect.append(Expectation(alert=str(raw["alert"])))
    polling = doc.get("polling")
    if polling is not None:
        try:
            polling = positive_float(polling)
        except (TypeError, ValueError):
            raise ScenarioError(f"polling must be a positive number of seconds, not {polling!r}") from None
    return Scenario(
        name=str(doc.get("name") or name),
        timeline=timeline,
        expect=expect,
        polling_s=polling,
        grace_s=_seconds(doc.get("grace", DEFAULT_GRACE_S), "grace"),
        on_change_only=bool(doc.get("on_change_only", False)),
        expect_none=bool(doc.get("expect_none", False)),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh.read())
    return parse_scenario(doc, name=os.path.basename(path))


def _split_topics(value: str | None) -> frozenset[str]:
    if not value:
        return frozenset()
    return frozenset(t for t in value.split(":") if t)


def resolve_polling(scenario: Scenario, override: float | None = None) -> float:
    """Polling interval precedence: explicit override, scenario, RIPSPOLLING
    environment variable, then the 0.5 s default. A RIPSPOLLING that is not
    a positive number is ignored."""
    if override is not None:
        return override
    if scenario.polling_s is not None:
        return scenario.polling_s
    env = os.environ.get("RIPSPOLLING")
    if env:
        try:
            return positive_float(env)
        except ValueError:
            pass
    return DEFAULT_POLLING_S


class _SimulatedMonitor:
    """The monitor's side of a scenario, a ``drive`` source on the engine's
    ``FakeClock``: each ``receive`` moves the clock to the next timeline
    entry or graph poll within the wait and returns the documents that its
    event frames to, or none, or, once the wait reaches past ``end_ns``,
    None. ``record`` is the engine's sink."""

    def __init__(self, scenario: Scenario, engine, poll_ns: int, end_ns: int):
        self.timeline = iter(scenario.timeline)
        self.entry = next(self.timeline, None)
        self.clock, self.counters, self.poll_ns, self.end_ns = engine.clock, engine.counters, poll_ns, end_ns
        self.next_poll_ns = math.inf if scenario.on_change_only else 0
        self.wl = _split_topics(os.environ.get("RIPSWHITELIST"))
        self.bl = _split_topics(os.environ.get("RIPSBLACKLIST"))
        self.graph: dict = {"nodes": [], "topics": []}
        self.level, self.grav, self.last_alert = engine.levelname(engine.current), engine.gravity(engine.current), ""
        self.last_entry_ns = 0
        self.observed: list[ObservedOutcome] = []
        self.stream = DocumentStream()

    def record(self, o: Outcome) -> bool:
        self.observed.append(ObservedOutcome(self.clock.now_ns() / _NS, self.last_entry_ns / _NS, o))
        if o.kind == "levelchange":
            self.level, self.grav = o.level, o.gravity
        else:
            self.last_alert = o.text
        return True

    def event(self, **extra) -> list[str]:
        text = encode_event({"currentlevel": self.level, "currentgrav": self.grav, "lastalert": self.last_alert,
                             "event": "graph", "context": self.graph, **extra})
        return self.stream.feed(text.encode("utf-8"))

    def receive(self, wait_ns: int) -> list[str] | None:
        deadline = self.clock.now_ns() + wait_ns
        entry_ns = int(self.entry.at_s * _NS) if self.entry else math.inf
        at = min(entry_ns, self.next_poll_ns)
        if at > min(deadline, self.end_ns):
            self.clock.set_ns(deadline)
            return None if deadline > self.end_ns else []
        self.clock.set_ns(at)
        if at < entry_ns:
            self.next_poll_ns += self.poll_ns
            return self.event()
        entry, self.entry = self.entry, next(self.timeline, None)
        self.last_entry_ns = at
        if entry.kind == "signal":
            self.counters.deliver(entry.signal)
            return []
        if entry.kind == "graph":
            self.graph = entry.graph
            return self.event()
        if (self.wl and entry.topic not in self.wl) or entry.topic in self.bl:
            return []
        return self.event(event="message", topic=entry.topic, msgtype=entry.msg_type,
                          payload=base64.b64encode(entry.payload).decode("ascii"))


def run_scenario(
    scenario: Scenario,
    build_engine,
    *,
    polling_s: float | None = None,
) -> RunReport:
    """Replay a scenario against a fresh engine built by
    ``build_engine(clock, counters)``; returns the run report. Raises
    ``ScenarioError`` before the run if it would take more than
    ``MAX_STEPS`` ticks and polls.

    The white/black lists are the RIPSWHITELIST/RIPSBLACKLIST environment
    variables (colon-separated topic names).
    """
    engine = build_engine(FakeClock(0), SignalCounters())

    end_s = (scenario.timeline[-1].at_s if scenario.timeline else 0.0) + scenario.grace_s
    end_ns = int(end_s * _NS)
    poll_ns = max(1, int(resolve_polling(scenario, polling_s) * _NS))
    tick_ns = max(1, int(engine.config.tick_interval * _NS))
    steps = end_ns // tick_ns + (0 if scenario.on_change_only else end_ns // poll_ns + 1)
    if steps > MAX_STEPS:
        raise ScenarioError(f"scenario runs to {end_s:g} s in {steps} ticks and polls; "
                            f"at most {MAX_STEPS} are allowed")

    monitor = _SimulatedMonitor(scenario, engine, poll_ns, end_ns)
    engine.sink = monitor.record
    aborted = False
    crash_text = ""
    try:
        drive(engine, monitor)
    except EngineCrash as crash:
        aborted = True
        crash_text = crash.text

    observed = monitor.observed
    results: list[ExpectationResult] = []
    cursor = 0
    for exp in scenario.expect:
        hit = None
        for i in range(cursor, len(observed)):
            if exp.matches(observed[i].outcome):
                hit = i
                break
        if hit is None:
            results.append(ExpectationResult(exp, False))
        else:
            obs = observed[hit]
            results.append(ExpectationResult(exp, True, obs.time_s - obs.anchor_s))
            cursor = hit + 1

    return RunReport(
        scenario=scenario.name,
        outcomes=observed,
        results=results,
        aborted=aborted,
        crash_text=crash_text,
        expect_none=scenario.expect_none,
    )
