"""The scenario fixtures under both engines, and outcomes the simulator must
record.

Child processes go to a ``RecordingRunner``: the fixtures' rules exec
``/bin/sleep 2`` and a speech synthesizer, which a test must not run.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
import yaml

import rips
from rips import cli, wire
from rips.checker import check_file, check_source
from rips.interpreter import InterpretedEngine
from rips.runtime import EngineConfig, RecordingRunner
from rips.scenario import (
    DEFAULT_POLLING_S,
    ScenarioError,
    load_scenario,
    parse_scenario,
    resolve_polling,
    run_scenario,
)
from rips.transpiler import load_generated, transpile

from conftest import DATA_DIR, make_scripts, write_script

FIXTURES = [
    ("camera.rul", "camera_breach.yaml"),
    ("camera.rul", "camera_normal.yaml"),
    ("navigation.rul", "navigation_breach.yaml"),
    ("navigation.rul", "navigation_normal.yaml"),
    ("payload.rul", "payload_attack.yaml"),
    ("payload.rul", "payload_mutated.yaml"),
]


def _both_engines(checked, runner_fn=None):
    """Scenario engine builders: the interpreter and the generated program."""
    module = load_generated(transpile(checked), "scenario_generated")

    def interp(clock, counters):
        return InterpretedEngine(checked, clock=clock, counters=counters, runner=RecordingRunner(runner_fn))

    def gen(clock, counters):
        return module.build_engine(clock=clock, counters=counters, runner=RecordingRunner(runner_fn))

    return interp, gen


@pytest.mark.parametrize("rules,scenario", FIXTURES, ids=[s for _, s in FIXTURES])
def test_fixture_passes_under_both_engines(rules, scenario):
    checked = check_file(os.path.join(DATA_DIR, rules))
    loaded = load_scenario(os.path.join(DATA_DIR, scenario))
    reports = [run_scenario(loaded, build, polling_s=None) for build in _both_engines(checked)]
    for report in reports:
        assert report.passed, report.format()
    interp, gen = reports
    assert gen.outcomes == interp.outcomes


def test_startup_script_failure_alert_is_recorded(scripts_factory):
    """A failed ``.to`` script of the first level, run by ``start()``, yields
    an alert the simulator reports like any other outcome."""
    checked = check_source(
        'levels: A; B;\nrules Graph: nodecount(1, 9) ? alert("graph seen");',
        "startup.rul",
        scripts_dir=scripts_factory(["A", "B"]),
    )
    scenario = parse_scenario({
        "timeline": [{"at": 0.2, "graph": {"nodes": [{"node": "n1"}]}}],
        "expect": [{"alert": "transition script failed: A.to"}, {"alert": "graph seen"}],
        "on_change_only": True,
    })
    for build in _both_engines(checked, runner_fn=lambda call: call[0] != "script"):
        report = run_scenario(scenario, build)
        assert report.passed, report.format()
        assert report.outcomes[0].time_s == 0.0


def test_topic_lists_filter_messages(monkeypatch):
    """RIPSWHITELIST and RIPSBLACKLIST (colon-separated topics): a message
    on a topic outside the whitelist, or on a blacklisted one, reaches the
    engine as no event and yields no outcome."""
    monkeypatch.setenv("RIPSWHITELIST", "/kept:/blocked")
    monkeypatch.setenv("RIPSBLACKLIST", "/blocked")
    checked = check_source(
        'rules Msg: topicin("/kept") ? alert("on /kept");\n'
        '  topicin("/outside") ? alert("on /outside");\n'
        '  topicin("/blocked") ? alert("on /blocked");\n',
        "lists.rul",
    )
    scenario = parse_scenario({
        "timeline": [{"at": 0.1, "message": {"topic": topic}} for topic in ("/outside", "/blocked", "/kept")],
        "expect": [{"alert": "on /kept"}],
        "on_change_only": True,
    })
    for build in _both_engines(checked):
        documents = []

        def counting(clock, counters, build=build):
            engine = build(clock, counters)
            handle = engine.handle_document
            engine.handle_document = lambda text: documents.append(text) or handle(text)
            return engine

        report = run_scenario(scenario, counting)
        assert report.passed, report.format()
        assert [obs.outcome.text for obs in report.outcomes] == ["on /kept"]
        assert len(documents) == 1 and "topic: /kept" in documents[0]


def test_the_simulated_monitor_is_framed_as_a_socket_is(monkeypatch, caplog):
    """What the simulated monitor sends goes through a ``DocumentStream``: a
    document over ``MAX_DOC_BYTES`` is dropped with the framer's one warning,
    as ``serve`` drops it, and the documents around it still arrive."""
    monkeypatch.setattr(wire, "MAX_DOC_BYTES", 400)
    checked = check_source('rules Graph: nodecount(1, 1) ? alert("small");\n'
                           '  nodecount(2, 100) ? alert("large");', "framed.rul")
    small = {"nodes": [{"node": "n0"}]}
    large = {"nodes": [{"node": f"n{i}"} for i in range(60)]}
    scenario = parse_scenario({
        "timeline": [{"at": at, "graph": graph} for at, graph in ((0.1, small), (0.2, large), (0.3, small))],
        "on_change_only": True,
    })
    for build in _both_engines(checked):
        caplog.clear()
        report = run_scenario(scenario, build)
        assert [(obs.time_s, obs.outcome.text) for obs in report.outcomes] == [(0.1, "small"), (0.3, "small")]
        assert [r.getMessage() for r in caplog.records] == ["dropping an inbound document over 400 bytes"]


def test_equal_times_run_in_drive_order():
    """At one simulated time the timeline entries run first, in file order,
    then the periodic graph poll; a tick that falls due then runs after the
    first document, as ``bus.drive`` runs it on a socket. The tick at 1 s
    falls due with the poll at 1 s, and runs after it."""
    checked = check_source('rules Msg: topicin("/t") ? alert("m");', "order.rul")
    scenario = parse_scenario({
        "timeline": [{"at": 0.5, "message": {"topic": "/u"}}, {"at": 0.5, "message": {"topic": "/t"}}],
        "polling": 0.5,
        "grace": 0.5,
    })
    calls = []

    def recording(clock, counters):
        engine = InterpretedEngine(checked, clock=clock, counters=counters, config=EngineConfig(tick_interval=0.5))
        handle, tick = engine.handle_document, engine.tick

        def handle_document(text):
            calls.append((clock.now_ns(), next((t for t in ("/t", "/u") if f"topic: {t}\n" in text), "poll")))
            return handle(text)

        engine.handle_document = handle_document
        engine.tick = lambda: calls.append((clock.now_ns(), "tick")) or tick()
        return engine

    run_scenario(scenario, recording)
    half, one = 500_000_000, 1_000_000_000
    assert calls == [(0, "poll"), (half, "/u"), (half, "tick"), (half, "/t"), (half, "poll"),
                     (one, "poll"), (one, "tick")]


def test_a_crash_keeps_the_outcomes_before_it():
    """A crash action ends the run; the outcomes of the event that crashed,
    its alert among them, are in the report, as a monitor on the socket
    receives them."""
    checked = check_source('levels: A; B;\nrules Graph: CurrLevel == A ? trigger(B) => crash("fatal");', "crash.rul")
    scenario = parse_scenario({
        "timeline": [{"at": 0.2, "graph": {"nodes": [{"node": "n1"}]}}],
        "expect": [{"level": "B"}],
        "on_change_only": True,
    })
    for build in _both_engines(checked):
        report = run_scenario(scenario, build)
        assert (report.aborted, report.crash_text, report.passed) == (True, "fatal", False)
        assert [(obs.time_s, obs.outcome.kind, obs.outcome.text) for obs in report.outcomes] == [
            (0.2, "levelchange", ""), (0.2, "alert", "fatal")]
        assert report.results[0].matched


@pytest.mark.parametrize("polling", [0, -0.5, "soon"])
def test_scenario_polling_must_be_positive(polling):
    with pytest.raises(ScenarioError, match="polling must be a positive number of seconds"):
        parse_scenario({"polling": polling})


@pytest.mark.parametrize("at", [".nan", ".inf", "-.inf", "-1", "soon"])
def test_timeline_time_must_be_finite_and_not_negative(at):
    """A NaN or infinite time used to pass parsing and then crash the run
    in ``int()``; it is now refused when the scenario is parsed."""
    doc = yaml.safe_load(f"timeline: [{{at: {at}, signal: SIGUSR1}}]")
    with pytest.raises(ScenarioError, match="'at' of timeline entry 0 must be a finite number of seconds"):
        parse_scenario(doc)


@pytest.mark.parametrize("grace", [".nan", ".inf", "-0.5"])
def test_grace_must_be_finite_and_not_negative(grace):
    with pytest.raises(ScenarioError, match="grace must be a finite number of seconds"):
        parse_scenario(yaml.safe_load(f"grace: {grace}"))


def test_simulate_reports_a_nan_time_without_a_traceback(tmp_path, capsys):
    (tmp_path / "nan.yaml").write_text("timeline:\n  - at: .nan\n    signal: SIGUSR1\n")
    rules = os.path.join(DATA_DIR, "soft_levels.rul")
    assert cli.main(["simulate", rules, str(tmp_path / "nan.yaml")]) == cli.STATIC_ERROR
    assert "'at' of timeline entry 0 must be a finite number" in capsys.readouterr().err


def test_simulate_does_not_run_exec_actions(tmp_path, capsys):
    """An exec action succeeds in a simulation without starting a process;
    the transition scripts still run."""
    marker = tmp_path / "exec-ran"
    write_script(tmp_path / "touch.sh", f'touch "{marker}"\n')
    log = tmp_path / "scripts.log"
    scripts = make_scripts(tmp_path / "scripts", ["A", "B"], log_file=log)
    (tmp_path / "exec.rul").write_text(
        "levels: A; B;\n"
        f'rules Graph: CurrLevel == A ? exec("{tmp_path / "touch.sh"}") => trigger(B), alert("exec ok");\n')
    (tmp_path / "exec.yaml").write_text(
        "timeline:\n  - at: 0.0\n    graph: {nodes: [{node: a}], topics: []}\n"
        "expect:\n  - level: B\n  - alert: exec ok\n")
    argv = ["simulate", str(tmp_path / "exec.rul"), str(tmp_path / "exec.yaml"), "--scripts", scripts]
    assert cli.main(argv) == 0
    assert "result: PASS" in capsys.readouterr().out.splitlines()
    assert not marker.exists()
    assert log.read_text().splitlines() == ["A.to ->A", "A.from A->B", "B.to A->B"]


def test_simulate_refuses_a_far_scenario_time(tmp_path):
    """A finite but far ``at`` used to run every tick and poll up to it: at
    1e9 s, about 1.2e10 steps, days of CPU. It runs in a child, so a
    hang fails the test at its timeout rather than stalling the suite."""
    (tmp_path / "far.yaml").write_text("timeline:\n  - at: 1.0e+9\n    signal: SIGUSR1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    proc = subprocess.run([sys.executable, "-m", "rips", "simulate", os.path.join(DATA_DIR, "soft_levels.rul"),
                           str(tmp_path / "far.yaml")], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.STATIC_ERROR
    assert proc.stderr.startswith("error: scenario runs to 1e+09 s in ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("on_change_only", [False, True])
def test_step_limit_counts_ticks_and_polls(monkeypatch, on_change_only):
    """Ticks every 0.1 s and polls every 0.5 s up to 1 s: 10 ticks, and 3
    polls (at 0, 0.5 and 1 s) unless graphs go out on change only."""
    checked = check_source('rules External: true ? True();', "steps.rul")
    doc = {"timeline": [{"at": 0.5, "signal": "SIGUSR1"}], "grace": 0.5, "on_change_only": on_change_only}
    steps = 10 if on_change_only else 13
    build = lambda clock, counters: InterpretedEngine(checked, clock=clock, counters=counters)
    monkeypatch.setattr("rips.scenario.MAX_STEPS", steps)
    assert run_scenario(parse_scenario(doc), build).passed
    monkeypatch.setattr("rips.scenario.MAX_STEPS", steps - 1)
    with pytest.raises(ScenarioError, match=f"in {steps} ticks and polls; at most {steps - 1} are allowed"):
        run_scenario(parse_scenario(doc), build)


@pytest.mark.parametrize("env", ["0", "-1", "soon"])
def test_non_positive_ripspolling_is_ignored(monkeypatch, env):
    monkeypatch.setenv("RIPSPOLLING", env)
    assert resolve_polling(parse_scenario({})) == DEFAULT_POLLING_S

