import copy
import gc
import itertools
import logging
import os
import signal
import time
import warnings

import pytest

from rips.bus import SignalCounters
from rips.checker import check_source
from rips.errors import EngineCrash
from rips.interpreter import InterpretedEngine, evaluate
from rips.runtime import EngineConfig, FakeClock, RecordingRunner, SubprocessRunner
from rips.syntax import SectionKind
from rips.wire import decode_event, encode_event

from conftest import make_scripts, write_script


def make_event(kind="graph", topics=(), nodes=(), topic="", msg_type="", payload=b""):
    import base64

    doc = {"event": kind, "context": {"nodes": list(nodes), "topics": list(topics)}}
    if kind == "message":
        doc["topic"] = topic
        doc["msgtype"] = msg_type
        doc["payload"] = base64.b64encode(payload).decode()
    return decode_event(encode_event(doc))


def build(source, *, scripts_dir=None, base_dir=".", runner=None, clock=None, counters=None,
          config=None, sink=None, name="test.rul"):
    checked = check_source(source, name, scripts_dir=scripts_dir, base_dir=base_dir)
    engine = InterpretedEngine(
        checked,
        runner=runner if runner is not None else RecordingRunner(),
        clock=clock or FakeClock(1_000),
        counters=counters,
        config=config,
        sink=sink,
    )
    return engine


# --- trigger semantics through the engine ---

SOFT_PROGRAM = "levels: A; B; C soft; D;\nvars: lv int = A;\nrules Graph: true ? set(lv, lv) , trigger(lv);"


def engine_at_level(level_ordinal, runner=None):
    eng = build(SOFT_PROGRAM, runner=runner)
    eng.start()
    eng.current = level_ordinal
    return eng


def test_engine_transition_rule_soft_levels():
    """Levels A, B, C soft, D: any rise is allowed, and only the soft C may
    step down, and only one level."""
    allowed = {
        0: {0, 1, 2, 3},
        1: {1, 2, 3},
        2: {1, 2, 3},  # C -> B: one step below a soft level
        3: {3},  # D is not soft
    }
    for start, targets in allowed.items():
        for target in range(-1, 5):
            eng = engine_at_level(start)
            assert eng.act_trigger(target) is (target in targets), (start, target)
            assert eng.current == (target if target in targets else start)


def test_engine_gravity_normalized():
    eng = build("levels: A; B; C;\nrules Graph: true ? True();")
    assert [eng.gravity(i) for i in range(3)] == [0.0, 0.5, 1.0]
    single = build("levels: X;\nrules Graph: true ? True();")
    assert single.gravity(0) == 0.0


def test_trigger_out_of_range_returns_false():
    eng = engine_at_level(0)
    assert eng.act_trigger(99) is False
    assert eng.act_trigger(-1) is False
    assert eng.current == 0


def test_trigger_same_level_is_noop_true():
    runner = RecordingRunner()
    eng = engine_at_level(2, runner)
    before = list(runner.calls)
    assert eng.act_trigger(2) is True
    assert runner.calls == before  # no scripts run
    assert eng.current == 2


def test_trigger_soft_deescalation_runs_scripts_in_order(scripts_factory, tmp_path):
    log = tmp_path / "log.txt"
    scripts_dir = scripts_factory(["A", "B", "C", "D"], log_file=log)
    eng = build(SOFT_PROGRAM, scripts_dir=scripts_dir, runner=None)
    eng.runner = __import__("rips.runtime", fromlist=["SubprocessRunner"]).SubprocessRunner(10.0)
    eng.start()
    eng.current = 2  # C
    log.write_text("")  # ignore the startup A.to
    assert eng.act_trigger(1) is True  # C -> B allowed: C is soft
    lines = log.read_text().strip().splitlines()
    assert lines == ["C.from C->B", "B.to C->B"]
    assert eng.current == 1


def test_trigger_hard_deescalation_denied():
    eng = engine_at_level(2)
    assert eng.act_trigger(0) is False  # two below the soft level
    assert eng.current == 2
    eng2 = engine_at_level(3)
    assert eng2.act_trigger(2) is False  # D is not soft
    assert eng2.current == 3


def test_startup_runs_only_first_level_to_script(scripts_factory, tmp_path):
    from rips.runtime import SubprocessRunner

    log = tmp_path / "log.txt"
    scripts_dir = scripts_factory(["A", "B", "C", "D"], log_file=log)
    eng = build(SOFT_PROGRAM, scripts_dir=scripts_dir, runner=SubprocessRunner(10.0))
    eng.start()
    assert log.read_text().strip().splitlines() == ["A.to ->A"]


def test_script_failure_commits_transition_and_alerts(scripts_factory, tmp_path):
    from rips.runtime import SubprocessRunner

    scripts_dir = scripts_factory(["A", "B", "C", "D"], failing=("B.to",))
    eng = build(SOFT_PROGRAM, scripts_dir=scripts_dir, runner=SubprocessRunner(10.0))
    eng.start()
    collected = []
    eng.sink = collected.append
    assert eng.act_trigger(1) is True  # transition commits despite failure
    assert eng.current == 1
    kinds = [(o.kind, o.text) for o in collected]
    assert kinds[0][0] == "levelchange"
    assert any(o.kind == "alert" and "B.to" in o.text for o in collected)


def test_levelchange_outcome_fields():
    eng = engine_at_level(0)
    collected = []
    eng.sink = collected.append
    eng.act_trigger(3)
    (o,) = collected
    assert o.kind == "levelchange"
    assert o.level == "D"
    assert o.ordinal == 3
    assert o.gravity == 1.0


# --- chain semantics ---


def chain_program(connectors, n):
    # Actions return scripted booleans via exec results; the recording
    # runner's result function drives them.
    actions = []
    for i in range(n):
        actions.append(f'exec("/a{i}")')
    chain = actions[0]
    for conn, act in zip(connectors, actions[1:]):
        chain += f" {conn} " if conn != "," else ", "
        chain += act
    return f"rules Graph: true ? {chain};"


def executed_prefix_oracle(connectors, results):
    """Reference semantics: which actions run given each action's result."""
    ran = [0]
    for i, conn in enumerate(connectors):
        r = results[i]
        if conn == "," or (conn == "=>" and r is True) or (conn == "!>" and r is False):
            ran.append(i + 1)
        else:
            break
    return ran


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chain_semantics_exhaustive(n):
    for connectors in itertools.product([",", "=>", "!>"], repeat=n - 1):
        for results in itertools.product([True, False], repeat=n):
            result_map = {f"/a{i}": results[i] for i in range(n)}
            runner = RecordingRunner(lambda call: result_map[call[1]])
            eng = build(chain_program(connectors, n), runner=runner)
            eng.start()
            eng.handle_event(make_event("graph"))
            ran = [int(call[1][2:]) for call in runner.calls]
            assert ran == executed_prefix_oracle(connectors, results), (connectors, results)


def test_comma_chain_runs_all_regardless_of_results():
    runner = RecordingRunner(lambda call: False)  # every action fails
    eng = build(chain_program([",", ",", ",", ","], 5), runner=runner)
    eng.start()
    eng.handle_event(make_event("graph"))
    assert len(runner.calls) == 5


def test_arrow_stops_on_false():
    src = 'rules Graph: true ? False() => alert("never");'
    eng = build(src)
    collected = []
    eng.sink = collected.append
    eng.start()
    eng.handle_event(make_event("graph"))
    assert collected == []


def test_negated_arrow_continues_on_false():
    src = 'rules Graph: true ? False() !> alert("reached");'
    eng = build(src)
    collected = []
    eng.sink = collected.append
    eng.start()
    eng.handle_event(make_event("graph"))
    assert [o.text for o in collected] == ["reached"]


# --- actions ---


def test_set_updates_variable():
    src = "vars: nmsg int = 0;\nrules Graph: true ? set(nmsg, nmsg + 1);"
    eng = build(src)
    eng.start()
    eng.handle_event(make_event("graph"))
    assert eng.variables["nmsg"] == 1
    eng.handle_event(make_event("graph"))
    assert eng.variables["nmsg"] == 2


def test_set_identity_noop():
    src = "vars: x int = 7;\nrules Graph: true ? set(x, x);"
    eng = build(src)
    eng.start()
    eng.handle_event(make_event("graph"))
    assert eng.variables["x"] == 7


def test_alert_queues_in_chain_order():
    src = 'rules Graph: true ? alert("first"), alert("second");'
    eng = build(src)
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert [o.text for o in outcomes] == ["first", "second"]


def test_alert_empty_text():
    eng = build('rules Graph: true ? alert("");')
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert outcomes[0].text == "" and outcomes[0].kind == "alert"


def test_alert_returns_false_when_sink_closed():
    eng = build('rules Graph: true ? alert("x") => alert("y");')
    eng.sink = lambda o: False  # closed sink
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    # First alert delivery failed, so `=>` stopped the chain.
    assert [o.text for o in outcomes] == ["x"]


def test_crash_raises_and_stops_chain():
    src = 'rules Graph: true ? crash("fatal") , alert("after");'
    eng = build(src)
    collected = []
    eng.sink = collected.append
    eng.start()
    with pytest.raises(EngineCrash, match="fatal"):
        eng.handle_event(make_event("graph"))
    assert [o.text for o in collected] == ["fatal"]  # broadcast, no "after"


def test_crash_writes_stderr(capsys):
    eng = build('rules Graph: true ? crash("going down");')
    eng.start()
    with pytest.raises(EngineCrash):
        eng.handle_event(make_event("graph"))
    assert "going down" in capsys.readouterr().err


def test_exec_true_binary():
    from rips.runtime import SubprocessRunner

    eng = build('rules Graph: true ? exec("/bin/true") => alert("ok");', runner=SubprocessRunner(10.0))
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert [o.text for o in outcomes] == ["ok"]


def test_exec_false_binary():
    from rips.runtime import SubprocessRunner

    eng = build('rules Graph: true ? exec("/bin/false") !> alert("failed");', runner=SubprocessRunner(10.0))
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert [o.text for o in outcomes] == ["failed"]


def test_exec_nonexistent_binary_is_false_and_chain_continues():
    from rips.runtime import SubprocessRunner

    eng = build(
        'rules Graph: true ? exec("/nonexistent-binary-xyz") !> alert("spawn failed") , alert("done");',
        runner=SubprocessRunner(10.0),
    )
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert [o.text for o in outcomes] == ["spawn failed", "done"]


def test_exec_passes_argv():
    runner = RecordingRunner()
    eng = build('rules Graph: true ? exec("/bin/echo", "a", string(2), "c");', runner=runner)
    eng.start()
    eng.handle_event(make_event("graph"))
    assert runner.calls == [("exec", "/bin/echo", ("a", "2", "c"))]


# A rule on /go whose child runs ``sleep 30``, and one on /next. The scripts
# exec sleep, so that the child the timeout kills is the sleep itself.
HUNG_CHILD = {
    "script": ('levels: A; B;\nrules Msg: topicin("/go") ? trigger(B);', "transition script failed: B.to"),
    "exec": ('rules Msg: topicin("/go") ? exec("/bin/sleep", "30") !> alert("timed out");', "timed out"),
    "plugin": ('rules Msg: topicin("/go") && !plugin("hung.sh") ? alert("timed out");', "timed out"),
}


@pytest.mark.parametrize("child", sorted(HUNG_CHILD))
def test_a_hung_child_costs_the_timeout_and_no_more(tmp_path, child):
    """Past ``--exec-timeout`` a transition script, an exec or a plugin is
    killed and reaped and reads False, about the timeout after it started,
    and the engine serves the next event."""
    scripts_dir = make_scripts(tmp_path / "scripts", ["A", "B"])
    for hung in (tmp_path / "hung.sh", tmp_path / "scripts" / "B.to"):
        write_script(hung, "exec sleep 30\n")
    source, alert = HUNG_CHILD[child]
    checked = check_source(source + '\n  topicin("/next") ? alert("served");', "hung.rul",
                           scripts_dir=scripts_dir if child == "script" else None, base_dir=str(tmp_path))
    eng = InterpretedEngine(checked, clock=FakeClock(1_000), config=EngineConfig(exec_timeout=0.3))
    eng.start()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = time.monotonic()
        outcomes = eng.handle_event(make_event("message", topic="/go"))
        elapsed = time.monotonic() - started
        gc.collect()
    assert 0.3 <= elapsed < 1.0
    assert alert in [o.text for o in outcomes]
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert [o.text for o in eng.handle_event(make_event("message", topic="/next"))] == ["served"]


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_a_hung_child_takes_what_it_started_with_it(tmp_path):
    """Past the timeout the runner kills the child's whole process group: a
    script that started a background ``sleep`` and waits for it leaves no
    ``sleep`` running."""
    pid_file = tmp_path / "pid"
    write_script(tmp_path / "hung.sh", f"sleep 30 &\necho $! > {pid_file}\nwait\n")
    started = time.monotonic()
    assert SubprocessRunner(0.3).run_exec(str(tmp_path / "hung.sh"), ()) is False
    assert time.monotonic() - started < 1.0
    pid = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_debug_actions_print_and_return(caplog):
    src = 'rules Graph: true ? True(1, "a", 2.5) => False() !> alert("tail");'
    eng = build(src)
    eng.start()
    with caplog.at_level(logging.INFO, logger="rips.engine"):
        outcomes = eng.handle_event(make_event("graph"))
    messages = [r.message for r in caplog.records]
    assert "True: 1" in messages and "True: a" in messages and "True: 2.5" in messages
    assert [o.text for o in outcomes] == ["tail"]  # False() then !> continues


# --- faults ---


def test_division_by_zero_skips_rule_with_diagnostic():
    src = (
        "vars: n int = 0;\n"
        "rules Graph:\n"
        '  1 / (n - n) == 1 ? alert("unreachable");\n'
        "  true ? set(n, n + 1);\n"
    )
    eng = build(src)
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert len(outcomes) == 1
    assert outcomes[0].kind == "alert"
    assert "division by zero" in outcomes[0].text
    assert "test.rul:Graph:0" in outcomes[0].text
    # The loop continued: the second rule still ran.
    assert eng.variables["n"] == 1


def test_fault_in_action_argument_stops_rule_only():
    src = (
        "vars: n int = 0; m int = 0;\n"
        "rules Graph:\n"
        '  true ? set(n, n + 1) , set(n, n / (m - m)) , set(n, 100);\n'
        "  true ? set(m, m + 1);\n"
    )
    eng = build(src)
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert eng.variables["n"] == 1  # first action committed, third never ran
    assert eng.variables["m"] == 1  # next rule unaffected
    assert any("modulo by zero" not in o.text and "division by zero" in o.text for o in outcomes)


# --- evaluation details ---


def test_string_comparison_is_lexicographic():
    src = 'consts: current string = "fff";\nrules Msg: "zzz" > current ? alert("bigger");'
    eng = build(src)
    eng.start()
    outcomes = eng.handle_event(make_event("message", topic="/x", msg_type="a/msg/B"))
    assert [o.text for o in outcomes] == ["bigger"]


def test_curr_level_equals_first_level_at_startup():
    src = "levels: __DEFAULT__; HALT;\nrules Graph: CurrLevel == __DEFAULT__ ? alert(\"at default\");"
    eng = build(src)
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert [o.text for o in outcomes] == ["at default"]


def test_not_true_is_false():
    eng = build('rules Graph: !true ? alert("no");')
    eng.start()
    assert eng.handle_event(make_event("graph")) == []


def test_section_dispatch_graph_vs_msg():
    src = (
        "vars: g int = 0; m int = 0;\n"
        "rules Graph: true ? set(g, g + 1);\n"
        "rules Msg: true ? set(m, m + 1);\n"
        "rules Graph: true ? set(g, g + 10);\n"
    )
    eng = build(src)
    eng.start()
    eng.handle_event(make_event("graph"))
    assert (eng.variables["g"], eng.variables["m"]) == (11, 0)
    eng.handle_event(make_event("message", topic="/t", msg_type="x/msg/Y"))
    assert (eng.variables["g"], eng.variables["m"]) == (11, 1)


@pytest.mark.parametrize("bad", ["ill-typed", "decoder-failure"])
def test_handle_document_skips_a_bad_document(monkeypatch, caplog, bad):
    """Any per-document failure, not only a DecodeError, costs that document
    alone."""
    good = encode_event({"event": "graph", "context": {"nodes": [{"node": "n1"}]}})
    if bad == "ill-typed":
        first = "event: graph\ncontext: {nodes: 5}\ncurrentgrav: abc\n"
    else:
        from rips import runtime

        def decode(text):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(runtime, "decode_event", decode)
        first = good
    eng = build('rules Graph: nodecount(1, 1) ? alert("one node");')
    with caplog.at_level(logging.WARNING, logger="rips.engine"):
        assert eng.handle_document(first) == []
    monkeypatch.undo()
    assert "skipping" in caplog.text
    assert ("decoder bug" in caplog.text) == (bad == "decoder-failure")
    assert [o.text for o in eng.handle_document(good)] == ["one node"]


def test_rules_see_level_changes_within_one_event():
    src = (
        "levels: A; B;\n"
        "rules Graph:\n"
        "  CurrLevel == A ? trigger(B);\n"
        '  CurrLevel == B ? alert("already escalated");\n'
    )
    eng = build(src)
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    assert [o.kind for o in outcomes] == ["levelchange", "alert"]


def test_time_and_uptime_semantics():
    clock = FakeClock(5_000)
    src = "vars: t int = 0; u int = 0;\nrules Graph: t >= 0 && u >= 0 ? set(t, Time) , set(u, Uptime);"
    eng = build(src, clock=clock)
    eng.start()
    clock.advance(300)
    eng.handle_event(make_event("graph"))
    assert eng.variables["t"] == 5_300
    assert eng.variables["u"] == 300
    clock.advance(200)
    eng.handle_event(make_event("graph"))
    assert eng.variables["t"] == 5_500
    assert eng.variables["u"] == 500
    # Time - Uptime is the constant start instant.
    assert eng.variables["t"] - eng.variables["u"] == 5_000


def test_uptime_monotone_under_system_clock():
    from rips.runtime import SystemClock

    src = "vars: u int = 0;\nrules Graph: Uptime >= u ? set(u, Uptime);"
    eng = build(src, clock=SystemClock())
    eng.start()
    last = -1
    for _ in range(5):
        eng.handle_event(make_event("graph"))
        assert eng.variables["u"] >= last
        last = eng.variables["u"]


def test_levelname_runtime_behavior():
    eng = build("levels: A; B; C; D;\nrules Graph: true ? True();")
    eng.start()
    assert eng.levelname(0) == "A"
    assert eng.levelname(3) == "D"
    assert eng.levelname(99) == ""
    assert eng.levelname(-1) == ""


def test_level_variable_can_drift_out_of_range():
    src = (
        "levels: A; B;\n"
        "vars: lv int = B;\n"
        "rules Graph: true ? set(lv, lv + 40) , trigger(lv) !> alert(levelname(lv));\n"
    )
    eng = build(src)
    eng.start()
    outcomes = eng.handle_event(make_event("graph"))
    # trigger(41) fails (out of range), and levelname(41) is the empty string.
    assert [o.text for o in outcomes] == [""]


def test_eval_purity_snapshot():
    src = (
        "levels: A; B;\n"
        "vars: n int = 3; s string = \"abc\"; f float = 1.5; b bool = true;\n"
        "rules Graph:\n"
        "  (n * 7 - 2 > 0) && (s + \"x\" < \"zzz\") && (f / 2.0 < 4.0) && b && levelname(CurrLevel) == \"A\""
        " && string(n) != \"\" ? True();\n"
        "rules Graph: true ? set(n, n) , set(s, s) , set(f, f) , set(b, b);\n"
    )
    checked = check_source(src)
    eng = InterpretedEngine(checked, runner=RecordingRunner(), clock=FakeClock(1_000))
    eng.start()
    rule = checked.rules[SectionKind.GRAPH][0]
    ev = make_event("graph", topics=[{"topic": "/t", "publishers": ["p"], "subscribers": []}])
    before_vars = copy.deepcopy(eng.variables)
    before_level = eng.current
    for _ in range(3):
        assert evaluate(eng, rule.trigger, ev.graph) is True
    assert eng.variables == before_vars
    assert eng.current == before_level


def test_state_machine_safety_under_random_triggers():
    import random

    rng = random.Random(42)
    eng = build(SOFT_PROGRAM)
    eng.start()
    soft = [s for _, s in eng.levels]
    for _ in range(500):
        cur = eng.current
        target = rng.randint(-2, 5)
        changed = eng.act_trigger(target)
        new = eng.current
        if new != cur:
            assert changed
            assert new > cur or (soft[cur] and new == cur - 1)
        else:
            assert 0 <= cur < 4


# --- engine is stateless across events ---


def test_engine_holds_no_graph_between_events():
    src = 'rules Graph: nodecount(1, 10) ? alert("nodes present");'
    eng = build(src)
    eng.start()
    with_nodes = make_event("graph", nodes=[{"node": "a"}])
    without = make_event("graph")
    assert len(eng.handle_event(with_nodes)) == 1
    # The previous event's graph must not linger.
    assert eng.handle_event(without) == []
