"""The engine loop and the socket server: ``drive`` on a scripted source and
a fake clock, `rips run` over a real Unix socket, and only a stale socket
at the socket path is replaced."""

from __future__ import annotations

import base64
import contextlib
import logging
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

import rips
from rips.bus import SignalCounters, SocketServer, drive, register_signals, serve
from rips.checker import check_source
from rips.errors import EngineCrash
from rips.interpreter import InterpretedEngine
from rips.runtime import EngineConfig, FakeClock
from rips.wire import DocumentStream, decode_outcome, encode_event

from conftest import make_scripts

RULES = """\
levels: LOW; HIGH;
rules Graph:
    CurrLevel == LOW ? trigger(HIGH);
    true ? alert("graph");
rules Msg:
    topicmatches("/crash") ? crash("fatal");
rules External:
    signal("SIGUSR1") ? alert("usr1");
"""

GOOD = encode_event({"event": "graph", "context": {"nodes": [{"node": "n1"}], "topics": []}}).encode()
ILL_TYPED = b"---\nevent: graph\ncontext: {nodes: 5}\ncurrentgrav: abc\n...\n"
CRASH = encode_event({"event": "message", "context": {}, "topic": "/crash", "msgtype": "std_msgs/msg/String",
                      "payload": base64.b64encode(b"x").decode()}).encode()
TIMEOUT = 20.0


MS = 1_000_000


class ScriptedSource:
    """A ``drive`` source on a ``FakeClock``: each ``receive`` records the
    time and the wait it was given, then takes the next step. A step
    ``(after_ns, docs)`` returns ``docs`` ``after_ns`` into the wait, and
    ``(None, [])`` lets the whole wait pass with none; past the last step
    ``receive`` returns None."""

    def __init__(self, clock, steps):
        self.clock = clock
        self.steps = list(steps)
        self.waits: list[tuple[int, int]] = []

    def receive(self, wait_ns):
        self.waits.append((self.clock.now_ns(), wait_ns))
        if not self.steps:
            return None
        after_ns, docs = self.steps.pop(0)
        self.clock.advance(wait_ns if after_ns is None else after_ns)
        return docs


def _recording_engine(calls, handle_ns=0):
    """An engine of ``RULES`` on a fake clock with a 100 ms tick that logs
    ``(time, what)`` for each document and tick; handling a document takes
    ``handle_ns`` of the clock."""
    clock = FakeClock(0)
    engine = InterpretedEngine(check_source(RULES, "drive.rul"), clock=clock,
                               config=EngineConfig(tick_interval=0.1))
    handle, tick = engine.handle_document, engine.tick

    def handle_document(text):
        calls.append((clock.now_ns(), "crash" if "/crash" in text else "doc"))
        clock.advance(handle_ns)
        return handle(text)

    engine.handle_document = handle_document
    engine.tick = lambda: calls.append((clock.now_ns(), "tick")) or tick()
    return engine


def test_drive_runs_a_tick_that_falls_due_mid_batch_after_the_document_that_passes_it():
    calls = []
    engine = _recording_engine(calls, handle_ns=60 * MS)
    source = ScriptedSource(engine.clock, [(0, [GOOD.decode()] * 3)])
    drive(engine, source)
    assert calls == [(0, "doc"), (60 * MS, "doc"), (120 * MS, "tick"), (120 * MS, "doc")]
    assert source.waits == [(0, 100 * MS), (180 * MS, 40 * MS)]


def test_drive_lands_an_idle_wait_on_the_tick_and_sets_the_next_one_interval_after_it():
    """The first wait ends exactly on the tick at 100 ms. The next tick
    falls due at 200 ms; a document at 230 ms passes it, so that tick runs
    at 230 ms and the one after is due at 330 ms."""
    calls = []
    engine = _recording_engine(calls)
    source = ScriptedSource(engine.clock, [(None, []), (50 * MS, [GOOD.decode()]), (80 * MS, [GOOD.decode()]),
                                           (None, [])])
    drive(engine, source)
    assert calls == [(100 * MS, "tick"), (150 * MS, "doc"), (230 * MS, "doc"), (230 * MS, "tick"),
                     (330 * MS, "tick")]
    assert source.waits == [(0, 100 * MS), (100 * MS, 100 * MS), (150 * MS, 50 * MS), (230 * MS, 100 * MS),
                            (330 * MS, 100 * MS)]


def test_drive_ends_when_the_source_returns_none():
    """The engine is started before the first wait, and its outcomes leave
    through its sink."""
    calls, outcomes = [], []
    engine = _recording_engine(calls)
    engine.sink = outcomes.append
    drive(engine, ScriptedSource(engine.clock, [(10 * MS, [GOOD.decode()])]))
    assert calls == [(10 * MS, "doc")]
    assert [(o.kind, o.level, o.text) for o in outcomes] == [("levelchange", "HIGH", ""), ("alert", "HIGH", "graph")]


def test_drive_lets_an_engine_crash_propagate():
    calls = []
    engine = _recording_engine(calls)
    source = ScriptedSource(engine.clock, [(0, [CRASH.decode(), GOOD.decode()]), (None, [])])
    with pytest.raises(EngineCrash, match="fatal"):
        drive(engine, source)
    assert calls == [(0, "crash")]
    assert len(source.waits) == 1


class Monitor:
    """A monitor-side connection that reads the engine's outcomes."""

    def __init__(self, path: str):
        self.sock = _connect(path)
        self.framer = DocumentStream()
        self.pending: list = []

    def outcomes(self, n: int) -> list[tuple[str, str, str]]:
        """The next ``n`` outcomes as (kind, level, text)."""
        while len(self.pending) < n:
            data = self.sock.recv(65536)
            assert data, "the engine closed the connection"
            self.pending += [decode_outcome(doc) for doc in self.framer.feed(data)]
        taken, self.pending = self.pending[:n], self.pending[n:]
        return [(o.kind, o.level, o.text) for o in taken]


def _connect(path: str) -> socket.socket:
    deadline = time.monotonic() + TIMEOUT
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(TIMEOUT)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


@contextlib.contextmanager
def _engine(tmp_path):
    """`rips run` of ``RULES`` on a socket in ``tmp_path``: (process, path)."""
    scripts = make_scripts(tmp_path / "scripts", ["LOW", "HIGH"])
    rules = tmp_path / "serve.rul"
    rules.write_text(RULES)
    path = str(tmp_path / "rips.sock")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    # A shell that ignores SIGINT passes that on; the engine needs the default.
    proc = subprocess.Popen([sys.executable, "-m", "rips", "run", scripts, str(rules), "-s", path, "--tick", "0.05"],
                            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        yield proc, path
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def test_serve_over_a_real_socket(tmp_path):
    with _engine(tmp_path) as (proc, path):
        monitor = Monitor(path)
        monitor.sock.sendall(GOOD)
        assert monitor.outcomes(2) == [("levelchange", "HIGH", ""), ("alert", "HIGH", "graph")]

        # A document that cannot be decoded costs only itself.
        monitor.sock.sendall(GOOD + ILL_TYPED + GOOD)
        assert monitor.outcomes(2) == [("alert", "HIGH", "graph")] * 2

        # One monitor at a time: a second connection is closed, the first
        # still works.
        with _connect(path) as second:
            assert second.recv(1) == b""
        monitor.sock.sendall(GOOD)
        assert monitor.outcomes(1) == [("alert", "HIGH", "graph")]

        # A signal is seen by the External rules on the next tick.
        proc.send_signal(signal.SIGUSR1)
        assert monitor.outcomes(1) == [("alert", "HIGH", "usr1")]
        monitor.sock.sendall(GOOD)
        assert monitor.outcomes(1) == [("alert", "HIGH", "graph")]
        monitor.sock.close()

        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=TIMEOUT) == 0
        assert not os.path.exists(path)


def test_deep_and_aliased_documents_cost_only_themselves(tmp_path):
    """One line of 50,000 nested block sequences, and a document that
    aliases a node: each is dropped, and the engine answers the documents
    after them, the last of which ends it."""
    deep = b"---\nevent: graph\ncontext:\n  " + b"- " * 50_000 + b"x\n...\n"
    aliased = b"---\nevent: graph\ncontext:\n  nodes:\n  - &n\n    node: n1\n  - *n\n...\n"
    with _engine(tmp_path) as (proc, path):
        monitor = Monitor(path)
        monitor.sock.sendall(deep + aliased + GOOD + CRASH)
        assert monitor.outcomes(3) == [("levelchange", "HIGH", ""), ("alert", "HIGH", "graph"),
                                       ("alert", "HIGH", "fatal")]
        assert proc.wait(timeout=TIMEOUT) == 3
        monitor.sock.close()


def test_serve_exits_3_on_a_crash_action(tmp_path):
    """The crash alert, and the outcomes the monitor had not read before
    it, stay readable after the engine exits."""
    with _engine(tmp_path) as (proc, path):
        monitor = Monitor(path)
        monitor.sock.sendall(GOOD * 50 + CRASH)
        assert proc.wait(timeout=TIMEOUT) == 3
        assert monitor.outcomes(52) == ([("levelchange", "HIGH", "")] + [("alert", "HIGH", "graph")] * 50
                                        + [("alert", "HIGH", "fatal")])
        assert monitor.sock.recv(1) == b""
        monitor.sock.close()


class _OneDocumentServer:
    """A ``serve`` server stub: ``receive`` hands over one document, then
    ends the loop."""

    path = "stub.sock"

    def __init__(self, doc):
        self.docs = [doc]
        self.sent: list[bytes] = []

    def start(self):
        pass

    def stop(self):
        pass

    def send(self, data):
        self.sent.append(data)

    def receive(self, wait_ns):
        return [self.docs.pop()] if self.docs else None


def test_serve_writes_a_crash_once_to_stderr(capsys, caplog):
    """The crash action prints its text; serve returns 3 and logs nothing."""
    server = _OneDocumentServer(CRASH.decode())
    previous = {sig: signal.getsignal(sig) for sig in (signal.SIGUSR1, signal.SIGUSR2)}
    try:
        assert serve(InterpretedEngine(check_source(RULES, "crash.rul")), server) == 3
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    assert [decode_outcome(data.decode()).text for data in server.sent] == ["fatal"]
    assert capsys.readouterr().err == "fatal\n"
    assert caplog.records == []


def test_a_monitor_that_stops_reading_is_dropped(tmp_path):
    """A monitor that sends one-alert events and never reads its outcomes
    is dropped once its socket's send buffer is full; the loop goes on
    ticking and serves the next monitor."""
    with _engine(tmp_path) as (proc, path):
        with _connect(path) as stalled, pytest.raises((BrokenPipeError, ConnectionResetError)):
            for _ in range(100_000):
                stalled.sendall(GOOD * 16)
        monitor = Monitor(path)
        monitor.sock.sendall(GOOD)
        assert monitor.outcomes(1) == [("alert", "HIGH", "graph")]
        proc.send_signal(signal.SIGUSR1)
        assert monitor.outcomes(1) == [("alert", "HIGH", "usr1")]
        monitor.sock.close()
        assert proc.poll() is None


def test_an_outcome_the_socket_does_not_take_drops_the_monitor(tmp_path, caplog):
    """Outcomes go out whole and in order while the monitor's socket takes
    them. The first one it does not take whole drops the monitor with one
    warning, and what the socket took stays readable after that; with no
    monitor, send is False."""
    previous = socket.getdefaulttimeout()
    socket.setdefaulttimeout(TIMEOUT)  # a blocking write fails rather than hangs
    server = SocketServer(str(tmp_path / "rips.sock"))
    try:
        server.start()
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(server.path)
            server.receive(int(TIMEOUT * 1e9))
            taken = bytearray()
            with caplog.at_level(logging.WARNING, logger="rips.bus"):
                for i in range(100_000):
                    chunk = b"%08d" % i * 125
                    if not server.send(chunk):
                        break
                    taken += chunk
            (record,) = caplog.records
            assert "unsent outcome bytes" in record.getMessage()
            assert taken
            assert not server.send(b"x")
            received = bytearray()
            while data := client.recv(1 << 20):
                received += data
            assert received.startswith(taken)
            assert len(received) < len(taken) + len(chunk)
    finally:
        server.stop()
        socket.setdefaulttimeout(previous)


def test_repeated_signals_are_each_seen_once():
    counters = SignalCounters()
    previous = {sig: signal.getsignal(sig) for sig in (signal.SIGUSR1, signal.SIGUSR2)}
    register_signals(counters)
    try:
        for _ in range(3):
            signal.raise_signal(signal.SIGUSR1)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    assert [counters.consume("SIGUSR1") for _ in range(4)] == [True, True, True, False]
    assert not counters.consume("SIGUSR2")


def test_start_leaves_a_regular_file_at_the_socket_path(tmp_path):
    path = tmp_path / "rules.rul"
    path.write_text("keep me\n")
    server = SocketServer(str(path))
    with pytest.raises(FileExistsError, match="rules.rul"):
        server.start()
    server.stop()
    assert path.read_text() == "keep me\n"


def test_start_replaces_a_stale_socket(tmp_path):
    path = str(tmp_path / "rips.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as stale:
        stale.bind(path)
    server = SocketServer(path)
    server.start()
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(path)
    finally:
        server.stop()
