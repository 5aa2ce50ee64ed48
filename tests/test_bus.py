"""The socket server and the serving loop: `rips run` over a real Unix
socket, and only a stale socket at the socket path is replaced."""

from __future__ import annotations

import base64
import contextlib
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

import rips
from rips.bus import SignalCounters, SocketServer, register_signals
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
    with _engine(tmp_path) as (proc, path):
        monitor = Monitor(path)
        monitor.sock.sendall(CRASH)
        assert monitor.outcomes(1) == [("alert", "LOW", "fatal")]
        assert proc.wait(timeout=TIMEOUT) == 3
        monitor.sock.close()


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
