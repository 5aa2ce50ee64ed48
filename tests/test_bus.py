"""The socket server: one bad document must not stop later ones, and only
a stale socket at the socket path is replaced."""

from __future__ import annotations

import socket

import pytest

from rips import bus
from rips.bus import SocketServer
from rips.wire import encode_event

GOOD = encode_event({"event": "graph", "context": {"nodes": [{"node": "n1"}], "topics": []}})


def _fail_first_decode(monkeypatch):
    """Any per-document failure, not only a DecodeError."""
    real = bus.decode_event
    calls = []

    def decode(doc):
        calls.append(doc)
        if len(calls) == 1:
            raise RuntimeError("decoder bug")
        return real(doc)

    monkeypatch.setattr(bus, "decode_event", decode)


@pytest.mark.parametrize("bad", ["ill-typed", "decoder-failure"])
def test_reader_survives_a_bad_document(tmp_path, monkeypatch, bad):
    if bad == "ill-typed":
        first = "---\nevent: graph\ncontext: {nodes: 5}\ncurrentgrav: abc\n...\n"
    else:
        _fail_first_decode(monkeypatch)
        first = GOOD
    path = str(tmp_path / "rips.sock")
    server = SocketServer(path)
    server.start()
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.connect(path)
            client.sendall(first.encode())
            client.sendall(GOOD.encode())
            event = server.events.get(timeout=5)
        assert event.graph.node_names == {"n1"}
        assert server.events.empty()
    finally:
        server.stop()


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
