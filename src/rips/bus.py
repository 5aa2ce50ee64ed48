"""The engine loop, ``drive``, and its socket source: ``SocketServer``,
which ``serve`` drives, and the signal counters.

``drive`` runs on one thread. It asks its source for the documents that
arrive before the next External tick is due, hands each to
``Engine.handle_document``, and runs a due tick after each document or
after a wait that brought none. ``SocketServer`` is one source, the
scenario simulator the other. It waits in one ``selectors`` call on the
listener and the monitor connection, accepts one monitor at a time (extra
connection attempts are closed immediately) and frames what arrived into
YAML documents. Backpressure on input is the kernel's socket buffer: the
loop reads no faster than it handles.

Outcomes leave through the engine's sink, which ``serve`` points at the
socket, without blocking; the kernel's send buffer is the only outbound
queue. A monitor that stops reading thus cannot stop the loop: when its
socket does not take the whole of an outcome, the monitor is dropped with
one warning, and the loop goes on ticking and accepts the next monitor.
What the socket took before stays readable by the monitor after the
engine closes it, on a drop and on exit alike.
"""

from __future__ import annotations

import errno
import logging
import os
import selectors
import signal as signal_module
import socket
import stat

from .errors import EngineCrash
from .wire import DocumentStream, encode_outcome

log = logging.getLogger("rips.bus")

# The signals a rule's signal() can name.
SIGNALS = ("SIGUSR1", "SIGUSR2")


class SignalCounters:
    """Delivery counters for ``SIGNALS``: a signal is pending while it
    was delivered more often than a signal() evaluation consumed it, so
    repeated signals are not lost. Handlers run on the main thread, as does
    ``consume``, and each writes only its own count, so no lock is needed.
    """

    def __init__(self):
        self.delivered = dict.fromkeys(SIGNALS, 0)
        self.consumed = dict.fromkeys(SIGNALS, 0)

    def deliver(self, name: str) -> None:
        self.delivered[name] += 1

    def consume(self, name: str) -> bool:
        if self.delivered[name] > self.consumed[name]:
            self.consumed[name] += 1
            return True
        return False


def register_signals(counters: SignalCounters) -> None:
    """Install handlers for ``SIGNALS`` that feed the counters."""
    for name in SIGNALS:
        signal_module.signal(getattr(signal_module, name), lambda *_, name=name: counters.deliver(name))


class SocketServer:
    """Listens on a Unix-domain stream socket for one monitor at a time."""

    def __init__(self, path: str):
        self.path = path
        self._listener: socket.socket | None = None
        self._conn: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._framer = DocumentStream()

    def start(self) -> None:
        """Listen on ``path``, replacing a stale socket there; any other file
        at ``path`` is left alone and raises ``FileExistsError``."""
        try:
            mode = os.lstat(self.path).st_mode
        except FileNotFoundError:
            pass
        else:
            if not stat.S_ISSOCK(mode):
                raise FileExistsError(errno.EEXIST, "exists and is not a socket", self.path)
            os.unlink(self.path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.path)
        listener.listen(1)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._selector is not None:
            self._selector.close()
            self._selector = None
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def send(self, data: bytes) -> bool:
        """Write outbound bytes to the connected monitor without blocking;
        False if there is no monitor, or if its socket did not take all of
        them, which drops the monitor."""
        if self._conn is None:
            return False
        try:
            sent = self._conn.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            return False
        if sent == len(data):
            return True
        log.warning("monitor stopped reading; dropping it and %d unsent outcome bytes",
                    len(data) - sent)
        self._disconnect()
        return False

    def receive(self, wait_ns: int) -> list[str]:
        """Wait up to ``wait_ns`` nanoseconds for the listener or the
        monitor; return the documents completed by what the monitor sent,
        often none."""
        docs: list[str] = []
        for key, _ in self._selector.select(wait_ns / 1e9):
            if key.fileobj is self._listener:
                self._accept()
            else:
                docs += self._read()
        return docs

    def _accept(self) -> None:
        try:
            conn, _addr = self._listener.accept()
        except OSError as exc:
            log.warning("cannot accept a monitor connection: %s", exc)
            return
        if self._conn is not None:
            # One monitor at a time; refuse the newcomer.
            log.warning("rejecting concurrent monitor connection")
            conn.close()
            return
        conn.setblocking(False)
        self._conn = conn
        self._selector.register(conn, selectors.EVENT_READ)

    def _read(self) -> list[str]:
        try:
            data = self._conn.recv(65536)
        except OSError:
            data = b""
        if data:
            return self._framer.feed(data)
        # The monitor went away; a partial document goes with it.
        self._disconnect()
        return []

    def _disconnect(self) -> None:
        self._framer.close()
        self._selector.unregister(self._conn)
        self._conn.close()
        self._conn = None


def drive(engine, source) -> None:
    """Run ``engine`` on the documents of ``source`` until the source ends.

    ``source.receive(wait_ns)`` waits at most ``wait_ns`` nanoseconds of the
    engine's clock, until the next tick is due, and returns the documents
    that arrived, or None to end the loop. A due tick runs after each
    document, or after a wait that returned none; the next one is due one
    interval after it ran. An ``EngineCrash`` or ``KeyboardInterrupt``
    propagates.
    """
    clock = engine.clock
    engine.start()
    tick_ns = max(1, int(engine.config.tick_interval * 1e9))
    next_tick = clock.now_ns() + tick_ns
    while (docs := source.receive(max(0, next_tick - clock.now_ns()))) is not None:
        for doc in docs or [None]:
            if doc is not None:
                engine.handle_document(doc)
            now = clock.now_ns()
            if now >= next_tick:
                engine.tick()
                next_tick = now + tick_ns


def serve(engine, server: SocketServer) -> int:
    """Drive the engine from a socket until interrupted or crashed.

    Returns the intended process exit status (0 on SIGINT, 1 if the socket
    cannot be opened, 3 on a crash action, which has written its text to
    stderr).
    """
    register_signals(engine.counters)
    engine.sink = lambda outcome: server.send(encode_outcome(outcome).encode("utf-8"))
    try:
        server.start()
    except OSError as exc:
        log.error("cannot listen on %s: %s", server.path, exc)
        return 1
    try:
        drive(engine, server)
    except EngineCrash:
        return 3
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0
