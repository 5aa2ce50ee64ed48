"""Wire endpoint: the Unix-domain socket server, signal counters and the
serving loop that drives an engine.

One loop on one thread does all of it. It waits in one ``selectors`` call
on the listener and the monitor connection until input arrives or the next
External tick is due, accepts one monitor at a time (extra connection
attempts are closed immediately), frames what arrived into YAML documents,
hands each to ``Engine.handle_document``, runs a due tick after each event
and writes outcome documents back. Backpressure on input is the kernel's
socket buffer: the loop reads no faster than it handles.

Outcomes are written without blocking, and the kernel's send buffer is the
only outbound queue. A monitor that stops reading thus cannot stop the
loop: when its socket does not take the whole of an outcome, the monitor is
dropped with one warning, and the loop goes on ticking and accepts the next
monitor. What the socket took before stays readable by the monitor after
the engine closes it, on a drop and on exit alike.
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


class SignalCounters:
    """Delivery counters for SIGUSR1/SIGUSR2: a signal is pending while it
    was delivered more often than a signal() evaluation consumed it, so
    repeated signals are not lost. Handlers run on the main thread, as does
    ``consume``, and each writes only its own count, so no lock is needed.
    """

    def __init__(self):
        self.delivered = {"SIGUSR1": 0, "SIGUSR2": 0}
        self.consumed = {"SIGUSR1": 0, "SIGUSR2": 0}

    def deliver(self, name: str) -> None:
        self.delivered[name] += 1

    def consume(self, name: str) -> bool:
        if self.delivered[name] > self.consumed[name]:
            self.consumed[name] += 1
            return True
        return False


def register_signals(counters: SignalCounters) -> None:
    """Install SIGUSR1/SIGUSR2 handlers that feed the counters."""
    signal_module.signal(signal_module.SIGUSR1, lambda *_: counters.deliver("SIGUSR1"))
    signal_module.signal(signal_module.SIGUSR2, lambda *_: counters.deliver("SIGUSR2"))


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

    def receive(self, timeout: float) -> list[str]:
        """Wait up to ``timeout`` seconds for the listener or the monitor;
        return the documents completed by what the monitor sent, often
        none."""
        docs: list[str] = []
        for key, _ in self._selector.select(timeout):
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


def serve(engine, server: SocketServer) -> int:
    """Run the engine loop over a socket until interrupted or crashed.

    Returns the intended process exit status (0 on SIGINT, 1 if the socket
    cannot be opened, 3 on a crash action).
    """
    register_signals(engine.counters)
    engine.sink = lambda outcome: server.send(encode_outcome(outcome).encode("utf-8"))
    try:
        server.start()
    except OSError as exc:
        log.error("cannot listen on %s: %s", server.path, exc)
        return 1
    engine.start()
    tick_ns = int(engine.config.tick_interval * 1e9)
    next_tick = engine.clock.now_ns() + tick_ns
    try:
        while True:
            docs = server.receive(max(0.0, (next_tick - engine.clock.now_ns()) / 1e9))
            # A due tick runs after each event, or after a wait with none.
            for doc in docs or [None]:
                if doc is not None:
                    engine.handle_document(doc)
                now = engine.clock.now_ns()
                if now >= next_tick:
                    engine.tick()
                    next_tick = now + tick_ns
    except EngineCrash as crash:
        log.critical("engine crashed: %s", crash.text)
        return 3
    except KeyboardInterrupt:
        return 0
    finally:
        server.stop()
