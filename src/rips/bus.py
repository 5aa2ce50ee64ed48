"""Wire endpoint: the Unix-domain socket server, signal counters and the
serving loop that drives an engine.

The reader thread owns the socket: it accepts one monitor connection at a
time (extra connection attempts are closed immediately), frames the byte
stream into YAML documents, decodes them and pushes events onto a bounded
queue. The main loop drains the queue, dispatches rules, runs the periodic
External pass and writes outcome documents back over the same connection.
"""

from __future__ import annotations

import errno
import logging
import os
import queue
import selectors
import signal as signal_module
import socket
import stat
import threading

from .errors import EngineCrash
from .wire import DecodeError, DocumentStream, decode_event, encode_outcome

log = logging.getLogger("rips.bus")

# Inbound events waiting for the main loop; a full queue stalls the reader.
QUEUE_MAX = 1024


class SignalCounters:
    """Pending-delivery counters for SIGUSR1/SIGUSR2.

    Deliveries increment; a successful signal() evaluation decrements, so
    repeated signals are not lost. Counters never go negative.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {"SIGUSR1": 0, "SIGUSR2": 0}
        self.consumed = {"SIGUSR1": 0, "SIGUSR2": 0}

    def deliver(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    def consume(self, name: str) -> bool:
        with self._lock:
            if self._counts[name] > 0:
                self._counts[name] -= 1
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
        self.events: queue.Queue = queue.Queue(maxsize=QUEUE_MAX)
        self._listener: socket.socket | None = None
        self._conn: socket.socket | None = None
        self._conn_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()

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
        self._thread = threading.Thread(target=self._read_loop, name="rips-socket-reader", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
                self._conn = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def send(self, data: bytes) -> bool:
        """Write outbound bytes to the connected monitor; False if none."""
        with self._conn_lock:
            conn = self._conn
            if conn is None:
                return False
            try:
                conn.sendall(data)
                return True
            except OSError:
                return False

    def _read_loop(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, "listener")
        framer = DocumentStream()
        while not self._stopping.is_set():
            try:
                ready = sel.select(timeout=0.2)
            except OSError:
                break
            for key, _ in ready:
                if key.data == "listener":
                    try:
                        conn, _addr = self._listener.accept()
                    except OSError:
                        return
                    with self._conn_lock:
                        if self._conn is not None:
                            # One monitor at a time; refuse the newcomer.
                            log.warning("rejecting concurrent monitor connection")
                            conn.close()
                            continue
                        self._conn = conn
                    framer = DocumentStream()
                    sel.register(conn, selectors.EVENT_READ, "conn")
                else:
                    conn = key.fileobj
                    try:
                        data = conn.recv(65536)
                    except OSError:
                        data = b""
                    if not data:
                        sel.unregister(conn)
                        framer.close()
                        with self._conn_lock:
                            if self._conn is conn:
                                self._conn = None
                        conn.close()
                        continue
                    for doc in framer.feed(data):
                        try:
                            event = decode_event(doc)
                        except DecodeError as exc:
                            log.warning("skipping malformed event: %s", exc)
                            continue
                        except Exception:  # noqa: BLE001 - one document must not kill the reader
                            log.exception("skipping event that failed to decode")
                            continue
                        self.events.put(event)  # blocks when full: backpressure


def serve(engine, server: SocketServer, *, handle_signals: bool = True) -> int:
    """Run the engine main loop over a socket until stopped or crashed.

    Returns the intended process exit status (0 on clean stop, 1 if the
    socket cannot be opened, 3 on a crash action).
    """
    if handle_signals:
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
            timeout = max(0.0, (next_tick - engine.clock.now_ns()) / 1e9)
            try:
                event = server.events.get(timeout=timeout)
            except queue.Empty:
                event = None
            if event is not None:
                engine.handle_event(event)
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
