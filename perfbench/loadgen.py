"""Socket-level load generator: starts a real engine process and drives it
over its Unix socket from this process.

One connection, one sender thread and one receiver thread. The receiver
only timestamps raw chunks; outcomes are framed and parsed after the run,
so parsing never delays a timestamp. Latency comes from probes: events are
handled in order on one connection, so the k-th probe alert answers the
k-th probe sent, and its latency is timed from when the probe was due.
"""

from __future__ import annotations

import math
import os
import re
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field

from rips.wire import DocumentStream, decode_outcome

_PROBE_ALERT = re.compile(rb"\ntext: probe (\d+)\n")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

WARMUP_EVENTS = 20
ACK_TIMEOUT_S = 15.0
SEND_TIMEOUT_S = 30.0


class EngineDied(RuntimeError):
    pass


def now() -> float:
    return time.perf_counter()


class EngineProc:
    """A spawned engine process."""

    def __init__(self, argv: list[str], env: dict, log_path: str):
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        self.pid = self.proc.pid
        self.status: int | None = None

    def _reap(self, flags: int) -> bool:
        pid, status = os.waitpid(self.pid, flags)
        if pid == 0:
            return False
        self.status = status
        self.proc.returncode = os.waitstatus_to_exitcode(status)  # keep Popen from reaping again
        return True

    def alive(self) -> bool:
        return self.status is None and not self._reap(os.WNOHANG)

    def cpu_s(self) -> float:
        """User+sys CPU time so far, from /proc (clock-tick resolution)."""
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Peak resident set size so far (VmHWM). Unlike ``ru_maxrss`` it
        does not inherit the spawning process's size across fork and exec."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return math.inf

    def stop(self, graceful: bool = True, timeout: float = 5.0) -> None:
        if self.status is not None:
            return
        self.proc.send_signal(signal.SIGINT if graceful else signal.SIGKILL)
        deadline = now() + timeout
        while not self._reap(os.WNOHANG):
            if now() > deadline:
                self.proc.kill()
                self._reap(0)
                return
            time.sleep(0.005)


def spawn_until_accepting(argv, env, sock_path: str, log_path: str, timeout: float = 60.0):
    """Spawn an engine and connect to its socket as soon as it accepts;
    returns (process, connected socket)."""
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    t0 = now()
    proc = EngineProc(argv, env, log_path)
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(sock_path)
            return proc, sock
        except (FileNotFoundError, ConnectionRefusedError):
            sock.close()
        if not proc.alive() or now() - t0 > timeout:
            proc.stop(graceful=False)
            raise EngineDied(f"engine {argv[1:3]} did not accept on {sock_path}; see {log_path}")
        time.sleep(0.002)


@dataclass
class Phase:
    first: int  # index of the first event sent in the phase
    end: int = 0  # one past the last event sent
    t_start: float = 0.0
    t_last_ack: float | None = None
    due: dict[int, float] = field(default_factory=dict)  # event index -> due time (open loop)
    sent: dict[int, float] = field(default_factory=dict)  # event index -> time its send began

    @property
    def events(self) -> int:
        return self.end - self.first


class Session:
    """One monitor connection to a running engine."""

    def __init__(self, sock: socket.socket, corpus, proc: EngineProc):
        self.sock = sock
        self.corpus = corpus
        self.proc = proc
        self.next = 0  # next corpus index to send
        self.chunks: list[tuple[float, bytes]] = []
        self.acked = 0  # highest probe number seen in the stream so far
        self.ack_time: dict[int, float] = {}
        self._scanned = 0
        self._tail = b""
        self._abort = threading.Event()
        self._closed = threading.Event()
        sock.settimeout(0.2)
        self._rx = threading.Thread(target=self._receive, name="bench-receiver", daemon=True)
        self._rx.start()

    # --- threads ---

    def _receive(self) -> None:
        while not self._closed.is_set():
            try:
                data = self.sock.recv(1 << 18)
            except socket.timeout:
                continue
            except OSError:
                return
            if not data:
                return
            self.chunks.append((now(), data))

    def _send(self, data: bytes) -> bool:
        view = memoryview(data)
        while view:
            if self._abort.is_set():
                return False
            try:
                view = view[self.sock.send(view):]
            except socket.timeout:
                continue
            except OSError:
                return False
        return True

    def _send_event(self) -> bool:
        ok = self._send(self.corpus[self.next].doc)
        if ok:
            self.next += 1
        return ok

    # --- acknowledgements ---

    def _scan(self) -> None:
        chunks = self.chunks
        while self._scanned < len(chunks):
            t, data = chunks[self._scanned]
            self._scanned += 1
            buf = self._tail + data
            for m in _PROBE_ALERT.finditer(buf):
                n = int(m.group(1))
                if n > self.acked:
                    self.acked = n
                    self.ack_time[n] = t
            self._tail = buf[-32:]

    def wait_ack(self, probe: int, deadline: float) -> float | None:
        """Wait until probe ``probe`` is answered; its arrival time or None."""
        while True:
            self._scan()
            if self.acked >= probe:
                return self.ack_time.get(probe)
            if now() > deadline or not self.proc.alive():
                return None
            time.sleep(0.005)

    def _last_probe(self) -> int:
        return self.corpus[self.next - 1].probe

    def _run_sender(self, target, deadline: float) -> bool:
        """Run ``target`` on the sender thread; False if it had to be
        abandoned because the deadline passed or the engine died."""
        sender = threading.Thread(target=target, name="bench-sender", daemon=True)
        sender.start()
        while sender.is_alive() and now() < deadline and self.proc.alive():
            sender.join(0.05)
        if sender.is_alive():
            self._abort.set()
            sender.join()
            return False
        return not self._abort.is_set()

    # --- phases ---

    def warm_up(self) -> bool:
        """Send a few events, ending on a probe, and wait for the answer."""

        def send():
            while self.next < WARMUP_EVENTS or not self._last_probe():
                if not self._send_event():
                    return

        ok = self._run_sender(send, now() + ACK_TIMEOUT_S)
        return ok and self.wait_ack(self._last_probe(), now() + ACK_TIMEOUT_S) is not None

    def saturate(self, events: int) -> Phase:
        """Send ``events`` events, then up to the next probe, as fast as
        backpressure allows; the phase ends when that probe is answered."""
        phase = Phase(first=self.next)

        def send():
            while self.next < phase.first + events or not self._last_probe():
                if not self._send_event():
                    return

        phase.t_start = now()
        if self._run_sender(send, phase.t_start + SEND_TIMEOUT_S):
            phase.t_last_ack = self.wait_ack(self._last_probe(), now() + ACK_TIMEOUT_S)
        phase.end = self.next
        return phase

    def open_loop(self, rate: float, seconds: float) -> Phase:
        """Send on a fixed schedule of ``rate`` events/s for ``seconds``,
        then up to the next probe, whatever the engine's pace."""
        phase = Phase(first=self.next)
        phase.t_start = now() + 0.05
        interval = 1.0 / rate

        def send():
            j = 0
            while j * interval < seconds or not self._last_probe():
                due = phase.t_start + j * interval
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                phase.due[self.next] = due
                phase.sent[self.next] = now()
                if not self._send_event():
                    return
                j += 1

        if self._run_sender(send, phase.t_start + seconds + ACK_TIMEOUT_S):
            phase.t_last_ack = self.wait_ack(self._last_probe(), now() + ACK_TIMEOUT_S)
        phase.end = self.next
        return phase

    def close(self) -> None:
        self._abort.set()
        self._closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._rx.join()
        self.sock.close()

    def received(self) -> list[tuple[float, tuple]]:
        """Frame and parse the outcome stream: (arrival time, outcome key)."""
        framer = DocumentStream()
        out = []
        for t, data in self.chunks:
            for doc in framer.feed(data):
                o = decode_outcome(doc)
                out.append((t, (o.kind, o.level, o.gravity, o.text)))
        return out
