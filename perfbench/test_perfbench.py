"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the root."""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import threading
import time

import pytest
import yaml

import run
from corpus import PROBE_TOPIC, WORKLOADS, Corpus, write_engine_files
from loadgen import Session
from reference import count_failures, reference_outcomes

from rips.checker import check_file
from rips.wire import DocumentStream, Outcome, decode_event, encode_outcome


def _docs(workload, seed, n=300):
    corpus = Corpus(workload, seed)
    return [corpus[i].doc for i in range(n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    w = WORKLOADS[name]
    assert _docs(w, 1) == _docs(w, 1)
    assert _docs(w, 1) != _docs(w, 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_documents_follow_the_monitor_schema(name):
    corpus = Corpus(WORKLOADS[name], 3)
    framer = DocumentStream()
    probes = 0
    for i in range(300):
        ev = corpus[i]
        (text,) = framer.feed(ev.doc)
        mapping = yaml.load(text, Loader=yaml.CSafeLoader)
        for node in mapping["context"]["nodes"]:
            assert all(isinstance(g, str) for g in node["gids"])
        event = decode_event(text)
        assert event.kind == ev.kind
        assert (event.topic == PROBE_TOPIC) == bool(ev.probe)
        if ev.probe:
            probes += 1
            assert ev.probe == probes


class _Alive:
    def alive(self) -> bool:
        return True


def _session(tmp_path, serve):
    """A Session connected to ``serve(conn)`` running on a thread."""
    path = str(tmp_path / "fake.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)

    def accept():
        conn, _ = listener.accept()
        try:
            serve(conn)
        finally:
            conn.close()

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    sock.connect(path)
    return sock, thread, listener


def _answer_probes(conn, stall_s):
    """A fake engine: stalls without reading, then answers every probe."""
    time.sleep(stall_s)
    framer = DocumentStream()
    n = 0
    conn.settimeout(2.0)
    while True:
        try:
            data = conn.recv(65536)
        except OSError:
            return
        if not data:
            return
        for text in framer.feed(data):
            if decode_event(text).topic == PROBE_TOPIC:
                n += 1
                conn.sendall(encode_outcome(Outcome("alert", "", 0, 0.0, f"probe {n}", 0)).encode())


def test_latency_counts_from_the_due_time(tmp_path):
    stall = 0.4
    corpus = Corpus(WORKLOADS["churn"], 5)
    sock, thread, listener = _session(tmp_path, lambda conn: _answer_probes(conn, stall))
    session = Session(sock, corpus, _Alive())
    try:
        phase = session.open_loop(rate=100.0, seconds=1.0)
    finally:
        session.close()
        thread.join(5)
        listener.close()
    assert not thread.is_alive()
    assert phase.t_last_ack is not None
    lat = run.probe_latencies_ms(phase, session.received(), corpus)
    assert lat and all(x < float("inf") for x in lat)
    # The stall shows in the result...
    assert max(lat) >= stall * 1e3 * 0.75
    # ...also for probes the blocked generator could only send late.
    probes = [i for i in phase.due if corpus[i].probe]
    late = [(phase.sent[i] - phase.due[i]) * 1e3 for i in probes]
    assert max(late) > 100
    assert all(x >= lag for x, lag in zip(lat, late))


def _next_probe(corpus, i):
    while not corpus[i].probe:
        i += 1
    return i


def test_failure_accounting():
    corpus = Corpus(WORKLOADS["churn"], 1)
    n = _next_probe(corpus, 30) + 1
    expected = [[("x", "", 0.0, str(i))] if i % 3 == 0 else [] for i in range(n)]
    for i in range(n):
        if corpus[i].probe:
            expected[i].append(("alert", "", 0.0, f"probe {corpus[i].probe}"))
    flat = [o for outs in expected for o in outs]
    assert count_failures(corpus, expected, flat, n) == 0
    wrong = [o if o[3] != "0" else ("x", "", 0.0, "wrong") for o in flat]
    assert count_failures(corpus, expected, wrong, n) == 1
    missing = [o for o in flat if o[3] != "0"]
    assert count_failures(corpus, expected, missing, n) == 1
    extra = [("x", "", 0.0, "extra"), *flat]
    assert count_failures(corpus, expected, extra, n) == 1
    # An engine that stops answering: everything after its last answer fails.
    cut = _next_probe(corpus, 5)
    answered = [o for i in range(cut + 1) for o in expected[i]]
    assert count_failures(corpus, expected, answered, n) == n - cut - 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_both_engines_match_the_reference(tmp_path, name):
    workload = WORKLOADS[name]
    run_dir = str(tmp_path)
    files = write_engine_files(workload, run_dir)
    checked = check_file(files["rules"], files["scripts"])
    corpus = Corpus(workload, 11)
    env = dict(os.environ, PYTHONPATH=run.SRC)
    for mode in run.ENGINES:
        proc, sock, _ = run.start_engine(mode, files, run_dir, env)
        session = Session(sock, corpus, proc)
        try:
            assert session.warm_up()
            assert session.saturate(50).t_last_ack is not None
            assert session.open_loop(workload.offered_eps, 0.3).t_last_ack is not None
        finally:
            session.close()
            proc.stop()
        received = [key for _t, key in session.received()]
        expected = reference_outcomes(checked, corpus, session.next)
        assert received == [o for outs in expected for o in outs]
        assert count_failures(corpus, expected, received, session.next) == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
