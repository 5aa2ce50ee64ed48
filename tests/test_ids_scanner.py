"""The IDS alert scan: cached per file, yet always the answer of a fresh read."""

from __future__ import annotations

import fnmatch
import io
import itertools
import logging
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from rips import predicates
from rips.predicates import IdsAlertScanner

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Modification times a second apart, long past: each write gets its own,
# as it would from a clock finer than the writes, and none is recent.
_PAST_NS = itertools.count(1_000_000_000 * 10**9, 10**9)


def fresh_read(directory: str, needle: str, pattern: str = "alert*") -> bool:
    """The scan without state: every matching regular file read in text
    mode, UTF-8 with ``errors="replace"`` and universal newlines."""
    for root, _dirs, names in os.walk(directory):
        for name in sorted(names):
            path = os.path.join(root, name)
            if fnmatch.fnmatch(name, pattern) and stat.S_ISREG(os.stat(path).st_mode):
                with open(path, encoding="utf-8", errors="replace") as fh:
                    if needle in fh.read():
                        return True
    return False


def stamped(path) -> None:
    t = next(_PAST_NS)
    os.utime(path, ns=(t, t))


def write(path, data: bytes, mode: str = "wb") -> None:
    with open(path, mode) as fh:
        fh.write(data)
    stamped(path)


def append(path, data: bytes) -> None:
    write(path, data, "ab")


def count_opens(monkeypatch) -> list:
    opened = []
    real_open = os.open
    monkeypatch.setattr(predicates.os, "open", lambda path, flags: opened.append(path) or real_open(path, flags))
    return opened


def test_an_unchanged_file_is_not_read_again(tmp_path, monkeypatch):
    log_file = tmp_path / "alert.log"
    write(log_file, b"x" * 10_000)
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    opened = count_opens(monkeypatch)
    for _ in range(3):
        assert not scanner.search("NEEDLE")
    assert len(opened) == 1
    append(log_file, b" NEEDLE\n")
    for _ in range(3):
        assert scanner.search("NEEDLE")
    assert len(opened) == 2


def test_needle_split_across_appends(tmp_path):
    log_file = tmp_path / "alert.log"
    write(log_file, b"[**] ET SCAN NEE")
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert not scanner.search("NEEDLE")
    append(log_file, b"DLE [**]\n")
    assert scanner.search("NEEDLE")


def test_crlf_reads_as_newline_even_when_split(tmp_path):
    log_file = tmp_path / "alert.log"
    write(log_file, b"one\r")
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert scanner.search("one\n")  # a trailing CR reads as a newline
    append(log_file, b"\ntwo\r\n")
    for needle, expected in (("one\ntwo\n", True), ("one\n\n", False), ("\r", False)):
        assert fresh_read(str(tmp_path), needle) is expected
        assert scanner.search(needle) is expected


def test_multibyte_character_split_across_appends(tmp_path):
    log_file = tmp_path / "alert.log"
    write(log_file, b"caf\xc3")
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert scanner.search("caf\ufffd")  # what a read sees now: a cut sequence
    assert not scanner.search("café")
    append(log_file, b"\xa9 ok\n")
    assert scanner.search("café ok")
    assert not scanner.search("\ufffd")


def test_rotation_is_a_new_file(tmp_path):
    log_file = tmp_path / "alert.log"
    write(log_file, b"NEEDLE\n")
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert scanner.search("NEEDLE")
    os.rename(log_file, tmp_path / "alert.log.1")  # still matches: its hit stays
    write(log_file, b"quiet\n")
    assert scanner.search("NEEDLE")
    os.rename(tmp_path / "alert.log.1", tmp_path / "old.1")
    assert not scanner.search("NEEDLE")
    assert scanner.search("quiet")


def test_truncation_clears_a_hit(tmp_path):
    log_file = tmp_path / "alert.log"
    write(log_file, b"NEEDLE\n")
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert scanner.search("NEEDLE")
    os.truncate(log_file, 0)
    stamped(log_file)
    assert not scanner.search("NEEDLE")
    append(log_file, b"quiet\n")
    assert not scanner.search("NEEDLE")


def test_copytruncate_then_regrowth_past_the_old_size(tmp_path):
    log_file = tmp_path / "alert.log"
    write(log_file, b"NEEDLE " + b"x" * 200)
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert scanner.search("NEEDLE")
    with open(log_file, "r+b") as fh:  # copytruncate, then the writer goes on
        fh.truncate(0)
        fh.write(b"NEEDLE " + b"y" * 300)
    stamped(log_file)
    assert scanner.search("NEEDLE")
    assert not scanner.search("xxx")
    assert scanner.search("yyy")


def test_same_size_rewrite_within_a_timestamp_tick(tmp_path, monkeypatch):
    """Two writes a coarse clock cannot tell apart leave one stamp: a file
    read soon after its last change is read once more when that has
    settled."""
    log_file = tmp_path / "alert.log"
    log_file.write_bytes(b"NEEDLE\n")
    mtime = os.stat(log_file).st_mtime_ns
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert scanner.search("NEEDLE")
    log_file.write_bytes(b"quiet!\n")
    os.utime(log_file, ns=(mtime, mtime))
    now = time.time_ns()
    monkeypatch.setattr(predicates.time, "time_ns", lambda: now + predicates._SETTLE_NS)
    assert not scanner.search("NEEDLE")
    assert scanner.search("quiet")


def test_missing_directory_warns_once_until_it_exists(tmp_path, caplog):
    directory = tmp_path / "alerts"
    scanner = IdsAlertScanner(str(directory), "alert*")
    with caplog.at_level(logging.WARNING, logger="rips.predicates"):
        assert not scanner.search("x")
        assert not scanner.search("x")
        directory.mkdir()
        assert not scanner.search("x")
        directory.rmdir()
        assert not scanner.search("x")
    assert [r.getMessage().startswith("IDS alerts directory") for r in caplog.records] == [True, True]


def test_unreadable_file_warns_once_until_readable(tmp_path, caplog):
    target = tmp_path / "target"
    (tmp_path / "alert-link.log").symlink_to(target)  # dangling
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    with caplog.at_level(logging.WARNING, logger="rips.predicates"):
        for _ in range(5):
            assert not scanner.search("NEEDLE")
        target.write_bytes(b"NEEDLE\n")
        assert scanner.search("NEEDLE")
        target.unlink()
        for _ in range(5):
            assert not scanner.search("NEEDLE")
    assert [r.getMessage().startswith("cannot read IDS alert file") for r in caplog.records] == [True, True]


def test_empty_needle(tmp_path):
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    assert not scanner.search("")  # no file to find it in
    (tmp_path / "alert.log").write_bytes(b"")
    assert scanner.search("")


def test_more_needles_than_the_state_bound(tmp_path):
    log_file = tmp_path / "alert.log"
    write(log_file, b"".join(b"sig-%d\n" % i for i in range(0, 100, 2)))
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    needles = [f"sig-{i}\n" for i in range(2 * predicates._MAX_NEEDLES)]
    for _ in range(2):
        for needle in needles:
            assert scanner.search(needle) == fresh_read(str(tmp_path), needle)
            (state,) = scanner._files.values()
            assert len(state.answers) <= predicates._MAX_NEEDLES


def test_fifo_does_not_block_the_scan(tmp_path):
    """A FIFO named like an alert file is skipped, not opened: opening one
    with no writer would block forever, so the scan runs in a child."""
    os.mkfifo(tmp_path / "alert0.log")
    (tmp_path / "alert1.log").write_bytes(b"NEEDLE\n")
    code = (
        "import sys\n"
        "from rips.predicates import IdsAlertScanner\n"
        "print(IdsAlertScanner(sys.argv[1], 'alert*').search('NEEDLE'))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"
    assert "cannot read" not in done.stderr


# --- a file read a window at a time ---


def test_needles_across_window_edges(tmp_path, monkeypatch):
    """With a window of four characters: a needle longer than the window, one
    across a window edge, and one in the last characters of the file."""
    monkeypatch.setattr(predicates, "_WINDOW_CHARS", 4)
    write(tmp_path / "alert.log", b"abcdefghij\r\nkl\xc3\xa9")
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    for needle, expected in (("bcdefghij\nk", True), ("bcdefghij\rk", False), ("de", True), ("ij\n", True),
                             ("l\u00e9", True), ("\u00e9", True), ("kl\u00e9!", False), ("abcdefghij\nkl\u00e9", True)):
        assert fresh_read(str(tmp_path), needle) is expected, needle
        assert scanner.search(needle) is expected, needle


def test_a_hit_in_the_first_window_stops_the_read(tmp_path, monkeypatch):
    write(tmp_path / "alert.log", b"NEEDLE\n" + b"x" * (8 << 20))
    reads = []

    class CountingText(io.TextIOWrapper):
        def read(self, size=-1):
            text = super().read(size)
            reads.append(len(text))
            return text

    monkeypatch.setattr(predicates, "open", raising=False,
                        value=lambda path, opener, **kw: CountingText(open(path, "rb", opener=opener), **kw))
    assert IdsAlertScanner(str(tmp_path), "alert*").search("NEEDLE")
    assert reads == [predicates._WINDOW_CHARS]


def test_scanning_a_large_file_takes_memory_of_one_window(tmp_path):
    """An 8 MB alert file whose needle is in its last line is read whole,
    yet the scan's traced allocations peak under 1 MB."""
    write(tmp_path / "alert.log", b"[**] quiet [**]\n" * (1 << 19) + b"NEEDLE\n")
    scanner = IdsAlertScanner(str(tmp_path), "alert*")
    tracemalloc.start()
    try:
        assert scanner.search("NEEDLE")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- against a fresh read, under random appends, rewrites and rotations ---

# Needle halves, newline pieces, cut UTF-8 sequences, an invalid byte, and
# a long run of one byte.
_PIECES = [b"NEE", b"DLE", b"ab", b" ", b"\r", b"\n", b"\r\n", b"\xc3", b"\xa9", b"\xe2\x82", b"\xac", b"\xff",
           b"x" * 70]
_BYTES = st.lists(st.sampled_from(_PIECES), max_size=8).map(b"".join) | st.binary(max_size=90)
_OPS = st.lists(st.tuples(st.sampled_from(["append", "rewrite", "overwrite", "rotate"]), st.integers(0, 1), _BYTES),
                min_size=1, max_size=12)
_NEEDLES = ["NEEDLE", "E\nab", "\n", "\n\n", "é", "€", "\ufffd", "\ufffdab", "", "ab\r", "x" * 66 + "NEE"]


def _agrees(scanner, directory, what):
    for needle in _NEEDLES:
        assert scanner.search(needle) == fresh_read(directory, needle), (what, needle)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_search_equals_a_fresh_read(ops):
    """A rewrite is a copytruncate: the scan sees the emptied file before
    the new content. An overwrite writes from the start without
    truncating, so it may keep the size."""
    _replay(ops)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, window=st.integers(1, 5))
def test_search_equals_a_fresh_read_in_small_windows(ops, window):
    """The same with a window of a few characters, so that needles, "\\r\\n"
    pairs and UTF-8 sequences straddle windows."""
    with mock.patch.object(predicates, "_WINDOW_CHARS", window):
        _replay(ops)


def _replay(ops):
    with tempfile.TemporaryDirectory() as directory:
        scanner = IdsAlertScanner(directory, "alert*")
        for op, index, data in ops:
            path = os.path.join(directory, f"alert{index}.log")
            exists = os.path.exists(path)
            if op == "rewrite" and exists:
                os.truncate(path, 0)
                stamped(path)
                _agrees(scanner, directory, "truncated")
            elif op == "rotate" and exists:  # the old file keeps matching
                os.replace(path, path + ".1")
            write(path, data, "r+b" if op == "overwrite" and exists else "ab")
            _agrees(scanner, directory, op)
