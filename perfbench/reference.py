"""Outcome reference and failure accounting.

The tree-walking interpreter is the reference semantics. The corpus is
replayed in-process through ``InterpretedEngine.handle_document`` with a
fake clock and a recording runner (every child process "succeeds", as the
benchmark's transition scripts do). No workload's outcomes depend on time or
on External ticks, so the reference is exact for any engine fed the same
event prefix.
"""

from __future__ import annotations

from difflib import SequenceMatcher

from rips.runtime import FakeClock, InterpretedEngine, RecordingRunner
from rips.wire import DocumentStream


def outcome_key(o) -> tuple:
    return (o.kind, o.level, o.gravity, o.text)


def reference_outcomes(checked, corpus, n: int) -> list[list[tuple]]:
    """Expected outcome keys of each of the first ``n`` events."""
    engine = InterpretedEngine(checked, clock=FakeClock(0), runner=RecordingRunner())
    framer = DocumentStream()
    expected = []
    for i in range(n):
        outs = []
        for text in framer.feed(corpus[i].doc):
            outs += [outcome_key(o) for o in engine.handle_document(text)]
        expected.append(outs)
    return expected


def probe_number(key: tuple) -> int:
    kind, _level, _gravity, text = key
    if kind == "alert" and text.startswith("probe ") and text[6:].isdigit():
        return int(text[6:])
    return 0


def count_failures(corpus, expected: list[list[tuple]], received: list[tuple], sent: int) -> int:
    """Events among the first ``sent`` whose outcomes were missing or wrong.

    The received stream is cut at probe alerts into one segment per probe.
    Within an answered segment, the received outcomes are aligned with the
    expected ones; an event with an expected outcome left unmatched fails,
    and a segment with unexpected extra outcomes fails at least one event.
    Every event of a segment whose probe was never answered fails: the
    engine stopped answering.
    """
    at = {}
    for idx, key in enumerate(received):
        n = probe_number(key)
        if n and n not in at:
            at[n] = idx
    failed = 0
    start = 0
    segment: list[int] = []
    for i in range(sent):
        segment.append(i)
        probe = corpus[i].probe
        if not probe and i < sent - 1:
            continue
        end = at.get(probe, -1) + 1 if probe else len(received)
        if end <= start:
            failed += len(segment)
        else:
            failed += _segment_failures([expected[j] for j in segment], received[start:end])
            start = end
        segment = []
    return failed


def _segment_failures(expected: list[list[tuple]], got: list[tuple]) -> int:
    flat = [o for outs in expected for o in outs]
    if got == flat:
        return 0
    owner = [j for j, outs in enumerate(expected) for _ in outs]
    matched = set()
    for a, _b, size in SequenceMatcher(None, flat, got, autojunk=False).get_matching_blocks():
        matched.update(range(a, a + size))
    bad = {owner[k] for k in range(len(flat)) if k not in matched}
    return max(len(bad), 1 if len(got) > len(matched) else 0)
