import logging
import os
import random

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rips import wire
from rips.wire import (
    MAX_DOC_BYTES,
    DecodeError,
    DocumentStream,
    Outcome,
    decode_event,
    decode_outcome,
    encode_event,
    encode_outcome,
)

from conftest import DATA_DIR


def load_fixture():
    with open(os.path.join(DATA_DIR, "graph_event.yaml"), encoding="utf-8") as fh:
        return fh.read()


def test_monitor_graph_event_decodes_fully():
    ev = decode_event(load_fixture())
    assert ev.kind == "graph"
    assert ev.current_level == "__DEFAULT__"
    assert ev.current_grav == 0.0
    assert ev.last_alert == ""
    g = ev.graph
    assert sorted(g.node_names) == ["recorder", "rips"]
    recorder = g.node("recorder")
    rips = g.node("rips")
    assert len(recorder.gids) == 5 and len(recorder.services) == 6
    assert len(rips.gids) == 5 and len(rips.services) == 6
    assert len(g.topics) == 4
    assert g.subscribers_of("/rosout") == frozenset()
    assert g.publishers_of("/rosout") == {"recorder", "rips"}
    assert g.publishers_of("/videocorridor") == frozenset()
    assert g.subscribers_of("/videocorridor") == {"recorder", "rips"}
    assert g.topic("/parameter_events").parameters == ("rcl_interfaces/msg/ParameterEvent",)


def test_null_entries_decode_to_empty_sets():
    ev = decode_event(
        "event: graph\ncontext:\n  topics:\n"
        "    - topic: /a\n      publishers:\n        - ~\n      subscribers: ~\n"
    )
    assert ev.graph.publishers_of("/a") == frozenset()
    assert ev.graph.subscribers_of("/a") == frozenset()


def test_message_event_with_payload():
    ev = decode_event(
        "event: message\ncontext: {}\ntopic: /commands\nmsgtype: std_msgs/msg/String\npayload: aGV5\n"
    )
    assert ev.kind == "message"
    assert ev.topic == "/commands"
    assert ev.msg_type == "std_msgs/msg/String"
    assert ev.payload == b"hey"
    ctx = ev.message_context()
    assert ctx.topic == "/commands" and ctx.payload == b"hey"


def test_message_event_empty_payload():
    ev = decode_event("event: message\ncontext: {}\ntopic: /t\nmsgtype: x/msg/Y\n")
    assert ev.payload == b""


def test_unknown_keys_ignored():
    ev = decode_event("event: graph\ncontext: {}\nfuturefield: 1\n")
    assert ev.kind == "graph"


def test_missing_event_key_rejected():
    with pytest.raises(DecodeError, match="'event'"):
        decode_event("context: {}\n")


def test_missing_context_rejected():
    with pytest.raises(DecodeError, match="'context'"):
        decode_event("event: graph\n")


def test_unknown_kind_rejected():
    with pytest.raises(DecodeError, match="unknown event kind"):
        decode_event("event: shutdown\ncontext: {}\n")


def test_invalid_yaml_rejected():
    with pytest.raises(DecodeError, match="invalid YAML"):
        decode_event("event: [unclosed\n")


def test_bad_base64_rejected():
    with pytest.raises(DecodeError, match="base64"):
        decode_event("event: message\ncontext: {}\ntopic: /t\npayload: '!!!'\n")


# --- outcomes ---


def test_levelchange_outcome_golden_bytes():
    o = Outcome("levelchange", "COMPROMISED", 1, 1.0, "", 123456789)
    assert encode_outcome(o) == (
        "---\n"
        "event: levelchange\n"
        "level: COMPROMISED\n"
        "gravity: 1.0\n"
        "text: ''\n"
        "timestamp: 123456789\n"
        "...\n"
    )


@settings(max_examples=300, deadline=None)
@given(text=st.text(), level=st.text(max_size=20), gravity=st.floats(0.0, 1.0),
       timestamp=st.integers(0, 2**63 - 1))
def test_alert_outcome_round_trip(text, level, gravity, timestamp):
    """Text, level and gravity survive the wire, and the bytes are those of
    the pure-Python ``SafeDumper``, whatever dumper ``encode_outcome`` uses."""
    encoded = encode_outcome(Outcome("alert", level, 0, gravity, text, timestamp))
    back = decode_outcome(encoded)
    assert (back.kind, back.level, back.gravity, back.text, back.timestamp_ns) == (
        "alert", level, gravity, text, timestamp)
    mapping = {"event": "alert", "level": level, "gravity": gravity, "text": text, "timestamp": timestamp}
    assert encoded == "---\n" + yaml.dump(mapping, Dumper=yaml.SafeDumper, sort_keys=False,
                                           default_flow_style=False, width=1_000_000) + "...\n"


def test_graph_fixture_reencodes_equal():
    text = load_fixture()
    first = decode_event(text)
    doc = yaml.safe_load(text)
    second = decode_event(encode_event(doc))
    assert second.graph.node_names == first.graph.node_names
    assert second.graph.topic_names == first.graph.topic_names
    for t in first.graph.topics:
        assert second.graph.publishers_of(t.name) == t.publishers
        assert second.graph.subscribers_of(t.name) == t.subscribers


# --- framing ---


def test_two_back_to_back_documents():
    stream = DocumentStream()
    data = b"---\nevent: graph\ncontext: {}\n...\n---\nevent: message\ncontext: {}\ntopic: /t\n...\n"
    docs = stream.feed(data)
    assert len(docs) == 2
    assert decode_event(docs[0]).kind == "graph"
    assert decode_event(docs[1]).kind == "message"


def test_document_start_marker_flushes_previous():
    stream = DocumentStream()
    docs = stream.feed(b"---\nevent: graph\ncontext: {}\n---\nevent: graph\ncontext: {}\n...\n")
    assert len(docs) == 2


def test_partial_document_discarded_on_close():
    stream = DocumentStream()
    assert stream.feed(b"---\nevent: graph\n") == []
    stream.close()
    assert stream.feed(b"---\nevent: message\ncontext: {}\ntopic: /t\n...\n") != []


def test_framing_is_split_invariant(monkeypatch):
    """Also under a limit that drops the two longer documents."""
    base = (
        "---\nevent: graph\ncontext: {}\n...\n"
        "---\nevent: message\ncontext: {}\ntopic: /a\nmsgtype: m/msg/T\npayload: aGV5\n...\n"
        "---\nevent: graph\ncontext:\n  nodes:\n    - node: n\n...\n"
    ).encode("utf-8")
    rng = random.Random(7)
    for limit, kept in ((MAX_DOC_BYTES, 3), (40, 1)):
        monkeypatch.setattr(wire, "MAX_DOC_BYTES", limit)
        whole = DocumentStream().feed(base)
        assert len(whole) == kept
        for _ in range(50):
            stream = DocumentStream()
            docs = []
            i = 0
            while i < len(base):
                j = min(len(base), i + rng.randint(1, 9))
                docs.extend(stream.feed(base[i:j]))
                assert len(stream._buf) <= limit
                i = j
            assert docs == whole


@pytest.mark.parametrize("line_bytes", [1000, 20 << 20], ids=["lines", "one-line"])
def test_oversized_input_is_dropped_and_framing_resyncs(caplog, line_bytes):
    """20 MB with no marker line, then a good document: the junk is dropped
    with one warning and the stream never holds more than the limit plus
    the chunk being fed."""
    good = load_fixture().encode("utf-8")
    data = (b"x" * (line_bytes - 1) + b"\n") * ((20 << 20) // line_bytes) + good
    chunk = 1 << 16
    stream = DocumentStream()
    docs = []
    held = 0
    with caplog.at_level(logging.WARNING, logger="rips.wire"):
        for i in range(0, len(data), chunk):
            docs += stream.feed(data[i:i + chunk])
            held = max(held, len(stream._buf))
    assert docs == DocumentStream().feed(good)
    assert len(docs) == 1
    assert held <= MAX_DOC_BYTES + chunk
    assert len(caplog.records) == 1


# --- hostile input: decode_event raises DecodeError and nothing else ---

_WIRE_KEYS = st.sampled_from([
    "event", "context", "currentlevel", "currentgrav", "lastalert", "topic", "msgtype", "payload",
    "nodes", "topics", "node", "gids", "services", "service", "params", "parameters",
    "publishers", "subscribers",
])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
            | st.sampled_from(["graph", "message", "aGk="]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WIRE_KEYS, inner, max_size=4),
    max_leaves=16,
)
_DOCS = st.builds(
    lambda base, extra: {**base, **extra},
    st.fixed_dictionaries({"event": st.sampled_from(["graph", "message"]), "context": _VALUES}),
    st.dictionaries(_WIRE_KEYS, _VALUES, max_size=5),
)


def _decodes_or_rejects(doc) -> None:
    try:
        decode_event(doc)
    except DecodeError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text())
def test_arbitrary_text_raises_only_decode_error(text):
    _decodes_or_rejects(text)


@settings(max_examples=150, deadline=None)
@given(_DOCS)
def test_mappings_over_known_keys_raise_only_decode_error(doc):
    _decodes_or_rejects(doc)
    _decodes_or_rejects(yaml.safe_dump(doc))


@pytest.mark.parametrize("text", [
    "event: graph\ncontext: {}\ncurrentgrav: abc\n",
    "event: graph\ncontext: {}\ncurrentgrav: [1]\n",
    "event: graph\ncontext: {nodes: 5}\n",
    "event: graph\ncontext: {topics: 3}\n",
    "event: graph\ncontext: {nodes: [{node: a, services: 7}]}\n",
    "event: graph\ncontext: {}\nlastalert: 2001-13-45\n",
])
def test_ill_typed_fields_rejected(text):
    with pytest.raises(DecodeError):
        decode_event(text)
