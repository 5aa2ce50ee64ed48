import base64
import logging
import math
import os
import random
import subprocess
import sys

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rips
from rips import wire
from rips.checker import check_source
from rips.interpreter import InterpretedEngine
from rips.runtime import FakeClock, RecordingRunner
from rips.scenario import encode_event
from rips.transpiler import load_generated, transpile
from rips.wire import (
    MAX_DEPTH,
    MAX_DOC_BYTES,
    DecodeError,
    DocumentStream,
    Outcome,
    decode_event,
    decode_outcome,
    encode_outcome,
)

from conftest import DATA_DIR
from randprog import random_corpus


def load_fixture():
    with open(os.path.join(DATA_DIR, "graph_event.yaml"), encoding="utf-8") as fh:
        return fh.read()


def test_monitor_graph_event_decodes_fully():
    ev = decode_event(load_fixture())
    assert ev.kind == "graph"
    g = ev.graph
    assert sorted(g.node_names) == ["recorder", "rips"]
    assert len(g.topic_names) == 4
    assert g.subscribers_of("/rosout") == frozenset()
    assert g.publishers_of("/rosout") == {"recorder", "rips"}
    assert g.publishers_of("/videocorridor") == frozenset()
    assert g.subscribers_of("/videocorridor") == {"recorder", "rips"}


def _oracle_graph(text: str) -> tuple[dict, dict]:
    """The graph of a document straight from ``yaml.safe_load``: node ->
    services and topic -> (publishers, subscribers), the last entry of a
    name winning."""
    context = yaml.safe_load(text).get("context") or {}
    nodes, topics = {}, {}

    def names(raw):
        return {str(x) for x in raw if x is not None} if isinstance(raw, list) else set()

    for entry in context.get("nodes") or []:
        if isinstance(entry, dict) and "node" in entry:
            nodes[str(entry["node"])] = {str(s["service"]) for s in entry.get("services") or []
                                         if isinstance(s, dict) and "service" in s}
    for entry in context.get("topics") or []:
        if isinstance(entry, dict) and "topic" in entry:
            topics[str(entry["topic"])] = (names(entry.get("publishers")), names(entry.get("subscribers")))
    return nodes, topics


# A node and a topic listed twice, null and missing publishers and services,
# a topic that names an unknown node, and malformed entries; as written by
# hand, and as ``encode_event`` writes them, with empty flow collections.
_ODD_GRAPH = """\
event: graph
context:
  nodes:
  - node: a
    gids:
    - '01.02'
    services:
    - service: s1
      params:
      - p
  - node: b
    services: ~
  - node: a
    services:
    - service: s2
    - service: s3
    - not a service
  - node: c
  - gids:
    - '03.04'
  - just a string
  topics:
  - topic: /t
    parameters:
    - std_msgs/msg/String
    publishers:
    - a
    subscribers:
    - b
    - ~
  - topic: /u
    publishers: ~
    subscribers:
    - ghost
  - topic: /t
    publishers:
    - b
  - topic: /v
  - publishers:
    - a
"""
_ODD_GRAPH_DUMPED = encode_event({
    "event": "message", "topic": "/t",
    "context": {"nodes": [{"node": "x", "services": [{"service": "s"}, {}]}, {"node": "x"},
                          {"node": "y", "services": None}, 7, {}],
                "topics": [{"topic": "/t", "publishers": ["x", None], "subscribers": ["z"]},
                           {"topic": "/t", "subscribers": ["x"]}, {"topic": "/w", "publishers": []}, []]},
})


def test_graph_answers_equal_an_oracle_from_safe_load():
    """node_names, topic_names and the per-name sets, for every name and
    an absent one, are what the document lists."""
    docs = [load_fixture(), _ODD_GRAPH, _ODD_GRAPH_DUMPED]
    for seed in range(4):
        docs += random_corpus(seed, 40)
    for text in docs:
        nodes, topics = _oracle_graph(text)
        for _ in range(2):  # cold, then from the cache
            g = decode_event(text).graph
            assert g.node_names == set(nodes)
            assert g.topic_names == set(topics)
            for name, services in nodes.items():
                assert g.services_of(name) == services
            for name, (pubs, subs) in topics.items():
                assert g.publishers_of(name) == pubs
                assert g.subscribers_of(name) == subs
            assert g.services_of("/absent") == g.publishers_of("/absent") == g.subscribers_of("/absent") == set()


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
    with pytest.raises(DecodeError, match="outside the monitor's dialect"):
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


# Strings near the edges of what YAML writes unquoted: indicators, spaces,
# quotes, document markers and the implicit forms of other types.
_YAMLISH = st.one_of(
    st.text(),
    st.text(alphabet="ab -?:#,'\"!&*[]{}|>%@`.~=<0e+", max_size=12),
    st.sampled_from(["yes", "No", "on", "null", "~", "=", "<<", "1.5", ".inf", "0x1f", "1:20", "2001-12-14",
                     "---x", "...", "- a", "a: b", "a #b", "a#b", "a:", "foreign topic #3", "probe 12"]),
)


@settings(max_examples=500, deadline=None)
@given(text=_YAMLISH, level=_YAMLISH, gravity=st.floats(), timestamp=st.integers(0, 2**63 - 1))
@example(text="é\n...\nb", level="a\nb", gravity=0.5, timestamp=0)
def test_alert_outcome_round_trip(text, level, gravity, timestamp):
    """Text, level and gravity survive the wire, through ``yaml.safe_load``
    and ``decode_outcome``. The bytes are those of the pure-Python
    ``SafeDumper`` unless a string holds a line break; then the document is
    still one line per key."""
    encoded = encode_outcome(Outcome("alert", level, 0, gravity, text, timestamp))
    mapping = {"event": "alert", "level": level, "gravity": gravity, "text": text, "timestamp": timestamp}
    assert _canonical(yaml.safe_load(encoded)) == _canonical(mapping)
    back = decode_outcome(encoded)
    assert (back.kind, back.level, back.text, back.timestamp_ns) == ("alert", level, text, timestamp)
    assert back.gravity == gravity or (math.isnan(back.gravity) and math.isnan(gravity))
    if "\n" in text + level:
        assert encoded.count("\n") == 7
    else:
        assert encoded == "---\n" + yaml.dump(mapping, Dumper=yaml.SafeDumper, sort_keys=False,
                                               default_flow_style=False, width=1_000_000) + "...\n"


# Plain scalars near every resolver's edge: indicators, signs, digits, the
# letters of bases and exponents, and pieces of inf, nan, null and yes.
_INDICATORS = "-+.:_#'\"!&*<=?,[]{}|>%@~ 0123456789eExXbBoOinfaulys"
_PLAIN_PIECES = ["inf", "nan", "null", "yes", ".inf", ".NaN", "0x", "0b", "0o", "e+", "1:2", "---", "...", "<<",
                 "2001-12-14", " #", ": "]
_PLAINS = st.one_of(
    st.lists(st.sampled_from(list(_INDICATORS)) | st.sampled_from(_PLAIN_PIECES), max_size=10).map("".join),
    st.from_regex(r"[-+]?(?:0b[01_]*|0x[0-9a-fA-F_]*|0[0-7_]*|[0-9_]+(?::[0-5]?[0-9])*(?:\.[0-9_]*)?"
                  r"(?:[eE][-+][0-9]+)?|\.(?:inf|Inf|nan|NaN))", fullmatch=True),
)
_SAFE_CONSTRUCTOR = yaml.constructor.SafeConstructor()


def _comparable(value):
    """``value`` as its type, value and repr, a NaN as its sign."""
    return ("nan", math.copysign(1, value)) if value != value else (type(value), value, repr(value))


def _dumped_back(tag: str, text: str):
    """``SafeConstructor``'s value of a plain int or float scalar, or
    DecodeError where it raises or PyYAML's dumper writes that value as
    other text."""
    try:
        value = getattr(_SAFE_CONSTRUCTOR, f"construct_yaml_{tag.rsplit(':', 1)[1]}")(yaml.ScalarNode(tag, text))
        if yaml.safe_dump(value) == text + "\n...\n":
            return _comparable(value)
    except (ValueError, OverflowError):
        pass
    return DecodeError


@settings(max_examples=500, deadline=None)
@given(text=_PLAINS)
@example(text="")
@example(text="0b_")
@example(text="-.Inf")
@example(text="1:20.5")
@example(text="190:20:30.15")
@example(text="-0")
@example(text="010")
@example(text="1.50")
@example(text="1" + ":1" * 199 + ".")
def test_plain_scalars_resolve_and_build_as_pyyaml_does(text):
    """``_plain_tag`` equals PyYAML's ``Resolver().resolve``. A null builds
    to None. An int or a float builds to ``SafeConstructor``'s value exactly
    where PyYAML's dumper writes that value back as the same text, and is
    one DecodeError everywhere else, also where ``SafeConstructor`` raises
    ValueError or OverflowError."""
    tag = yaml.resolver.Resolver().resolve(yaml.ScalarNode, text, (True, False))
    assert wire._plain_tag(text) == tag
    kind = tag.rsplit(":", 1)[1]
    if kind == "null":
        assert wire._plain(text) is None
    elif kind in ("int", "float"):
        try:
            built = _comparable(wire._plain(text))
        except DecodeError:
            built = DecodeError
        assert built == _dumped_back(tag, text)


@settings(max_examples=500, deadline=None)
@given(text=_PLAINS | st.text(max_size=12), level=_PLAINS | st.text(max_size=12),
       kind=st.sampled_from(["alert", "levelchange"]))
@example(text="é", level="COMPROMISED", kind="alert")
@example(text="a: b", level="- a", kind="alert")
@example(text="x\ty\x85\xa0\u2028\ufeff\U0001F600\x00\x7f\"\\", level="A", kind="alert")
@example(text="a\n...\nb", level="A", kind="alert")
def test_outcome_bytes_equal_encode_event(text, level, kind):
    """``encode_outcome`` writes what ``encode_event`` writes, unless a
    string holds a line break; a string that is not single-line printable
    ASCII goes out double-quoted."""
    o = Outcome(kind, level, 0, 0.5, text, 7)
    doc = {"event": kind, "level": level, "gravity": 0.5, "text": text, "timestamp": 7}
    if "\n" not in text + level:
        assert encode_outcome(o) == encode_event(doc)
    assert yaml.safe_load(encode_outcome(o)) == yaml.safe_load(encode_event(doc))
    for value in (text, level):
        assert wire._str_scalar(value).startswith('"') == (not (value.isascii() and value.isprintable()))


def test_graph_fixture_reencodes_equal():
    text = load_fixture()
    first = decode_event(text)
    doc = yaml.safe_load(text)
    second = decode_event(encode_event(doc))
    assert second.graph.node_names == first.graph.node_names
    assert second.graph.topic_names == first.graph.topic_names
    for name in first.graph.topic_names:
        assert second.graph.publishers_of(name) == first.graph.publishers_of(name)
        assert second.graph.subscribers_of(name) == first.graph.subscribers_of(name)


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


def _decodes_or_rejects(decode, doc) -> None:
    try:
        decode(doc)
    except DecodeError:
        pass


# A 403-byte document holding a base-60 float past the float range, and a
# node named by a hex int past Python's 4,300-digit int-to-str limit. Built
# as YAML 1.1 numbers, the first raises OverflowError, and the second
# ValueError when the graph takes the node's name.
_HOSTILE_NUMBERS = {
    "base-60-float": "a: 1" + ":1" * 199 + ".",
    "long-hex-name": "event: graph\ncontext:\n  nodes:\n  - node: 0x" + "f" * 5000 + "\n",
}


@settings(max_examples=150, deadline=None)
@given(st.text())
@example(_HOSTILE_NUMBERS["base-60-float"])
@example(_HOSTILE_NUMBERS["long-hex-name"])
def test_arbitrary_text_raises_only_decode_error(text):
    _decodes_or_rejects(decode_event, text)


@pytest.mark.parametrize("number", sorted(_HOSTILE_NUMBERS))
def test_a_hostile_number_costs_one_warning(caplog, number):
    """The engine skips such a document with one warning, and logs no ERROR
    record, which would carry a traceback."""
    engine = InterpretedEngine(check_source('rules Graph: nodecount(1, 1) ? alert("one node");'),
                               clock=FakeClock(0), runner=RecordingRunner())
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert engine.handle_document(_HOSTILE_NUMBERS[number]) == []
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, "skipping malformed event: outside the monitor's dialect")]


@settings(max_examples=150, deadline=None)
@given(_DOCS)
def test_mappings_over_known_keys_raise_only_decode_error(doc):
    _decodes_or_rejects(wire._event, doc)
    _decodes_or_rejects(decode_event, yaml.safe_dump(doc))


@pytest.mark.parametrize("text", [
    "event: graph\ncontext: {nodes: 5}\n",
    "event: graph\ncontext: {topics: 3}\n",
    "event: graph\ncontext: {nodes: [{node: a, services: 7}]}\n",
    "event: graph\ncontext: {}\nlastalert: 2001-13-45\n",
])
def test_ill_typed_fields_rejected(text):
    with pytest.raises(DecodeError):
        decode_event(text)


@pytest.mark.parametrize("text, message", [
    ("event: graph\ncontext:\n  nodes: 5\n", "context nodes must be a list"),
    ("event: graph\ncontext:\n  topics: 3\n", "context topics must be a list"),
    ("event: graph\ncontext:\n  nodes:\n  - node: a\n    services: 7\n", "node services must be a list"),
    ("event: graph\ncontext: []\n", "context must be a mapping"),
    ("event: graph\ncontext: 'x\n\n  y'\n", "context must be a mapping"),
    ("event: graph\ncontext: {}\nlastalert: 2001-12-14\n", "outside the monitor's dialect"),
])
def test_ill_typed_fields_in_the_dialect_rejected(text, message):
    """The same fields in the dialect reach the graph's type checks; a
    timestamp scalar is outside the dialect."""
    with pytest.raises(DecodeError, match=message):
        decode_event(text)


@pytest.mark.parametrize("quoted", [False, True], ids=["recognizer", "quoted"])
def test_an_echo_no_rule_reads_does_not_cost_the_event(quoted):
    """The monitor's echo is not decoded, so a ``currentgrav`` that is not a
    number leaves the Graph rules to run, whether the echo is plain or in
    the quoted forms the dumper writes for a non-ASCII level and a
    multi-line alert text that holds a ``...`` line."""
    level, alert = ('"\\xC9"', "'a\n\n  ...\n\n  b'") if quoted else ("A", "1.5")
    doc = (f"---\nevent: graph\ncurrentlevel: {level}\ncurrentgrav: abc\nlastalert: {alert}\ncontext:\n"
           "  nodes:\n  - node: n1\ntopics: []\n...\n")
    (text,) = DocumentStream().feed(doc.encode("utf-8"))
    assert _recognizer_agrees(text)
    wire.clear_context_cache()
    engine = InterpretedEngine(check_source('rules Graph: nodecount(1, 1) ? alert("one node");'),
                               clock=FakeClock(0), runner=RecordingRunner())
    assert [o.text for o in engine.handle_document(text)] == ["one node"]


# --- the dialect recognizer and the context cache ---


def _decoded(text, decode=decode_event) -> str:
    """Everything an event carries, the graph as its sorted names and each
    name's sets, or "DecodeError"."""
    try:
        ev = decode(text)
    except DecodeError:
        return "DecodeError"
    g = ev.graph
    graph = ([(n, sorted(g.services_of(n))) for n in sorted(g.node_names)],
             [(t, sorted(g.publishers_of(t)), sorted(g.subscribers_of(t))) for t in sorted(g.topic_names)])
    return repr((ev.kind, ev.topic, ev.msg_type, ev.payload, graph))


def _canonical(value):
    """``value`` in a form whose equality ignores key order, tells apart
    equal values of different types (1, 1.0, True) and holds NaN equal to
    itself."""
    if isinstance(value, dict):
        return frozenset((_canonical(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, list):
        return ("list", tuple(map(_canonical, value)))
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    return (type(value).__name__, value)


def _recognizer_agrees(text: str) -> bool:
    """Whether the recognizer takes the document; when it does, its mapping
    must be ``yaml.safe_load``'s, which compares every scalar of the context
    block, gids and params included, that the graph drops."""
    try:
        rest, block = wire._recognize(text)
        if block is not None:
            rest = {**rest, "context": wire._block_value(block)}
    except DecodeError:
        return False
    assert _canonical(rest) == _canonical(yaml.safe_load(text))
    return True


def _full_parse(text):
    """The event of ``yaml.safe_load``'s mapping of the document: the
    reference decode. DecodeError where the safe loader fails or gives no
    mapping."""
    try:
        doc = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. a timestamp "2001-13-45"
        raise DecodeError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise DecodeError("not a mapping")
    return wire._event(doc)


def _parts(text: str) -> tuple[list[str], list[str], list[str]]:
    """An eligible base document as (lines before, block lines, lines after)."""
    lines = text.splitlines()
    at = lines.index("context:")
    end = at + 1
    while end < len(lines) and lines[end].startswith(" "):
        end += 1
    return lines[:at], lines[at:end], lines[end:]


def _rest_line(rng: random.Random) -> str:
    return rng.choice(["currentlevel: LV{v}", "lastalert: 'v{v}'", "topic: /t{v}", "futurefield: {v}"])


# Plain scalars the YAML 1.1 implicit resolvers read as null, bool, int,
# float, timestamp, value or merge, and two that stay strings ("0o17" and
# "1e3", which YAML 1.2 would read as numbers).
_RESOLVER_FORMS = ["yes", "No", "on", "~", "null", "", "0x1f", "0o17", "017", "0b101", "1_000", "1:20", "1:20.5",
                   ".inf", "-.Inf", ".NaN", "1e3", "2001-12-14", "=", "<<"]


def _scalar_at(line: str) -> int:
    """Where the last scalar of a `- scalar` or `key: scalar` line starts, or -1."""
    cut = max(line.rfind(": "), line.rfind("- "))
    return cut + 2 if cut >= 0 else -1


def _layout(value, col: int, rng: random.Random) -> list[str]:
    """``value`` as block lines at column ``col``: sequences indented or
    not, and one or three spaces after each "-" and ":"."""
    def scalar(x):
        return rng.choice(["~", "null", ""]) if x is None else str(x)

    lines = []
    if isinstance(value, dict):
        for key, x in value.items():
            if isinstance(x, (dict, list)) and x:
                lines.append(" " * col + f"{key}:")
                lines += _layout(x, col + rng.choice([0, 2, 4] if isinstance(x, list) else [1, 2, 4]), rng)
            else:
                lines.append(" " * col + f"{key}:" + " " * rng.choice([1, 3]) + scalar(x))
    else:
        for x in value:
            pad = rng.choice([1, 3])
            inner = (_layout(x, col + 1 + pad, rng) if isinstance(x, (dict, list)) and x
                     else [" " * (col + 1 + pad) + scalar(x)])
            lines += [" " * col + "-" + inner[0][col + 1:], *inner[1:]]
    return lines


def _mutate(text: str, mutation: str, seed: int, v: int) -> str:
    """A copy of ``text`` changed in one way, which the recognizer must read
    as ``yaml.safe_load`` does or refuse. The two variants ``v`` of one
    (mutation, seed) differ only outside the context block, in what a block
    that depended on the rest of the document would read."""
    rng = random.Random(seed)
    head, block, tail = _parts(text)
    start = head[:1] == ["---"]
    end = tail[-1:] == ["..."]
    head, tail = head[start:], tail[:len(tail) - end]
    extra = _rest_line(rng).format(v=v)
    if mutation == "none":
        head = head + [extra]
    elif mutation == "duplicate-context":
        tail = tail + rng.choice([block, ["context:"], ["context: ~"], ["context: {}"], ["context:", f"  nodes: ~{v}"]])
    elif mutation == "spanning-block":
        # A quoted or flow scalar opened in the block and closed in the line
        # after it; a later `nodes` key wins over the first.
        opener, closer = rng.choice([('"x', '"'), ("'x", "'"), ("[x,", "]"), ("{x: 1,", "}")])
        block = block + ["  nodes:", f"  - node: {opener}"]
        tail = [f"lastalert: v{v}{closer}"] + tail
    elif mutation == "spanning-document":
        # A quoted scalar opened in the first line and closed after the block.
        head = [f"lastalert: 'x{v}"] + head
        tail = ["topic: y'", "event: graph"] + tail
    elif mutation == "hidden-line-break":
        # A key after a YAML line break other than "\n" sits at column 0.
        block = block[:-1] + [block[-1] + rng.choice("\r\x85\u2028\u2029") + "currentlevel: HIDDEN"]
        head = head + [extra]
    elif mutation in ("anchor-in-block", "alias-in-block"):
        i = next(i for i, line in enumerate(block) if "node: " in line)
        cut = block[i].index("node: ") + 6
        if mutation == "anchor-in-block":
            block[i] = block[i][:cut] + "&a " + block[i][cut:]
            tail = tail + ["lastalert: *a", extra]
        else:
            block[i] = block[i][:cut] + "*a"
            head = head + [f"lastalert: &a n{v}"]
    elif mutation == "flow":
        value = yaml.safe_load("\n".join(block))["context"]
        flow = yaml.safe_dump(value, default_flow_style=True, width=rng.choice([40, 10_000])).rstrip("\n")
        block = rng.choice([[f"context: {flow}"], ["context: {}"], ["context:", "  " + flow.replace("\n", "\n  ")]])
        head = head + [extra]
    elif mutation == "continued-scalar":
        head = head + rng.choice([
            [f"lastalert: 'x{v}", "y'"],
            [f"currentlevel: a{v}", "b"],
            [f"currentlevel: a{v}", "  b"],
            [f"lastalert: \"x{v}", "  y\""],
        ])
    elif mutation == "tab-or-comment":
        i = rng.randrange(1, len(block))
        block = block[:i] + [rng.choice([block[i] + "\t", block[i] + " # c", "# c", "  # c"])] + block[i + 1:]
        head = head + [extra + rng.choice(["", " # c", "\t"])]
    elif mutation == "context-position":
        others = head + tail + [extra]
        where = rng.choice([0, len(others), rng.randrange(len(others) + 1)])
        head, tail = others[:where], others[where:]
    elif mutation == "resolver-form":
        lines = head + block + tail
        i = rng.choice([i for i, line in enumerate(lines) if _scalar_at(line) >= 0])
        lines[i] = lines[i][:_scalar_at(lines[i])] + rng.choice(_RESOLVER_FORMS)
        head, block, tail = [], lines, [extra]
    elif mutation == "non-string-key":
        i = rng.choice([i for i, line in enumerate(block) if ":" in line])
        indent = len(block[i]) - len(block[i].lstrip(" -"))
        block[i] = block[i][:indent] + rng.choice(["yes", "1", "~", "null", "1.5", "No"]) + block[i][block[i].index(":"):]
        head = head + [extra]
    elif mutation == "layout":
        value = yaml.safe_load("\n".join(block))["context"]
        block = ["context:"] + [line + rng.choice(["", "", "  "]) for line in _layout(value, rng.choice([1, 2, 4]), rng)]
        head = head + [extra + rng.choice(["", "  "])]
    elif mutation == "non-printable":
        lines = head + block + tail
        i = rng.choice([i for i, line in enumerate(lines) if _scalar_at(line) >= 0 and len(line) > _scalar_at(line)])
        at = _scalar_at(lines[i]) + 1
        lines[i] = lines[i][:at] + rng.choice("\x00\x07\ufeff") + lines[i][at:]
        head, block, tail = [], lines, [extra]
    elif mutation == "fuzz":
        lines = head + block + tail
        i = rng.randrange(len(lines))
        j = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:j] + rng.choice("&*!%|>[]{}\"'#?\t\r\x85  -:.,@`~\\") + lines[i][j:]
        head, block, tail = [], lines, [extra]
    return "\n".join(["---"] * start + head + block + tail + ["..."] * end) + rng.choice(["\n", ""])


_BASES = [load_fixture(), DocumentStream().feed(load_fixture().encode("utf-8"))[0],
          *random_corpus(11, 6), *DocumentStream().feed("".join(random_corpus(12, 6)).encode("utf-8"))]
_MUTATIONS = ["none", "duplicate-context", "spanning-block", "spanning-document", "hidden-line-break",
              "anchor-in-block", "alias-in-block", "flow", "continued-scalar", "tab-or-comment",
              "context-position", "resolver-form", "non-string-key", "layout", "non-printable", "fuzz"]


def _refuse_pyyaml(monkeypatch):
    """Fail the test if decoding reaches PyYAML: an import of it fails, and
    so does a call of its loaders from a module that holds it already."""
    def refuse(*args, **kwargs):
        raise AssertionError("decoding called a PyYAML loader")

    monkeypatch.setitem(sys.modules, "yaml", None)
    for name in ("load", "load_all", "safe_load", "safe_load_all", "full_load", "unsafe_load"):
        monkeypatch.setattr(yaml, name, refuse)


def test_bases_decode_without_yaml_load(monkeypatch):
    """The fixture and every random_corpus document are in the dialect, cold
    and with the cache warm, and the recognizer reads each as
    ``yaml.safe_load`` does."""
    docs = _BASES + random_corpus(3, 200) + DocumentStream().feed("".join(random_corpus(4, 200)).encode("utf-8"))
    wire.clear_context_cache()
    assert all(_recognizer_agrees(doc) for doc in docs)
    _refuse_pyyaml(monkeypatch)
    for warm in (False, True):
        for doc in docs:
            if not warm:
                wire.clear_context_cache()
            decode_event(doc)


@pytest.mark.parametrize("seed", range(20))
def test_dialect_layouts_decode_without_yaml_load(monkeypatch, seed):
    """Sequences indented or not, extra spaces after "-" and ":", trailing
    spaces, and null, int and float scalars as the dumper writes them are
    all in the dialect, and decode as ``yaml.safe_load`` reads them. An int
    or float the dumper would write otherwise is outside the dialect."""
    rng = random.Random(seed)
    head, block, tail = _parts(rng.choice(_BASES))
    value = yaml.safe_load("\n".join(block))["context"]
    block = ["context:"] + [line + rng.choice(["", "  "]) for line in _layout(value, rng.choice([1, 2, 4]), rng)]
    alert = rng.choice(["~", "null", "", "12", "-1.5", "1.0e+20", ".inf", "-.inf", ".nan", "1e3", "0o17"])
    rest = [line for line in head + tail if not line.startswith("lastalert") and line not in ("---", "...")]
    doc = "\n".join(["---", *rest, *block, f"lastalert: {alert}", "..."]) + "\n"
    expected = _decoded(doc, _full_parse)
    assert _recognizer_agrees(doc)
    _refuse_pyyaml(monkeypatch)
    wire.clear_context_cache()
    assert _decoded(doc) == expected != "DecodeError"
    for number in ("0x1f", "1_000", "1:20", "-.Inf", ".NaN"):
        with pytest.raises(DecodeError, match="outside the monitor's dialect"):
            decode_event(doc.replace(f"lastalert: {alert}\n", f"lastalert: {number}\n"))


_CONTEXTS = [yaml.safe_load(doc)["context"] for doc in random_corpus(5, 30)] + [{}, None, {"nodes": [], "topics": []}]
_ECHO_KEYS = ["currentlevel", "currentgrav", "lastalert", "topic", "msgtype", "payload", "futurefield"]


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["graph", "message"]), context=st.sampled_from(_CONTEXTS),
       echo=st.fixed_dictionaries({}, optional={
           **dict.fromkeys(["currentlevel", "lastalert", "topic", "msgtype", "futurefield"], st.text()),
           "currentgrav": st.floats() | st.text(),
           "payload": st.binary(max_size=24).map(lambda b: base64.b64encode(b).decode("ascii")),
       }),
       at=st.integers(0, len(_ECHO_KEYS)), dumper=st.sampled_from([yaml.SafeDumper, yaml.CSafeDumper]))
@example(kind="graph", context={}, echo={"lastalert": "a\n...\nb", "currentlevel": "é\n...\nb"}, at=1,
         dumper=yaml.SafeDumper)
def test_monitor_traffic_is_in_the_dialect(kind, context, echo, at, dumper):
    """Every document the dumper writes for a monitor event, whatever text
    the echo holds and wherever the context sits, decodes without a
    DecodeError, as ``yaml.safe_load`` reads it."""
    items = list(echo.items())
    doc = dict([("event", kind), *items[:at], ("context", context), *items[at:]])
    text = "---\n" + yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=False,
                               width=1_000_000) + "...\n"
    assert _recognizer_agrees(text)
    wire.clear_context_cache()
    assert _decoded(text) == _decoded(text, _full_parse) != "DecodeError"
    (framed,) = DocumentStream().feed(text.encode("utf-8"))
    assert _decoded(framed) == _decoded(text)


_GRAPH = "context:\n  nodes:\n  - node: a\n"
# YAML the safe loader reads, in forms the monitor's dumper never writes.
_OUTSIDE_FORMS = {
    "comment-line": "# c\nevent: graph\n" + _GRAPH,
    "comment-after-value": "event: graph # c\n" + _GRAPH,
    "comment-in-block": "event: graph\n" + _GRAPH.replace("node: a", "node: a # c"),
    "flow-mapping": "event: graph\ncontext: {nodes: [{node: a}]}\n",
    "flow-sequence": "event: graph\ncontext:\n  nodes: [a]\n",
    "anchor": "event: &e graph\n" + _GRAPH,
    "alias": "currentlevel: &e graph\nevent: *e\n" + _GRAPH,
    "tag": "event: !!str graph\n" + _GRAPH,
    "block-scalar": "event: graph\nlastalert: |\n  a\n" + _GRAPH,
    "bool": "event: graph\nlastalert: yes\n" + _GRAPH,
    "timestamp": "event: graph\nlastalert: 2001-12-14\n" + _GRAPH,
    "merge": "event: graph\n<<:\n  lastalert: a\n" + _GRAPH,
    "multi-line-in-block": "event: graph\n" + _GRAPH.replace("node: a", "node: 'a\n\n      b'"),
    "multi-line-plain": "event: graph\nlastalert: a\n  b\n" + _GRAPH,
    "multi-line-double": "event: graph\nlastalert: \"a\n  b\"\n" + _GRAPH,
    "unindented-continuation": "event: graph\nlastalert: 'a\nb'\n" + _GRAPH,
    "indented-lines": "  event: graph\n  context: {}\n",
    "indented-line": "  event: graph\n",
    "tab": "event: graph\nlastalert: 'a\tb'\n" + _GRAPH,
    "blank-line": "event: graph\n\n" + _GRAPH,
    "carriage-return": "event: graph\r\n" + _GRAPH,
    "non-ascii": "event: graph\nlastalert: é\n" + _GRAPH,
    "nested-sequence": "event: graph\ncontext:\n  nodes:\n  - - a\n",
    "complex-key": "event: graph\n? lastalert\n: a\n" + _GRAPH,
    "quoted-key": "event: graph\n'lastalert': a\n" + _GRAPH,
    "directive": "%YAML 1.1\n---\nevent: graph\n" + _GRAPH,
}


@pytest.mark.parametrize("form", sorted(_OUTSIDE_FORMS))
def test_forms_outside_the_dialect_are_one_decode_error(form):
    text = _OUTSIDE_FORMS[form]
    assert isinstance(yaml.safe_load(text), dict)
    wire.clear_context_cache()
    with pytest.raises(DecodeError, match="outside the monitor's dialect"):
        decode_event(text)


@pytest.mark.parametrize("escaped", ["\\/", "\\ ", "\\\t", "\\xe9", "\\u00E9", "\\U0010FFFF", "\\U0001f600",
                                     "\\0\\a\\b\\t\\n\\v\\f\\r\\e\\\"\\\\\\N\\_\\L\\P", "'", "a'b"])
def test_double_quoted_escapes_read_as_the_safe_loader_reads_them(escaped):
    """The escapes the dumper does not write are read too; a code point past
    U+10FFFF, a bad escape and a double-quoted scalar over two lines are
    outside the dialect."""
    text = f'event: graph\ncontext: {{}}\nlastalert: "{escaped}"\n'
    assert _recognizer_agrees(text)
    for bad in ("\\U00110000", "\\q", "\\x4", 'a\n  b', "\\", "é"):
        assert not _recognizer_agrees(f'event: graph\ncontext: {{}}\nlastalert: "{bad}"\n')


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(_BASES), mutation=st.sampled_from(_MUTATIONS), seed=st.integers(0, 2**32))
def test_cached_decode_equals_full_decode(base, mutation, seed):
    """A document decodes, cold, as ``yaml.safe_load``'s mapping of it
    decodes, the same event or DecodeError, or is outside the dialect and
    one DecodeError; and it decodes the same with a cache warmed by the base
    document and by the other variant, in either order, where the variants
    share the context block unless the mutation changed it. The same holds
    for a document whose block is the cached block and one more line, and
    after a cached block that ended without its final newline, in the middle
    of a line. Where the recognizer takes a document, its mapping is the
    safe loader's."""
    docs = [_mutate(base, mutation, seed, v) for v in (0, 1)]
    for doc, other in (docs, docs[::-1]):
        wire.clear_context_cache()
        cold = _decoded(doc)
        assert cold == _decoded(doc, _full_parse) or not _recognizer_agrees(doc)
        for warm in ((base, other), (other, base)):
            wire.clear_context_cache()
            for text in warm:
                _decoded(text)
            assert _decoded(doc) == cold
            assert _decoded(doc) == cold
    for warm, doc in _block_prefix_pairs(docs[0]):
        wire.clear_context_cache()
        cold, cold_parts = _decoded(doc), _recognized(doc)
        assert cold == _decoded(doc, _full_parse) or not _recognizer_agrees(doc)
        _decoded(warm)
        assert _recognized(doc) == cold_parts
        assert _decoded(doc) == cold


def _recognized(doc: str):
    """What ``_recognize`` returns for ``doc``, or "DecodeError"."""
    try:
        return wire._recognize(doc)
    except DecodeError:
        return "DecodeError"


def _block_prefix_pairs(doc: str) -> list[tuple[str, str]]:
    """(warm, doc) pairs in which the context block of ``warm`` starts the
    block of ``doc`` but is not all of it: ``doc`` before ``doc`` with the
    last line of its block repeated, and ``doc`` cut before the last
    character of its block's last line before ``doc``."""
    wire.clear_context_cache()
    parts = _recognized(doc)
    if parts == "DecodeError" or parts[1] is None or "\n" not in parts[1].rstrip("\n"):
        return []
    block = parts[1]
    start = 0 if doc.startswith("context:\n") else doc.find("\ncontext:\n") + 1
    end = start + len(block)
    last = block.rstrip("\n").rsplit("\n", 1)[1]
    grown = doc[:end] + (last + "\n" if block.endswith("\n") else "\n" + last) + doc[end:]
    cut = doc[:start + len(block.rstrip("\n")) - 1]
    return [(doc, grown), (cut, doc)]


# 100-500 KB documents, under the framing limit. The flow forms and the
# one-line block sequence nest 50,000 deep, in forms outside the dialect;
# the block mapping nests 1,000 deep, which is as deep as the framing limit
# lets indentation go, in the dialect but past its depth bound.
_DEEP = {
    "flow-sequence": "event: graph\ncontext: " + "[" * 50_000 + "]" * 50_000 + "\n",
    "flow-mapping": "event: graph\ncontext: " + "{a: " * 50_000 + "}" * 50_000 + "\n",
    "block-sequence": "event: graph\ncontext:\n  " + "- " * 50_000 + "x\n",
    "block-mapping": "event: graph\ncontext:\n" + "".join(" " * k + "a:\n" for k in range(1, 1000)),
}


def _in_child(code: str, data: bytes) -> str:
    """What ``code`` prints when it reads ``data`` on its standard input in
    a child process, so that a crash or a hang in the code under test fails
    the caller rather than killing pytest."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rips.__file__)))
    child = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr.decode()[-2000:]
    return child.stdout.decode()


def _decode_in_child(doc: str) -> tuple[float, str]:
    """The CPU seconds ``decode_event`` takes on ``doc`` and its
    DecodeError's message, in a child process."""
    code = ("import sys, time\nfrom rips.wire import DecodeError, decode_event\n"
            "doc = sys.stdin.read()\nstart = time.process_time()\n"
            "try:\n    decode_event(doc)\nexcept DecodeError as exc:\n"
            "    print(time.process_time() - start, exc)\n")
    seconds, message = _in_child(code, doc.encode("utf-8")).split(" ", 1)
    return float(seconds), message


@pytest.mark.parametrize("form", sorted(_DEEP))
def test_deep_document_costs_one_decode_error(form):
    seconds, message = _decode_in_child(_DEEP[form])
    assert ("nested deeper than" if form == "block-mapping" else "outside the monitor's dialect") in message
    assert seconds < 1.0


@pytest.mark.parametrize("where", ["top-level", "block", "quoted"])
def test_a_long_line_that_fails_costs_one_scan(where):
    """A 1 MB line of spaces that then fails the line grammar, which a
    pattern that backtracks into the spaces would take hours over."""
    line = {"top-level": "lastalert: a", "block": "  - node: a", "quoted": "lastalert: 'a'"}[where]
    line += " " * (1 << 20) + "\t"
    doc = f"event: graph\ncontext:\n{line}\n" if where == "block" else f"event: graph\n{line}\ncontext:\n"
    seconds, message = _decode_in_child(doc)
    assert "outside the monitor's dialect" in message
    assert seconds < 1.0


# Hostile documents of about n bytes, each one DecodeError after a scan of
# the whole document (none has an "event" line): ten shapes that load the
# recognizer's scanners, the last a closed multi-line single-quoted value of
# long lines, and a plain base-60 int, whose YAML 1.1 value takes quadratic
# time to sum.
_GROWING = {
    "multi-line-quote": lambda n: "lastalert: 'a" + "\n  a" * (n // 4) + "'\n",
    "unclosed-quote": lambda n: "lastalert: 'a" + "\n  a" * (n // 4) + "\n",
    "spaces-then-tab": lambda n: "lastalert: a" + " " * n + "\t\n",
    "x-escapes": lambda n: 'lastalert: "' + "\\x41" * (n // 4) + '"\n',
    "block-lines": lambda n: "context:\n  nodes:\n" + "".join(f"  - node: n{i}\n" for i in range(n // 16)),
    "deep-mappings": lambda n: "context:\n" + "".join(" " * k + "a:\n" for k in range(1, int((2 * n) ** 0.5))),
    "colons": lambda n: "lastalert: " + ":" * n + "\n",
    "hashes": lambda n: "lastalert: a" + " #" * (n // 2) + "\n",
    "dashes": lambda n: "context:\n  nodes:\n" + "  -\n" * (n // 4),
    "long-quoted-lines": lambda n: "lastalert: '" + "a''b " * (n // 10) + "\n  " + "a''b " * (n // 10) + "'\n",
    "base-60-int": lambda n: "currentgrav: 1" + ":1" * (n // 2) + "\n",
}


@pytest.mark.parametrize("shape", sorted(_GROWING))
def test_inbound_work_grows_linearly(shape):
    """Four times the bytes costs less than ten times the CPU time, loosely
    enough that host noise cannot fail a linear scan: each shape at 64 KB
    and at 256 KB, decoded in a child."""
    small, _ = _decode_in_child(_GROWING[shape](64 << 10))
    large, _ = _decode_in_child(_GROWING[shape](256 << 10))
    assert large < 10 * small


# Byte streams of about n bytes that load the framer's marker search: one
# line of "-" or of "." (a candidate at every byte), lines that hold a marker
# but are none, real marker lines around empty documents, indented markers,
# and one long line of "x---".
_FRAMED = {
    "dash-line": lambda n: b"-" * n + b"\n",
    "dot-line": lambda n: b"." * n + b"\n",
    "candidate-lines": lambda n: b"a---\nb...\n" * (n // 10),
    "marker-lines": lambda n: b"---\n...\n" * (n // 8),
    "indented-markers": lambda n: b" ---\n  ...\n" * (n // 11),
    "x-dash-line": lambda n: b"x---" * (n // 4) + b"\n",
}


def _feed_in_child(data: bytes, chunk: int) -> float:
    """The least CPU seconds a pass of ``data`` through a fresh
    ``DocumentStream``, fed ``chunk`` bytes at a time, takes in a child
    process. Passes repeat until they have taken 0.1 s together, so that a
    pass of a millisecond is not read off one run."""
    code = ("import sys, time\nfrom rips.wire import DocumentStream\n"
            f"data, chunk, best, spent = sys.stdin.buffer.read(), {chunk}, float('inf'), 0.0\n"
            "while spent < 0.1:\n"
            "    stream, start = DocumentStream(), time.process_time()\n"
            "    for i in range(0, len(data), chunk):\n"
            "        stream.feed(data[i:i + chunk])\n"
            "    took = time.process_time() - start\n"
            "    best, spent = min(best, took), spent + took\n"
            "print(best)\n")
    return float(_in_child(code, data))


@pytest.mark.parametrize("chunk, size", [(1 << 16, 240 << 10), (1, 16 << 10)], ids=["64KB-chunks", "1-byte-feeds"])
@pytest.mark.parametrize("shape", sorted(_FRAMED))
def test_framing_work_grows_linearly(shape, chunk, size):
    """Four times the bytes costs the framer less than ten times the CPU
    time: each shape at two sizes, fed in 64 KB chunks and a byte at a time,
    in a child. The larger size of the chunked feeds stays under
    ``MAX_DOC_BYTES``, so that no shape is dropped, and the byte-at-a-time
    sizes are small because each feed is a call."""
    small = _feed_in_child(_FRAMED[shape](size), chunk)
    large = _feed_in_child(_FRAMED[shape](4 * size), chunk)
    assert large < 10 * small


@pytest.mark.parametrize("form", ["block", "flow", "sequence", "sequence-flow"])
def test_depth_bound_is_one_for_the_recognizer_and_the_full_parse(monkeypatch, form):
    """The top-level mapping counts as depth 1 and the context as 2: a
    document whose collections nest MAX_DEPTH deep decodes, as
    ``yaml.safe_load`` reads it, and one level more is rejected. The
    deepest collection is a mapping of scalars, an empty ``{}``, a sequence
    of scalars or a sequence holding ``[]``."""
    def nested(depth):
        if form.endswith("flow"):
            depth -= 1
        lines = "".join(" " * k + "a:\n" for k in range(1, depth - 1))
        last = {"block": "a: 1", "flow": "a: {}", "sequence": "- x", "sequence-flow": "- []"}[form]
        return "event: graph\ncontext:\n" + lines + " " * (depth - 1) + last + "\n"

    assert _decoded(nested(MAX_DEPTH), _full_parse) != "DecodeError"
    assert _recognizer_agrees(nested(MAX_DEPTH))
    with pytest.raises(DecodeError, match="nested deeper than"):
        decode_event(nested(MAX_DEPTH + 1))
    _refuse_pyyaml(monkeypatch)
    wire.clear_context_cache()
    assert decode_event(nested(MAX_DEPTH)).graph.node_names == frozenset()


def test_aliases_are_rejected():
    """An alias can make a small document expand to a huge graph, and the
    monitor's schema needs none: an anchor or an alias is outside the
    dialect."""
    wire.clear_context_cache()
    with pytest.raises(DecodeError, match="outside the monitor's dialect"):
        decode_event("event: graph\ncontext:\n  nodes:\n  - &n\n    node: a\n  - *n\n")
    nodes = "".join(f"  - &n{i}\n    node: a{i}\n" for i in range(3))
    with pytest.raises(DecodeError, match="outside the monitor's dialect"):
        decode_event("event: graph\ncontext:\n  nodes:\n" + nodes)


def test_repeated_contexts_skip_the_graph_build(monkeypatch):
    """random_corpus repeats contexts, and a repeat costs no graph build."""
    calls = []
    build = wire.parse_graph_context
    monkeypatch.setattr(wire, "parse_graph_context", lambda m: calls.append(1) or build(m))
    wire.clear_context_cache()
    docs = random_corpus(3, 200)
    for doc in docs:
        decode_event(doc)
    assert 0 < len(calls) < 0.7 * len(docs)


def test_cache_holds_one_context(monkeypatch):
    """Thousands of distinct contexts, as a hostile monitor could send, leave
    the cache holding the last block and its graph alone."""
    wire.clear_context_cache()
    texts = [f"event: graph\ncontext:\n  nodes:\n  - node: n{i}\n" for i in range(3000)]
    for text in texts:
        decode_event(text)
    assert wire._last_block == "context:\n  nodes:\n  - node: n2999\n"
    assert wire._last_graph.node_names == {"n2999"}
    calls = []
    build = wire.parse_graph_context
    monkeypatch.setattr(wire, "parse_graph_context", lambda m: calls.append(1) or build(m))
    decode_event(texts[-1])
    assert calls == []
    decode_event(texts[-2])
    assert calls == [1]


def test_same_document_twice_under_both_engines():
    """The second decode of a document is a cache hit; through
    Engine.handle_document it gives an equal event, and the same outcomes,
    under the interpreter and the generated program."""
    checked = check_source(
        'rules Graph: nodecount(2, 2) ? alert("two nodes");\n'
        'rules Msg: publishers("recorder", "rips") ? alert("published by both");\n',
        "twice.rul",
    )
    module = load_generated(transpile(checked), "twice_generated")
    graph = DocumentStream().feed(load_fixture().encode("utf-8"))[0]
    message = graph.replace("event: graph", "event: message") + "topic: /rosout\nmsgtype: rcl_interfaces/msg/Log\n"
    for engine in (InterpretedEngine(checked, clock=FakeClock(0), runner=RecordingRunner()),
                   module.build_engine(clock=FakeClock(0), runner=RecordingRunner())):
        wire.clear_context_cache()
        seen = []
        handle = engine.handle_event
        engine.handle_event = lambda ev: seen.append(ev) or handle(ev)
        outcomes = [[o.text for o in engine.handle_document(doc)] for doc in (graph, graph, message, message)]
        assert outcomes == [["two nodes"]] * 2 + [["published by both"]] * 2
        assert wire._last_graph is seen[0].graph
        assert seen[0] == seen[1] and seen[2] == seen[3]
        assert seen[0].graph is seen[3].graph


def _reference_frames(stream: bytes, limit: int) -> list[str]:
    """The framing rule, one line at a time."""
    docs, doc = [], b""
    for raw in stream.split(b"\n")[:-1]:
        line = raw + b"\n"
        if len(line) <= limit and line.decode("utf-8", errors="replace").rstrip() in ("---", "..."):
            text = doc.decode("utf-8", errors="replace")
            if len(doc) + len(line) <= limit and text.strip():
                docs.append(text)
            doc = b""
        else:
            doc += line
    return docs


_STREAM_PIECES = st.sampled_from([
    b"---", b"...", b"\n---\n", b"\n...\n", b"---x", b" --- ", b" ...", b"....", b"a---b", b"x...y", b"--", b"..",
    b"\n", b"\r\n", b"\r", b" ", b"\t", b"\xff", b"\xc3", b"\xe2\x80", b"\x85", b"\xc2\x85",
    b"event: graph", b"context: {}", b"payload: '...'", b"a", b"x" * 30, b" " * 40,
])


@settings(max_examples=600, deadline=None)
@given(pieces=st.lists(_STREAM_PIECES, max_size=80), cuts=st.lists(st.integers(1, 13), max_size=40),
       limit=st.sampled_from([MAX_DOC_BYTES, 40, 16]))
# Lines over the limit that would read as markers: one padded, one cut short.
@example(pieces=[b" " * 40, b"---", b"\n", b"a", b"\n...\n"], cuts=[], limit=16)
@example(pieces=[b"x" * 30, b"---", b"\n", b"a", b"\n...\n"], cuts=[30], limit=16)
# The monitor's echo of an alert text that holds a "..." line: one document.
@example(pieces=[b"---\nevent: graph\nlastalert: 'a\n\n  ...\n\n  b'\ncontext: {}\n...\n"], cuts=[],
         limit=MAX_DOC_BYTES)
def test_framer_matches_a_per_line_reference(pieces, cuts, limit):
    stream = b"".join(pieces)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wire, "MAX_DOC_BYTES", limit)
        framer = DocumentStream()
        docs, i = [], 0
        for n in cuts + [len(stream)]:
            docs += framer.feed(stream[i:i + n])
            assert len(framer._buf) <= limit
            i += n
        assert docs == _reference_frames(stream, limit)
