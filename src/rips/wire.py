"""YAML wire protocol: inbound event decoding, outbound outcome encoding,
and framing of a byte stream into documents.

Inbound events follow the monitor's schema: a mapping with ``event``
(``graph`` or ``message``), a full ``context`` (nodes and topics), the
monitor's echo of the current level/gravity/last alert, and for message
events the ``topic``, ``msgtype`` and base64 ``payload`` keys. A
publisher/subscriber list consisting of null entries decodes to the empty
set. Outcomes go out as one YAML document each, with a fixed key order so
the byte stream is stable.
"""

from __future__ import annotations

import base64
import logging
from dataclasses import dataclass

import yaml

from .context import GraphContext, MessageContext, NodeInfo, ServiceInfo, TopicInfo
from .errors import RipsError

log = logging.getLogger("rips.wire")

try:
    _Loader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
except AttributeError:  # libyaml not built in
    _Loader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


class DecodeError(RipsError):
    """Inbound document cannot be understood; the event is skipped."""


_KNOWN_EVENT_KEYS = {"currentlevel", "currentgrav", "lastalert", "event", "context", "topic", "msgtype", "payload"}
_KNOWN_NODE_KEYS = {"node", "gids", "services"}
_KNOWN_TOPIC_KEYS = {"topic", "parameters", "publishers", "subscribers"}


@dataclass
class InboundEvent:
    kind: str  # "graph" | "message"
    graph: GraphContext
    current_level: str = ""
    current_grav: float = 0.0
    last_alert: str = ""
    topic: str = ""
    msg_type: str = ""
    payload: bytes = b""

    def message_context(self) -> MessageContext:
        return MessageContext(self.topic, self.msg_type, self.payload, self.graph)


@dataclass(frozen=True)
class Outcome:
    kind: str  # "levelchange" | "alert"
    level: str
    ordinal: int
    gravity: float
    text: str
    timestamp_ns: int


def _names(raw, what: str) -> frozenset[str]:
    if raw is None:
        return frozenset()
    if not isinstance(raw, list):
        log.debug("ignoring non-list %s entry: %r", what, raw)
        return frozenset()
    return frozenset(str(x) for x in raw if x is not None)


def _strings(raw) -> tuple[str, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        return (str(raw),)
    return tuple(str(x) for x in raw if x is not None)


def _entries(raw, what: str) -> list:
    if not raw:
        return []
    if not isinstance(raw, list):
        raise DecodeError(f"{what} must be a list")
    return raw


def parse_graph_context(mapping) -> GraphContext:
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise DecodeError("context must be a mapping")
    nodes = []
    for raw in _entries(mapping.get("nodes"), "context nodes"):
        if not isinstance(raw, dict) or "node" not in raw:
            log.debug("ignoring malformed node entry: %r", raw)
            continue
        for key in raw:
            if key not in _KNOWN_NODE_KEYS:
                log.debug("ignoring unknown node key %r", key)
        services = []
        for sraw in _entries(raw.get("services"), "node services"):
            if not isinstance(sraw, dict) or "service" not in sraw:
                log.debug("ignoring malformed service entry: %r", sraw)
                continue
            services.append(ServiceInfo(str(sraw["service"]), _strings(sraw.get("params"))))
        nodes.append(NodeInfo(str(raw["node"]), _strings(raw.get("gids")), tuple(services)))
    topics = []
    for raw in _entries(mapping.get("topics"), "context topics"):
        if not isinstance(raw, dict) or "topic" not in raw:
            log.debug("ignoring malformed topic entry: %r", raw)
            continue
        for key in raw:
            if key not in _KNOWN_TOPIC_KEYS:
                log.debug("ignoring unknown topic key %r", key)
        topics.append(
            TopicInfo(
                str(raw["topic"]),
                _strings(raw.get("parameters")),
                _names(raw.get("publishers"), "publishers"),
                _names(raw.get("subscribers"), "subscribers"),
            )
        )
    graph = GraphContext(tuple(nodes), tuple(topics))
    for t in graph.topics:
        for name in (t.publishers | t.subscribers) - graph.node_names:
            log.debug("topic %s references unknown node %r", t.name, name)
    return graph


def decode_event(doc) -> InboundEvent:
    """Decode one YAML document (text or pre-parsed mapping) into an event.

    Any input that cannot be understood raises ``DecodeError`` and nothing
    else, so a hostile document costs the caller one skipped event.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = yaml.load(doc, Loader=_Loader)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            # ValueError: scalar constructors, e.g. a timestamp "2001-13-45".
            raise DecodeError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise DecodeError("event document must be a mapping")
    for key in doc:
        if key not in _KNOWN_EVENT_KEYS:
            log.debug("ignoring unknown event key %r", key)
    if "event" not in doc:
        raise DecodeError("event document lacks the 'event' key")
    kind = str(doc["event"])
    if kind not in ("graph", "message"):
        raise DecodeError(f"unknown event kind {kind!r}")
    if "context" not in doc:
        raise DecodeError("event document lacks the 'context' key")
    graph = parse_graph_context(doc["context"])
    try:
        current_grav = float(doc.get("currentgrav") or 0.0)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DecodeError(f"currentgrav is not a number: {exc}") from exc
    ev = InboundEvent(
        kind=kind,
        graph=graph,
        current_level=str(doc.get("currentlevel") or ""),
        current_grav=current_grav,
        last_alert=str(doc.get("lastalert") or ""),
    )
    if kind == "message":
        ev.topic = str(doc.get("topic") or "")
        ev.msg_type = str(doc.get("msgtype") or "")
        raw = doc.get("payload")
        if raw:
            try:
                ev.payload = base64.b64decode(str(raw), validate=True)
            except (ValueError, TypeError) as exc:
                raise DecodeError(f"payload is not valid base64: {exc}") from exc
    return ev


def _document(mapping: dict) -> str:
    """One framed YAML document, keys in the mapping's order."""
    body = yaml.dump(mapping, Dumper=_Dumper, sort_keys=False, default_flow_style=False, width=1_000_000)
    return "---\n" + body + "...\n"


def encode_event(doc: dict) -> str:
    """Serialize a monitor-side event mapping as one framed YAML document."""
    return _document(doc)


def encode_outcome(o: Outcome) -> str:
    return _document(
        {
            "event": o.kind,
            "level": o.level,
            "gravity": o.gravity,
            "text": o.text,
            "timestamp": o.timestamp_ns,
        }
    )


def decode_outcome(doc) -> Outcome:
    """Monitor-side decoding of an outcome document, as a monitor or a load
    generator reads the engine's replies."""
    if isinstance(doc, (str, bytes)):
        doc = yaml.load(doc, Loader=_Loader)
    if not isinstance(doc, dict) or "event" not in doc:
        raise DecodeError("outcome document lacks the 'event' key")
    return Outcome(
        kind=str(doc["event"]),
        level=str(doc.get("level") or ""),
        ordinal=-1,
        gravity=float(doc.get("gravity") or 0.0),
        text=str(doc.get("text") or ""),
        timestamp_ns=int(doc.get("timestamp") or 0),
    )


# The longest document the framer holds, its closing marker line counted.
MAX_DOC_BYTES = 1 << 20


class DocumentStream:
    """Splits an incoming byte stream into YAML document texts.

    Documents are delimited by ``---`` (start) and ``...`` (end) marker
    lines. Bytes may arrive split at arbitrary boundaries; a partial
    document left at connection close is discarded. A document longer than
    ``MAX_DOC_BYTES`` is dropped with one warning and framing resumes at the
    next marker line, so the stream holds at most that many bytes between
    feeds; each byte is searched for a newline once.
    """

    def __init__(self):
        self._buf = bytearray()  # the document's lines, then the unterminated line
        self._line = 0  # where the unterminated line starts
        self._dropping = False  # skipping an oversized document

    def feed(self, data: bytes) -> list[str]:
        docs: list[str] = []
        buf = self._buf
        scan = len(buf)  # the bytes before hold no newline
        buf += data
        while (end := buf.find(b"\n", scan)) >= 0:
            scan = end + 1
            line = buf[self._line:scan] if scan - self._line <= MAX_DOC_BYTES else b""
            if line.decode("utf-8", errors="replace").strip() in ("---", "..."):
                # The limit counts the closing marker line too, so where the
                # chunks split never changes what is dropped.
                if scan > MAX_DOC_BYTES:
                    self._drop()
                if not self._dropping:
                    text = buf[:self._line].decode("utf-8", errors="replace")
                    if text.strip():
                        docs.append(text)
                del buf[:scan]
                scan = 0
                self._dropping = False
            self._line = scan
        if len(buf) > MAX_DOC_BYTES:
            self._drop()
        if self._dropping:
            del buf[:self._line]
            self._line = 0
            if len(buf) > MAX_DOC_BYTES:
                # Cut an overlong line to one non-blank byte, so that what
                # follows of it never reads as a marker line.
                buf[:] = b"?"
        return docs

    def _drop(self) -> None:
        if not self._dropping:
            log.warning("dropping an inbound document over %d bytes", MAX_DOC_BYTES)
            self._dropping = True

    def close(self) -> None:
        """Drop any partial document (mid-document disconnect)."""
        self._buf.clear()
        self._line = 0
        self._dropping = False
