"""YAML wire protocol: inbound event decoding, outbound outcome encoding,
and framing of a byte stream into documents.

Inbound events follow the monitor's schema: a mapping with ``event``
(``graph`` or ``message``), a full ``context`` (nodes and topics), the
monitor's echo of the current level/gravity/last alert, and for message
events the ``topic``, ``msgtype`` and base64 ``payload`` keys. A
publisher/subscriber list consisting of null entries decodes to the empty
set. Outcomes go out as one YAML document each, with a fixed key order so
the byte stream is stable.

A monitor sends the full graph with every event, and on a deployed robot
that graph rarely changes. ``decode_event`` therefore keeps the
``GraphContext`` of the last eligible document's ``context:`` block, keyed
on the block's exact text, and when the next document carries the same
block it parses only the small rest of that document. A document is
eligible when it is in block style with one column-0 ``context:`` line, the
block is that line and the indented lines after it, every other line is a
one-line top-level ``key: scalar`` entry (plain, or single-quoted and closed
on the line; a leading ``---`` and a trailing ``...`` line are allowed), and
the block holds none of ``& * ! % | > [ ] { } " ' # ?``, a tab or a line
break other than ``\n``. Nothing in such a block can link to, span past or
resolve differently from the rest of the document, so its graph is a
function of its text. Any other document, and an eligible one whose block
differs from the cached one, goes through the full parse, after which an
eligible block and its graph replace the cached pair. The cache thus holds
one graph and one block no longer than its document, which the framer
bounds by ``MAX_DOC_BYTES``, however many distinct contexts a monitor sends.
A cached graph is shared by every event decoded from its block, so a
``GraphContext`` must never be mutated. ``parse_graph_context`` runs, and
its debug lines about malformed entries fire, only on a miss.
"""

from __future__ import annotations

import base64
import logging
import math
import re
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


# The context block of the last eligible document decoded, and its graph.
# One entry is what the measured traffic needs: a monitor resends the graph
# it sent last, and on perfbench's steady_graph workload (6000 events, three
# seeds) a second entry saves only the 0.3% of events that return to the
# normal graph after an intruder leaves, and eight entries save no more.
_last_block: str | None = None
_last_graph: GraphContext | None = None

# The newline that ends the last line of a `context:` block.
_BLOCK_END = re.compile(r"\n[^ ]")
# What makes a block ineligible: indicators that link to, span past or
# resolve against the rest of the document, tabs, and YAML line breaks
# other than "\n".
_BLOCK_BARRED = "&*!%|>[]{}\"'#?\t\r\x85\u2028\u2029"
# One top-level `key: scalar` line other than `context`: a single-quoted
# scalar closed on the line, or a plain one that starts with no indicator and
# holds printable ASCII but no `#`. Every repeat is of one character class or
# starts at a quote pair, so a long payload line costs the regex engine no
# backtracking state per character.
_QUOTED = r"'[^'\n\r\x85\u2028\u2029]*(?:''[^'\n\r\x85\u2028\u2029]*)*' *"
_PLAIN = r"[$()+./0-9;A-Z\\^_a-z~][ -\"$-~]*"
_LINE = rf"(?!context:)[A-Za-z_][A-Za-z0-9_]*:(?: +(?:{_QUOTED}|{_PLAIN})?)?"
# The lines before the block, after an optional `---` line, and the lines
# after it, up to an optional `...` line.
_HEAD = re.compile(rf"(?:---\n)?(?:{_LINE}\n)*")
_TAIL = re.compile(rf"(?:{_LINE}\n)*(?:{_LINE}|\.\.\.\n?)?")


def _context_span(text: str) -> tuple[int, int] | None:
    """Where the ``context:`` block of a document starts and ends, when every
    other line of the document is a one-line ``key: scalar`` entry."""
    if text.startswith("context:\n"):
        start = 0
    else:
        start = text.find("\ncontext:\n") + 1
        if not start:
            return None
    m = _BLOCK_END.search(text, start + 8)
    end = m.start() + 1 if m else len(text)
    if _HEAD.fullmatch(text, 0, start) and _TAIL.fullmatch(text, end):
        return start, end
    return None


def clear_context_cache() -> None:
    """Forget the cached graph, so that the next decode starts cold."""
    global _last_block, _last_graph
    _last_block = _last_graph = None


def decode_event(doc) -> InboundEvent:
    """Decode one YAML document (text or pre-parsed mapping) into an event.

    Any input that cannot be understood raises ``DecodeError`` and nothing
    else, so a hostile document costs the caller one skipped event. The
    graph of an eligible document's ``context:`` block comes from the cache
    when the block is the one last decoded (see the module docstring).
    """
    global _last_block, _last_graph
    if isinstance(doc, str) and (span := _context_span(doc)) is not None:
        start, end = span
        block = doc[start:end]
        if block == _last_block:
            return _event(_load(doc[:start] + doc[end:]) or {}, _last_graph)
        # Free the old graph before the parse builds a new one, so that a
        # stream of misses peaks at one graph, as it would with no cache.
        _last_block = _last_graph = None
        event = _event(_load(doc))
        if not any(c in block for c in _BLOCK_BARRED):
            _last_block, _last_graph = block, event.graph
        return event
    if isinstance(doc, (str, bytes)):
        doc = _load(doc)
    return _event(doc)


def _load(text):
    try:
        return yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # ValueError: scalar constructors, e.g. a timestamp "2001-13-45".
        raise DecodeError(f"invalid YAML: {exc}") from exc


def _event(doc, graph: GraphContext | None = None) -> InboundEvent:
    """The event of a parsed document; ``graph``, when given, stands for
    its ``context`` entry, which ``doc`` then lacks."""
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
    if graph is None:
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


# Wider than any line an engine writes, so the dumper never folds one.
_WIDTH = 1_000_000


def _document(mapping: dict) -> str:
    """One framed YAML document, keys in the mapping's order."""
    body = yaml.dump(mapping, Dumper=_Dumper, sort_keys=False, default_flow_style=False, width=_WIDTH)
    return "---\n" + body + "...\n"


def encode_event(doc: dict) -> str:
    """Serialize a monitor-side event mapping as one framed YAML document."""
    return _document(doc)


# The pure-Python emitter's scalar analysis and the dumper's resolver, as
# encode_outcome asks them how a string is written.
_ANALYZE_SCALAR = yaml.emitter.Emitter(None).analyze_scalar
_RESOLVE = yaml.resolver.Resolver().resolve
_STR_TAG = "tag:yaml.org,2002:str"


def _str_scalar(value) -> str | None:
    """``value`` as the dumper writes it as a block mapping value: plain or
    single-quoted, as ``Emitter.choose_scalar_style`` picks; None when the
    value spans lines, is long enough to fold, or needs double quotes.
    Quoting at most doubles a value, so one under a quarter of the width
    stays on its line."""
    if type(value) is not str or len(value) > _WIDTH // 4:
        return None
    analysis = _ANALYZE_SCALAR(value)
    if analysis.multiline:
        return None
    if analysis.allow_block_plain and _RESOLVE(yaml.ScalarNode, value, (True, False)) == _STR_TAG:
        return value
    if analysis.allow_single_quoted:
        return "'" + value.replace("'", "''") + "'"
    return None


def _float_scalar(value) -> str | None:
    """``value`` as ``SafeRepresenter.represent_float`` writes it."""
    if type(value) is not float:
        return None
    if value != value:
        return ".nan"
    if value in (math.inf, -math.inf):
        return ".inf" if value > 0 else "-.inf"
    text = repr(value).lower()
    if "." not in text and "e" in text:
        text = text.replace("e", ".0e", 1)
    return text


def encode_outcome(o: Outcome) -> str:
    """One framed outcome document with the bytes ``_document`` would write,
    from a fixed template unless a value needs the dumper's quoting."""
    kind, level, text = _str_scalar(o.kind), _str_scalar(o.level), _str_scalar(o.text)
    gravity = _float_scalar(o.gravity)
    if None in (kind, level, gravity, text) or type(o.timestamp_ns) is not int:
        return _document(
            {
                "event": o.kind,
                "level": o.level,
                "gravity": o.gravity,
                "text": o.text,
                "timestamp": o.timestamp_ns,
            }
        )
    return f"---\nevent: {kind}\nlevel: {level}\ngravity: {gravity}\ntext: {text}\ntimestamp: {o.timestamp_ns}\n...\n"


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
    lines: a line that reads as one of them after ``str.strip()``, decoded
    with ``errors="replace"``. Bytes may arrive split at arbitrary
    boundaries; a partial document left at connection close is discarded.
    A document longer than ``MAX_DOC_BYTES`` is dropped with one warning and
    framing resumes at the next marker line, so the stream holds at most
    that many bytes between feeds.

    Only a line that contains ``---`` or ``...`` can be a marker line, so the
    framer jumps from one such candidate line to the next with
    ``bytearray.find`` and decodes and strips the candidates alone; the
    lines in between are skipped whole. The buffer is cut once per feed, so
    the work of a feed is linear in the bytes it holds, however many
    documents they frame.
    """

    def __init__(self):
        self._buf = bytearray()  # the document's lines, then the unterminated line
        self._line = 0  # where the unterminated line starts
        self._dropping = False  # skipping an oversized document

    def feed(self, data: bytes) -> list[str]:
        docs: list[str] = []
        buf = self._buf
        old = len(buf)
        buf += data
        # The complete lines not yet searched are buf[line:end]; the current
        # document starts at doc.
        line, doc = self._line, 0
        end = buf.rfind(b"\n", old) + 1 or line
        # The next "---" and "..." at or after line; end when there is none
        # (find's -1 modulo end + 1).
        dash = dots = -1
        while line < end:
            if dash < line:
                dash = buf.find(b"---", line, end) % (end + 1)
            if dots < line:
                dots = buf.find(b"...", line, end) % (end + 1)
            at = min(dash, dots)
            if at == end:
                break
            start = buf.rfind(b"\n", line, at) + 1 or line
            line = buf.find(b"\n", at) + 1
            marker = line - start <= MAX_DOC_BYTES and buf[start:line].decode("utf-8", errors="replace").strip()
            if marker in ("---", "..."):
                # The limit counts the closing marker line too, so where the
                # chunks split never changes what is dropped.
                if line - doc > MAX_DOC_BYTES:
                    self._drop()
                if not self._dropping:
                    text = buf[doc:start].decode("utf-8", errors="replace")
                    if text.strip():
                        docs.append(text)
                doc = line
                self._dropping = False
        del buf[:doc]
        self._line = end - doc
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
