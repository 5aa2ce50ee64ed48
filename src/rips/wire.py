"""YAML wire protocol: inbound event decoding, outbound outcome encoding,
and framing of a byte stream into documents.

Inbound events follow the monitor's schema: a mapping with ``event``
(``graph`` or ``message``), a full ``context`` (nodes and topics), the
monitor's echo of the current level/gravity/last alert, and for message
events the ``topic``, ``msgtype`` and base64 ``payload`` keys. No rule
reads the echo, so it is parsed but not decoded: a ``currentgrav`` that is
not a number does not cost the event. The context decodes to a
``GraphContext`` of the name sets rules read; a node's ``gids``, a
service's ``params`` and a topic's ``parameters`` are read and dropped. A
publisher/subscriber list consisting of null entries decodes to the empty
set. The decoded ``InboundEvent`` is itself the context of the Msg rules.
Outcomes go out as one YAML document each, with a fixed key order so the
byte stream is stable.

The monitor writes a narrow dialect of YAML, and ``decode_event`` reads it
with a line recognizer instead of libyaml. A document is in the dialect
when, after an optional ``---`` line and before an optional ``...`` line,
every line is a top-level ``key: scalar`` entry except one column-0
``context:`` line and the indented lines after it (the block). The block
holds block mappings and block sequences, indented under their key or not,
of ``key: scalar``, ``key:`` and ``- `` lines. A scalar sits on one line
and is plain or single-quoted; a plain scalar resolves as PyYAML's YAML 1.1
implicit resolvers resolve it, and is built as its ``SafeConstructor``
builds it. The recognizer either returns exactly the mapping the safe
loader would, or declines: at a comment or flow indicator (``# , [ ] { }``)
outside single quotes; at a key or plain scalar that starts with any other
indicator, such as an anchor, alias, tag, block scalar or double quote; at
a quoted key, a tab, a blank line, a multi-line scalar, a line break other
than ``\n`` or a character outside printable ASCII; at a scalar that
resolves to a type other than str, null, int or float, or a key that
resolves to any type but str; and at nesting deeper than ``MAX_DEPTH``.
The tokens of a short line are kept in a bounded cache, because a monitor
repeats its entries.

A monitor sends the full graph with every event, and on a deployed robot
that graph rarely changes. ``decode_event`` therefore keeps the
``GraphContext`` of the last block the recognizer read, keyed on the
block's exact text, and when the next document carries the same block it
reads only the rest of the document's lines. Nothing in the dialect can
link to, span past or resolve differently from the rest of the document,
so a block's graph is a function of its text. The cache holds one graph and
one block no longer than its document, which the framer bounds by
``MAX_DOC_BYTES``, however many distinct contexts a monitor sends. A cached
graph is shared by every event decoded from its block, so a
``GraphContext`` must never be mutated. ``parse_graph_context`` runs, and
its debug lines about malformed entries fire, only on a miss.

A document the recognizer declines takes the full parse, bounded: a walk of
libyaml's events rejects it at its first alias or at a collection nested
deeper than ``MAX_DEPTH`` before the composer recurses into it, so neither
an alias bomb nor a 50,000-deep nesting gets further than one
``DecodeError``.

The serving path imports neither PyYAML nor ``dataclasses``
(``InboundEvent`` and ``Outcome`` are ``NamedTuple``s). The recognizer
resolves and builds a plain scalar with its own copy of PyYAML's YAML 1.1
implicit resolvers and its int, float and null constructors, and
``encode_outcome`` writes an outcome whose strings are single-line
printable ASCII from a template. PyYAML is imported at the first read of an attribute of the
module-level ``yaml``: by the full parse of a document the recognizer
declines, by ``encode_event`` (an outcome with any other string takes it)
and by ``decode_outcome``. It stays a dependency, and ``rips simulate``
reads its scenario with it.
"""

from __future__ import annotations

import base64
import functools
import logging
import math
import re
from typing import NamedTuple

from .errors import RipsError

log = logging.getLogger("rips.wire")


class _PyYAML:
    """Stands for the ``yaml`` module until one of its attributes is read,
    which imports PyYAML and puts the module in its place."""

    def __getattr__(self, name):
        global yaml
        import yaml as module

        if yaml is self:
            yaml = module
        return getattr(module, name)


yaml = _PyYAML()


def _safe(what: str):
    """PyYAML's ``CSafeLoader`` or ``CSafeDumper``, or its pure-Python safe
    class when libyaml is not built in."""
    return getattr(yaml, "CSafe" + what, None) or getattr(yaml, "Safe" + what)


class DecodeError(RipsError):
    """Inbound document cannot be understood; the event is skipped."""


_KNOWN_EVENT_KEYS = {"currentlevel", "currentgrav", "lastalert", "event", "context", "topic", "msgtype", "payload"}
_KNOWN_NODE_KEYS = {"node", "gids", "services"}
_KNOWN_TOPIC_KEYS = {"topic", "parameters", "publishers", "subscribers"}


class GraphContext:
    """The node and topic names, and per name the services of a node and the
    publishers and subscribers of a topic; an absent name has the empty set.

    The keys of ``services`` are the node names and those of ``publishers``
    and ``subscribers`` the topic names. A graph is shared by every event
    decoded from the same context block, so it must never be mutated.
    """

    __slots__ = ("node_names", "topic_names", "_services", "_publishers", "_subscribers")

    def __init__(self, services: dict, publishers: dict, subscribers: dict):
        self._services = services
        self._publishers = publishers
        self._subscribers = subscribers
        self.node_names = frozenset(services)
        self.topic_names = frozenset(publishers)

    def services_of(self, node: str) -> frozenset[str]:
        return self._services.get(node, frozenset())

    def publishers_of(self, topic: str) -> frozenset[str]:
        return self._publishers.get(topic, frozenset())

    def subscribers_of(self, topic: str) -> frozenset[str]:
        return self._subscribers.get(topic, frozenset())


class InboundEvent(NamedTuple):
    kind: str  # "graph" | "message"
    graph: GraphContext
    topic: str = ""
    msg_type: str = ""
    payload: bytes = b""


class Outcome(NamedTuple):
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
    # A name listed twice takes its sets from its last entry.
    services = {}
    for raw in _entries(mapping.get("nodes"), "context nodes"):
        if not isinstance(raw, dict) or "node" not in raw:
            log.debug("ignoring malformed node entry: %r", raw)
            continue
        for key in raw:
            if key not in _KNOWN_NODE_KEYS:
                log.debug("ignoring unknown node key %r", key)
        names = []
        for sraw in _entries(raw.get("services"), "node services"):
            if not isinstance(sraw, dict) or "service" not in sraw:
                log.debug("ignoring malformed service entry: %r", sraw)
                continue
            names.append(str(sraw["service"]))
        services[str(raw["node"])] = frozenset(names)
    publishers, subscribers = {}, {}
    for raw in _entries(mapping.get("topics"), "context topics"):
        if not isinstance(raw, dict) or "topic" not in raw:
            log.debug("ignoring malformed topic entry: %r", raw)
            continue
        for key in raw:
            if key not in _KNOWN_TOPIC_KEYS:
                log.debug("ignoring unknown topic key %r", key)
        topic = str(raw["topic"])
        pubs = publishers[topic] = _names(raw.get("publishers"), "publishers")
        subs = subscribers[topic] = _names(raw.get("subscribers"), "subscribers")
        for name in (pubs | subs).difference(services):
            log.debug("topic %s references unknown node %r", topic, name)
    return GraphContext(services, publishers, subscribers)


# The context block of the last document the recognizer took, and its
# graph. One entry is what the measured traffic needs: a monitor resends the
# graph it sent last, and on perfbench's steady_graph workload (6000 events,
# three seeds) a second entry saves only the 0.3% of events that return to
# the normal graph after an intruder leaves, and eight entries save no more.
_last_block: str | None = None
_last_graph: GraphContext | None = None

# The deepest nesting of collections a document may have, the top-level
# mapping counted; the schema needs about 8.
MAX_DEPTH = 64


class _Declined(Exception):
    """The recognizer does not take the document; the full parse does."""


# Printable ASCII that may start a plain scalar: no indicator, and "-" only
# before a character that continues one, as in "-1".
_FIRST = r"(?:[$()+./0-9;<=A-Z\\^_a-z~]|-(?=[!\"$-+\--9;-Z\\^-z|~]))"
# Printable ASCII that may continue one, besides ":" and space: no "#" and
# no flow indicator.
_INNER = r"!\"$-+\--9;-Z\\^-z|~"
# One line of the dialect: indentation, an optional "- " sequence entry, an
# optional "key:" whose key is short enough to be a YAML simple key, and an
# optional scalar, plain or single-quoted, then trailing spaces. Each scalar
# is one run of a character class, so a long line costs a single scan; what
# the classes let through (": " or a trailing ":" in a plain scalar, a lone
# quote in a quoted one) is checked on the match.
_LINE = re.compile(
    rf"( *)(?:(-)(?: +|$))?(?:({_FIRST}[{_INNER}]{{0,127}}):(?: +|$))?(?:({_FIRST}[{_INNER}: ]*)|'([ -~]*)')? *"
)
# The newline that ends the last line of a `context:` block.
_BLOCK_END = re.compile(r"\n[^ ]")

# PyYAML's YAML 1.1 implicit resolvers, in its order: a tag, the first
# characters of the plain scalars it is tried on ("" for the empty scalar),
# and the pattern such a scalar must match. A scalar none matches is a str.
_RESOLVERS = (
    ("bool", "yYnNtTfFoO", r"yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF"),
    ("float", "-+0123456789.", r"[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?"
     r"|[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)"),
    ("int", "-+0123456789", r"[-+]?0b[0-1_]+|[-+]?0[0-7_]+|[-+]?(?:0|[1-9][0-9_]*)|[-+]?0x[0-9a-fA-F_]+"
     r"|[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+"),
    ("merge", "<", r"<<"),
    ("null", ("~", "n", "N", ""), r"~|null|Null|NULL|"),
    ("timestamp", "0123456789", r"[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]"
     r"|[0-9][0-9][0-9][0-9]-[0-9][0-9]?-[0-9][0-9]?(?:[Tt]|[ \t]+)[0-9][0-9]?:[0-9][0-9]:[0-9][0-9](?:\.[0-9]*)?"
     r"(?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?"),
    ("value", "=", r"="),
    ("yaml", "!&*", r"!|&|\*"),
)
# A plain scalar's first character ("" for the empty scalar) to the (tag,
# pattern) pairs tried on it, in order.
_IMPLICIT: dict[str, list[tuple[str, re.Pattern]]] = {}
for _name, _firsts, _pattern in _RESOLVERS:
    for _first in _firsts:
        _IMPLICIT.setdefault(_first, []).append((f"tag:yaml.org,2002:{_name}", re.compile(rf"(?:{_pattern})$")))
_STR_TAG = "tag:yaml.org,2002:str"


def _plain_tag(text: str) -> str:
    """The tag PyYAML's ``Resolver().resolve`` gives a plain scalar."""
    for tag, pattern in _IMPLICIT.get(text[:1], ()):
        if pattern.match(text):
            return tag
    return _STR_TAG


def _signed(text: str) -> tuple[int, str]:
    """A number's sign and the rest of its text, its ``_`` dropped."""
    text = text.replace("_", "")
    return (-1 if text[0] == "-" else 1), (text[1:] if text[0] in "+-" else text)


def _sexagesimal(digits: list, value):
    """``value`` plus base-60 ``digits``, summed from the last one as
    ``SafeConstructor`` sums them, so that a float rounds as it does."""
    base = 1
    for digit in reversed(digits):
        value += digit * base
        base *= 60
    return value


def _int(text: str) -> int:
    """``SafeConstructor.construct_yaml_int``; ValueError at, e.g., "0b_"."""
    sign, text = _signed(text)
    if text.startswith("0b"):
        return sign * int(text[2:], 2)
    if text.startswith("0x"):
        return sign * int(text[2:], 16)
    if text[0] == "0":
        return sign * int(text, 8)
    if ":" in text:
        return sign * _sexagesimal([int(part) for part in text.split(":")], 0)
    return sign * int(text)


def _float(text: str) -> float:
    """``SafeConstructor.construct_yaml_float``."""
    sign, text = _signed(text.lower())
    if text == ".inf":
        return sign * math.inf
    if text == ".nan":
        return -math.inf / math.inf  # SafeConstructor's nan_value
    if ":" in text:
        return sign * _sexagesimal([float(part) for part in text.split(":")], 0.0)
    return sign * float(text)


_BUILD = {"tag:yaml.org,2002:null": lambda text: None, "tag:yaml.org,2002:int": _int,
          "tag:yaml.org,2002:float": _float}


def _plain(text: str):
    """A plain scalar's value as the safe loader builds it. Any type but
    str, null, int and float declines."""
    tag = _plain_tag(text)
    if tag == _STR_TAG:
        return text
    build = _BUILD.get(tag)
    if build is None:
        raise _Declined
    try:
        return build(text)
    except ValueError:  # e.g. "0b_", which the full parse rejects too
        raise _Declined from None


_DASH, _SCALAR, _EMPTY = object(), object(), object()


def _line_tokens(line: str) -> tuple[tuple, ...]:
    """One line as (column, kind, value) tokens: a sequence entry's dash
    (kind ``_DASH``), then a bare scalar (``_SCALAR``) or a mapping key (the
    key itself, with ``_EMPTY`` for no value on the line)."""
    m = _LINE.fullmatch(line)
    if m is None:
        raise _Declined
    indent, dash, key, plain, quoted = m.groups()
    tokens = ((len(indent), _DASH, None),) if dash else ()
    if plain is not None:
        plain = plain.rstrip(" ")
        if ": " in plain or plain[-1] == ":":
            raise _Declined
        value, at = _plain(plain), m.start(4)
    elif quoted is not None:
        if "'" in quoted.replace("''", ""):
            raise _Declined
        value, at = quoted.replace("''", "'"), m.start(5) - 1
    elif key is not None:
        value = _EMPTY
    elif dash:
        return tokens
    else:
        raise _Declined  # a blank line
    if key is None:
        return tokens + ((at, _SCALAR, value),)
    if type(_plain(key)) is not str:
        raise _Declined
    return tokens + ((m.start(3), key, value),)


# A monitor sends the same entries again and again (a node's gids and
# services, a topic's type), so the tokens of a line up to this long are
# kept, for a bounded number of lines.
_CACHED_LINE = 128
_cached_line_tokens = functools.lru_cache(maxsize=512)(_line_tokens)


def _tokens(lines: list[str]) -> list[tuple]:
    tokens = []
    for line in lines:
        tokens += (_cached_line_tokens if len(line) <= _CACHED_LINE else _line_tokens)(line)
    return tokens


def _node(tokens: list[tuple], i: int, depth: int) -> tuple[object, int]:
    """The node whose first token is ``tokens[i]``, nested ``depth`` deep,
    and the index of the token after it. A token in a column that no open
    collection has ends every collection; the caller declines it."""
    if depth > MAX_DEPTH:
        raise _Declined
    col, kind, value = tokens[i]
    n = len(tokens)
    if kind is _SCALAR:
        return value, i + 1
    if kind is _DASH:
        items = []
        while i < n and tokens[i][0] == col and tokens[i][1] is _DASH:
            i += 1
            if i < n and tokens[i][0] > col:
                item, i = _node(tokens, i, depth + 1)
            else:
                item = None
            items.append(item)
        return items, i
    mapping = {}
    while i < n and tokens[i][0] == col:
        _, key, value = tokens[i]
        if key is _DASH or key is _SCALAR:
            raise _Declined
        i += 1
        if value is _EMPTY:
            # The value is the next token's node when that token is deeper,
            # or is a dash in this column (an indentless sequence).
            if i < n and (tokens[i][0] > col or tokens[i][0] == col and tokens[i][1] is _DASH):
                value, i = _node(tokens, i, depth + 1)
            else:
                value = None
        mapping[key] = value
    return mapping, i


def _recognize(text: str) -> tuple[dict, str] | None:
    """The mapping of a document's top-level lines other than its
    ``context:`` block, and that block's text; None when the document is
    not in the monitor's dialect outside the block."""
    if text.startswith("context:\n"):
        start = 0
    else:
        start = text.find("\ncontext:\n") + 1
        if not start:
            return None
    m = _BLOCK_END.search(text, start + 8)
    end = m.start() + 1 if m else len(text)
    head, tail = text[:start].split("\n"), text[end:].split("\n")
    del head[-1]  # what follows the last newline: nothing
    if head[:1] == ["---"]:
        del head[0]
    if tail[-1:] == [""]:
        del tail[-1]
    if tail[-1:] == ["..."]:
        del tail[-1]
    try:
        tokens = _tokens(head + tail)
    except _Declined:
        return None
    rest = {}
    for col, key, value in tokens:
        if col or key is _DASH or key is _SCALAR or key == "context":
            return None
        rest[key] = None if value is _EMPTY else value
    return rest, text[start:end]


def _block_value(block: str):
    """The value of a ``context:`` block; ``_Declined`` when the block is
    not in the dialect."""
    lines = block.split("\n")
    if lines[-1] == "":
        del lines[-1]
    tokens = _tokens(lines[1:])
    if not tokens:
        return None
    value, i = _node(tokens, 0, 2)
    if i != len(tokens):
        raise _Declined
    return value


def clear_context_cache() -> None:
    """Forget the cached graph, so that the next decode starts cold."""
    global _last_block, _last_graph
    _last_block = _last_graph = None


def decode_event(text: str) -> InboundEvent:
    """Decode the text of one YAML document into an event.

    Any input that cannot be understood raises ``DecodeError`` and nothing
    else, so a hostile document costs the caller one skipped event. A
    document in the monitor's dialect is read by the recognizer, and the
    graph of its ``context:`` block comes from the cache when the block is
    the one last read (see the module docstring).
    """
    global _last_block, _last_graph
    if (parts := _recognize(text)) is not None:
        rest, block = parts
        if block == _last_block:
            return _event(rest, _last_graph)
        # Free the old graph before the new one is built, so that a stream
        # of misses peaks at one graph, as it would with no cache.
        _last_block = _last_graph = None
        try:
            rest["context"] = _block_value(block)
        except _Declined:
            pass
        else:
            event = _event(rest)
            _last_block, _last_graph = block, event.graph
            return event
    return _event(_load(text))


def _load(text):
    """The full parse, after a walk of the parser's events that rejects a
    document at its first alias or at a collection nested deeper than
    ``MAX_DEPTH``, before libyaml's composer recurses into it."""
    try:
        depth = 0
        for event in yaml.parse(text, Loader=_safe("Loader")):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise DecodeError(f"collections nested deeper than {MAX_DEPTH}")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
            elif isinstance(event, yaml.AliasEvent):
                raise DecodeError("the document uses an alias")
        return yaml.load(text, Loader=_safe("Loader"))
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
    if kind == "graph":
        return InboundEvent(kind, graph)
    raw = doc.get("payload")
    try:
        payload = base64.b64decode(str(raw), validate=True) if raw else b""
    except (ValueError, TypeError) as exc:
        raise DecodeError(f"payload is not valid base64: {exc}") from exc
    return InboundEvent(kind, graph, str(doc.get("topic") or ""), str(doc.get("msgtype") or ""), payload)


# Wider than any line an engine writes, so the dumper never folds one.
_WIDTH = 1_000_000


def encode_event(doc: dict) -> str:
    """Serialize a monitor-side event mapping as one framed YAML document,
    keys in the mapping's order."""
    body = yaml.dump(doc, Dumper=_safe("Dumper"), sort_keys=False, default_flow_style=False, width=_WIDTH)
    return "---\n" + body + "...\n"


# What keeps a printable ASCII string from being written plain, as
# PyYAML's ``Emitter.analyze_scalar`` finds it: a leading or trailing space, a
# leading document marker or indicator, a leading "?" or "-" before a space
# or the end, any ":" before a space or the end, and a "#" after a space.
_NOT_PLAIN = re.compile(r"""^(?:[ #,\[\]{}&*!|>'"%@`]|[?-](?: |\Z)|---|\.\.\.)|:(?: |\Z)| #| \Z""")


def _str_scalar(value) -> str | None:
    """``value`` as the dumper writes it as a block mapping value, when it
    is single-line printable ASCII: plain when ``_NOT_PLAIN`` finds nothing
    and it resolves to a str, as ``Emitter.choose_scalar_style`` picks, and
    single-quoted otherwise. Neither asks PyYAML, which ``encode_event``
    alone loads. None for any other string, which the dumper writes (it may
    double-quote or fold it), and for one long enough to fold: quoting at
    most doubles a value, so one under a quarter of the width stays on its
    line."""
    if type(value) is not str or len(value) > _WIDTH // 4 or not (value.isascii() and value.isprintable()):
        return None
    if _NOT_PLAIN.search(value) is None and _plain_tag(value) == _STR_TAG:
        return value
    return "'" + value.replace("'", "''") + "'"


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
    """One framed outcome document with the bytes ``encode_event`` would write,
    from a fixed template unless a value needs the dumper's quoting."""
    kind, level, text = _str_scalar(o.kind), _str_scalar(o.level), _str_scalar(o.text)
    gravity = _float_scalar(o.gravity)
    if None in (kind, level, gravity, text) or type(o.timestamp_ns) is not int:
        return encode_event(
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
        doc = yaml.load(doc, Loader=_safe("Loader"))
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
