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

``decode_event`` reads only the YAML that PyYAML's block dumper writes for
a monitor event, with a line recognizer; any other document is one
``DecodeError`` "outside the monitor's dialect", and nothing else parses
inbound bytes. In the dialect, after an optional ``---`` line and before an
optional ``...`` line, every line is a column-0 ``key: value`` entry, but
for an optional ``context:`` line and the indented lines after it (the
block). The block holds block mappings and sequences, indented under their
key or not, of ``key: value``, ``key:`` and ``- `` lines. A value is one
line: a plain scalar, a single- or double-quoted one (with YAML's escapes),
or ``[]`` or ``{}``. A top-level value may also be a single-quoted scalar
whose later lines are indented or empty, as the dumper writes a string with
a line break. A plain scalar resolves as PyYAML's YAML 1.1 implicit
resolvers do and must be a str, null, int or float, and a number must be
spelled as the dumper writes its value: an int as ``str`` writes it, a float
as ``SafeRepresenter.represent_float`` does (``_float_scalar``). Such a
number builds to the value ``SafeConstructor`` gives it. A key must be a
str. Comments, non-empty flow collections, anchors, aliases, tags, block
scalars, multi-line scalars in the block, tabs, blank lines, line breaks
other than ``\n`` and characters outside printable ASCII are refused, and
so is nesting deeper than ``MAX_DEPTH``, with its own message. What the
recognizer returns is what ``yaml.safe_load`` returns. The tokens of a
short line are kept in a bounded cache, because a monitor repeats its
entries.

A monitor sends the full graph with every event, and on a deployed robot
that graph rarely changes. ``decode_event`` therefore keeps the
``GraphContext`` of the last block it read, keyed on the block's exact
text, and when the next document carries the same block it reads only the
rest of the document's lines. Nothing in the dialect can link to, span past
or resolve differently from the rest of the document, so a block's graph is
a function of its text. The cache holds one graph and one block no longer
than its document, which the framer bounds by ``MAX_DOC_BYTES``, however
many distinct contexts a monitor sends. A cached graph is shared by every
event decoded from its block, so a ``GraphContext`` must never be mutated.
``parse_graph_context`` runs, and its debug lines about malformed entries
fire, only on a miss.

``encode_outcome`` writes every outcome from a template, in the bytes
``encode_event`` writes, but for a string with a line break, which goes out
double-quoted on one line. The serving path imports neither PyYAML nor
``dataclasses``. PyYAML loads at the first read of an attribute of the
module-level ``yaml``, which only the monitor-side helpers ``encode_event``
and ``decode_outcome`` read; ``rips simulate`` and the tests use them.
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

_OUTSIDE = "outside the monitor's dialect"

# Printable ASCII that may start a plain scalar: no indicator, and "-", "?"
# or ":" only before a character that is not a space, as in "-1".
_FIRST = r"(?:[$()+./0-9;<=A-Z\\^_a-z~]|[-?:](?=[!-~]))"
# A key: a plain scalar short enough to be a YAML simple key, of printable
# ASCII other than ":", space, "#" and the flow indicators.
_KEY = rf"{_FIRST}[!\"$-+\--9;-Z\\^-z|~]{{0,127}}"
# YAML's escapes in a double-quoted scalar, by the character after the "\";
# the dumper writes all but the last three.
_UNESCAPE = dict(zip('0abtnvfre"\\N_LP \t/', '\0\a\b\t\n\v\f\r\x1b"\\\x85\xa0\u2028\u2029 \t/'))
# The text of a one-line double-quoted scalar: printable ASCII but '"' and
# "\", and escapes, a "\U" one at most U+10FFFF.
_DOUBLE = (r'(?:[ !#-\[\]-~]|\\(?:[0abtnvfre"\\N_LP \t/]|x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}'
           r'|U00(?:10|0[0-9A-Fa-f])[0-9A-Fa-f]{4}))*')
_ESCAPE_SEQUENCE = re.compile(r"\\(x..|u.{4}|U.{8}|.)")
# One line of the dialect: indentation, an optional "- ", an optional
# "key:" and an optional value: a plain scalar with its trailing spaces, or a
# quoted scalar or "[]" or "{}" and trailing spaces. Each scalar is one run,
# so a line costs one scan and a failing line backtracks only over that run;
# what the runs let through (": ", " #" or a trailing ":" in a plain scalar,
# a lone quote in a single-quoted one) is checked on the match.
_LINE = re.compile(
    rf"( *)(?:(-)(?: +|$))?(?:({_KEY}):(?: +|$))?"
    rf"(?:({_FIRST}[ -~]*)|(?:'([ -~]*)'|\"({_DOUBLE})\"|(\[\]|\{{\}})) *)?"
)
# A top-level entry whose single-quoted value spans lines.
_MULTILINE = re.compile(rf"({_KEY}): +'((?:[ -&(-~\n]|'')*)' *")
# A line break in such a value, the spaces around it and the empty lines
# after it, which YAML folds to a newline for each empty line, or to a space
# when there are none.
_FOLD = re.compile(r"(?<! ) *\n *((?:\n *)*)")
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


# The non-finite floats, as the dumper writes them and ``SafeConstructor``
# builds them.
_NON_FINITE = {".inf": math.inf, "-.inf": -math.inf, ".nan": -math.inf / math.inf}


def _plain(text: str):
    """A plain scalar's value as the safe loader builds it. A number must be
    written as the monitor's dumper writes its value, ``str(int)`` or
    ``_float_scalar``; any other number, and any type but str, null, int and
    float, is outside the dialect."""
    tag = _plain_tag(text)
    if tag == _STR_TAG:
        return text
    if tag == "tag:yaml.org,2002:null":
        return None
    try:
        if tag == "tag:yaml.org,2002:int":
            value = int(text)
            if str(value) == text:
                return value
        elif tag == "tag:yaml.org,2002:float":
            value = _NON_FINITE[text] if text in _NON_FINITE else float(text)
            if _float_scalar(value) == text:
                return value
    except ValueError:  # e.g. "0x1f", or an int past Python's 4,300 digits
        pass
    raise DecodeError(_OUTSIDE)


# The value of a "[]" or "{}" token is the type ``list`` or ``dict``, called
# for a new collection each time the token is read.
_DASH, _SCALAR, _EMPTY = object(), object(), object()


def _line_tokens(line: str) -> tuple[tuple, ...]:
    """One line as (column, kind, value) tokens: a sequence entry's dash
    (kind ``_DASH``), then a bare value (``_SCALAR``) or a mapping key (the
    key itself, with ``_EMPTY`` for no value on the line)."""
    m = _LINE.fullmatch(line)
    if m is None:
        raise DecodeError(_OUTSIDE)
    indent, dash, key, plain, single, double, flow = m.groups()
    tokens = ((len(indent), _DASH, None),) if dash else ()
    if plain is not None:
        plain = plain.rstrip(" ")
        if ": " in plain or " #" in plain or plain[-1] == ":":
            raise DecodeError(_OUTSIDE)
        value, at = _plain(plain), m.start(4)
    elif single is not None:
        if "'" in single.replace("''", ""):
            raise DecodeError(_OUTSIDE)
        value, at = single.replace("''", "'"), m.start(5) - 1
    elif double is not None:
        value = _ESCAPE_SEQUENCE.sub(lambda e: _UNESCAPE.get(e[1]) or chr(int(e[1][1:], 16)), double)
        at = m.start(6) - 1
    elif flow is not None:
        value, at = (list if flow == "[]" else dict), m.start(7)
    elif key is not None:
        value = _EMPTY
    elif dash:
        return tokens
    else:
        raise DecodeError(_OUTSIDE)  # a blank line
    if key is None:
        return tokens + ((at, _SCALAR, value),)
    if type(_plain(key)) is not str:
        raise DecodeError(_OUTSIDE)
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
    collection has ends every collection; the caller refuses it."""
    col, kind, value = tokens[i]
    if kind is _SCALAR and value is not list and value is not dict:
        return value, i + 1
    if depth > MAX_DEPTH:
        raise DecodeError(f"collections nested deeper than {MAX_DEPTH}")
    if kind is _SCALAR:
        return value(), i + 1
    n = len(tokens)
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
            raise DecodeError(_OUTSIDE)
        i += 1
        if value is _EMPTY:
            # The value is the next token's node when that token is deeper,
            # or is a dash in this column (an indentless sequence).
            if i < n and (tokens[i][0] > col or tokens[i][0] == col and tokens[i][1] is _DASH):
                value, i = _node(tokens, i, depth + 1)
            else:
                value = None
        elif value is list or value is dict:
            if depth == MAX_DEPTH:
                raise DecodeError(f"collections nested deeper than {MAX_DEPTH}")
            value = value()
        mapping[key] = value
    return mapping, i


def _top_level(text: str, rest: dict) -> None:
    """Add to ``rest`` the entries of a run of top-level lines: a column-0
    ``key: value`` line, or a ``key: '...`` line and the indented or empty
    lines of its value."""
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]  # what follows the last newline: nothing
    i, n = 0, len(lines)
    while i < n:
        j = i + 1
        while j < n and lines[j][:1] in ("", " "):
            j += 1
        if j == i + 1:
            tokens = (_cached_line_tokens if len(lines[i]) <= _CACHED_LINE else _line_tokens)(lines[i])
            col, key, value = tokens[0]
            if len(tokens) > 1 or col or key is _DASH or key is _SCALAR:
                raise DecodeError(_OUTSIDE)
            rest[key] = None if value is _EMPTY else value() if value is list or value is dict else value
        elif (m := _MULTILINE.fullmatch("\n".join(lines[i:j]))) and type(_plain(m[1])) is str:
            rest[m[1]] = _FOLD.sub(lambda f: "\n" * f[1].count("\n") or " ", m[2]).replace("''", "'")
        else:
            raise DecodeError(_OUTSIDE)
        i = j


def _recognize(text: str) -> tuple[dict, str | None]:
    """The mapping of a document's top-level lines other than its
    ``context:`` block, and that block's text, or None when the document has
    no block; ``DecodeError`` when the document is not in the monitor's
    dialect outside the block."""
    text = text.removeprefix("---\n")
    if text.endswith(("\n...\n", "\n...")):
        text = text[:text.rindex("\n...") + 1]
    start = 0 if text.startswith("context:\n") else text.find("\ncontext:\n") + 1 or len(text)
    m = _BLOCK_END.search(text, start + 8)
    end = m.start() + 1 if m else len(text)
    rest = {}
    _top_level(text[:start], rest)
    _top_level(text[end:], rest)
    if start == len(text):
        return rest, None
    if "context" in rest:
        raise DecodeError(_OUTSIDE)
    return rest, text[start:end]


def _block_value(block: str):
    """The value of a ``context:`` block; ``DecodeError`` when the block is
    not in the dialect."""
    lines = block.split("\n")
    if lines[-1] == "":
        del lines[-1]
    tokens = _tokens(lines[1:])
    if not tokens:
        return None
    value, i = _node(tokens, 0, 2)
    if i != len(tokens):
        raise DecodeError(_OUTSIDE)
    return value


def clear_context_cache() -> None:
    """Forget the cached graph, so that the next decode starts cold."""
    global _last_block, _last_graph
    _last_block = _last_graph = None


def decode_event(text: str) -> InboundEvent:
    """Decode the text of one YAML document into an event.

    Any input that cannot be understood raises ``DecodeError`` and nothing
    else, so a hostile document costs the caller one skipped event. The
    graph of the document's ``context:`` block comes from the cache when the
    block is the one last read (see the module docstring).
    """
    global _last_block, _last_graph
    rest, block = _recognize(text)
    if block is None:
        return _event(rest)
    if block == _last_block:
        return _event(rest, _last_graph)
    # Free the old graph before the new one is built, so that a stream of
    # misses peaks at one graph, as it would with no cache.
    _last_block = _last_graph = None
    rest["context"] = _block_value(block)
    event = _event(rest)
    _last_block, _last_graph = block, event.graph
    return event


def _event(doc: dict, graph: GraphContext | None = None) -> InboundEvent:
    """The event of a document's mapping; ``graph``, when given, stands for
    its ``context`` entry, which ``doc`` then lacks."""
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
# What a double-quoted scalar escapes: all but printable ASCII, and '"' and
# "\"; by name where the dumper has one.
_ESCAPED = re.compile(r'[^ !#-\[\]-~]')
_ESCAPE = {char: "\\" + name for name, char in _UNESCAPE.items() if name not in " \t/"}


def _escape(m: re.Match) -> str:
    code = ord(m[0])
    return _ESCAPE.get(m[0]) or (f"\\x{code:02X}" if code <= 0xFF else f"\\u{code:04X}" if code <= 0xFFFF
                                 else f"\\U{code:08X}")


def _str_scalar(value: str) -> str:
    """``value`` as the dumper writes it as a block mapping value: plain
    when it is single-line printable ASCII, ``_NOT_PLAIN`` finds nothing and
    it resolves to a str, as ``Emitter.choose_scalar_style`` picks, else
    single-quoted, and any other string double-quoted with the dumper's
    escapes. The dumper writes most strings with a line break over several
    single-quoted lines, and this on one double-quoted line."""
    if value.isascii() and value.isprintable():
        if _NOT_PLAIN.search(value) is None and _plain_tag(value) == _STR_TAG:
            return value
        return "'" + value.replace("'", "''") + "'"
    return '"' + _ESCAPED.sub(_escape, value) + '"'


def _float_scalar(value: float) -> str:
    """``value`` as ``SafeRepresenter.represent_float`` writes it."""
    if value != value:
        return ".nan"
    if value in (math.inf, -math.inf):
        return ".inf" if value > 0 else "-.inf"
    text = repr(value).lower()
    if "." not in text and "e" in text:
        text = text.replace("e", ".0e", 1)
    return text


def encode_outcome(o: Outcome) -> str:
    """One framed outcome document, from a fixed template: the bytes
    ``encode_event`` writes for it, unless a string holds a line break (see
    ``_str_scalar``)."""
    return (f"---\nevent: {_str_scalar(o.kind)}\nlevel: {_str_scalar(o.level)}\n"
            f"gravity: {_float_scalar(o.gravity)}\ntext: {_str_scalar(o.text)}\ntimestamp: {o.timestamp_ns}\n...\n")


def decode_outcome(doc) -> Outcome:
    """Monitor-side decoding of the text of an outcome document, as a
    monitor or a load generator reads the engine's replies."""
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
    lines: a line that reads as one of them after ``str.rstrip()``, decoded
    with ``errors="replace"``, so that, as in YAML, an indented ``...`` line
    of a multi-line scalar is not one. Bytes may arrive split at arbitrary
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
            marker = line - start <= MAX_DOC_BYTES and buf[start:line].decode("utf-8", errors="replace").rstrip()
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
