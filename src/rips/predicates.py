"""Implementations of the expression builtins.

Every builtin takes one calling form, ``(E, ctx, *args)``: the engine, the
rule's context (a ``MessageContext`` for Msg rules, a ``GraphContext`` for
Graph rules, ``None`` for External rules) and the arguments. Both engines
build the arguments the same way: the first argument the checker prepared
in ``Call.resource``, if there is one, then the evaluated rest. The
resource builtins (``topicmatches``, ``payload``, ``plugin``, ``signal``)
thus receive the index of their precompiled resource, or the signal name,
in place of their constant argument. Each ``BuiltinSig`` in
``signatures.EXPRESSION_BUILTINS`` carries its function here as ``impl``;
the interpreter calls it and generated code names it, so both engines run
the same code. (Actions are ``Engine`` methods, dispatched the same way.)

Set-shaped predicates come in three flavors per subject: exact equality
against the argument set, an inclusion test, and an inclusive count range.
Inclusion direction differs by family: the graph-inventory builtins
(nodesinclude, topicsinclude) test that the live inventory stays within the
argument allowlist, while the per-entity builtins (services, publishers and
subscribers of one topic or node) test that every argument is present in
the live set, which is what membership rules like "this node must not be a
subscriber" need.

Absent topics and nodes contribute empty sets, so count predicates see 0.
"""

from __future__ import annotations

import fnmatch
import logging
import os
import re
import stat
import time

from . import values
from .context import GraphContext, MessageContext

log = logging.getLogger("rips.predicates")


# --- Msg predicates (over the current message) ---


def topicin(E, ctx: MessageContext, *topics: str) -> bool:
    return ctx.topic in topics


def msgtypein(E, ctx: MessageContext, *types: str) -> bool:
    return ctx.msg_type in types


def msgsubtype(E, ctx: MessageContext, pkg: str, leaf: str) -> bool:
    parts = ctx.msg_type.split("/")
    if len(parts) < 2:
        return False
    return parts[0] == pkg and parts[-1] == leaf


def publishers(E, ctx: MessageContext, *pubs: str) -> bool:
    return ctx.graph.publishers_of(ctx.topic) == frozenset(pubs)


def publishersinclude(E, ctx: MessageContext, *pubs: str) -> bool:
    return frozenset(pubs) <= ctx.graph.publishers_of(ctx.topic)


def publishercount(E, ctx: MessageContext, lo: int, hi: int) -> bool:
    return lo <= len(ctx.graph.publishers_of(ctx.topic)) <= hi


def subscribers(E, ctx: MessageContext, *subs: str) -> bool:
    return ctx.graph.subscribers_of(ctx.topic) == frozenset(subs)


def subscribersinclude(E, ctx: MessageContext, *subs: str) -> bool:
    return frozenset(subs) <= ctx.graph.subscribers_of(ctx.topic)


def subscribercount(E, ctx: MessageContext, lo: int, hi: int) -> bool:
    return lo <= len(ctx.graph.subscribers_of(ctx.topic)) <= hi


def topicmatches(E, ctx: MessageContext, index: int) -> bool:
    return E.regexes[index].full_match(ctx.topic)


def payload(E, ctx: MessageContext, index: int) -> bool:
    return E.patterns[index].match(ctx.payload)


def plugin(E, ctx: MessageContext, index: int) -> bool:
    return E.runner.run_plugin(E.plugins[index], ctx.payload)


# --- Graph predicates ---


def nodes(E, g: GraphContext, *names: str) -> bool:
    return g.node_names == frozenset(names)


def nodesinclude(E, g: GraphContext, *names: str) -> bool:
    return g.node_names <= frozenset(names)


def nodecount(E, g: GraphContext, lo: int, hi: int) -> bool:
    return lo <= len(g.node_names) <= hi


def topics(E, g: GraphContext, *names: str) -> bool:
    return g.topic_names == frozenset(names)


def topicsinclude(E, g: GraphContext, *names: str) -> bool:
    return g.topic_names <= frozenset(names)


def topiccount(E, g: GraphContext, lo: int, hi: int) -> bool:
    return lo <= len(g.topic_names) <= hi


def service(E, g: GraphContext, node: str, srv: str) -> bool:
    return srv in g.services_of(node)


def services(E, g: GraphContext, node: str, *srvs: str) -> bool:
    return g.services_of(node) == frozenset(srvs)


def servicesinclude(E, g: GraphContext, node: str, *srvs: str) -> bool:
    return frozenset(srvs) <= g.services_of(node)


def servicecount(E, g: GraphContext, node: str, lo: int, hi: int) -> bool:
    return lo <= len(g.services_of(node)) <= hi


def topicpublishers(E, g: GraphContext, topic: str, *names: str) -> bool:
    return g.publishers_of(topic) == frozenset(names)


def topicpublishersinclude(E, g: GraphContext, topic: str, *names: str) -> bool:
    return frozenset(names) <= g.publishers_of(topic)


def topicpublishercount(E, g: GraphContext, topic: str, lo: int, hi: int) -> bool:
    return lo <= len(g.publishers_of(topic)) <= hi


def topicsubscribers(E, g: GraphContext, topic: str, *names: str) -> bool:
    return g.subscribers_of(topic) == frozenset(names)


def topicsubscribersinclude(E, g: GraphContext, topic: str, *names: str) -> bool:
    return frozenset(names) <= g.subscribers_of(topic)


def topicsubscribercount(E, g: GraphContext, topic: str, lo: int, hi: int) -> bool:
    return lo <= len(g.subscribers_of(topic)) <= hi


# --- External predicates ---


def idsalert(E, ctx, needle: str) -> bool:
    return E.ids.search(needle)


def signal(E, ctx, name: str) -> bool:
    return E.counters.consume(name)


# Distinct needles whose answers are kept per file; one more drops the others.
_MAX_NEEDLES = 32
# File system timestamps are coarse (2 s on FAT), so a file can change again
# without changing its stamp for this long after its last modification.
_SETTLE_NS = 2_000_000_000
# Characters read from an alert file at a time. A text stream's read of n
# characters holds about 3n bytes at once (the raw chunk, the copy it keeps
# for tell() and the decoded text), so the window is the stream's own 8 KiB
# chunk, and a scan peaks near 50 KB of allocations however large the file.
_WINDOW_CHARS = 8 * 1024


def _open_nonblocking(path: str, flags: int) -> int:
    """Open without waiting for a writer, should ``path`` turn into a FIFO
    between its ``stat`` and the open."""
    return os.open(path, flags | os.O_NONBLOCK)


def _contains(fh, needle: str) -> bool:
    """``needle in fh.read()``, read ``_WINDOW_CHARS`` characters at a time
    and stopping at the first hit. Each window is searched behind the last
    ``len(needle) - 1`` characters before it, so a needle that straddles two
    windows is found; the text stream itself carries a cut UTF-8 sequence
    or a ``\r`` that may start a ``\r\n`` from one read to the next."""
    if not needle:
        return True
    keep = len(needle) - 1
    overlap = ""
    while window := fh.read(_WINDOW_CHARS):
        text = overlap + window
        if needle in text:
            return True
        overlap = text[max(0, len(text) - keep):]
    return False


class _AlertFile:
    """The answers read from one alert file (one inode) at one stamp."""

    __slots__ = ("stamp", "recheck_ns", "answers")

    def __init__(self, stamp: tuple[int, int], recheck_ns: int | None):
        self.stamp = stamp
        self.recheck_ns = recheck_ns
        self.answers: dict[str, bool] = {}


class IdsAlertScanner:
    """Recursive substring search over IDS alert files.

    Searches every regular file under ``directory`` (and subdirectories)
    whose name matches ``name_pattern``, as a text-mode read sees it: UTF-8
    with ``errors="replace"`` and universal newlines. Anything else with a
    matching name (a FIFO, a device, a socket) is skipped, because opening
    it could block the loop. A missing directory yields False and is logged
    once until it exists again; a file that cannot be read is logged once
    until it can be read again.

    A file is read ``_WINDOW_CHARS`` characters at a time, and only until
    the needle is found, so the memory a scan takes is bounded by that
    window and the needle's length, not by the size of the log.

    Each call stats every file, and a file is read again only when its
    stamp, the size and modification time, has changed since its last
    read. Per file, keyed on (device, inode), the scanner keeps that stamp
    and the answer for each needle asked of it (``_AlertFile``), at most
    ``_MAX_NEEDLES`` of them because ``idsalert``'s argument need not be a
    constant. A rotated file is a new inode, and an append or a truncation
    changes the size, so all are seen at once. A rewrite that keeps the
    size is seen by its modification time: if that is still within
    ``_SETTLE_NS`` of the read, where a coarse timestamp might not tell two
    writes apart, the file is read once more when that time has passed. A
    rewrite that keeps the size and sets the modification time back (``cp
    -p``, ``touch -r``) is not seen. State for files no longer found is
    dropped after each walk.
    """

    def __init__(self, directory: str, name_pattern: str):
        self.directory = directory
        self._name_match = re.compile(fnmatch.translate(name_pattern)).match
        self._warned_missing = False
        self._unreadable: set[str] = set()
        self._files: dict[tuple[int, int], _AlertFile] = {}

    def search(self, needle: str) -> bool:
        if not os.path.isdir(self.directory):
            if not self._warned_missing:
                log.warning("IDS alerts directory %s does not exist", self.directory)
                self._warned_missing = True
            self._files.clear()
            return False
        self._warned_missing = False
        found = False
        files: dict[tuple[int, int], _AlertFile] = {}
        unreadable: set[str] = set()
        for root, _dirs, names in os.walk(self.directory):
            for fname in sorted(names):
                if not self._name_match(fname):
                    continue
                path = os.path.join(root, fname)
                try:
                    st = os.stat(path)
                    if not stat.S_ISREG(st.st_mode):
                        continue
                    key = (st.st_dev, st.st_ino)
                    f = self._answer(key, path, (st.st_size, st.st_mtime_ns), needle)
                except OSError as exc:
                    unreadable.add(path)
                    if path not in self._unreadable:
                        log.warning("cannot read IDS alert file %s: %s", path, exc)
                    continue
                files[key] = f
                found = found or f.answers[needle]
        self._files = files
        self._unreadable = unreadable
        return found

    def _answer(self, key: tuple[int, int], path: str, stamp: tuple[int, int], needle: str) -> _AlertFile:
        """The state of file ``key``, holding the answer for ``needle``."""
        f = self._files.get(key)
        now = time.time_ns()
        if f is not None and f.stamp == stamp and (f.recheck_ns is None or now < f.recheck_ns):
            if needle in f.answers:
                return f
            if len(f.answers) >= _MAX_NEEDLES:
                f.answers.clear()
        else:
            f = None
        with open(path, encoding="utf-8", errors="replace", opener=_open_nonblocking) as fh:
            st = os.fstat(fh.fileno())
            if (st.st_dev, st.st_ino) != key or not stat.S_ISREG(st.st_mode):
                raise OSError(f"{path} was replaced while it was scanned")
            found = _contains(fh, needle)
        if f is None:
            settled_ns = st.st_mtime_ns + _SETTLE_NS
            f = _AlertFile((st.st_size, st.st_mtime_ns), settled_ns if settled_ns > now else None)
        f.answers[needle] = found
        return f


# --- Helpers, valid in every section ---


def levelname(E, ctx, ordinal: int) -> str:
    return E.levelname(ordinal)


def string(E, ctx, value) -> str:
    return values.to_string(value)
