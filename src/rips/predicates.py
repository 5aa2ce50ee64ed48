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


class IdsAlertScanner:
    """Recursive substring search over IDS alert files.

    Scans every file under ``directory`` (and subdirectories) whose name
    matches ``name_pattern``. A missing directory yields False and is logged
    once.
    """

    def __init__(self, directory: str, name_pattern: str):
        self.directory = directory
        self.name_pattern = name_pattern
        self._warned_missing = False

    def search(self, needle: str) -> bool:
        if not os.path.isdir(self.directory):
            if not self._warned_missing:
                log.warning("IDS alerts directory %s does not exist", self.directory)
                self._warned_missing = True
            return False
        for root, _dirs, files in os.walk(self.directory):
            for fname in sorted(files):
                if not fnmatch.fnmatch(fname, self.name_pattern):
                    continue
                path = os.path.join(root, fname)
                try:
                    with open(path, "r", encoding="utf-8", errors="replace") as fh:
                        if needle in fh.read():
                            return True
                except OSError as exc:
                    log.warning("cannot read IDS alert file %s: %s", path, exc)
        return False


# --- Helpers, valid in every section ---


def levelname(E, ctx, ordinal: int) -> str:
    return E.levelname(ordinal)


def string(E, ctx, value) -> str:
    return values.to_string(value)
