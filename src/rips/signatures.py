"""Signature table for every builtin action, predicate and helper.

Each builtin appears exactly once, in one of the two tables the checker
looks names up in: ``ACTIONS``, which run only in chains, and
``EXPRESSION_BUILTINS``, the predicates and helpers, which appear only in
expressions. A builtin's ``section`` is the rule section that may call it,
or None when every section may; the checker compares it with the section of
the calling rule. Every builtin carries its implementation as ``impl``, and
both engines dispatch through that field: an action's is the ``Engine``
method ``act_<name lowercased>``, called ``impl(engine, *args)``; an
expression builtin's is the function of the same name in ``predicates``,
called ``impl(engine, ctx, *args)``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import predicates
from .runtime import Engine
from .syntax import SectionKind
from .values import ValueType

S = ValueType.STRING
I = ValueType.INT
B = ValueType.BOOL
U = ValueType.UNIVERSAL
GRAPH, MSG, EXTERNAL = SectionKind.GRAPH, SectionKind.MSG, SectionKind.EXTERNAL


class BuiltinSig(NamedTuple):
    name: str
    section: SectionKind | None  # None: callable from every section
    params: tuple[ValueType, ...]
    vararg: ValueType | None = None  # type of the variadic tail, if any
    result: ValueType = B
    # Indices of arguments that must be compile-time constants.
    const_args: tuple[int, ...] = ()
    # Indices of int arguments that must denote a level (level name,
    # CurrLevel, or an int variable initialized with a level name).
    level_args: tuple[int, ...] = ()
    # Actions: impl(engine, *args); expression builtins: impl(engine, ctx, *args).
    impl: object = None

    def arity_ok(self, n: int) -> bool:
        if self.vararg is None:
            return n == len(self.params)
        return n >= len(self.params)

    def param_at(self, i: int) -> ValueType:
        if i < len(self.params):
            return self.params[i]
        return self.vararg


def _table(sigs: list[BuiltinSig], impl_of) -> dict[str, BuiltinSig]:
    """Name each signature and bind its ``impl`` to ``impl_of(name)``."""
    out: dict[str, BuiltinSig] = {}
    for sig in sigs:
        assert sig.name not in out, sig.name
        out[sig.name] = sig._replace(impl=impl_of(sig.name))
    return out


ACTIONS = _table([
    BuiltinSig("set", None, (U, U)),
    BuiltinSig("crash", None, (S,)),
    BuiltinSig("alert", None, (S,)),
    BuiltinSig("exec", None, (S,), vararg=S),
    BuiltinSig("True", None, (), vararg=U),
    BuiltinSig("False", None, (), vararg=U),
    BuiltinSig("trigger", None, (I,), level_args=(0,)),
], lambda name: getattr(Engine, "act_" + name.lower()))

EXPRESSION_BUILTINS = _table([
    BuiltinSig("msgsubtype", MSG, (S, S)),
    BuiltinSig("msgtypein", MSG, (), vararg=S),
    BuiltinSig("payload", MSG, (S,), const_args=(0,)),
    BuiltinSig("plugin", MSG, (S,), const_args=(0,)),
    BuiltinSig("publishercount", MSG, (I, I)),
    BuiltinSig("publishers", MSG, (), vararg=S),
    BuiltinSig("publishersinclude", MSG, (), vararg=S),
    BuiltinSig("subscribercount", MSG, (I, I)),
    BuiltinSig("subscribers", MSG, (), vararg=S),
    BuiltinSig("subscribersinclude", MSG, (), vararg=S),
    BuiltinSig("topicin", MSG, (), vararg=S),
    BuiltinSig("topicmatches", MSG, (S,), const_args=(0,)),
    BuiltinSig("nodes", GRAPH, (), vararg=S),
    BuiltinSig("nodesinclude", GRAPH, (), vararg=S),
    BuiltinSig("nodecount", GRAPH, (I, I)),
    BuiltinSig("service", GRAPH, (S, S)),
    BuiltinSig("servicecount", GRAPH, (S, I, I)),
    BuiltinSig("services", GRAPH, (S,), vararg=S),
    BuiltinSig("servicesinclude", GRAPH, (S,), vararg=S),
    BuiltinSig("topiccount", GRAPH, (I, I)),
    BuiltinSig("topics", GRAPH, (), vararg=S),
    BuiltinSig("topicsinclude", GRAPH, (), vararg=S),
    BuiltinSig("topicpublishercount", GRAPH, (S, I, I)),
    BuiltinSig("topicpublishers", GRAPH, (S,), vararg=S),
    BuiltinSig("topicpublishersinclude", GRAPH, (S,), vararg=S),
    BuiltinSig("topicsubscribercount", GRAPH, (S, I, I)),
    BuiltinSig("topicsubscribers", GRAPH, (S,), vararg=S),
    BuiltinSig("topicsubscribersinclude", GRAPH, (S,), vararg=S),
    BuiltinSig("idsalert", EXTERNAL, (S,)),
    BuiltinSig("signal", EXTERNAL, (S,), const_args=(0,)),
    BuiltinSig("levelname", None, (I,), result=S, level_args=(0,)),
    BuiltinSig("string", None, (U,), result=S),
], lambda name: getattr(predicates, name))
