"""Signature table for every builtin action, predicate and helper.

Each builtin appears exactly once. Actions run only in chains and are
universally typed; predicates and helpers appear only in expressions, and a
predicate's expression type pins it to one rule section. Every builtin
carries its implementation as ``impl``, and both engines dispatch through
that field: an action's is the ``Engine`` method ``act_<name lowercased>``,
called ``impl(engine, *args)``; an expression builtin's is the function of
the same name in ``predicates``, called ``impl(engine, ctx, *args)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import predicates
from .runtime import Engine
from .typesys import ExprType, ValueType

S = ValueType.STRING
I = ValueType.INT
B = ValueType.BOOL
U = ValueType.UNIVERSAL


@dataclass(frozen=True)
class BuiltinSig:
    name: str
    kind: str  # "action" | "predicate" | "helper"
    expr_type: ExprType
    params: tuple[ValueType, ...]
    vararg: ValueType | None = None  # type of the variadic tail, if any
    result: ValueType = B
    # Indices of arguments that must be compile-time constants.
    const_args: tuple[int, ...] = ()
    # Indices of int arguments that must denote a level (level name,
    # CurrLevel, or an int variable initialized with a level name).
    level_args: tuple[int, ...] = ()
    # Actions: impl(engine, *args); expression builtins: impl(engine, ctx, *args).
    impl: object = field(default=None, compare=False, repr=False)

    def arity_ok(self, n: int) -> bool:
        if self.vararg is None:
            return n == len(self.params)
        return n >= len(self.params)

    def param_at(self, i: int) -> ValueType:
        if i < len(self.params):
            return self.params[i]
        return self.vararg


def _table(sigs: list[BuiltinSig]) -> dict[str, BuiltinSig]:
    out: dict[str, BuiltinSig] = {}
    for sig in sigs:
        assert sig.name not in out, sig.name
        if sig.kind == "action":
            impl = getattr(Engine, "act_" + sig.name.lower())
        else:
            impl = getattr(predicates, sig.name)
        out[sig.name] = replace(sig, impl=impl)
    return out


ACTIONS = _table([
    BuiltinSig("set", "action", ExprType.UNIVERSAL, (U, U)),
    BuiltinSig("crash", "action", ExprType.UNIVERSAL, (S,)),
    BuiltinSig("alert", "action", ExprType.UNIVERSAL, (S,)),
    BuiltinSig("exec", "action", ExprType.UNIVERSAL, (S,), vararg=S),
    BuiltinSig("True", "action", ExprType.UNIVERSAL, (), vararg=U),
    BuiltinSig("False", "action", ExprType.UNIVERSAL, (), vararg=U),
    BuiltinSig("trigger", "action", ExprType.UNIVERSAL, (I,), level_args=(0,)),
])

MSG_PREDICATES = _table([
    BuiltinSig("msgsubtype", "predicate", ExprType.MSG, (S, S)),
    BuiltinSig("msgtypein", "predicate", ExprType.MSG, (), vararg=S),
    BuiltinSig("payload", "predicate", ExprType.MSG, (S,), const_args=(0,)),
    BuiltinSig("plugin", "predicate", ExprType.MSG, (S,), const_args=(0,)),
    BuiltinSig("publishercount", "predicate", ExprType.MSG, (I, I)),
    BuiltinSig("publishers", "predicate", ExprType.MSG, (), vararg=S),
    BuiltinSig("publishersinclude", "predicate", ExprType.MSG, (), vararg=S),
    BuiltinSig("subscribercount", "predicate", ExprType.MSG, (I, I)),
    BuiltinSig("subscribers", "predicate", ExprType.MSG, (), vararg=S),
    BuiltinSig("subscribersinclude", "predicate", ExprType.MSG, (), vararg=S),
    BuiltinSig("topicin", "predicate", ExprType.MSG, (), vararg=S),
    BuiltinSig("topicmatches", "predicate", ExprType.MSG, (S,), const_args=(0,)),
])

GRAPH_PREDICATES = _table([
    BuiltinSig("nodes", "predicate", ExprType.GRAPH, (), vararg=S),
    BuiltinSig("nodesinclude", "predicate", ExprType.GRAPH, (), vararg=S),
    BuiltinSig("nodecount", "predicate", ExprType.GRAPH, (I, I)),
    BuiltinSig("service", "predicate", ExprType.GRAPH, (S, S)),
    BuiltinSig("servicecount", "predicate", ExprType.GRAPH, (S, I, I)),
    BuiltinSig("services", "predicate", ExprType.GRAPH, (S,), vararg=S),
    BuiltinSig("servicesinclude", "predicate", ExprType.GRAPH, (S,), vararg=S),
    BuiltinSig("topiccount", "predicate", ExprType.GRAPH, (I, I)),
    BuiltinSig("topics", "predicate", ExprType.GRAPH, (), vararg=S),
    BuiltinSig("topicsinclude", "predicate", ExprType.GRAPH, (), vararg=S),
    BuiltinSig("topicpublishercount", "predicate", ExprType.GRAPH, (S, I, I)),
    BuiltinSig("topicpublishers", "predicate", ExprType.GRAPH, (S,), vararg=S),
    BuiltinSig("topicpublishersinclude", "predicate", ExprType.GRAPH, (S,), vararg=S),
    BuiltinSig("topicsubscribercount", "predicate", ExprType.GRAPH, (S, I, I)),
    BuiltinSig("topicsubscribers", "predicate", ExprType.GRAPH, (S,), vararg=S),
    BuiltinSig("topicsubscribersinclude", "predicate", ExprType.GRAPH, (S,), vararg=S),
])

EXTERNAL_PREDICATES = _table([
    BuiltinSig("idsalert", "predicate", ExprType.EXTERNAL, (S,)),
    BuiltinSig("signal", "predicate", ExprType.EXTERNAL, (S,), const_args=(0,)),
])

UNIVERSAL_HELPERS = _table([
    BuiltinSig("levelname", "helper", ExprType.UNIVERSAL, (I,), result=S, level_args=(0,)),
    BuiltinSig("string", "helper", ExprType.UNIVERSAL, (U,), result=S),
])

EXPRESSION_BUILTINS: dict[str, BuiltinSig] = {
    **MSG_PREDICATES,
    **GRAPH_PREDICATES,
    **EXTERNAL_PREDICATES,
    **UNIVERSAL_HELPERS,
}

ALL_BUILTINS: dict[str, BuiltinSig] = {**ACTIONS, **EXPRESSION_BUILTINS}
