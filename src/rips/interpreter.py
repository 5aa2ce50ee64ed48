"""The tree-walking interpreter, the reference semantics of the rules.

``InterpretedEngine`` builds an ``Engine`` whose rule functions walk the
checked AST. Every builtin call, action or expression, goes through its
``BuiltinSig.impl``, with the same arguments a generated program passes:
the first argument the checker prepared in ``Call.resource``, if there is
one, then the evaluated rest. Every operator goes through the ``impl`` the
checker bound on its ``Unary`` or ``Binary`` node from the operator table in
``values``; only ``&&`` and ``||``, which short-circuit, are walked here.

This module, and the AST in ``syntax`` with it, is off a generated
program's import path. ``rips.cli`` imports it at the top of the file, so
that it is compiled before ``check_file`` builds the checked program.
"""

from __future__ import annotations

import functools

from .runtime import Engine
from .syntax import Binary, Call, Literal, Name, Rule, Unary


def InterpretedEngine(checked, **kwargs) -> Engine:
    """The engine of a ``CheckedProgram`` whose rule functions walk its AST;
    keywords as for ``Engine``: clock, runner, counters, sink, config."""
    return Engine(
        levels=[(d.name, d.soft) for d in checked.levels],
        scripts_dir=checked.scripts_dir,
        var_init=checked.var_initial,
        graph_rules=[(r.rule_id, functools.partial(run_rule, r)) for r in checked.graph_rules],
        msg_rules=[(r.rule_id, functools.partial(run_rule, r)) for r in checked.msg_rules],
        external_rules=[(r.rule_id, functools.partial(run_rule, r)) for r in checked.external_rules],
        **kwargs,
    )


def run_rule(rule: Rule, E: Engine, ctx) -> None:
    """Interpret one rule: its trigger, then its chain of actions."""
    if evaluate(E, rule.trigger, ctx) is not True:
        return
    prev = None
    for idx, item in enumerate(rule.chain):
        if idx:
            conn = rule.chain[idx - 1].connector
            if conn == "=>" and prev is not True:
                return
            if conn == "!>" and prev is not False:
                return
        call = item.action
        prev = call.sig.impl(E, *_arguments(E, call, ctx))


def _arguments(E: Engine, call: Call, ctx) -> list:
    """The prepared first argument, if any, then the evaluated rest."""
    if call.resource is None:
        return [evaluate(E, a, ctx) for a in call.args]
    return [call.resource, *[evaluate(E, a, ctx) for a in call.args[1:]]]


def evaluate(E: Engine, e, ctx):
    """The value of expression ``e`` in rule context ``ctx``."""
    cls = type(e)
    if cls is Literal:
        return e.value
    if cls is Name:
        sym = e.binding
        kind = sym.kind
        if kind == "var":
            return E.variables[sym.name]
        if kind == "predefined":
            if sym.name == "CurrLevel":
                return E.current
            if sym.name == "Time":
                return E.time_ns
            return E.time_ns - E.start_ns
        return sym.value
    if cls is Binary:
        if e.impl is not None:
            return e.impl(evaluate(E, e.left, ctx), evaluate(E, e.right, ctx))
        if e.op == "&&":
            return evaluate(E, e.left, ctx) and evaluate(E, e.right, ctx)
        return evaluate(E, e.left, ctx) or evaluate(E, e.right, ctx)
    if cls is Unary:
        return e.impl(evaluate(E, e.operand, ctx))
    # Call
    return e.sig.impl(E, ctx, *_arguments(E, e, ctx))
