"""Source-to-source translation of a checked program into a standalone
Python program.

Each rule becomes one function ``(E, ctx)`` with its trigger expression
inlined and the action chain lowered to connector-conditional calls. One
table, ``RULES``, lists them by section name (``"Graph"``, ``"Msg"``,
``"External"``), and the program hands it to the same ``Engine`` the
interpreter uses. A predefined name is read as the ``Engine`` attribute
its symbol names (``E.current``, ``E.time_ns``, ``E.uptime_ns``).
Every builtin call names its ``BuiltinSig.impl``, the function object the
interpreter calls, with the same arguments: an expression builtin becomes
``_P.<name>(E, ctx, ...)`` of its ``predicates`` function, an action
``E.act_<name>(...)`` of its engine method. A prepared first argument
(``Call.resource``) is written as its literal, except that a compiled regex
or a pattern file becomes a module constant ``_R<n>``, built at import from
the regex or the pattern text that the checker read.
Every operator likewise names the ``impl`` the checker bound on its node: a
``values`` function becomes ``_V.<name>(...)``; a plain Python operator is
written inline, ``!`` as ``not``, and ``&&`` and ``||``, which have no
``impl``, as ``and`` and ``or``. The ``support`` layer, ``_rt``, supplies
the engine and the program's entry point.
Equivalence with the interpreter is checked by the differential test
(``tests/test_differential.py``). Generated output is deterministic except
for the generated-at manifest line.
"""

from __future__ import annotations

import datetime
import math

from . import __version__, values
from .checker import CheckedProgram
from .patterns import PatternFile
from .regexlite import CompiledPattern
from .syntax import Binary, Call, Literal, Name, Rule, Unary


def _constant(value) -> str:
    """Python source for a rule constant. A NaN or infinite float has no
    literal, so it is spelled ``float('nan')``, ``float('inf')`` or
    ``float('-inf')``."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value)


class _Gen:
    def __init__(self):
        self.constants: list[str] = []  # the source that builds each _R<n>

    # --- expressions ---

    def expr(self, e) -> str:
        if isinstance(e, Literal):
            return _constant(e.value)
        if isinstance(e, Name):
            sym = e.binding
            if sym.kind == "var":
                return f"E.variables[{sym.name!r}]"
            if sym.kind == "predefined":
                return f"E.{sym.value}"
            # const / level / rule-local const: folded value inlined
            return _constant(sym.value)
        if isinstance(e, Unary):
            inner = self.expr(e.operand)
            if e.impl.__module__ == values.__name__:
                return f"_V.{e.impl.__name__}({inner})"
            if e.op == "!":
                return f"(not {inner})"
            if e.op == "+":
                return f"({inner})"
            return f"({e.op}{inner})"
        if isinstance(e, Binary):
            a = self.expr(e.left)
            b = self.expr(e.right)
            if e.impl is None:
                return f"({a} {'and' if e.op == '&&' else 'or'} {b})"
            if e.impl.__module__ == values.__name__:
                return f"_V.{e.impl.__name__}({a}, {b})"
            return f"({a} {e.op} {b})"
        if isinstance(e, Call):
            return self.call(e)
        raise AssertionError(f"unexpected node {e!r}")

    def call(self, call: Call) -> str:
        return f"_P.{call.sig.impl.__name__}({', '.join(['E', 'ctx', *self.arguments(call)])})"

    def arguments(self, call: Call) -> list[str]:
        """The prepared first argument, if any, then the evaluated rest."""
        if call.resource is None:
            return [self.expr(a) for a in call.args]
        return [self.prepared(call.resource), *[self.expr(a) for a in call.args[1:]]]

    def prepared(self, value) -> str:
        """A prepared argument: a compiled regex or a pattern file as a
        module constant ``_R<n>`` built at import from its text, anything
        else as its literal."""
        if isinstance(value, CompiledPattern):
            self.constants.append(f"_rt.compile_regex({value.pattern!r})")
        elif isinstance(value, PatternFile):
            self.constants.append(f"_rt.parse_pattern_text({value.source!r})")
        else:
            return repr(value)
        return f"_R{len(self.constants) - 1}"

    # --- chains ---

    def rule_fn(self, fn_name: str, rule: Rule) -> list[str]:
        lines = [f"def {fn_name}(E, ctx):"]
        lines.append(f"    if not ({self.expr(rule.trigger)}):")
        lines.append("        return")
        # Nothing follows a chain in its function, so each connector returns
        # early and a chain of any length stays at one indentation level.
        for idx, item in enumerate(rule.chain):
            if idx:
                conn = rule.chain[idx - 1].connector
                if conn == "=>":
                    lines.append("    if not r:")
                    lines.append("        return")
                elif conn == "!>":
                    lines.append("    if r:")
                    lines.append("        return")
            call = item.action
            lines.append(f"    r = E.{call.sig.impl.__name__}({', '.join(self.arguments(call))})")
        lines.append("")
        lines.append("")
        return lines


def transpile(checked: CheckedProgram, timestamp: str | None = None) -> str:
    """Emit a standalone Python program equivalent to interpreting
    ``checked``."""
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    # The rule functions come first, so that the constants they name are known.
    gen = _Gen()
    functions: list[str] = []
    table = ["RULES = {"]
    for kind, rules in checked.rules.items():
        table.append(f"    {kind.value!r}: [")
        for i, rule in enumerate(rules):
            fn_name = f"_{kind.value.lower()}{i}"
            functions.extend(gen.rule_fn(fn_name, rule))
            table.append(f"        ({rule.rule_id!r}, {fn_name}),")
        table.append("    ],")
    table.append("}")

    out: list[str] = []
    w = out.append
    w("#!/usr/bin/env python3")
    w(f"# Generated rule program; do not edit.")
    w(f"# source: {repr(checked.source_name)[1:-1]}")
    w(f"# engine-version: {__version__}")
    w(f"# generated-at: {timestamp}")
    w("")
    w("import sys")
    w("")
    w("from rips import predicates as _P")
    w("from rips import support as _rt")
    w("from rips import values as _V")
    w("")
    levels = [(d.name, d.soft) for d in checked.levels]
    w(f"LEVELS = {levels!r}")
    w(f"SCRIPTS_DIR = {checked.scripts_dir!r}")
    for i, source in enumerate(gen.constants):
        w(f"_R{i} = {source}")
    w(f"PLUGINS = {checked.plugins!r}")
    var_init = ", ".join(f"{name!r}: {_constant(value)}" for name, value in checked.var_initial.items())
    w(f"VAR_INIT = {{{var_init}}}")
    w("")
    w("")
    out.extend(functions)
    out.extend(table)
    w("")
    w("")
    w("def build_engine(**engine_kwargs):")
    w('    """The engine; keywords as for rips.runtime.Engine: clock, runner, counters, sink, config."""')
    w("    return _rt.Engine(")
    w("        levels=LEVELS,")
    w("        scripts_dir=SCRIPTS_DIR,")
    w("        var_init=VAR_INIT,")
    w("        rules=RULES,")
    w("        **engine_kwargs,")
    w("    )")
    w("")
    w("")
    w("def main(argv=None):")
    w("    return _rt.compiled_main(build_engine, argv, levels=LEVELS,")
    w("                             scripts_dir=SCRIPTS_DIR, plugins=PLUGINS)")
    w("")
    w("")
    w('if __name__ == "__main__":')
    w("    sys.exit(main())")
    w("")
    return "\n".join(out)


def load_generated(source: str, module_name: str = "generated_rules"):
    """Compile and execute generated source in-process; returns the module
    namespace (exposing build_engine and main)."""
    import types

    module = types.ModuleType(module_name)
    code = compile(source, f"<{module_name}>", "exec")
    exec(code, module.__dict__)
    return module
