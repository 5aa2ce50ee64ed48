"""Static checking: symbol resolution, value types, rule sections,
constant folding, usage analysis, resource validation and transition-script
checks.

Every expression has one value type (``values.ValueType``), with no
implicit casting. A builtin whose signature names a rule section may be
called only from a rule of that section; ``check_call`` enforces it.

The checker is strict: anything that can be caught statically is an error,
and all diagnostics found in one pass are reported together, in source
order.
"""

from __future__ import annotations

import os

from . import regexlite
from .bus import SIGNALS
from .errors import Diagnostic, EvalFault, StaticError
from .patterns import PatternFileError, load_pattern_file
from .parser import parse_source
from .runtime import plugin_problem, run_host_problems
from .signatures import ACTIONS, EXPRESSION_BUILTINS, BuiltinSig
from .syntax import Binary, Call, Literal, Name, Program, Rule, SectionKind, Unary
from .values import VALUE_TYPE_BY_NAME, ValueType
from . import values

_RESERVED = ("CurrLevel", "Time", "Uptime", "CurrRule")


class Symbol:
    __slots__ = ("name", "kind", "type", "value", "pos", "level_init", "read", "written")

    def __init__(self, name: str, kind: str, type: ValueType, value: object = None,
                 pos: tuple[int, int] = (0, 0), level_init: bool = False, read: bool = False,
                 written: bool = False):
        self.name = name
        self.kind = kind  # level | const | var | predefined | rule_const
        self.type = type
        self.value = value  # folded constant / level ordinal / var initial value / Engine attribute
        self.pos = pos
        self.level_init = level_init  # var initialized with a level name
        self.read = read
        self.written = written


class CheckedProgram:
    __slots__ = ("program", "symbols", "var_initial", "plugins", "scripts_dir", "rules")

    def __init__(self, program: Program, symbols: dict[str, Symbol], var_initial: dict[str, object],
                 plugins: list[str], scripts_dir: str | None, rules: dict[SectionKind, list[Rule]]):
        self.program = program
        self.symbols = symbols
        self.var_initial = var_initial
        self.plugins = plugins  # the resolved path of each plugin called, once each
        self.scripts_dir = scripts_dir
        self.rules = rules  # every section, in SectionKind order, to its rules in source order

    @property
    def levels(self):
        return self.program.levels

    @property
    def source_name(self) -> str:
        return self.program.source_name


class _UnitAbort(Exception):
    """Stop checking the current declaration/rule after a diagnostic."""


class _NotConstant(Exception):
    def __init__(self, node):
        self.node = node


_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")

# The diagnostic for an operand type an operator has no row for in
# ``values.UNARY`` or ``values.BINARY``.
_UNARY_NEEDS = {
    "!": "operator '{}' needs bool, got {}",
    "~": "operator '{}' needs int, got {}",
    "-": "unary '{}' needs int or float, got {}",
    "+": "unary '{}' needs int or float, got {}",
}
_BINARY_NEEDS = {
    "&&": "operator '{}' needs bool operands, got {}",
    "||": "operator '{}' needs bool operands, got {}",
    "==": "operator '{}' cannot compare {} values",
    "!=": "operator '{}' cannot compare {} values",
    **{op: "operator '{}' cannot order {} values" for op in ("<", "<=", ">", ">=")},
    "+": "operator '{}' needs numbers or strings, got {}",
    **{op: "operator '{}' needs int or float operands, got {}" for op in "-*/"},
    **{op: "operator '{}' needs int operands, got {}" for op in "%&^|"},
}


class _Checker:
    def __init__(self, program: Program, scripts_dir: str | None, base_dir: str):
        self.program = program
        self.scripts_dir = scripts_dir
        self.base_dir = base_dir
        self.diags: list[Diagnostic] = []
        # A predefined name's value is the Engine attribute both engines read.
        self.table: dict[str, Symbol] = {
            name: Symbol(name, "predefined", ValueType.INT, value=attr)
            for name, attr in (("CurrLevel", "current"), ("Time", "time_ns"), ("Uptime", "uptime_ns"))
        }
        self.plugins: list[str] = []
        self.var_initial: dict[str, object] = {}
        self.trigger_calls: list[Call] = []
        self.curr_rule: Symbol | None = None

    # --- diagnostics ---

    def fail(self, message: str, node) -> None:
        self.diags.append(Diagnostic(message, node.line, node.column))
        raise _UnitAbort()

    def note(self, message: str, node) -> None:
        self.diags.append(Diagnostic(message, node.line, node.column))

    # --- declarations ---

    def run(self) -> CheckedProgram:
        decls = sorted(
            [("level", d) for d in self.program.levels]
            + [("const", d) for d in self.program.consts]
            + [("var", d) for d in self.program.vars],
            key=lambda item: (item[1].line, item[1].column),
        )
        for kind, decl in decls:
            try:
                if kind == "level":
                    self.declare_level(decl)
                else:
                    self.declare_typed(kind, decl)
            except _UnitAbort:
                # Register a placeholder so one bad declaration does not
                # cascade into unknown-identifier noise downstream.
                if kind != "level" and decl.name not in self.table and decl.name not in _RESERVED:
                    default = {"int": 0, "float": 0.0, "bool": False, "string": ""}[decl.type_name]
                    self.table[decl.name] = Symbol(
                        decl.name,
                        kind,
                        VALUE_TYPE_BY_NAME[decl.type_name],
                        value=default,
                        pos=(decl.line, decl.column),
                        read=True,
                        written=True,
                    )
                    if kind == "var":
                        self.var_initial[decl.name] = default

        rules: dict[SectionKind, list[Rule]] = {kind: [] for kind in SectionKind}
        for section in self.program.rule_sections:
            rules[section.kind].extend(section.rules)
            for rule in section.rules:
                try:
                    self.check_rule(rule, section.kind)
                except _UnitAbort:
                    pass

        self.check_usage()

        if self.trigger_calls and not self.program.levels:
            self.diags.append(
                Diagnostic(
                    "trigger is used but the program declares no levels",
                    self.trigger_calls[0].line,
                    self.trigger_calls[0].column,
                )
            )

        if self.scripts_dir is not None:
            self.diags.extend(check_scripts(self.program.levels, self.scripts_dir))

        if self.diags:
            raise StaticError(self.diags)

        return CheckedProgram(
            program=self.program,
            symbols=self.table,
            var_initial=self.var_initial,
            plugins=self.plugins,
            scripts_dir=self.scripts_dir,
            rules=rules,
        )

    def declare_name_free(self, name: str, node) -> None:
        if name in _RESERVED:
            self.fail(f"{name!r} is a predefined name and cannot be declared", node)
        if name in self.table:
            self.fail(f"{name!r} is already declared", node)

    def declare_level(self, decl) -> None:
        self.declare_name_free(decl.name, decl)
        self.table[decl.name] = Symbol(decl.name, "level", ValueType.INT, value=decl.ordinal,
                                       pos=(decl.line, decl.column))

    def declare_typed(self, kind: str, decl) -> None:
        self.declare_name_free(decl.name, decl)
        declared_vt = VALUE_TYPE_BY_NAME[decl.type_name]
        vt = self.check_expr(decl.init, None)
        if vt is not declared_vt:
            self.fail(
                f"{decl.name!r} is declared {decl.type_name} but its initializer"
                f" has type {vt.value} (no implicit casting)",
                decl.init,
            )
        try:
            value = self.fold(decl.init)
        except _NotConstant as exc:
            self.fail(
                f"initializer of {decl.name!r} is not a constant expression",
                exc.node,
            )
        except EvalFault as exc:
            self.fail(f"in constant expression: {exc}", decl.init)
        level_init = (
            kind == "var"
            and isinstance(decl.init, Name)
            and decl.init.binding is not None
            and decl.init.binding.kind == "level"
        )
        self.table[decl.name] = Symbol(decl.name, kind, declared_vt, value=value,
                                       pos=(decl.line, decl.column), level_init=level_init)
        if kind == "var":
            self.var_initial[decl.name] = value

    # --- rules ---

    def check_rule(self, rule: Rule, section: SectionKind) -> None:
        self.curr_rule = Symbol("CurrRule", "rule_const", ValueType.STRING, value=rule.rule_id)
        try:
            vt = self.check_expr(rule.trigger, section)
            if vt is not ValueType.BOOL:
                self.fail(
                    f"rule trigger must be bool, got {vt.value}",
                    rule.trigger,
                )
            for item in rule.chain:
                self.check_action(item.action, section)
        finally:
            self.curr_rule = None

    def check_action(self, call: Call, section: SectionKind) -> None:
        sig = ACTIONS.get(call.name)
        if sig is None:
            if call.name in EXPRESSION_BUILTINS:
                self.fail(f"{call.name!r} is an expression builtin, not an action", call)
            self.fail(f"unknown action {call.name!r}", call)
        call.sig = sig
        self.check_arguments(call, sig, section)

    def check_arguments(self, call: Call, sig: BuiltinSig, section: SectionKind | None) -> None:
        """Check a builtin call's argument count, then the type of each
        argument, its constant arguments and its level arguments. The
        variable that ``set`` names is no expression, so ``check_set``
        checks the arguments of ``set``."""
        if not sig.arity_ok(len(call.args)):
            self.fail(
                f"{call.name} expects {self._arity_text(sig)}, got {len(call.args)}",
                call,
            )
        if call.name == "set":
            self.check_set(call, section)
            return
        if call.name == "trigger":
            self.trigger_calls.append(call)
        for i, arg in enumerate(call.args):
            vt = self.check_expr(arg, section)
            want = sig.param_at(i)
            if want is not ValueType.UNIVERSAL and vt is not want:
                self.fail(
                    f"argument {i + 1} of {call.name} must be {want.value},"
                    f" got {vt.value}",
                    arg,
                )
        for i in sig.const_args:
            self.prepare_constant_arg(call, i)
        for i in sig.level_args:
            self.check_level_form(call.args[i], call.name)

    def check_set(self, call: Call, section: SectionKind) -> None:
        target = call.args[0]
        if not isinstance(target, Name):
            self.fail("the first argument of set must be a variable name", target)
        sym = self.lookup(target)
        target.binding = sym
        if sym.kind == "predefined":
            self.fail(f"predefined variable {sym.name!r} cannot be set", target)
        if sym.kind != "var":
            self.fail(f"{sym.name!r} is a {sym.kind}, not a variable", target)
        sym.written = True
        call.resource = sym.name
        vt = self.check_expr(call.args[1], section)
        if vt is not sym.type:
            self.fail(
                f"cannot set {sym.name!r} ({sym.type.value}) to a"
                f" {vt.value} value (no implicit casting)",
                call.args[1],
            )

    def check_level_form(self, arg, builtin: str) -> None:
        ok = False
        if isinstance(arg, Name):
            sym = arg.binding
            if sym is not None and (
                sym.kind == "level"
                or sym.name == "CurrLevel"
                or (sym.kind == "var" and sym.level_init)
            ):
                ok = True
        if not ok:
            self.fail(
                f"{builtin} needs a level name, CurrLevel, or an int variable"
                " initialized with a level",
                arg,
            )

    @staticmethod
    def _arity_text(sig: BuiltinSig) -> str:
        n = len(sig.params)
        if sig.vararg is not None:
            return f"at least {n} argument{'s' if n != 1 else ''}"
        return f"{n} argument{'s' if n != 1 else ''}"

    # --- expressions ---

    def lookup(self, node: Name) -> Symbol:
        if node.name == "CurrRule":
            if self.curr_rule is None:
                self.fail("CurrRule is only defined inside a rule", node)
            return self.curr_rule
        sym = self.table.get(node.name)
        if sym is None or (sym.pos != (0, 0) and sym.pos > (node.line, node.column)):
            self.fail(f"unknown identifier {node.name!r}", node)
        return sym

    def check_expr(self, e, section: SectionKind | None) -> ValueType:
        """Check a node, bind its names and operators, and return its value
        type.

        ``section`` is the section of the enclosing rule, or None when
        checking an initializer, where no section-bound builtin may be
        called.
        """
        if isinstance(e, Literal):
            if e.kind == "string":
                e.value = values.clamp_str(e.value)
            elif e.kind == "int" and not values.I64_MIN <= e.value <= values.I64_MAX:
                text = e.lexeme if len(e.lexeme) <= 40 else e.lexeme[:40] + "..."
                self.note(f"int literal {text} is outside the 64-bit range", e)
            return VALUE_TYPE_BY_NAME[e.kind]

        if isinstance(e, Name):
            sym = self.lookup(e)
            e.binding = sym
            sym.read = True
            return sym.type

        if isinstance(e, Unary):
            vt = self.check_expr(e.operand, section)
            e.impl = values.UNARY.get((e.op, vt))
            if e.impl is None:
                self.fail(_UNARY_NEEDS[e.op].format(e.op, vt.value), e)
            return vt

        if isinstance(e, Binary):
            lv = self.check_expr(e.left, section)
            rv = self.check_expr(e.right, section)
            op = e.op
            if lv is not rv:
                self.fail(
                    f"operator '{op}' needs matching operand types,"
                    f" got {lv.value} and {rv.value} (no implicit casting)",
                    e,
                )
            if op in ("&&", "||"):
                ok = lv is ValueType.BOOL
            else:
                e.impl = values.BINARY.get((op, lv))
                ok = e.impl is not None
            if not ok:
                self.fail(_BINARY_NEEDS[op].format(op, lv.value), e)
            return ValueType.BOOL if op in _COMPARISONS else lv

        if isinstance(e, Call):
            return self.check_call(e, section)

        raise AssertionError(f"unexpected node {e!r}")

    def check_call(self, call: Call, section: SectionKind | None) -> ValueType:
        sig = EXPRESSION_BUILTINS.get(call.name)
        if sig is None:
            if call.name in ACTIONS:
                self.fail(f"{call.name!r} is an action and cannot be used in an expression", call)
            self.fail(f"unknown builtin {call.name!r}", call)
        call.sig = sig
        if sig.section is not None:
            if section is None:
                self.fail(f"{call.name} cannot be used outside rules", call)
            if sig.section is not section:
                self.fail(
                    f"{call.name} has expression type {sig.section.value} and cannot"
                    f" be used in a {section.value} rule",
                    call,
                )
        self.check_arguments(call, sig, section)
        return sig.result

    def prepare_constant_arg(self, call: Call, index: int) -> None:
        arg = call.args[index]
        try:
            value = self.fold(arg)
        except _NotConstant:
            self.fail(f"argument {index + 1} of {call.name} must be a constant", arg)
        except EvalFault as exc:
            self.fail(f"in constant expression: {exc}", arg)
        if call.name == "topicmatches":
            try:
                call.resource = regexlite.compile_pattern(value)
            except regexlite.PatternError as exc:
                self.fail(f"invalid regular expression: {exc}", arg)
        elif call.name == "payload":
            try:
                call.resource = load_pattern_file(os.path.join(self.base_dir, value))
            except (OSError, UnicodeDecodeError) as exc:
                self.fail(f"cannot read pattern file {value!r}: {exc}", arg)
            except PatternFileError as exc:
                self.fail(f"bad pattern file {value!r}: {exc}", arg)
        elif call.name == "plugin":
            path = os.path.join(self.base_dir, value)
            problem = plugin_problem(path, value)
            if problem:
                self.fail(problem, arg)
            call.resource = path
            if path not in self.plugins:
                self.plugins.append(path)
        elif call.name == "signal":
            if value not in SIGNALS:
                self.fail(
                    f"unknown signal name {value!r} (expected one of {', '.join(SIGNALS)})",
                    arg,
                )
            call.resource = value

    # --- constant folding ---

    def fold(self, e):
        if isinstance(e, Literal):
            if e.kind == "string":
                return values.clamp_str(e.value)
            return e.value
        if isinstance(e, Name):
            sym = e.binding
            if sym is not None and sym.kind in ("level", "const", "rule_const"):
                return sym.value
            raise _NotConstant(e)
        if isinstance(e, Unary):
            return e.impl(self.fold(e.operand))
        if isinstance(e, Binary):
            if e.impl is not None:
                return e.impl(self.fold(e.left), self.fold(e.right))
            if e.op == "&&":
                return self.fold(e.left) and self.fold(e.right)
            return self.fold(e.left) or self.fold(e.right)
        raise _NotConstant(e)

    # --- usage analysis ---

    def check_usage(self) -> None:
        for sym in self.table.values():
            if sym.kind != "var":
                continue
            line, column = sym.pos
            if not sym.read and not sym.written:
                self.diags.append(Diagnostic(f"variable {sym.name!r} is never accessed", line, column))
            elif not sym.read:
                self.diags.append(Diagnostic(f"variable {sym.name!r} is unused (never read)", line, column))
            elif not sym.written:
                self.diags.append(Diagnostic(f"variable {sym.name!r} is never set", line, column))


def check_program(
    program: Program,
    scripts_dir: str | None = None,
    base_dir: str = ".",
) -> CheckedProgram:
    """Validate a parsed program; raises StaticError with all diagnostics."""
    return _Checker(program, scripts_dir, base_dir).run()


def check_source(
    source: str,
    source_name: str = "rules",
    scripts_dir: str | None = None,
    base_dir: str = ".",
) -> CheckedProgram:
    return check_program(parse_source(source, source_name), scripts_dir, base_dir)


def check_scripts(levels, scripts_dir: str) -> list[Diagnostic]:
    """A diagnostic for each ``<name>.to`` or ``<name>.from`` script in
    scripts_dir that is missing or not executable."""
    return [
        Diagnostic(problem, level.line, level.column)
        for level in levels
        for problem in run_host_problems(scripts_dir, [level.name])
    ]


def check_file(path: str, scripts_dir: str | None = None) -> CheckedProgram:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return check_source(
        source,
        source_name=os.path.basename(path),
        scripts_dir=scripts_dir,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
