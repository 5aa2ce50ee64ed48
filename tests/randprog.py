"""Random well-typed program and event-corpus generation.

Used by the differential test (``tests/test_differential.py``), which runs
each program interpreted and transpiled over the same corpus and compares
outcomes, variables and child-process requests. Programs are correct by
construction (every variable is read and set at least once, predicate
arguments respect the signature table, trigger/levelname arguments use level
forms), so any static error or interpreter/transpiler divergence they
provoke is a real bug. They call every expression builtin except ``payload``
and ``plugin``, which need files on disk, and every action, ``crash``
included. Division and modulo keep a small chance of a zero denominator on
purpose: fault handling must match across engines too. The parser and wire
tests draw on it as well; the parser's round-trip tests print ASTs back to
source with ``format_program``.

The "extremes" mode, ``extreme_programs``, builds programs at and just past
each static bound instead: expressions at the parser's nesting bound,
regexes and pattern files at theirs, int literals at the 64-bit edge, and,
where nothing bounds them, hundreds of levels, constants, variables and
rules, long chains and long string literals. ``rips check`` must accept
each program at a bound, and the differential test runs it under both
engines; it must refuse each one past a bound with one short diagnostic
line.
"""

from __future__ import annotations

import base64
import random
from typing import NamedTuple

from rips import parser, patterns, regexlite
from rips.bus import SIGNALS
from rips.syntax import BINARY_PRECEDENCE, Binary, Call, Expr, Literal, Name, Program, Unary
from rips.values import STRING_CAP
from rips.wire import encode_event

TOPIC_POOL = ["/t0", "/t1", "/t2", "/cam/raw", "/cmd/vel", "/diag"]
NODE_POOL = ["alpha", "beta", "gamma", "delta", "rips", "watch"]
TYPE_POOL = ["std_msgs/msg/String", "geometry_msgs/msg/Twist", "sensor_msgs/msg/Imu"]
SERVICE_POOL = ["/alpha/get_parameters", "/beta/set_parameters", "/gamma/list_parameters"]
# Needles for idsalert(): a differential run writes alert files holding
# the first two, so both outcomes of the scan occur.
IDS_NEEDLE_POOL = ["ET SCAN", "portscan", "no-such-alert"]


class _ProgramGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.levels: list[str] = []
        self.int_vars: list[str] = []
        self.float_vars: list[str] = []
        self.bool_vars: list[str] = []
        self.string_vars: list[str] = []
        self.level_vars: list[str] = []  # int vars initialized with a level
        self.int_consts: list[str] = []
        self.decks: dict[str, list[int]] = {}

    # --- expressions; depth bounds the tree ---

    def int_expr(self, depth: int) -> str:
        r = self.rng
        if depth <= 0:
            choices = [str(r.randint(0, 20))]
            if self.int_vars:
                choices.append(r.choice(self.int_vars))
            if self.int_consts:
                choices.append(r.choice(self.int_consts))
            choices.append("CurrLevel")
            return r.choice(choices)
        roll = r.random()
        if roll < 0.45:
            op = r.choice(["+", "-", "*"])
            return f"({self.int_expr(depth - 1)} {op} {self.int_expr(depth - 1)})"
        if roll < 0.70:
            # Mostly safe denominators; zero stays possible deliberately
            # (CurrLevel at the first level, a level variable, a literal 0).
            den = r.choice(["2", "3", "5", "7", "0", "CurrLevel", self.int_expr(0)])
            op = r.choice(["/", "%"])
            return f"({self.int_expr(depth - 1)} {op} {den})"
        if roll < 0.80:
            return f"(-{self.int_expr(depth - 1)})"
        return self.int_expr(0)

    def float_expr(self, depth: int) -> str:
        r = self.rng
        if depth <= 0 or not self.float_vars or r.random() < 0.4:
            base = round(r.uniform(-5.0, 5.0), 3)
            lit = repr(float(base))
            if lit.startswith("-"):
                lit = f"(0.0 - {lit[1:]})"
            if self.float_vars and r.random() < 0.5:
                return r.choice(self.float_vars)
            return lit
        op = r.choice(["+", "-", "*"])
        return f"({self.float_expr(depth - 1)} {op} {self.float_expr(depth - 1)})"

    def string_expr(self, depth: int) -> str:
        r = self.rng
        options = [f'"{r.choice(["on", "off", "x", "warn", "zz"])}"']
        if self.string_vars:
            options.append(r.choice(self.string_vars))
        options.append(f"string({self.int_expr(max(0, depth - 1))})")
        if self.levels:
            options.append(f"levelname({self.level_form()})")
        if depth > 0 and r.random() < 0.4:
            return f"({self.string_expr(depth - 1)} + {self.string_expr(depth - 1)})"
        return r.choice(options)

    def level_form(self) -> str:
        r = self.rng
        options = list(self.levels) + ["CurrLevel"]
        if self.level_vars:
            options += self.level_vars
        return r.choice(options)

    def bool_expr(self, depth: int, section: str) -> str:
        r = self.rng
        if depth <= 0:
            if r.random() < 0.4:
                return self.predicate(section)
            leaves = ["true", "false"]
            if self.bool_vars:
                leaves.append(r.choice(self.bool_vars))
            leaves.append(f"({self.int_expr(0)} {r.choice(['<', '<=', '>', '>=', '==', '!='])} {self.int_expr(0)})")
            return r.choice(leaves)
        roll = r.random()
        if roll < 0.30:
            op = r.choice(["&&", "||"])
            return f"({self.bool_expr(depth - 1, section)} {op} {self.bool_expr(depth - 1, section)})"
        if roll < 0.40:
            return f"(!{self.bool_expr(depth - 1, section)})"
        if roll < 0.55:
            cmp_op = r.choice(["<", "<=", ">", ">=", "==", "!="])
            kind = r.random()
            if kind < 0.6:
                return f"({self.int_expr(depth - 1)} {cmp_op} {self.int_expr(depth - 1)})"
            if kind < 0.8:
                return f"({self.float_expr(depth - 1)} {cmp_op} {self.float_expr(depth - 1)})"
            return f"({self.string_expr(depth - 1)} {cmp_op} {self.string_expr(depth - 1)})"
        if roll < 0.85:
            return self.predicate(section)
        return self.bool_expr(0, section)

    def predicate(self, section: str) -> str:
        """One call of a builtin predicate of ``section``: every expression
        builtin except ``payload`` and ``plugin``, which need files."""
        r = self.rng
        lo, hi = sorted((r.randint(0, 3), r.randint(0, 6)))
        if section == "Graph":
            topic = f'"{r.choice(TOPIC_POOL)}"'
            node = f'"{r.choice(NODE_POOL)}"'
            names = self.pick(NODE_POOL, 1, 3)
            options = [
                f"nodecount({lo}, {hi})",
                f"topiccount({lo}, {hi})",
                f"topicsubscribercount({topic}, {lo}, {hi})",
                f"topicpublishercount({topic}, {lo}, {hi})",
                f"nodes({names})",
                f"nodesinclude({names})",
                f"topics({self.pick(TOPIC_POOL, 0, 3)})",
                f"topicsinclude({self.pick(TOPIC_POOL, 1, 3)})",
                f"topicsubscribers({topic}{self.pick(NODE_POOL, 0, 2, lead=True)})",
                f"topicsubscribersinclude({topic}, {node})",
                f"topicpublishers({topic}, {names})",
                f"topicpublishersinclude({topic}{self.pick(NODE_POOL, 0, 2, lead=True)})",
                f'service({node}, "{r.choice(SERVICE_POOL)}")',
                f"services({node}{self.pick(SERVICE_POOL, 0, 2, lead=True)})",
                f"servicesinclude({node}{self.pick(SERVICE_POOL, 0, 1, lead=True)})",
                f"servicecount({node}, {lo}, {hi})",
            ]
        elif section == "Msg":
            names = self.pick(NODE_POOL, 1, 2)
            options = [
                f"topicin({self.pick(TOPIC_POOL, 1, 3)})",
                f'topicmatches("{r.choice(["/t.*", "/cam/.*", "/c.*", "/diag"])}")',
                f"msgtypein({self.pick(TYPE_POOL, 1, 2)})",
                f'msgsubtype("std_msgs", "String")',
                f"publishercount({lo}, {hi})",
                f"subscribercount({lo}, {hi})",
                f"publishers({self.pick(NODE_POOL, 0, 2)})",
                f"publishersinclude({names})",
                f"subscribers({names})",
                f"subscribersinclude({self.pick(NODE_POOL, 0, 2)})",
            ]
        else:
            options = [
                f'idsalert("{r.choice(IDS_NEEDLE_POOL)}")',
                f'signal("{r.choice(SIGNALS)}")',
            ]
        # Deal the forms from a shuffled deck per section, so one program
        # calls as many different predicates as it has predicate slots.
        deck = self.decks.setdefault(section, [])
        if not deck:
            deck.extend(r.sample(range(len(options)), len(options)))
        return options[deck.pop()]

    def pick(self, pool: list[str], lo: int, hi: int, lead: bool = False) -> str:
        """Argument list of ``lo`` to ``hi`` distinct quoted names from
        ``pool``; with ``lead``, each name is preceded by a comma so the list
        can follow a fixed argument."""
        names = [f'"{x}"' for x in self.rng.sample(pool, self.rng.randint(lo, hi))]
        return "".join(f", {x}" for x in names) if lead else ", ".join(names)

    # --- actions ---

    def action(self, section: str) -> str:
        r = self.rng
        options = []
        if self.int_vars:
            v = r.choice(self.int_vars)
            options.append(f"set({v}, {self.int_expr(1)})")
        if self.bool_vars:
            v = r.choice(self.bool_vars)
            options.append(f"set({v}, {self.bool_expr(1, section)})")
        if self.string_vars:
            v = r.choice(self.string_vars)
            options.append(f"set({v}, {self.string_expr(1)})")
        if self.float_vars:
            v = r.choice(self.float_vars)
            options.append(f"set({v}, {self.float_expr(1)})")
        options.append(f"alert({self.string_expr(1)})")
        options.append(f"True({self.int_expr(0)}, {self.string_expr(0)})")
        options.append("False()")
        if self.levels:
            options.append(f"trigger({self.level_form()})")
        if r.random() < 0.12:
            options.append(f'exec("/bin/probe", {self.string_expr(0)})')
        if r.random() < 0.1:
            options.append(f"crash({self.string_expr(0)})")
        return r.choice(options)

    def rule(self, section: str) -> str:
        r = self.rng
        trigger = self.bool_expr(r.randint(1, 3), section)
        n_actions = r.randint(1, 4)
        parts = [self.action(section)]
        for _ in range(n_actions - 1):
            parts.append(r.choice([", ", " => ", " !> "]))
            parts.append(self.action(section))
        return f"    {trigger} ?\n        {''.join(parts)};"

    def generate(self) -> str:
        r = self.rng
        lines: list[str] = []

        n_levels = r.randint(1, 4)
        self.levels = [f"LV{i}" for i in range(n_levels)]
        lines.append("levels:")
        for name in self.levels:
            lines.append(f"    {name} soft;" if r.random() < 0.35 else f"    {name};")
        lines.append("")

        n_consts = r.randint(0, 2)
        if n_consts:
            lines.append("consts:")
            for i in range(n_consts):
                name = f"K{i}"
                lines.append(f"    {name} int = {r.randint(1, 9)} * {r.randint(1, 9)} + {r.randint(0, 5)};")
                self.int_consts.append(name)
            lines.append("")

        lines.append("vars:")
        for i in range(r.randint(1, 3)):
            name = f"vi{i}"
            if self.levels and r.random() < 0.5:
                lines.append(f"    {name} int = {r.choice(self.levels)};")
                self.level_vars.append(name)
            else:
                lines.append(f"    {name} int = {r.randint(0, 9)};")
            self.int_vars.append(name)
        if r.random() < 0.7:
            lines.append(f"    vb0 bool = {r.choice(['true', 'false'])};")
            self.bool_vars.append("vb0")
        if r.random() < 0.7:
            lines.append('    vs0 string = "seed";')
            self.string_vars.append("vs0")
        if r.random() < 0.5:
            lines.append("    vf0 float = 1.5;")
            self.float_vars.append("vf0")
        lines.append("")

        sections = []
        sections.append(("Graph", r.randint(1, 3)))
        if r.random() < 0.8:
            sections.append(("Msg", r.randint(1, 3)))
        if r.random() < 0.5:
            sections.append(("External", r.randint(1, 2)))
        for kind, count in sections:
            lines.append(f"rules {kind}:")
            for _ in range(count):
                lines.append(self.rule(kind))
                lines.append("")

        # Guarantee the usage discipline: one final rule reads and writes
        # every declared variable.
        all_vars = self.int_vars + self.bool_vars + self.string_vars + self.float_vars
        keep = ", ".join(f"set({v}, {v})" for v in all_vars)
        lines.append("rules Graph:")
        lines.append(f"    false ? {keep};")
        lines.append("")
        return "\n".join(lines)


def random_program(seed: int) -> str:
    """Generate a deterministic, well-typed random rules program."""
    return _ProgramGen(random.Random(seed)).generate()


def _random_context(rng: random.Random) -> dict:
    topics = []
    for topic in rng.sample(TOPIC_POOL, rng.randint(0, len(TOPIC_POOL))):
        topics.append(
            {
                "topic": topic,
                "parameters": [rng.choice(TYPE_POOL)],
                "publishers": rng.sample(NODE_POOL, rng.randint(0, 3)) or [None],
                "subscribers": rng.sample(NODE_POOL, rng.randint(0, 4)) or [None],
            }
        )
    nodes = []
    for name in rng.sample(NODE_POOL, rng.randint(1, len(NODE_POOL))):
        services = [
            {"service": srv, "params": ["rcl_interfaces/srv/GetParameters"]}
            for srv in rng.sample(SERVICE_POOL, rng.randint(0, 2))
        ]
        nodes.append({"node": name, "gids": [f"{rng.randrange(256):02x}.00.01"], "services": services or [None]})
    return {"nodes": nodes, "topics": topics or [None]}


def random_corpus(seed: int, n_events: int = 200) -> list[str]:
    """Generate framed graph/message event documents for replay.

    About half the events carry the previous event's context, as a monitor
    on a stable graph sends it. Empty lists are written as one null entry
    and gids are plain scalars, as the monitor writes them, so most
    documents can take the decoder's cached-context path.
    """
    rng = random.Random(seed)
    docs: list[str] = []
    context = None
    for _ in range(n_events):
        if context is None or rng.random() < 0.5:
            context = _random_context(rng)
        doc = {
            "currentlevel": "LV0",
            "currentgrav": 0.0,
            "lastalert": "",
        }
        if rng.random() < 0.55:
            doc.update({"event": "graph", "context": context})
        else:
            payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 48)))
            doc.update(
                {
                    "event": "message",
                    "context": context,
                    "topic": rng.choice(TOPIC_POOL),
                    "msgtype": rng.choice(TYPE_POOL),
                    "payload": base64.b64encode(payload).decode("ascii"),
                }
            )
        docs.append(encode_event(doc))
    return docs


# --- programs at and just past the static bounds ---

# Expressions whose deepest leaf sits ``d`` levels down the tree, where each
# operator of a chain is one level and so is each call and each parenthesis.
DEEP_EXPRESSIONS = {
    "not": lambda d: "!" * d + "false",
    "minus": lambda d: "-" * (d - 1) + "1 == 1",
    "chain": lambda d: " && ".join(["true"] * (d + 1)),
    "call": lambda d: "string(" * (d - 1) + "1" + ")" * (d - 1) + ' == "1"',
    "parens": lambda d: "(" * d + "true" + ")" * d,
}


def nested_condition(depth: int, form: str) -> str:
    """A pattern file of one rule whose condition nests ``depth`` deep in
    parentheses or in ``not``; it matches a payload that holds "A" unless
    an odd number of ``not`` negates it."""
    cond = "(" * depth + "$a" + ")" * depth if form == "parens" else "not " * depth + "$a"
    return f'rule r {{ strings: $a = "A" condition: {cond} }}'


def _nested_regex(depth: int) -> str:
    return "(" * depth + "/t[01]|/cam/.*" + ")" * depth


class Extreme(NamedTuple):
    """A rules program at or just past one static bound. ``accepted`` says
    whether ``rips check`` must accept it, and ``files`` holds the pattern
    files it names, as (file name, text) pairs, to sit beside it."""

    name: str
    source: str
    accepted: bool
    files: tuple[tuple[str, str], ...] = ()


def extreme_programs(n: int = 300) -> list[Extreme]:
    """The programs of the "extremes" mode; ``n`` is the number of levels,
    constants, variables and rules of the large one, and of connectors in
    each long chain."""
    d, r, p = parser.MAX_NESTING, regexlite.MAX_NESTING, patterns.MAX_NESTING
    out = [Extreme("expressions", "rules Graph:\n" + "".join(
        f'    {deep(d)} ? alert("{form}");\n' for form, deep in DEEP_EXPRESSIONS.items()), True)]
    out += [Extreme(f"expression-{form}-past", f'rules Graph: {deep(d + 1)} ? alert("{form}");\n', False)
            for form, deep in DEEP_EXPRESSIONS.items()]

    triggers = {"Graph": "nodecount(1, 9)", "Msg": 'topicin("/t0", "/t1")', "External": 'signal("SIGUSR1")'}
    many = ["levels:", *(f"    L{i}{' soft' if i % 7 == 3 else ''};" for i in range(n)),
            "consts:", "    K0 int = 1;", *(f"    K{i} int = K{i - 1} + {i % 5};" for i in range(1, n)),
            "vars:", *(f"    v{i} int = K{i};" for i in range(n))]
    for k, (kind, trigger) in enumerate(triggers.items()):
        many.append(f"rules {kind}:")
        many += [f"    v{i} < K{i} + 3 && {trigger} ? set(v{i}, v{i} + 1) => trigger(L{i});" for i in range(k, n, 3)]
    out.append(Extreme("many", "\n".join(many) + "\n", True))

    chains = {"then": " => ".join(["set(c, c + 1)"] * n),
              "else": " !> ".join(["False(c)"] * n + ["set(c, c + 1)"]),
              "all": ", ".join(["set(c, c * 3 + 1)"] * n + ["alert(string(c))"])}
    out.append(Extreme("chains", "vars: c int = 0;\nrules External:\n" + "".join(
        f"    true ? {chain};\n" for chain in chains.values()), True))

    a, b = "a" * STRING_CAP, "b" * (STRING_CAP + 1)
    out.append(Extreme("strings", f'consts: A string = "{a}"; B string = "{b}";\nvars: s string = "";\n'
                       f"rules Graph: nodecount(1, 9) ? set(s, A + B), alert(s);\n"
                       f'rules Msg: true ? alert("{"c" * 25 * STRING_CAP}"), alert(levelname(CurrLevel) + B);\n',
                       True))

    out.append(Extreme("int-literals", "consts: M int = 9223372036854775807;\n"
                       "vars: m int = -9223372036854775807 - 1;\n"
                       "rules External: true ? set(m, m + M), alert(string(m));\n", True))
    out += [Extreme(f"int-literal-{name}", f"consts: M int = {digits};\n", False)
            for name, digits in (("past", "9223372036854775808"), ("long", "9" * 5000))]

    out.append(Extreme("regex", f'rules Msg: topicmatches("{_nested_regex(r)}") ? alert("matched");\n', True))
    out.append(Extreme("regex-past", f'rules Msg: topicmatches("{_nested_regex(r + 1)}") ? alert("matched");\n',
                       False))

    out.append(Extreme("pattern-files", 'rules Msg:\n    payload("parens.yar") ? alert("parens");\n'
                       '    payload("not.yar") ? alert("not");\n', True,
                       tuple((f"{form}.yar", nested_condition(p, form)) for form in ("parens", "not"))))
    out += [Extreme(f"pattern-{form}-past", 'rules Msg: payload("deep.yar") ? alert("deep");\n', False,
                    (("deep.yar", nested_condition(p + 1, form)),)) for form in ("parens", "not")]
    return out


# --- formatting an AST back to source ---

_UNARY_PREC = 10


def _escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\x{ord(ch):02x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Literal):
        if e.kind == "string":
            return _escape_string(e.value)
        if e.kind == "bool":
            return "true" if e.value else "false"
        if e.kind == "float":
            return repr(e.value)
        return str(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Call):
        return f"{e.name}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, Unary):
        inner = format_expr(e.operand, _UNARY_PREC)
        return f"{e.op}{inner}"
    if isinstance(e, Binary):
        prec = BINARY_PRECEDENCE[e.op]
        left = format_expr(e.left, prec)
        # All binary operators associate left; force parens on an equal-
        # precedence right child so the reparse rebuilds the same tree.
        right = format_expr(e.right, prec + 1)
        text = f"{left} {e.op} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {e!r}")


def format_program(p: Program) -> str:
    lines: list[str] = []
    if p.levels:
        lines.append("levels:")
        for lv in p.levels:
            lines.append(f"    {lv.name} soft;" if lv.soft else f"    {lv.name};")
        lines.append("")
    if p.consts:
        lines.append("consts:")
        for c in p.consts:
            lines.append(f"    {c.name} {c.type_name} = {format_expr(c.init)};")
        lines.append("")
    if p.vars:
        lines.append("vars:")
        for v in p.vars:
            lines.append(f"    {v.name} {v.type_name} = {format_expr(v.init)};")
        lines.append("")
    for section in p.rule_sections:
        lines.append(f"rules {section.kind.value}:")
        for rule in section.rules:
            parts = [f"    {format_expr(rule.trigger)} ?"]
            body = []
            for item in rule.chain:
                body.append(format_expr(item.action))
                if item.connector == ",":
                    body.append(", ")
                elif item.connector is not None:
                    body.append(f" {item.connector} ")
            parts.append("        " + "".join(body) + ";")
            lines.extend(parts)
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
