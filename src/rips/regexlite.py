"""Small regular-expression engine with linear-time matching.

Supports literals, ``.``, character classes (ranges, negation), grouping,
alternation and the ``* + ?`` quantifiers, plus ``\\d \\w \\s`` and literal
escapes. No backreferences, no lookaround, no counted repeats: patterns
compile to a Thompson NFA, and ``CompiledPattern.full_match`` runs it as a
lazy DFA whose states are NFA state sets built on first use and memoized in
a bounded cache (Cox, "Regular Expression Matching Can Be Simple And Fast",
2007, and "Regular Expression Matching in the Wild", 2010). The worst case
stays O(len(pattern) * len(input)) per match and memory stays bounded, so
topic names an attacker chooses cannot make matching slow. Matching never
falls back to backtracking.

Matching is whole-string: a leading ``^`` or trailing ``$`` is accepted and
ignored, anchors anywhere else are rejected. A ``$`` after an odd number of
backslashes is a literal ``$``.

Groups nest at most ``MAX_NESTING`` deep, and a run of quantifiers is read
as one (``a**`` as ``a*``, and any mix, such as ``a+?``, as ``a*``), so no
pattern makes compiling recurse past Python's limit.
"""

from __future__ import annotations


class PatternError(ValueError):
    """Invalid or unsupported pattern syntax."""


_DIGITS = (("0", "9"),)
_WORD = (("0", "9"), ("A", "Z"), ("a", "z"), ("_", "_"))
_SPACE = ((" ", " "), ("\t", "\t"), ("\n", "\n"), ("\r", "\r"), ("\f", "\f"), ("\v", "\v"))

_CLASS_ESCAPES = {"d": _DIGITS, "w": _WORD, "s": _SPACE}
_CHAR_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "f": "\f", "v": "\v", "0": "\0"}
_QUANTIFIERS = {"*": "star", "+": "plus", "?": "opt"}
MAX_NESTING = 100


class _Matcher:
    """A single-character test: explicit ranges, possibly negated; None means any."""

    __slots__ = ("ranges", "negated")

    def __init__(self, ranges, negated=False):
        self.ranges = ranges  # tuple of (lo, hi) char pairs, or None for '.'
        self.negated = negated

    def matches(self, c: str) -> bool:
        if self.ranges is None:
            return True
        hit = any(lo <= c <= hi for lo, hi in self.ranges)
        return hit != self.negated


class _Parser:
    def __init__(self, pattern: str):
        self.pat = pattern
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        pat = self.pat if len(self.pat) <= 40 else self.pat[:40] + "..."
        raise PatternError(f"{msg} (at offset {self.pos} in {pat!r})")

    def peek(self) -> str | None:
        return self.pat[self.pos] if self.pos < len(self.pat) else None

    def take(self) -> str:
        c = self.pat[self.pos]
        self.pos += 1
        return c

    def parse(self):
        node = self.alternation()
        if self.pos != len(self.pat):
            self.error(f"unexpected {self.pat[self.pos]!r}")
        return node

    def alternation(self):
        branches = [self.concat()]
        while self.peek() == "|":
            self.take()
            branches.append(self.concat())
        return ("alt", branches) if len(branches) > 1 else branches[0]

    def concat(self):
        items = []
        while True:
            c = self.peek()
            if c is None or c in "|)":
                break
            items.append(self.repeat())
        if not items:
            return ("empty",)
        return ("cat", items) if len(items) > 1 else items[0]

    def repeat(self):
        node = self.atom()
        while self.peek() in _QUANTIFIERS:
            kind = _QUANTIFIERS[self.take()]
            if node[0] in _QUANTIFIERS.values():
                # x** is x*, and two different quantifiers make x*.
                kind, node = (kind if kind == node[0] else "star"), node[1]
            node = (kind, node)
        return node

    def atom(self):
        c = self.take()
        if c == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error("groups nested too deep")
            node = self.alternation()
            if self.peek() != ")":
                self.error("unbalanced '('")
            self.take()
            self.depth -= 1
            return node
        if c == "[":
            return ("match", self.char_class())
        if c == ".":
            return ("match", _Matcher(None))
        if c == "\\":
            e = self.escape()
            return ("match", _Matcher(e if isinstance(e, tuple) else ((e, e),)))
        if c == "{":
            self.error("counted repeats are not supported")
        if c in "*+?":
            self.error(f"quantifier {c!r} with nothing to repeat")
        if c in "^$":
            self.error("anchors are only allowed at the pattern edges")
        return ("match", _Matcher(((c, c),)))

    def escape(self):
        """Read the escape after a backslash: the ranges of a class escape
        (``\\d \\w \\s``), or else the one character it stands for."""
        if self.peek() is None:
            self.error("trailing backslash")
        c = self.take()
        if c in _CLASS_ESCAPES:
            return _CLASS_ESCAPES[c]
        if c in _CHAR_ESCAPES:
            return _CHAR_ESCAPES[c]
        if c == "x":
            hexpart = self.pat[self.pos : self.pos + 2]
            if len(hexpart) < 2 or not all(h in "0123456789abcdefABCDEF" for h in hexpart):
                self.error("\\x needs two hex digits")
            self.pos += 2
            return chr(int(hexpart, 16))
        if c.isalnum():
            self.error(f"unsupported escape \\{c}")
        return c

    def char_class(self) -> _Matcher:
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        ranges: list[tuple[str, str]] = []
        first = True
        while True:
            c = self.peek()
            if c is None:
                self.error("unterminated character class")
            if c == "]" and not first:
                self.take()
                break
            first = False
            lo = self.class_char()
            if self.peek() == "-" and self.pos + 1 < len(self.pat) and self.pat[self.pos + 1] != "]":
                self.take()
                hi = self.class_char()
                if isinstance(lo, tuple) or isinstance(hi, tuple):
                    self.error("class escapes cannot form a range")
                if hi < lo:
                    self.error("reversed range in character class")
                ranges.append((lo, hi))
            elif isinstance(lo, tuple):
                ranges.extend(lo)
            else:
                ranges.append((lo, lo))
        if not ranges:
            self.error("empty character class")
        return _Matcher(tuple(ranges), negated)

    def class_char(self):
        c = self.take()
        # A class escape expands to ranges; no '-' may follow it.
        return self.escape() if c == "\\" else c


class CompiledPattern:
    """A pattern compiled to a Thompson NFA, matched by a lazy DFA.

    ``full_match`` walks DFA states built on demand from the NFA: each
    state is an epsilon-closed set of NFA states, interned to a small int,
    and each ``(state, char)`` step is memoized once the NFA has computed
    it. When the memo reaches ``cache_entries``, it is flushed, states
    included, and rebuilding resumes from the current state set, as RE2's
    DFA cache does. A miss costs one NFA step and a hit one dict lookup, so
    the bound stays O(len(pattern) * len(input)) per call and memory stays
    bounded whatever topics a monitor sends. ``nfa_match`` simulates the
    NFA directly and serves as the oracle in tests.
    """

    # Memoized transitions kept before a flush. DFA states number at most
    # two more, each an NFA state set no larger than the pattern's NFA.
    cache_entries = 4096

    def __init__(self, pattern: str):
        self.pattern = pattern
        body = pattern
        if body.startswith("^"):
            body = body[1:]
        if body.endswith("$"):
            # An odd run of backslashes before the "$" escapes it.
            backslashes = len(body) - 1 - len(body[:-1].rstrip("\\"))
            if backslashes % 2 == 0:
                body = body[:-1]
        tree = _Parser(body).parse()
        # States: epsilon edges and at most one consuming edge each.
        self.eps: list[list[int]] = []
        self.edge: list[tuple[_Matcher, int] | None] = []
        start, accept = self._build(tree)
        self.accept = accept
        self._start_set = self._closure({start})
        self._flush()

    def _new_state(self) -> int:
        self.eps.append([])
        self.edge.append(None)
        return len(self.eps) - 1

    def _build(self, node) -> tuple[int, int]:
        kind = node[0]
        if kind == "empty":
            s = self._new_state()
            return s, s
        if kind == "match":
            s = self._new_state()
            t = self._new_state()
            self.edge[s] = (node[1], t)
            return s, t
        if kind == "cat":
            first_s, prev_t = self._build(node[1][0])
            for item in node[1][1:]:
                s, t = self._build(item)
                self.eps[prev_t].append(s)
                prev_t = t
            return first_s, prev_t
        if kind == "alt":
            s = self._new_state()
            t = self._new_state()
            for branch in node[1]:
                bs, bt = self._build(branch)
                self.eps[s].append(bs)
                self.eps[bt].append(t)
            return s, t
        if kind == "star":
            s = self._new_state()
            t = self._new_state()
            bs, bt = self._build(node[1])
            self.eps[s] += [bs, t]
            self.eps[bt] += [bs, t]
            return s, t
        if kind == "plus":
            bs, bt = self._build(node[1])
            t = self._new_state()
            self.eps[bt] += [bs, t]
            return bs, t
        if kind == "opt":
            s = self._new_state()
            t = self._new_state()
            bs, bt = self._build(node[1])
            self.eps[s] += [bs, t]
            self.eps[bt].append(t)
            return s, t
        raise AssertionError(kind)

    def _closure(self, states) -> frozenset[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            s = stack.pop()
            for t in self.eps[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def _step(self, states: frozenset[int], c: str) -> frozenset[int]:
        """The NFA states reachable from ``states`` by consuming ``c``."""
        nxt = set()
        for s in states:
            e = self.edge[s]
            if e is not None and e[0].matches(c):
                nxt.add(e[1])
        return self._closure(nxt)

    def nfa_match(self, text: str) -> bool:
        current = self._start_set
        for c in text:
            current = self._step(current, c)
            if not current:
                return False
        return self.accept in current

    # --- the lazy DFA ---

    def _flush(self) -> None:
        self._ids: dict[frozenset[int], int] = {}
        self._sets: list[frozenset[int]] = []
        self._accepting: list[bool] = []
        self._next: list[dict[str, int]] = []
        self._entries = 0
        self._start = self._intern(self._start_set)

    def _intern(self, states: frozenset[int]) -> int:
        """The id of a DFA state; -1 for the empty set, where no match can
        continue."""
        if not states:
            return -1
        sid = self._ids.get(states)
        if sid is None:
            sid = self._ids[states] = len(self._sets)
            self._sets.append(states)
            self._accepting.append(self.accept in states)
            self._next.append({})
        return sid

    def _miss(self, sid: int, c: str) -> int:
        """Step DFA state ``sid`` on ``c`` through the NFA and memoize it,
        flushing the memo first if it is full. The returned id is valid in
        the tables as they stand after the call."""
        states = self._step(self._sets[sid], c)
        if self._entries >= self.cache_entries:
            source = self._sets[sid]
            self._flush()
            sid = self._intern(source)
        nxt = self._intern(states)
        self._next[sid][c] = nxt
        self._entries += 1
        return nxt

    def full_match(self, text: str) -> bool:
        sid = self._start
        table = self._next
        for c in text:
            nxt = table[sid].get(c)
            if nxt is None:
                nxt = self._miss(sid, c)
                table = self._next
            if nxt < 0:
                return False
            sid = nxt
        return self._accepting[sid]


def compile_pattern(pattern: str) -> CompiledPattern:
    return CompiledPattern(pattern)
