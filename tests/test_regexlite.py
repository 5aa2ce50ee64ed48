import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rips.checker import check_source
from rips.errors import StaticError
from rips.regexlite import MAX_NESTING, CompiledPattern, PatternError, compile_pattern


def matches(pattern, text):
    return compile_pattern(pattern).full_match(text)


def test_topic_prefix_pattern():
    assert matches("/pose.*", "/pose2d")
    assert matches("/pose.*", "/pose")
    assert not matches("/pose.*", "/xpose")
    assert not matches("/pose.*", "pose2d")


def test_whole_string_semantics():
    assert not matches("pose", "/pose2d")
    assert matches("pose", "pose")


def test_alternation_and_groups():
    assert matches("(abc|abd)+", "abcabdabc")
    assert not matches("(abc|abd)+", "abcabx")
    assert matches("a(b|c)d", "abd")
    assert matches("a(b|c)d", "acd")
    assert not matches("a(b|c)d", "aed")


def test_quantifiers():
    assert matches("ab?c", "ac")
    assert matches("ab?c", "abc")
    assert not matches("ab?c", "abbc")
    assert matches("ab+c", "abbbc")
    assert not matches("ab+c", "ac")
    assert matches("a*", "")
    assert matches("a*", "aaaa")


def test_char_classes():
    assert matches("[abc]+", "cab")
    assert not matches("[abc]+", "cad")
    assert matches("[a-z0-9_]+", "abc_123")
    assert matches("[^/]+", "nope")
    assert not matches("[^/]+", "no/pe")
    assert matches(r"[\]]", "]")


def test_class_escapes():
    assert matches(r"\d+", "12345")
    assert not matches(r"\d+", "12a45")
    assert matches(r"\w+", "ab_9")
    assert matches(r"\s", " ")
    assert matches(r"[\d.]+", "1.5")


def test_literal_escapes():
    assert matches(r"\.", ".")
    assert not matches(r"\.", "x")
    assert matches(r"a\*b", "a*b")
    assert matches(r"\x41", "A")
    assert matches(r"a\nb", "a\nb")


def test_dot_matches_any_single_char():
    assert matches(".", "x")
    assert matches(".", "\n")  # whole-string match, no line semantics
    assert not matches(".", "")
    assert not matches(".", "xy")


def test_edge_anchors_tolerated():
    assert matches("^abc$", "abc")
    assert matches("^a.*", "abc")


def test_trailing_anchor_after_escaped_backslashes():
    # Backslashes before a trailing "$" pair up; an odd one out escapes it.
    assert matches(r"a\\$", "a\\")
    assert not matches(r"a\\$", "a\\$")
    assert matches(r"a\$", "a$")
    assert not matches(r"a\$", "a")
    assert matches(r"a\\\$", "a\\$")
    assert not matches(r"a\\\$", "a\\")


def test_unsupported_constructs_rejected():
    for bad in (r"a{2,3}", "a(b", "a)b", "[abc", "*a", "a|*", r"\1", r"(?=x)", "a^b", "a$b"):
        with pytest.raises(PatternError):
            compile_pattern(bad)


def test_empty_pattern_matches_empty_only():
    assert matches("", "")
    assert not matches("", "a")


def test_nested_repetition_terminates_quickly():
    # State-set simulation keeps pathological patterns linear.
    pat = compile_pattern("(a*)*b")
    start = time.perf_counter()
    assert not pat.full_match("a" * 400)
    assert pat.full_match("a" * 400 + "b")
    assert time.perf_counter() - start < 1.0


def test_group_nesting_is_bounded():
    """Groups nested to the bound compile; one level more, or a nesting far
    past Python's recursion limit, is one PatternError."""
    assert matches("(" * MAX_NESTING + "a" + ")" * MAX_NESTING, "a")
    for depth in (MAX_NESTING + 1, 250, 5000):
        with pytest.raises(PatternError, match="^groups nested too deep"):
            compile_pattern("(" * depth + "a" + ")" * depth)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400, 20_000])
def test_a_deep_regex_is_one_short_diagnostic(depth):
    """The diagnostic quotes a bounded prefix of the pattern, so a deep or
    long one gives one short line, through the checker too."""
    pattern = "(" * depth + "a" + ")" * depth
    with pytest.raises(PatternError) as info:
        compile_pattern(pattern)
    assert str(info.value) == f"groups nested too deep (at offset {MAX_NESTING + 1} in '{'(' * 40}...')"
    with pytest.raises(StaticError) as info:
        check_source(f'rules Msg: topicmatches("{pattern}") ? alert("x");', "deep.rul")
    (diagnostic,) = info.value.diagnostics
    assert "\n" not in diagnostic.message and len(diagnostic.message) < 120


@pytest.mark.parametrize("stack", ["*" * 1000, "+" * 1000, "?" * 1000, "*+?" * 400, "+?" * 500],
                         ids=["star", "plus", "opt", "mixed", "plus-opt"])
def test_a_stack_of_quantifiers_is_one_quantifier(stack):
    """A run of one quantifier means that quantifier, and a run that mixes
    them means ``*``; a thousand of them compile without recursing."""
    single = stack[0] if len(set(stack)) == 1 else "*"
    pat = compile_pattern("xa" + stack + "b")
    for text in ("xb", "xab", "xaab", "xa", "ab"):
        assert pat.full_match(text) == bool(re.fullmatch("xa" + single + "b", text)), text


@settings(max_examples=200, deadline=None)
@given(stack=st.text("*+?", min_size=1, max_size=4), atom=st.sampled_from(["a", "(ab)", "(a|b*)", "[ab]"]),
       text=st.text("ab", max_size=5))
def test_stacked_quantifiers_agree_with_nested_groups(stack, atom, text):
    """Stdlib ``re`` refuses ``a**`` but reads ``(?:a*)*``: the same
    language."""
    nested = atom
    for q in stack:
        nested = f"(?:{nested}){q}"
    assert matches(atom + stack, text) == bool(re.fullmatch(nested, text))


def _random_pattern(rng, depth=3):
    if depth == 0 or rng.random() < 0.35:
        c = rng.choice("abc01")
        return c
    roll = rng.random()
    if roll < 0.25:
        return _random_pattern(rng, depth - 1) + _random_pattern(rng, depth - 1)
    if roll < 0.45:
        return f"({_random_pattern(rng, depth - 1)}|{_random_pattern(rng, depth - 1)})"
    if roll < 0.60:
        return f"({_random_pattern(rng, depth - 1)})" + rng.choice("*+?")
    if roll < 0.70:
        return "."
    if roll < 0.85:
        return "[" + "".join(sorted(set(rng.choice("abc01") for _ in range(rng.randint(1, 3))))) + "]"
    return rng.choice([r"\d", r"\w"])


def test_agrees_with_stdlib_fullmatch_on_supported_subset():
    rng = random.Random(20260810)
    alphabet = "abc01 "
    checked = 0
    for _ in range(300):
        pattern = _random_pattern(rng)
        try:
            gold = re.compile(pattern)
        except re.error:
            continue
        mine = compile_pattern(pattern)
        for _ in range(20):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            assert mine.full_match(text) == bool(gold.fullmatch(text)), (pattern, text)
            checked += 1
    assert checked > 2000


# --- the lazy DFA against the NFA it is built from ---

_ATOMS = st.sampled_from(["a", "b", "é", "\u2603", ".", "[ab]", "[^a]", "[a-zé]", r"\d", r"\w", r"\s", r"\.", "/"])


@st.composite
def _patterns(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_ATOMS)
    kind = draw(st.sampled_from(["cat", "alt", "star", "plus", "opt"]))
    left = draw(_patterns(depth - 1))
    if kind == "cat":
        return left + draw(_patterns(depth - 1))
    if kind == "alt":
        return f"({left}|{draw(_patterns(depth - 1))})"
    return f"({left})" + {"star": "*", "plus": "+", "opt": "?"}[kind]


_TOPICS = st.text(alphabet=st.sampled_from("ab/é\u2603 1_.\n"), max_size=16) | st.text(max_size=8)


@settings(max_examples=300, deadline=None)
@given(pattern=_patterns(), topics=st.lists(_TOPICS, min_size=1, max_size=8),
       cap=st.sampled_from([CompiledPattern.cache_entries, 2]))
def test_dfa_agrees_with_nfa(pattern, topics, cap):
    """Under the default cap, and under a cap of 2 entries that flushes the
    cache in the middle of most matches, every answer is the NFA's."""
    compiled = compile_pattern(pattern)
    compiled.cache_entries = cap
    for topic in topics:
        assert compiled.full_match(topic) == compiled.nfa_match(topic), (pattern, topic)
        assert compiled._entries <= cap
        assert len(compiled._sets) <= compiled._entries + 2


def test_dfa_cache_stays_bounded_on_hostile_topics():
    compiled = compile_pattern(".*(x|y)z.*")
    compiled.cache_entries = 64
    for i in range(200):
        topic = "".join(chr(0x4E00 + (i * 31 + j) % 5000) for j in range(40)) + "xz"
        assert compiled.full_match(topic)
        assert compiled._entries <= 64
        assert len(compiled._sets) <= compiled._entries + 2
