import base64
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rips.checker import check_source
from rips.interpreter import InterpretedEngine
from rips.patterns import MAX_NESTING, PatternFileError, load_pattern_file, parse_pattern_text
from rips.runtime import FakeClock, RecordingRunner
from rips.scenario import encode_event
from rips.transpiler import load_generated, transpile

from conftest import DATA_DIR
from randprog import nested_condition

SHELLCODE = bytes.fromhex("31c050682f2f7368682f62696e89e3505389e1b00bcd80")


def test_shellcode_fixture_parses_and_matches():
    pf = load_pattern_file(os.path.join(DATA_DIR, "yaraexp3.yar"))
    assert len(pf.rules) == 1
    rule = pf.rules[0]
    assert rule.name == "experiment3"
    assert rule.strings["payload"] == SHELLCODE
    assert pf.match(b"prefix" + SHELLCODE + b"suffix")
    assert pf.match(SHELLCODE)  # the payload equal to the pattern exactly
    mutated = bytearray(SHELLCODE)
    mutated[10] ^= 0x01
    assert not pf.match(bytes(mutated))


def test_empty_payload_never_matches_nonempty_pattern():
    pf = parse_pattern_text('rule r { strings: $a = "xy" condition: $a }')
    assert not pf.match(b"")


def test_escape_decoding():
    pf = parse_pattern_text(r'rule r { strings: $a = "a\n\t\\\"\x00z" condition: $a }')
    assert pf.rules[0].strings["a"] == b'a\n\t\\"\x00z'


def test_condition_boolean_combinations():
    source = """
    rule combo {
        strings:
            $a = "AA"
            $b = "BB"
            $c = "CC"
        condition:
            ($a and $b) or (not $c)
    }
    """
    pf = parse_pattern_text(source)
    assert pf.match(b"xxAAyyBBzzCC")   # a and b
    assert pf.match(b"nothing here")   # not c
    assert not pf.match(b"xxAAyyCC")   # only a, and c present
    assert pf.match(b"xxBByyAA")       # order independent


def test_multiple_rules_any_match():
    source = """
    rule first { strings: $a = "one" condition: $a }
    rule second { strings: $b = "two" condition: $b }
    """
    pf = parse_pattern_text(source)
    assert pf.match(b"has one")
    assert pf.match(b"has two")
    assert not pf.match(b"has zilch")


def test_comment_styles():
    source = (
        "// leading\n"
        "rule r : tagged {\n"
        "   # hash comment\n"
        "   strings:\n"
        '      $a = "zz" /* inline */\n'
        "   condition:\n"
        "      $a\n"
        "}\n"
    )
    pf = parse_pattern_text(source)
    assert pf.match(b"fuzzz")


def test_undefined_pattern_in_condition():
    with pytest.raises(PatternFileError, match="undefined pattern"):
        parse_pattern_text("rule r { strings: $a = \"x\" condition: $b }")


def test_unterminated_string():
    with pytest.raises(PatternFileError, match="unterminated string"):
        parse_pattern_text('rule r { strings: $a = "x condition: $a }')


def test_empty_file_rejected():
    with pytest.raises(PatternFileError, match="no rules"):
        parse_pattern_text("// nothing\n")


def test_duplicate_pattern_name_rejected():
    with pytest.raises(PatternFileError, match="duplicate pattern"):
        parse_pattern_text('rule r { strings: $a = "x" $a = "y" condition: $a }')


def test_condition_without_strings_section():
    with pytest.raises(PatternFileError, match="undefined pattern"):
        parse_pattern_text("rule r { condition: $a }")


def test_substring_matcher_agrees_with_naive_scan_small():
    import random

    rng = random.Random(99)
    for _ in range(200):
        payload = bytes(rng.randrange(4) for _ in range(rng.randint(0, 200)))
        needle = bytes(rng.randrange(4) for _ in range(rng.randint(1, 6)))
        escaped = "".join(f"\\x{b:02x}" for b in needle)
        pf = parse_pattern_text(f'rule r {{ strings: $p = "{escaped}" condition: $p }}')
        naive = any(payload[i : i + len(needle)] == needle for i in range(len(payload) - len(needle) + 1))
        assert pf.match(payload) == naive


@pytest.mark.parametrize("text, message", [
    # A backslash before a line break is an invalid escape, not the end of
    # the string.
    ('rule r { strings: $a = "x\\\n" condition: $a }', "line 1: invalid escape \\\n"),
    # An escape error wins over the missing closing quote.
    ('rule r { strings: $a = "ab\\q', "line 1: invalid escape \\q"),
    ('rule r { strings: $a = "ab\\x4"', "line 1: \\x escape needs two hex digits"),
    ('rule r { strings: $a = "ab\\', "line 1: unterminated string"),
    ('\nrule r { strings: $a = "ab\n" }', "line 2: unterminated string"),
    # An unterminated comment is reported on the line it starts on.
    ("\n\n/* never\nclosed\n", "line 3: unterminated comment"),
    ("rule r /* one\ntwo */ { strings: $ = \"x\" }", "line 2: expected a name after '$'"),
    # A name starts with a letter or '_'; a digit such as '²' may follow.
    ("rule ²x { condition: $a }", "line 1: unexpected character '²'"),
    ("rule x² { condition: $a }", "line 1: condition references undefined pattern $a"),
    ("rule r { condition: $a } ~", "line 1: unexpected character '~'"),
    ("rule r : t1 t2 { condition: }", "line 1: unexpected token in condition: '}'"),
    ('rule r { strings: $a = "x" condition: ($a }', "line 1: expected ')'"),
    ('rule r { strings: $a = "x" condition: $a', "line 1: unexpected end of file"),
    ('rule r { strings: $a = "x" condition: $a and', "line 1: condition ended unexpectedly"),
    ("rule { condition: $a }", "line 1: expected 'ident', found '{'"),
    ('rule r { strings: $a = x condition: $a }', "line 1: expected 'string', found 'x'"),
])
def test_error_texts_and_lines(text, message):
    with pytest.raises(PatternFileError) as exc:
        parse_pattern_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("form", ["parens", "not"])
def test_condition_nesting_is_bounded(form):
    """Parentheses and ``not`` count toward one bound: a condition at it
    parses and matches, one level more is one error, and so is one nested
    far past Python's recursion limit."""
    pf = parse_pattern_text(nested_condition(MAX_NESTING, form))
    assert pf.match(b"xAx") == (form == "parens" or MAX_NESTING % 2 == 0)
    for depth in (MAX_NESTING + 1, 300, 5000):
        with pytest.raises(PatternFileError, match="^line 1: condition nesting too deep$"):
            parse_pattern_text(nested_condition(depth, form))


def test_long_chains_are_flat():
    """A chain of ``and`` or of ``or`` is one node, so a 3,000-term chain
    matches without recursing."""
    terms = ["$a", "$b"] * 1500
    source = (f'rule all {{ strings: $a = "A" $b = "B" condition: {" and ".join(terms)} }}\n'
              f'rule any {{ strings: $a = "A" $b = "B" condition: {" or ".join(terms)} }}\n')
    pf = parse_pattern_text(source)
    assert [len(rule.condition) for rule in pf.rules] == [3001, 3001]
    assert [rule.match(b"A") for rule in pf.rules] == [False, True]
    assert pf.rules[0].match(b"AB") and not pf.match(b"C")


def test_an_engine_serves_on_after_a_long_chain_matches(tmp_path):
    """A 3,000-term ``and`` chain in a payload pattern file matches each
    message under both engines, and the engine serves the next one."""
    (tmp_path / "chain.yar").write_text(
        'rule chain { strings: $a = "A" condition: ' + " and ".join(["$a"] * 3000) + " }\n")
    checked = check_source('rules Msg: payload("chain.yar") ? alert("hit");', "chain.rul", base_dir=str(tmp_path))
    message = encode_event({"event": "message", "context": {"nodes": [], "topics": []}, "topic": "/t",
                            "msgtype": "x/msg/Y", "payload": base64.b64encode(b"xAx").decode()})
    module = load_generated(transpile(checked), "chain_generated")
    for engine in (InterpretedEngine(checked, clock=FakeClock(0), runner=RecordingRunner()),
                   module.build_engine(clock=FakeClock(0), runner=RecordingRunner())):
        assert [[o.text for o in engine.handle_document(message)] for _ in range(2)] == [["hit"], ["hit"]]


# Round trip: pattern files written from random rules read back to the
# generator's own names, strings and match results.

_NAME = st.builds(str.__add__, st.sampled_from("aZ_é"), st.text("bY9_é²", max_size=3))
_TAG = st.sampled_from(["tag", "é²", "_9", "and", "not"])
_TEXT = st.text(st.characters(blacklist_characters='"\\\n', blacklist_categories=("Cs",)), min_size=1, max_size=4)
# A piece of a string literal: its source text and the bytes it stands for.
_PIECE = st.one_of(
    st.integers(0, 255).map(lambda b: (rf"\x{b:02{'x' if b % 2 else 'X'}}", bytes([b]))),
    st.sampled_from([(r"\n", b"\n"), (r"\t", b"\t"), (r"\\", b"\\"), (r"\"", b'"')]),
    _TEXT.map(lambda text: (text, text.encode("utf-8"))),
)
# What may separate two tokens: white space or any of the three comments.
_GAP = st.sampled_from([" ", "\n", "\t ", " // line comment é\n", "\n# hash comment\n", " /* block\n*/ ", "/**/"])


def _condition(names):
    leaf = st.sampled_from(names).map(lambda name: ("var", name))
    return st.recursive(leaf, lambda inner: st.one_of(
        inner.map(lambda node: ("not", node)),
        st.tuples(st.sampled_from(["and", "or"]), st.lists(inner, min_size=2, max_size=4)).map(
            lambda op_items: (op_items[0], *op_items[1])),
    ), max_leaves=8)


def _write(node, gap) -> str:
    """Source for a condition node: a chain of ``and`` under ``or`` and a
    ``not`` of a variable go without parentheses, anything else in them."""
    op = node[0]
    if op == "var":
        return "$" + node[1]
    if op == "not":
        inner = _write(node[1], gap)
        return f"not{gap}{inner}" if node[1][0] in ("var", "not") else f"not{gap}({inner})"
    parts = [_write(item, gap) if item[0] in ("var", "not") or (op, item[0]) == ("or", "and")
             else f"({_write(item, gap)})" for item in node[1:]]
    return f"{gap}{op}{gap}".join(parts)


def _holds(node, strings, payload: bytes) -> bool:
    op = node[0]
    if op == "var":
        return strings[node[1]] in payload
    if op == "not":
        return not _holds(node[1], strings, payload)
    results = [_holds(item, strings, payload) for item in node[1:]]
    return all(results) if op == "and" else any(results)


@st.composite
def _rules(draw):
    rules = []
    for index in range(draw(st.integers(1, 2))):
        names = draw(st.lists(_NAME, min_size=1, max_size=3, unique=True))
        pieces = {name: draw(st.lists(_PIECE, min_size=1, max_size=3)) for name in names}
        rules.append((f"{draw(_NAME)}{index}", draw(st.none() | st.lists(_TAG, max_size=3)), pieces,
                      draw(_condition(names)), draw(_GAP)))
    return rules


@settings(max_examples=150, deadline=None)
@given(rules=_rules(), data=st.data())
def test_pattern_files_round_trip(rules, data):
    source = data.draw(_GAP)
    for name, tags, pieces, condition, gap in rules:
        tag_list = "" if tags is None else f"{gap}:{gap}{gap.join(tags)}"
        strings = "".join(f"{gap}${var}{gap}={gap}\"{''.join(text for text, _ in parts)}\"" for var, parts in pieces.items())
        source += (f"rule {name}{tag_list}{gap}{{{gap}strings:{strings}{gap}"
                   f"condition:{gap}{_write(condition, gap)}{gap}}}{gap}")
    pf = parse_pattern_text(source)
    expected = [{var: b"".join(value for _, value in parts) for var, parts in pieces.items()}
                for _, _, pieces, _, _ in rules]
    assert [(rule.name, rule.strings) for rule in pf.rules] == [
        (name, strings) for (name, *_), strings in zip(rules, expected)]
    values = [value for strings in expected for value in strings.values()]
    for _ in range(4):
        payload = b"".join(data.draw(st.lists(st.one_of(st.sampled_from(values), st.binary(max_size=3)), max_size=5)))
        assert pf.match(payload) == any(
            _holds(condition, strings, payload) for (*_, condition, _), strings in zip(rules, expected))
