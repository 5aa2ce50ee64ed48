import pytest

from rips.errors import LexError
from rips.tokens import TokenKind, tokenize


def kinds_and_lexemes(source):
    return [(t.kind, t.lexeme) for t in tokenize(source) if t.kind is not TokenKind.EOF]


def test_empty_source_yields_no_tokens():
    assert kinds_and_lexemes("") == []


def test_binary_literal_value():
    toks = tokenize("0b11101")
    assert toks[0].kind is TokenKind.INT
    assert toks[0].value == 29


def test_decimal_and_float_literals():
    toks = tokenize("42 1.5 2.0e3 1e5")
    assert [(t.kind, t.value) for t in toks[:-1]] == [
        (TokenKind.INT, 42),
        (TokenKind.FLOAT, 1.5),
        (TokenKind.FLOAT, 2000.0),
        (TokenKind.FLOAT, 100000.0),
    ]


def test_bool_literals():
    toks = tokenize("true false")
    assert [t.value for t in toks[:-1]] == [True, False]


def test_unicode_arrow_normalizes_to_ascii_connector():
    uni = tokenize("x → y")
    assert [(t.kind, t.lexeme) for t in uni[:-1]] == [
        (TokenKind.IDENT, "x"),
        (TokenKind.CONNECTOR, "=>"),
        (TokenKind.IDENT, "y"),
    ]
    # Byte-for-byte the same token stream as the ASCII spelling.
    ascii_toks = tokenize("x => y")
    assert [(t.kind, t.lexeme) for t in uni] == [(t.kind, t.lexeme) for t in ascii_toks]


def test_unicode_negated_arrow():
    toks = tokenize("a ↛ b")
    assert (toks[1].kind, toks[1].lexeme) == (TokenKind.CONNECTOR, "!>")


def test_comments_stripped_including_hashbang():
    src = "#!/bin/rips\nlevels: # trailing comment\nA;\n# whole line\n"
    assert kinds_and_lexemes(src) == [
        (TokenKind.KEYWORD, "levels"),
        (TokenKind.PUNCT, ":"),
        (TokenKind.IDENT, "A"),
        (TokenKind.PUNCT, ";"),
    ]


def test_string_escapes():
    toks = tokenize(r'"a\nb\tc\\d\"e\x41"')
    assert toks[0].value == 'a\nb\tc\\d"e\x41'


def test_hex_escape_bytes():
    toks = tokenize(r'"\x31\xc0"')
    assert toks[0].value == "\x31\xc0"


def test_two_char_operators_disambiguate():
    src = "a==b a!=b a<=b a>=b a&&b a||b a=>b a!>b !a a=b"
    ops = [t.lexeme for t in tokenize(src) if t.kind in (TokenKind.OPERATOR, TokenKind.CONNECTOR)]
    assert ops == ["==", "!=", "<=", ">=", "&&", "||", "=>", "!>", "!", "="]


def test_unterminated_string_error_position():
    with pytest.raises(LexError) as exc:
        tokenize('x = "abc')
    assert exc.value.diagnostic.line == 1
    assert exc.value.diagnostic.column == 5


def test_invalid_escape_rejected():
    with pytest.raises(LexError, match="invalid escape"):
        tokenize(r'"\q"')


def test_bad_hex_escape_rejected():
    with pytest.raises(LexError, match="two hex digits"):
        tokenize(r'"\xZZ"')


def test_string_may_not_span_lines():
    with pytest.raises(LexError, match="unterminated"):
        tokenize('"abc\ndef"')


def test_invalid_character():
    with pytest.raises(LexError, match="invalid character"):
        tokenize("a @ b")


def test_positions_are_monotonic():
    src = 'levels:\n  A;\n  B soft;\nconsts: X int = 0b101; # c\nvars:\nrules Msg:\n  true ? alert("x\\n");\n'
    toks = tokenize(src)
    positions = [(t.line, t.column) for t in toks]
    assert positions == sorted(positions)


def test_position_tracking_after_strings_and_comments():
    toks = tokenize('x "ab" y # z\nw')
    by_lex = {t.lexeme: (t.line, t.column) for t in toks if t.kind is not TokenKind.EOF}
    assert by_lex["x"] == (1, 1)
    assert by_lex["y"] == (1, 8)
    assert by_lex["w"] == (2, 1)


def test_keywords_vs_identifiers():
    toks = tokenize("levels rules Graph soft string int levelname")
    kinds = [(t.kind, t.lexeme) for t in toks[:-1]]
    assert kinds[0] == (TokenKind.KEYWORD, "levels")
    assert kinds[1] == (TokenKind.KEYWORD, "rules")
    assert kinds[2] == (TokenKind.KEYWORD, "Graph")
    assert kinds[3] == (TokenKind.KEYWORD, "soft")
    # Type names stay identifiers so `string(...)` remains callable.
    assert kinds[4] == (TokenKind.IDENT, "string")
    assert kinds[5] == (TokenKind.IDENT, "int")
    assert kinds[6] == (TokenKind.IDENT, "levelname")


@pytest.mark.parametrize("source, expected", [
    # An invalid escape comes before the missing closing quote.
    ('"\\q', "1:2: invalid escape sequence \\q"),
    ('"a\\\nb"', "1:3: invalid escape sequence \\\n"),
    ('"\\x4"', "1:2: invalid \\x escape: expected two hex digits"),
    ("0b2", "1:1: binary literal needs at least one digit"),
    ("x\t→ y", [("x", 1, 1), ("=>", 1, 3), ("y", 1, 5), ("", 1, 6)]),
    # After a trailing comment the end of input sits at the comment's column.
    ("a # c", [("a", 1, 1), ("", 1, 3)]),
    ("a\n  # tail", [("a", 1, 1), ("", 2, 3)]),
], ids=["escape-before-unterminated", "backslash-newline", "short-hex", "empty-binary", "tab-and-arrow",
        "trailing-comment", "indented-trailing-comment"])
def test_error_texts_and_positions(source, expected):
    """A LexError's full text, or each token's lexeme and position."""
    if isinstance(expected, str):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert str(exc.value) == expected
    else:
        assert [(t.lexeme, t.line, t.column) for t in tokenize(source)] == expected


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_a_non_ascii_digit_is_an_invalid_character(digit):
    """Number literals are ASCII: a superscript two used to end in a
    ValueError from int(), and an Arabic-Indic three was read as 3."""
    with pytest.raises(LexError) as exc:
        tokenize(f"consts: X int = {digit};")
    assert str(exc.value) == f"1:17: invalid character {digit!r}"


def test_a_decimal_literal_of_any_length_tokenizes():
    """Leading zeros do not count against the 19 digits of the 64-bit
    range; past them a literal's value is out of range, not exact, since
    int() refuses a string of over 4,300 digits."""
    assert tokenize("0" * 5000 + "7")[0].value == 7
    assert tokenize("9223372036854775807")[0].value == 2**63 - 1
    assert tokenize("1" * 5000)[0].value > 2**63 - 1
