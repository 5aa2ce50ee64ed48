"""Recursive-descent parser with precedence climbing for expressions.

The operator set and precedence mirror C (shifts excluded). Sentences end
with ``;``; a section marker is a keyword followed by ``:`` (``rules``
carries an extra kind keyword). The first syntax error aborts the parse.

An expression's tree may be at most ``MAX_NESTING`` levels deep. Each
operator of a chain is one level, as in its tree, and so is each call and
each parenthesis. The bound keeps the parser, the checker, the interpreter,
the transpiler and CPython's compile of a generated program under Python's
default recursion limit.
"""

from __future__ import annotations

from .errors import ParseError
from .syntax import (
    BINARY_PRECEDENCE,
    Binary,
    Call,
    ChainItem,
    ConstDecl,
    Expr,
    LevelDecl,
    Literal,
    Name,
    Program,
    Rule,
    RuleSection,
    SectionKind,
    Unary,
    VarDecl,
)
from .tokens import Token, TokenKind, tokenize

MAX_NESTING = 100

_SECTION_KEYWORDS = {"levels", "consts", "vars", "rules"}
_TYPE_NAMES = {"string", "int", "bool", "float"}

UNARY_OPS = {"!", "-", "+", "~"}
_LITERAL_KINDS = {TokenKind.INT: "int", TokenKind.FLOAT: "float", TokenKind.STRING: "string", TokenKind.BOOL: "bool"}


class _Parser:
    def __init__(self, tokens: list[Token], source_name: str):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name
        self.depth = 0

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def error(self, expected: str, tok: Token | None = None):
        tok = tok or self.peek()
        found = "end of input" if tok.kind is TokenKind.EOF else repr(tok.lexeme)
        raise ParseError(f"expected {expected}, found {found}", tok.line, tok.column)

    def expect_punct(self, char: str) -> Token:
        tok = self.peek()
        if tok.kind is TokenKind.PUNCT and tok.lexeme == char:
            return self.advance()
        self.error(f"'{char}'")

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind is TokenKind.IDENT:
            return self.advance()
        self.error(what)

    def at_section_boundary(self) -> bool:
        tok = self.peek()
        if tok.kind is TokenKind.EOF:
            return True
        return tok.kind is TokenKind.KEYWORD and tok.lexeme in _SECTION_KEYWORDS

    # --- sections ---

    def parse_program(self) -> Program:
        program = Program(source_name=self.source_name)
        seen_levels: dict[str, Token] = {}
        rule_index: dict[SectionKind, int] = {k: 0 for k in SectionKind}

        while self.peek().kind is not TokenKind.EOF:
            tok = self.peek()
            if tok.kind is not TokenKind.KEYWORD or tok.lexeme not in _SECTION_KEYWORDS:
                self.error("a section marker ('levels', 'consts', 'vars' or 'rules')")
            self.advance()
            if tok.lexeme == "levels":
                self.expect_punct(":")
                self.parse_levels(program, seen_levels)
            elif tok.lexeme == "consts":
                self.expect_punct(":")
                self.parse_typed_decls(program.consts, ConstDecl)
            elif tok.lexeme == "vars":
                self.expect_punct(":")
                self.parse_typed_decls(program.vars, VarDecl)
            else:
                kind_tok = self.peek()
                if kind_tok.kind is TokenKind.KEYWORD and kind_tok.lexeme in ("Graph", "Msg", "External"):
                    self.advance()
                else:
                    self.error("'Graph', 'Msg' or 'External'")
                self.expect_punct(":")
                kind = SectionKind(kind_tok.lexeme)
                section = RuleSection(kind=kind, line=tok.line, column=tok.column)
                while not self.at_section_boundary():
                    rule = self.parse_rule()
                    rule.rule_id = f"{self.source_name}:{kind.value}:{rule_index[kind]}"
                    rule_index[kind] += 1
                    section.rules.append(rule)
                program.rule_sections.append(section)
        return program

    def parse_levels(self, program: Program, seen: dict[str, Token]):
        while not self.at_section_boundary():
            name_tok = self.expect_ident("a level name")
            soft = False
            tok = self.peek()
            if tok.kind is TokenKind.KEYWORD and tok.lexeme == "soft":
                self.advance()
                soft = True
            self.expect_punct(";")
            if name_tok.lexeme in seen:
                raise ParseError(
                    f"duplicate level name {name_tok.lexeme!r}", name_tok.line, name_tok.column
                )
            seen[name_tok.lexeme] = name_tok
            program.levels.append(
                LevelDecl(
                    name=name_tok.lexeme,
                    soft=soft,
                    ordinal=len(program.levels),
                    line=name_tok.line,
                    column=name_tok.column,
                )
            )

    def parse_typed_decls(self, out: list, cls):
        while not self.at_section_boundary():
            name_tok = self.expect_ident("a declaration name")
            type_tok = self.peek()
            if type_tok.kind is TokenKind.IDENT and type_tok.lexeme in _TYPE_NAMES:
                self.advance()
            else:
                self.error("a type name ('string', 'int', 'bool' or 'float')")
            eq = self.peek()
            if eq.kind is TokenKind.OPERATOR and eq.lexeme == "=":
                self.advance()
            else:
                self.error("'='")
            init = self.parse_expr()
            self.expect_punct(";")
            out.append(
                cls(
                    name=name_tok.lexeme,
                    type_name=type_tok.lexeme,
                    init=init,
                    line=name_tok.line,
                    column=name_tok.column,
                )
            )

    # --- rules ---

    def parse_rule(self) -> Rule:
        start = self.peek()
        trigger = self.parse_expr()
        self.expect_punct("?")
        chain: list[ChainItem] = []
        while True:
            action = self.parse_action()
            tok = self.peek()
            if tok.kind is TokenKind.PUNCT and tok.lexeme == ";":
                self.advance()
                chain.append(ChainItem(action, None))
                break
            if tok.kind is TokenKind.PUNCT and tok.lexeme == ",":
                self.advance()
                chain.append(ChainItem(action, ","))
                continue
            if tok.kind is TokenKind.CONNECTOR:
                self.advance()
                chain.append(ChainItem(action, tok.lexeme))
                continue
            self.error("';' or a connector (',', '=>', '!>')")
        return Rule(trigger=trigger, chain=chain, line=start.line, column=start.column)

    def parse_action(self) -> Call:
        name_tok = self.expect_ident("an action name")
        tok = self.peek()
        if not (tok.kind is TokenKind.PUNCT and tok.lexeme == "("):
            self.error("'(' (actions are calls)")
        return self.finish_call(name_tok)[0]

    # --- expressions ---
    #
    # Each expression method returns its node and the height of its tree,
    # in which a parenthesised expression counts one level. ``depth`` is
    # the number of levels above the node being read.

    def parse_expr(self) -> Expr:
        return self.parse_binary(1)[0]

    def nested(self, tok: Token, parse, *args) -> tuple[Expr, int]:
        """``parse(*args)`` one level below the current one."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nesting too deep", tok.line, tok.column)
        result = parse(*args)
        self.depth -= 1
        return result

    def parse_binary(self, min_prec: int) -> tuple[Expr, int]:
        left, height = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind is not TokenKind.OPERATOR:
                return left, height
            prec = BINARY_PRECEDENCE.get(tok.lexeme)
            if prec is None or prec < min_prec:
                return left, height
            self.advance()
            right, right_height = self.nested(tok, self.parse_binary, prec + 1)
            # Each operator of a chain sits one level above the one before.
            height = 1 + max(height, right_height)
            if self.depth + height > MAX_NESTING:
                raise ParseError("expression nesting too deep", tok.line, tok.column)
            left = Binary(op=tok.lexeme, left=left, right=right, line=tok.line, column=tok.column)

    def parse_unary(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind is TokenKind.OPERATOR and tok.lexeme in UNARY_OPS:
            self.advance()
            operand, height = self.nested(tok, self.parse_unary)
            return Unary(op=tok.lexeme, operand=operand, line=tok.line, column=tok.column), height + 1
        return self.parse_primary()

    def parse_primary(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind in _LITERAL_KINDS:
            self.advance()
            kind = _LITERAL_KINDS[tok.kind]
            return Literal(value=tok.value, kind=kind, lexeme=tok.lexeme, line=tok.line, column=tok.column), 0
        if tok.kind is TokenKind.IDENT:
            self.advance()
            nxt = self.peek()
            if nxt.kind is TokenKind.PUNCT and nxt.lexeme == "(":
                return self.finish_call(tok)
            return Name(name=tok.lexeme, line=tok.line, column=tok.column), 0
        if tok.kind is TokenKind.PUNCT and tok.lexeme == "(":
            self.advance()
            inner, height = self.nested(tok, self.parse_binary, 1)
            self.expect_punct(")")
            return inner, height + 1
        self.error("an expression")

    def finish_call(self, name_tok: Token) -> tuple[Call, int]:
        self.expect_punct("(")
        args: list[Expr] = []
        height = 0
        tok = self.peek()
        if not (tok.kind is TokenKind.PUNCT and tok.lexeme == ")"):
            while True:
                arg, arg_height = self.nested(name_tok, self.parse_binary, 1)
                args.append(arg)
                height = max(height, arg_height + 1)
                tok = self.peek()
                if tok.kind is TokenKind.PUNCT and tok.lexeme == ",":
                    self.advance()
                    continue
                break
        self.expect_punct(")")
        return Call(name=name_tok.lexeme, args=args, line=name_tok.line, column=name_tok.column), height


def parse_program(tokens: list[Token], source_name: str = "rules") -> Program:
    return _Parser(tokens, source_name).parse_program()


def parse_source(source: str, source_name: str = "rules") -> Program:
    return parse_program(tokenize(source), source_name)
