"""Reference reader and printer of .hwl terms and predicates, shared by the tests.

hwl reads and prints terms and predicates through one operator table and
one precedence-climbing loop.  This module keeps the grammar it replaced,
written independently of it: one parse function per precedence level, a
parenthesised predicate read by trying it as a predicate and rewinding, and
one precedence ladder per printer.  The tests feed both readers the same
token strings and both printers the same trees, and require equal trees
(or a ParseError from both) and equal text.

It also keeps the tokenizer hwl's one-scan `findall` replaced: one match
per token or whitespace run, and a Token with its kind, line and column.
"""

import re
from fractions import Fraction
from typing import NamedTuple, Optional

from hybridwlp.expr import (
    Add, And, Cmp, Const, Cos, Div, Exp, FalsePred, Mul, Neg, Not, Or, Pow, Sin, Sub,
    SymConst, TimeQuant, TimeVar, TruePred, TRUE, FALSE, Var,
)
from hybridwlp.hwl import KEYWORDS, ParseError, format_domain

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<num>\d+\.\d+|\d+)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>:=|\+\+|<=|>=|!=|=>|[-+*/^()\[\],;:&|!?'=<>])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "num" | "id" | "op" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    """The tokens of text and a final "eof" token, each with the 1-based
    line and column where it starts, in one scan: every character is in
    some match, a newline only in whitespace, and any other character no
    token starts with is the `bad` group's."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            lexeme = m.group()
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + lexeme.rfind("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        tokens.append(Token(kind, m.group(), line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


class RefParser:
    """The term and predicate grammar, one method per level."""

    def __init__(self, tokens: list, vars: tuple = (), consts: tuple = (),
                 allow_time: bool = False):
        self.tokens = tokens
        self.pos = 0
        self.vars, self.consts = tuple(vars), tuple(consts)
        self.allow_time = allow_time

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}")

    def parse_pred(self):
        parts = [self.parse_pred_and()]
        while self.accept("|"):
            parts.append(self.parse_pred_and())
        out = parts[0]
        for p in parts[1:]:
            out = Or(out, p)
        return out

    def parse_pred_and(self):
        parts = [self.parse_pred_not()]
        while self.accept("&"):
            parts.append(self.parse_pred_not())
        out = parts[0]
        for p in parts[1:]:
            out = And(out, p)
        return out

    def parse_pred_not(self):
        if self.accept("!"):
            return Not(self.parse_pred_not())
        return self.parse_pred_atom()

    def parse_pred_atom(self):
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if self.at("("):
            save = self.pos
            self.next()
            try:
                inner = self.parse_pred()
                self.expect(")")
            except ParseError:
                self.pos = save
            else:
                if self.peek().text not in _CMP_OPS:
                    return inner
                self.pos = save
        lhs = self.parse_expr()
        op = self.peek().text
        if op not in _CMP_OPS:
            self.error(f"expected comparison operator, found {op!r}")
        self.next()
        rhs = self.parse_expr()
        return Cmp(op, lhs, rhs)

    def parse_expr(self):
        out = self.parse_term()
        while True:
            if self.accept("+"):
                out = Add(out, self.parse_term())
            elif self.accept("-"):
                out = Sub(out, self.parse_term())
            else:
                return out

    def parse_term(self):
        out = self.parse_factor()
        while True:
            if self.accept("*"):
                out = Mul(out, self.parse_factor())
            elif self.accept("/"):
                tok = self.peek()
                den = self.parse_factor()
                try:
                    if isinstance(out, Const) and isinstance(den, Const):
                        out = Const(out.value / den.value)
                    else:
                        out = Div(out, den)
                except (ValueError, ZeroDivisionError):
                    self.error("division by the constant zero", tok)
            else:
                return out

    def parse_factor(self):
        if self.accept("-"):
            inner = self.parse_factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.accept("^"):
            tok = self.peek()
            if tok.kind != "num" or "." in tok.text:
                self.error("exponent must be a natural number literal")
            self.next()
            return Pow(base, int(tok.text))
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Const(Fraction(tok.text))
        if self.accept("("):
            inner = self.parse_expr()
            self.expect(")")
            return inner
        for fname, node in (("sin", Sin), ("cos", Cos), ("exp", Exp)):
            if tok.text == fname:
                self.next()
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return node(arg)
        if tok.kind == "id" and tok.text not in KEYWORDS:
            self.next()
            if tok.text == "t":
                if not self.allow_time:
                    self.error("the time symbol 't' is only allowed in flow expressions")
                return TimeVar()
            if tok.text in self.vars:
                return Var(tok.text)
            if tok.text in self.consts:
                return SymConst(tok.text)
            self.error(f"unknown identifier {tok.text!r}", tok)
        self.error(f"expected expression, found {tok.text!r}")


def ref_parse(text: str, vars: tuple, consts: tuple, entry: str = "pred",
              allow_time: bool = False):
    """The whole of text read as one predicate (entry "pred") or one term
    (entry "expr")."""
    parser = RefParser(tokenize(text), vars, consts, allow_time)
    node = parser.parse_pred() if entry == "pred" else parser.parse_expr()
    parser.expect_end()
    return node


_EXPR_ATOM, _EXPR_POW, _EXPR_NEG, _EXPR_MUL, _EXPR_ADD = 5, 4, 3, 2, 1


def _fmt_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def ref_format_expr(e, prec: int = 0) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return f"(-{_fmt_rational(-e.value)})"
        s = _fmt_rational(e.value)
        if e.value.denominator != 1 and prec > _EXPR_MUL:
            return f"({s})"
        return s
    if isinstance(e, (Var, SymConst)):
        return e.name
    if isinstance(e, TimeVar):
        return "t"
    if isinstance(e, Sin):
        return f"sin({ref_format_expr(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({ref_format_expr(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({ref_format_expr(e.arg)})"
    if isinstance(e, Pow):
        s = f"{ref_format_expr(e.base, _EXPR_POW + 1)}^{e.exp}"
        return f"({s})" if prec > _EXPR_POW else s
    if isinstance(e, Neg):
        s = f"-{ref_format_expr(e.arg, _EXPR_NEG)}"
        return f"({s})" if prec > _EXPR_NEG else s
    if isinstance(e, Add):
        s = f"{ref_format_expr(e.lhs, _EXPR_ADD)} + {ref_format_expr(e.rhs, _EXPR_ADD + 1)}"
        return f"({s})" if prec > _EXPR_ADD else s
    if isinstance(e, Sub):
        s = f"{ref_format_expr(e.lhs, _EXPR_ADD)} - {ref_format_expr(e.rhs, _EXPR_ADD + 1)}"
        return f"({s})" if prec > _EXPR_ADD else s
    if isinstance(e, Mul):
        s = f"{ref_format_expr(e.lhs, _EXPR_MUL)}*{ref_format_expr(e.rhs, _EXPR_MUL + 1)}"
        return f"({s})" if prec > _EXPR_MUL else s
    if isinstance(e, Div):
        s = f"{ref_format_expr(e.num, _EXPR_MUL)}/{ref_format_expr(e.den, _EXPR_MUL + 1)}"
        return f"({s})" if prec > _EXPR_MUL else s
    raise TypeError(f"not an Expr node: {e!r}")


_PRED_ATOM, _PRED_NOT, _PRED_AND, _PRED_OR = 4, 3, 2, 1


def ref_format_pred(p, prec: int = 0) -> str:
    if isinstance(p, TruePred):
        return "true"
    if isinstance(p, FalsePred):
        return "false"
    if isinstance(p, Cmp):
        return f"{ref_format_expr(p.lhs)} {p.op} {ref_format_expr(p.rhs)}"
    if isinstance(p, Not):
        s = f"!{ref_format_pred(p.arg, _PRED_NOT)}"
        return f"({s})" if prec > _PRED_NOT else s
    if isinstance(p, And):
        s = f"{ref_format_pred(p.lhs, _PRED_AND)} & {ref_format_pred(p.rhs, _PRED_AND)}"
        return f"({s})" if prec > _PRED_AND else s
    if isinstance(p, Or):
        s = f"{ref_format_pred(p.lhs, _PRED_OR)} | {ref_format_pred(p.rhs, _PRED_OR)}"
        return f"({s})" if prec > _PRED_OR else s
    if isinstance(p, TimeQuant):
        dom = format_domain(p.dom)
        s = (
            f"forall {p.t_name} in {dom}. "
            f"(forall {p.tau_name} in {dom}, {p.tau_name} <= {p.t_name}. "
            f"{ref_format_pred(p.prefix)}) -> ({ref_format_pred(p.body)})"
        )
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a Pred node: {p!r}")
