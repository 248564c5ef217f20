"""Textual problem language (.hwl): tokenizer, parser, pretty printer.

One problem per file:

    problem ID
    vars ID+
    consts (ID (in [lo,hi])?)*
    assume P, P, ...
    pre P
    post P
    program HP
    lemma ID: P & P => P
    config key value, key value

    HP ::= skip | abort | ID := E | ? P | HP ; HP | HP ++ HP
         | if P then HP else HP | loop HP inv P
         | evolve ID' = E, ... & P on D (flow ID = E, ...)? (dinv P)?
         | evol ID = E, ... & P on D
    D  ::= R | [0,inf) | [lo,hi]

Sequencing binds tighter than choice; if/loop/then/else branches are single
statements (parenthesize compound ones).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from typing import NamedTuple, Optional

from .expr import (
    Add,
    And,
    Cmp,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    FalsePred,
    Mul,
    Neg,
    Not,
    Or,
    Pow,
    Pred,
    Sin,
    Sub,
    SymConst,
    TimeQuant,
    TimeVar,
    TruePred,
    TRUE,
    FALSE,
    Var,
)
from .hprog import (
    Abort,
    Assign,
    Choice,
    Evolve,
    Flow,
    HybridProgram,
    IfThenElse,
    Loop,
    NONNEG,
    REALS,
    Seq,
    Skip,
    Test,
    TimeDomain,
    VectorField,
)
from .discharge import Lemma

KEYWORDS = {
    "problem", "vars", "consts", "assume", "pre", "post", "program", "lemma",
    "config", "skip", "abort", "if", "then", "else", "loop", "inv", "evolve",
    "evol", "flow", "dinv", "on", "in", "R", "true", "false", "sin", "cos",
    "exp", "inf",
}
RESERVED_NAMES = {"t", "tau"} | KEYWORDS

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<num>\d+\.\d+|\d+)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>:=|\+\+|<=|>=|!=|=>|[-+*/^()\[\],;:&|!?'=<>])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


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


@dataclass
class SpecFile:
    """Parsed problem file: one verification spec plus lemmas and config."""

    name: str
    vars: tuple = ()
    consts: tuple = ()
    const_ranges: dict = field(default_factory=dict)
    assumptions: tuple = ()
    pre: Pred = TRUE
    post: Pred = TRUE
    program: HybridProgram = Skip()
    lemmas: tuple = ()
    config: dict = field(default_factory=dict)

    def to_verify_spec(self):
        from .vcgen import VerifySpec

        return VerifySpec(
            name=self.name,
            vars=self.vars,
            consts=self.consts,
            assumptions=self.assumptions,
            pre=self.pre,
            post=self.post,
            program=self.program,
            const_ranges=self.const_ranges,
        )


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0
        self.vars: tuple = ()
        self.consts: tuple = ()
        self.allow_time = False  # the time symbol is legal only in flows

    # -- token helpers ------------------------------------------------------

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

    def ident(self, what: str = "identifier") -> str:
        tok = self.peek()
        if tok.kind != "id" or tok.text in KEYWORDS:
            self.error(f"expected {what}, found {tok.text!r}")
        return self.next().text

    def number(self) -> Fraction:
        neg = self.accept("-")
        tok = self.peek()
        if tok.kind != "num":
            self.error(f"expected number, found {tok.text!r}")
        self.next()
        value = Fraction(tok.text)
        if self.accept("/"):
            den = self.peek()
            if den.kind != "num":
                self.error(f"expected denominator, found {den.text!r}")
            self.next()
            if Fraction(den.text) == 0:
                self.error("zero denominator", den)
            value /= Fraction(den.text)
        return -value if neg else value

    # -- file structure -----------------------------------------------------

    def parse_spec(self) -> SpecFile:
        self.expect("problem")
        name = self.ident("problem name")
        self.accept(";")
        self.expect("vars")
        var_names = []
        while self.peek().kind == "id" and self.peek().text not in KEYWORDS:
            v = self.ident("variable name")
            if v in RESERVED_NAMES or v in var_names:
                self.error(f"bad variable name {v!r}")
            var_names.append(v)
        if not var_names:
            self.error("at least one variable required")
        self.accept(";")
        self.vars = tuple(var_names)

        const_names = []
        ranges = {}
        if self.accept("consts"):
            while self.peek().kind == "id" and self.peek().text not in KEYWORDS:
                c = self.ident("constant name")
                if c in RESERVED_NAMES or c in var_names or c in const_names:
                    self.error(f"bad constant name {c!r}")
                const_names.append(c)
                if self.accept("in"):
                    self.expect("[")
                    lo = self.number()
                    self.expect(",")
                    hi = self.number()
                    self.expect("]")
                    ranges[c] = (float(lo), float(hi))
                if not self.accept(","):
                    break
            self.accept(";")
        self.consts = tuple(const_names)

        assumptions = []
        if self.accept("assume"):
            assumptions.append(self.parse_pred())
            while self.accept(","):
                assumptions.append(self.parse_pred())
            self.accept(";")

        self.expect("pre")
        pre = self.parse_pred()
        self.accept(";")
        self.expect("post")
        post = self.parse_pred()
        self.accept(";")
        self.expect("program")
        program = self.parse_program()
        self.accept(";")

        lemmas = []
        while self.accept("lemma"):
            lname = self.ident("lemma name")
            self.expect(":")
            first = self.parse_pred()
            hyps: list = []
            body = first
            if self.accept("=>"):
                hyps = _split_conj(first)
                body = self.parse_pred()
            lemmas.append(Lemma(lname, tuple(hyps), body))
            self.accept(";")

        config = {}
        if self.accept("config"):
            while self.peek().kind == "id":
                key = self.ident("config key")
                val = self.number()
                # exact, so that fmt prints the value as written
                config[key] = int(val) if val.denominator == 1 else val
                if not self.accept(","):
                    break
            self.accept(";")

        self.expect_end()
        return SpecFile(
            name=name,
            vars=self.vars,
            consts=self.consts,
            const_ranges=ranges,
            assumptions=tuple(assumptions),
            pre=pre,
            post=post,
            program=program,
            lemmas=tuple(lemmas),
            config=config,
        )

    # -- programs -----------------------------------------------------------

    def parse_program(self) -> HybridProgram:
        return self.parse_choice()

    def parse_choice(self) -> HybridProgram:
        parts = [self.parse_seq()]
        while self.accept("++"):
            parts.append(self.parse_seq())
        return parts[0] if len(parts) == 1 else Choice(tuple(parts))

    def parse_seq(self) -> HybridProgram:
        parts = [self.parse_stmt()]
        while self.accept(";"):
            parts.append(self.parse_stmt())
        return parts[0] if len(parts) == 1 else Seq(tuple(parts))

    def parse_stmt(self) -> HybridProgram:
        tok = self.peek()
        if self.accept("("):
            body = self.parse_choice()
            self.expect(")")
            return body
        if self.accept("skip"):
            return Skip()
        if self.accept("abort"):
            return Abort()
        if self.accept("?"):
            return Test(self.parse_pred())
        if self.accept("if"):
            cond = self.parse_pred()
            self.expect("then")
            then = self.parse_stmt()
            self.expect("else")
            els = self.parse_stmt()
            return IfThenElse(cond, then, els)
        if self.accept("loop"):
            body = self.parse_stmt()
            self.expect("inv")
            inv = self.parse_pred()
            return Loop(body, inv)
        if self.accept("evolve"):
            return self.parse_evolve()
        if self.accept("evol"):
            comps = self.parse_assign_list(allow_time=True)
            self.expect("&")
            guard = self.parse_pred()
            self.expect("on")
            dom = self.parse_domain()
            return Evolve(None, guard, dom, flow=Flow(comps, REALS))
        if tok.kind == "id" and tok.text not in KEYWORDS:
            name = self.ident()
            if name not in self.vars:
                self.error(f"assignment to undeclared variable {name!r}", tok)
            self.expect(":=")
            return Assign(name, self.parse_expr())
        self.error(f"expected statement, found {tok.text!r}")

    def parse_evolve(self) -> Evolve:
        comps: dict = {}
        while True:
            tok = self.peek()
            name = self.ident("variable name")
            if name not in self.vars:
                self.error(f"undeclared variable {name!r} in ODE", tok)
            self.expect("'")
            self.expect("=")
            comps[name] = self.parse_expr()
            if not self.accept(","):
                break
        for v in self.vars:
            comps.setdefault(v, Const(Fraction(0)))
        self.expect("&")
        guard = self.parse_pred()
        self.expect("on")
        dom = self.parse_domain()
        flow = None
        dinv = None
        if self.accept("flow"):
            flow_comps = self.parse_assign_list(allow_time=True)
            for v in self.vars:
                flow_comps.setdefault(v, Var(v))
            flow = Flow(flow_comps, REALS)
        if self.accept("dinv"):
            dinv = self.parse_pred()
        if flow is not None and dinv is not None:
            self.error("evolve carries at most one of flow/dinv")
        return Evolve(VectorField(comps), guard, dom, flow=flow, dinv=dinv)

    def parse_assign_list(self, allow_time: bool = False) -> dict:
        comps: dict = {}
        saved, self.allow_time = self.allow_time, allow_time
        try:
            while True:
                tok = self.peek()
                name = self.ident("variable name")
                if name not in self.vars:
                    self.error(f"undeclared variable {name!r}", tok)
                self.expect("=")
                comps[name] = self.parse_expr()
                if not self.accept(","):
                    break
        finally:
            self.allow_time = saved
        return comps

    def parse_domain(self) -> TimeDomain:
        if self.accept("R"):
            return REALS
        self.expect("[")
        tok = self.peek()
        lo = self.number()
        self.expect(",")
        if self.accept("inf"):
            self.expect(")")
            if lo != 0:
                self.error("forward domain must start at 0")
            return NONNEG
        hi = self.number()
        self.expect("]")
        if not lo <= 0 <= hi:
            self.error("time domain must contain 0", tok)
        return TimeDomain(lo, hi)

    # -- predicates ---------------------------------------------------------

    def parse_pred(self) -> Pred:
        parts = [self.parse_pred_and()]
        while self.accept("|"):
            parts.append(self.parse_pred_and())
        out = parts[0]
        for p in parts[1:]:
            out = Or(out, p)
        return out

    def parse_pred_and(self) -> Pred:
        parts = [self.parse_pred_not()]
        while self.accept("&"):
            parts.append(self.parse_pred_not())
        out = parts[0]
        for p in parts[1:]:
            out = And(out, p)
        return out

    def parse_pred_not(self) -> Pred:
        if self.accept("!"):
            return Not(self.parse_pred_not())
        return self.parse_pred_atom()

    def parse_pred_atom(self) -> Pred:
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
                if self.peek().text not in ("=", "!=", "<", "<=", ">", ">="):
                    return inner
                self.pos = save
        lhs = self.parse_expr()
        op = self.peek().text
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            self.error(f"expected comparison operator, found {op!r}")
        self.next()
        rhs = self.parse_expr()
        return Cmp(op, lhs, rhs)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self) -> Expr:
        out = self.parse_term()
        while True:
            if self.accept("+"):
                out = Add(out, self.parse_term())
            elif self.accept("-"):
                out = Sub(out, self.parse_term())
            else:
                return out

    def parse_term(self) -> Expr:
        out = self.parse_factor()
        while True:
            if self.accept("*"):
                out = Mul(out, self.parse_factor())
            elif self.accept("/"):
                tok = self.peek()
                den = self.parse_factor()
                try:
                    out = _fold_div(out, den)
                except (ValueError, ZeroDivisionError):
                    self.error("division by the constant zero", tok)
            else:
                return out

    def parse_factor(self) -> Expr:
        if self.accept("-"):
            inner = self.parse_factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Neg(inner)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.accept("^"):
            tok = self.peek()
            if tok.kind != "num" or "." in tok.text:
                self.error("exponent must be a natural number literal")
            self.next()
            return Pow(base, int(tok.text))
        return base

    def parse_atom(self) -> Expr:
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
            if tok.text == "tau":
                self.error("'tau' is reserved")
            if tok.text in self.vars:
                return Var(tok.text)
            if tok.text in self.consts:
                return SymConst(tok.text)
            self.error(f"unknown identifier {tok.text!r}", tok)
        self.error(f"expected expression, found {tok.text!r}")


def _fold_div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value / b.value)
    return Div(a, b)


def _split_conj(p: Pred) -> list:
    if isinstance(p, And):
        return _split_conj(p.lhs) + _split_conj(p.rhs)
    return [p]


def parse_spec(text: str) -> SpecFile:
    """Parse one problem file; raises ParseError with line:col positions."""
    return _Parser(tokenize(text)).parse_spec()


def parse_pred(text: str, vars: tuple, consts: tuple) -> Pred:
    """Parse one predicate over the given variables and constants."""
    parser = _Parser(tokenize(text))
    parser.vars, parser.consts = tuple(vars), tuple(consts)
    pred = parser.parse_pred()
    parser.expect_end()
    return pred


# ---------------------------------------------------------------------------
# Pretty printing (canonical form; parse . format . parse is the identity)

_EXPR_ATOM, _EXPR_POW, _EXPR_NEG, _EXPR_MUL, _EXPR_ADD = 5, 4, 3, 2, 1


def _fmt_rational(value: Fraction) -> str:
    if value.denominator == 1:
        s = str(value.numerator)
    else:
        s = f"{value.numerator}/{value.denominator}"
    return s


def format_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return f"(-{_fmt_rational(-e.value)})"
        s = _fmt_rational(e.value)
        # a printed p/q re-parses as a constant division and folds back,
        # but only when no tighter operator can capture one side
        if e.value.denominator != 1 and prec > _EXPR_MUL:
            return f"({s})"
        return s
    if isinstance(e, (Var, SymConst)):
        return e.name
    if isinstance(e, TimeVar):
        return "t"
    if isinstance(e, Sin):
        return f"sin({format_expr(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({format_expr(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({format_expr(e.arg)})"
    if isinstance(e, Pow):
        s = f"{format_expr(e.base, _EXPR_POW + 1)}^{e.exp}"
        return f"({s})" if prec > _EXPR_POW else s
    if isinstance(e, Neg):
        inner = format_expr(e.arg, _EXPR_NEG)
        s = f"-{inner}"
        return f"({s})" if prec > _EXPR_NEG else s
    if isinstance(e, Add):
        s = f"{format_expr(e.lhs, _EXPR_ADD)} + {format_expr(e.rhs, _EXPR_ADD + 1)}"
        return f"({s})" if prec > _EXPR_ADD else s
    if isinstance(e, Sub):
        s = f"{format_expr(e.lhs, _EXPR_ADD)} - {format_expr(e.rhs, _EXPR_ADD + 1)}"
        return f"({s})" if prec > _EXPR_ADD else s
    if isinstance(e, Mul):
        s = f"{format_expr(e.lhs, _EXPR_MUL)}*{format_expr(e.rhs, _EXPR_MUL + 1)}"
        return f"({s})" if prec > _EXPR_MUL else s
    if isinstance(e, Div):
        s = f"{format_expr(e.num, _EXPR_MUL)}/{format_expr(e.den, _EXPR_MUL + 1)}"
        return f"({s})" if prec > _EXPR_MUL else s
    raise TypeError(f"not an Expr node: {e!r}")


_PRED_ATOM, _PRED_NOT, _PRED_AND, _PRED_OR = 4, 3, 2, 1


def format_pred(p: Pred, prec: int = 0) -> str:
    if isinstance(p, TruePred):
        return "true"
    if isinstance(p, FalsePred):
        return "false"
    if isinstance(p, Cmp):
        return f"{format_expr(p.lhs)} {p.op} {format_expr(p.rhs)}"
    if isinstance(p, Not):
        s = f"!{format_pred(p.arg, _PRED_NOT)}"
        return f"({s})" if prec > _PRED_NOT else s
    if isinstance(p, And):
        s = f"{format_pred(p.lhs, _PRED_AND)} & {format_pred(p.rhs, _PRED_AND)}"
        return f"({s})" if prec > _PRED_AND else s
    if isinstance(p, Or):
        s = f"{format_pred(p.lhs, _PRED_OR)} | {format_pred(p.rhs, _PRED_OR)}"
        return f"({s})" if prec > _PRED_OR else s
    if isinstance(p, TimeQuant):
        dom = format_domain(p.dom)
        s = (
            f"forall {p.t_name} in {dom}. "
            f"(forall {p.tau_name} in {dom}, {p.tau_name} <= {p.t_name}. "
            f"{format_pred(p.prefix)}) -> ({format_pred(p.body)})"
        )
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a Pred node: {p!r}")


def _fmt_bound(x: float) -> str:
    """A constant-range bound: the simplest rational that reads back as x,
    else x's exact rational."""
    f = Fraction(x).limit_denominator(10**9)
    return _fmt_rational(f if float(f) == x else Fraction(x))


def _fmt_time(bound) -> str:
    return _fmt_rational(bound) if isinstance(bound, Fraction) else str(bound)  # "-inf", "inf"


def format_domain(dom: TimeDomain) -> str:
    if dom == REALS:
        return "R"
    close = ")" if dom.hi == inf else "]"
    return f"[{_fmt_time(dom.lo)},{_fmt_time(dom.hi)}{close}"


def _fmt_components(comps: dict, sep: str) -> str:
    return ", ".join(f"{v}{sep}{format_expr(e)}" for v, e in comps.items())


def _fmt_stmt(p: HybridProgram) -> str:
    # statement positions take a single statement; sequences and choices
    # need grouping there
    s = format_program(p)
    return f"({s})" if isinstance(p, (Seq, Choice)) else s


def format_program(p: HybridProgram) -> str:
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Abort):
        return "abort"
    if isinstance(p, Assign):
        return f"{p.var} := {format_expr(p.expr)}"
    if isinstance(p, Test):
        return f"? {format_pred(p.cond)}"
    if isinstance(p, Seq):
        return " ; ".join(_fmt_stmt(q) for q in p.items)
    if isinstance(p, Choice):
        return " ++ ".join(
            f"({format_program(q)})" if isinstance(q, Choice) else format_program(q)
            for q in p.items
        )
    if isinstance(p, IfThenElse):
        return (
            f"if {format_pred(p.cond)} then {_fmt_stmt(p.then)} else {_fmt_stmt(p.els)}"
        )
    if isinstance(p, Loop):
        return f"loop {_fmt_stmt(p.body)} inv {format_pred(p.inv)}"
    if isinstance(p, Evolve):
        tail = f"& {format_pred(p.guard)} on {format_domain(p.dom)}"
        if p.field is None:
            return f"evol {_fmt_components(dict(p.flow.components), ' = ')} {tail}"
        odes = _fmt_components(dict(p.field.components), "' = ")
        s = f"evolve {odes} {tail}"
        if p.flow is not None:
            s += f" flow {_fmt_components(dict(p.flow.components), ' = ')}"
        if p.dinv is not None:
            s += f" dinv {format_pred(p.dinv)}"
        return s
    raise TypeError(f"not a HybridProgram node: {p!r}")


def format_spec(spec: SpecFile) -> str:
    lines = [f"problem {spec.name}", "vars " + " ".join(spec.vars)]
    if spec.consts:
        parts = []
        for c in spec.consts:
            if c in spec.const_ranges:
                lo, hi = spec.const_ranges[c]
                parts.append(f"{c} in [{_fmt_bound(lo)},{_fmt_bound(hi)}]")
            else:
                parts.append(c)
        lines.append("consts " + ", ".join(parts))
    if spec.assumptions:
        lines.append("assume " + ", ".join(format_pred(a) for a in spec.assumptions))
    lines.append(f"pre {format_pred(spec.pre)}")
    lines.append(f"post {format_pred(spec.post)}")
    lines.append(f"program {format_program(spec.program)}")
    for lem in spec.lemmas:
        if lem.hyps:
            hyp_s = " & ".join(format_pred(h) for h in lem.hyps)
            lines.append(f"lemma {lem.name}: {hyp_s} => {format_pred(lem.concl)}")
        else:
            lines.append(f"lemma {lem.name}: {format_pred(lem.concl)}")
    if spec.config:
        kv = ", ".join(
            f"{k} {_fmt_rational(v) if isinstance(v, (int, Fraction)) else _fmt_bound(v)}"
            for k, v in spec.config.items()
        )
        lines.append(f"config {kv}")
    return "\n".join(lines) + "\n"
