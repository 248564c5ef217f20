"""Textual problem language (.hwl): tokenizer, parser, pretty printer.

One problem per file:

    problem ID
    vars ID+
    consts (ID (in [lo,hi])?)*
    assume P, P, ...
    pre P
    post P
    program HP
    lemma ID: P & P => P           (each lemma ID once)
    config KEY NUM, KEY NUM, ...   (KEY one of seed, step, horizon, trials,
                                    fuel, lemma_trials; each KEY once)

    HP ::= skip | abort | ID := E | ? P | HP ; HP | HP ++ HP
         | if P then HP else HP | loop HP inv P
         | evolve ID' = E, ... & P on D (flow ID = E, ...)? (dinv P)?
         | evol ID = E, ... & P on D
    D  ::= R | [0,inf) | [lo,hi]

Sequencing binds tighter than choice; if/loop/then/else branches are single
statements (parenthesize compound ones).

Predicates P and terms E are read and printed through one operator table,
`_OPS`, loosest first; the binary operators associate to the left:

    P ::= P | P            E ::= E + E | E - E
        | P & P                | E * E | E / E
        | ! P                  | - E             (-3 is the constant -3)
        | E rel E              | A ^ NAT         (one natural literal)
        | true | false | ( P )  | A
    rel ::= = | != | < | <= | > | >=             (comparisons do not chain)
    A ::= NUM | ID | t | sin(E) | cos(E) | exp(E) | ( E )
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import inf
from string import ascii_letters
from typing import NamedTuple, Optional

from .expr import (
    Add, And, Cmp, Const, Cos, Div, Exp, Expr, FalsePred, Mul, Neg, Not, Or, Pow, Pred, Sin,
    Sub, SymConst, TimeQuant, TimeVar, TruePred, TRUE, FALSE, TIME_NAME, Var, ZERO, children,
    flatten_conj,
)
from .hprog import (
    Abort, Assign, Choice, Evolve, Flow, HybridProgram, IfThenElse, Loop, NONNEG, REALS, Seq,
    Skip, Test, TimeDomain, VectorField,
)
from .vcgen import CONFIG_KEYS, KEYWORDS, Lemma, VerifySpec

# One match per token: the whitespace and comments before it are skipped
# inside the match, and the group is the token's text.  A character no
# token starts with is a text of its own, and the empty match at the end
# is the end of file.  Every character is in some match, a newline only in
# the skipped part, so a token's position is computed from its start.
_TOKEN_RE = re.compile(
    r"""(?:\s+|\#[^\n]*)*
      ( \d+\.\d+ | \d+ | [A-Za-z_][A-Za-z0-9_]*
      | :=|\+\+|<=|>=|!=|=> | [-+*/^()\[\],;:&|!?'=<>]
      | . | \Z )
    """,
    re.VERBOSE,
)
# The one-character texts a token may be, beside a digit (`\d` reads any
# Unicode decimal digit as one)
_TOKEN_CHARS = frozenset(ascii_letters + "_-+*/^()[],;:&|!?'=<>")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def tokenize(text: str) -> list:
    """The token texts of text, the last one "" for the end of file, in one
    scan.  Raises ParseError at the first character no token starts with."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        # text ends in whitespace or a comment: the match that skips it
        # is the end of file, and the empty match after it is not
        del tokens[-1]
    bad = [t for t in set(tokens) if len(t) == 1 and t not in _TOKEN_CHARS and not t.isdecimal()]
    if bad:
        index = min(map(tokens.index, bad))
        raise ParseError(f"unexpected character {tokens[index]!r}", *_position(text, index))
    return tokens


def _position(text: str, index: int) -> tuple:
    """The 1-based (line, column) where token index of text starts."""
    start = next(islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


class _Op(NamedTuple):
    text: str
    prec: int
    node: type


# The one operator table of terms and predicates, loosest first: the
# parser's loop and the printer read each operator's spelling, precedence
# and node class here.  Operators below _CMP join predicates, _CMP compares
# two terms and those above join terms; "!" and the second "-" are prefix.
_OPS = (
    _Op("|", 1, Or), _Op("&", 2, And), _Op("!", 3, Not),
    *(_Op(rel, 4, Cmp) for rel in ("=", "!=", "<", "<=", ">", ">=")),
    _Op("+", 5, Add), _Op("-", 5, Sub), _Op("*", 6, Mul), _Op("/", 6, Div),
    _Op("-", 7, Neg), _Op("^", 8, Pow),
)
_CMP, _TERM, _MUL, _ATOM = 4, 5, 6, 9
_PREFIX = {op.text: op for op in _OPS if op.node in (Not, Neg)}
_INFIX = {op.text: op for op in _OPS if op.node not in (Not, Neg)}
_OF_NODE = {op.node: op for op in _OPS}  # Cmp spells itself
_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}
_FUNCTION_NAMES = {node: name for name, node in _FUNCTIONS.items()}
_TRUTHS = {"true": TRUE, "false": FALSE}


class _Parser:
    """A cursor over the token texts of text: tok is the current token and
    pos its index, which only an error turns into a position.  A token's
    kind is read from its text: "" is the end of file, a number starts
    with a digit and an identifier passes str.isidentifier."""

    def __init__(self, text: str, vars: tuple = (), consts: tuple = ()):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.tok = self.tokens[0]
        self.declare(vars, consts)
        self.allow_time = False  # the time symbol is legal only in flows

    def declare(self, vars: tuple, consts: tuple):
        self.vars, self.consts = tuple(vars), tuple(consts)
        self._vars, self._consts = set(self.vars), set(self.consts)

    # -- token helpers ------------------------------------------------------

    def next(self) -> str:
        """The current token, moving past it; never called at the end."""
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def error(self, message: str, at: Optional[int] = None):
        """Raise message at token index at, by default the current one."""
        raise ParseError(message, *_position(self.text, self.pos if at is None else at))

    def expect(self, text: str) -> str:
        if self.tok != text:
            self.error(f"expected {text!r}, found {self.tok!r}")
        return self.next()

    def accept(self, text: str) -> bool:
        if self.tok == text:
            self.next()
            return True
        return False

    def expect_end(self):
        if self.tok:
            self.error(f"unexpected trailing input {self.tok!r}")

    def at_name(self) -> bool:
        """Whether the current token is an identifier and no keyword."""
        return self.tok.isidentifier() and self.tok not in KEYWORDS

    def ident(self, what: str = "identifier") -> str:
        if not self.at_name():
            self.error(f"expected {what}, found {self.tok!r}")
        return self.next()

    def number(self) -> Fraction:
        neg = self.accept("-")
        if not self.tok[:1].isdecimal():
            self.error(f"expected number, found {self.tok!r}")
        value = Fraction(_literal(self.next()))
        if self.accept("/"):
            at = self.pos
            if not self.tok[:1].isdecimal():
                self.error(f"expected denominator, found {self.tok!r}")
            if not (den_value := _literal(self.next())):
                self.error("zero denominator", at)
            value /= den_value
        return -value if neg else value

    # -- file structure -----------------------------------------------------

    def parse_spec(self) -> VerifySpec:
        self.expect("problem")
        name = self.ident("problem name")
        self.accept(";")
        self.expect("vars")
        var_names = {}  # a set in declaration order
        while self.at_name():
            at = self.pos
            v = self.next()
            if v == TIME_NAME or v in var_names:
                self.error(f"bad variable name {v!r}", at)
            var_names[v] = None
        if not var_names:
            self.error("at least one variable required")
        self.accept(";")

        const_names = {}
        ranges = {}
        if self.accept("consts"):
            while self.at_name():
                at = self.pos
                c = self.next()
                if c == TIME_NAME or c in var_names or c in const_names:
                    self.error(f"bad constant name {c!r}", at)
                const_names[c] = None
                if self.accept("in"):
                    self.expect("[")
                    at = self.pos
                    lo = self.number()
                    self.expect(",")
                    hi = self.number()
                    self.expect("]")
                    if lo > hi:
                        self.error(f"empty range for constant {c!r}", at)
                    ranges[c] = (float(lo), float(hi))
                if not self.accept(","):
                    break
            self.accept(";")
        self.declare(var_names, const_names)

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

        lemmas = {}  # by name, in declaration order
        while self.accept("lemma"):
            at = self.pos
            lname = self.ident("lemma name")
            if lname in lemmas:
                self.error(f"repeated lemma name {lname!r}", at)
            self.expect(":")
            first = self.parse_pred()
            hyps: list = []
            body = first
            if self.accept("=>"):
                hyps = flatten_conj([first])
                body = self.parse_pred()
            lemmas[lname] = Lemma(lname, tuple(hyps), body)
            self.accept(";")

        config = {}
        if self.accept("config"):
            while self.tok.isidentifier():
                at = self.pos
                key = self.ident("config key")
                if key not in CONFIG_KEYS:
                    self.error(f"unknown config key {key!r}", at)
                if key in config:
                    self.error(f"repeated config key {key!r}", at)
                val = self.number()
                # exact, so that fmt prints the value as written
                config[key] = int(val) if val.denominator == 1 else val
                if not self.accept(","):
                    break
            self.accept(";")

        self.expect_end()
        return VerifySpec(
            name=name,
            vars=self.vars,
            consts=self.consts,
            assumptions=tuple(assumptions),
            pre=pre,
            post=post,
            program=program,
            const_ranges=ranges,
            lemmas=tuple(lemmas.values()),
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
        at, tok = self.pos, self.tok
        if self.at_name():
            name = self.next()
            if name not in self._vars:
                self.error(f"assignment to undeclared variable {name!r}", at)
            self.expect(":=")
            return Assign(name, self.parse_expr())
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
        self.error(f"expected statement, found {tok!r}")

    def parse_evolve(self) -> Evolve:
        comps: dict = {}
        while True:
            at = self.pos
            name = self.ident("variable name")
            if name not in self._vars:
                self.error(f"undeclared variable {name!r} in ODE", at)
            self.expect("'")
            self.expect("=")
            comps[name] = self.parse_expr()
            if not self.accept(","):
                break
        for v in self.vars:
            comps.setdefault(v, ZERO)
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
        at = self.pos
        if self.accept("dinv"):
            dinv = self.parse_pred()
            if flow is not None:
                self.error("evolve carries at most one of flow/dinv", at)
        return Evolve(VectorField(comps), guard, dom, flow=flow, dinv=dinv)

    def parse_assign_list(self, allow_time: bool = False) -> dict:
        comps: dict = {}
        saved, self.allow_time = self.allow_time, allow_time
        try:
            while True:
                at = self.pos
                name = self.ident("variable name")
                if name not in self._vars:
                    self.error(f"undeclared variable {name!r}", at)
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
        at = self.pos
        lo = self.number()
        self.expect(",")
        if self.accept("inf"):
            self.expect(")")
            if lo != 0:
                self.error("forward domain must start at 0", at)
            return NONNEG
        hi = self.number()
        self.expect("]")
        if not lo <= 0 <= hi:
            self.error("time domain must contain 0", at)
        return TimeDomain(lo, hi)

    # -- terms and predicates: one precedence-climbing loop over _OPS -------

    def parse_pred(self) -> Pred:
        return self._pred(self._climb(0))

    def parse_expr(self) -> Expr:
        return self._climb(_TERM)

    def _pred(self, node: Expr | Pred) -> Pred:
        """node, where a predicate must stand."""
        if not isinstance(node, Pred):
            self.error(f"expected comparison operator, found {self.tok!r}")
        return node

    def _climb(self, floor: int) -> Expr | Pred:
        """The longest term or predicate at the cursor whose operators bind
        at least as tightly as floor: a predicate only where floor <= _CMP.
        A chain of prefix operators is read in a loop; each one is the
        floor of its operand."""
        floors, prefixes = [floor], []
        while (op := _PREFIX.get(self.tok)) is not None and op.prec >= floors[-1]:
            self.next()
            prefixes.append(op)
            floors.append(op.prec)
        node = self._infix(self._atom(floors[-1]), floors.pop(), True)
        for op in reversed(prefixes):
            if op.node is Not:
                node = Not(self._pred(node))
            else:
                node = Const(-node.value) if isinstance(node, Const) else Neg(node)
            node = self._infix(node, floors.pop(), False)
        return node

    def _infix(self, left: Expr | Pred, floor: int, atom: bool) -> Expr | Pred:
        """left extended by the infix operators at the cursor that bind at
        least as tightly as floor and fit it: "|" and "&" join predicates,
        the others terms, and "^" only an atom (so it and the comparisons
        do not chain)."""
        while True:
            op = _INFIX.get(self.tok)
            if (op is None or op.prec < floor or isinstance(left, Pred) != (op.prec < _CMP)
                    or (op.node is Pow and not atom)):
                return left
            self.next()
            atom, at = False, self.pos
            if op.node is Pow:
                if not self.tok.isdecimal():  # digits and no point
                    self.error("exponent must be a natural number literal")
                left = Pow(left, int(self.next()))
            elif op.prec < _CMP:
                left = op.node(left, self._pred(self._climb(op.prec + 1)))
            elif op.node is Cmp:
                left = Cmp(op.text, left, self._climb(op.prec + 1))
            elif op.node is Div:
                rhs = self._climb(op.prec + 1)
                try:  # a constant quotient folds
                    left = (Const(left.value / rhs.value)
                            if isinstance(left, Const) and isinstance(rhs, Const) else Div(left, rhs))
                except (ValueError, ZeroDivisionError):
                    self.error("division by the constant zero", at)
            else:
                left = op.node(left, self._climb(op.prec + 1))

    def _atom(self, floor: int) -> Expr | Pred:
        at, tok = self.pos, self.tok
        if self.at_name():
            self.next()
            if tok == "t":
                if not self.allow_time:
                    self.error("the time symbol 't' is only allowed in flow expressions", at)
                return TimeVar()
            if tok in self._vars:
                return Var(tok)
            if tok in self._consts:
                return SymConst(tok)
            self.error(f"unknown identifier {tok!r}", at)
        if tok[:1].isdecimal():
            self.next()
            return Const(_literal(tok))
        if tok in _TRUTHS and floor <= _CMP:
            self.next()
            return _TRUTHS[tok]
        if self.accept("("):
            # read once; where the group is used decides whether it may be
            # a predicate
            inner = self._climb(0 if floor <= _CMP else _TERM)
            self.expect(")")
            return inner
        if tok in _FUNCTIONS:
            self.next()
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return _FUNCTIONS[tok](arg)
        self.error(f"expected expression, found {tok!r}")


def _literal(text: str) -> int | Fraction:
    """The value of a number token: an int for digits, which a Const keys
    without a Fraction, a Fraction for a decimal digits.digits."""
    whole, dot, frac = text.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac)) if dot else int(text)


def parse_spec(text: str) -> VerifySpec:
    """Parse one problem file; raises ParseError with line:col positions."""
    return _Parser(text).parse_spec()


def parse_pred(text: str, vars: tuple, consts: tuple) -> Pred:
    """Parse one predicate over the given variables and constants."""
    parser = _Parser(text, vars, consts)
    pred = parser.parse_pred()
    parser.expect_end()
    return pred


# ---------------------------------------------------------------------------
# Pretty printing (canonical form; parse . format . parse is the identity)

def _fmt_rational(value: Fraction) -> str:
    if value.denominator == 1:
        s = str(value.numerator)
    else:
        s = f"{value.numerator}/{value.denominator}"
    return s


def _fmt(root: Expr | Pred, prec: int) -> str:
    """root as text where an operator of precedence prec surrounds it: the
    texts and the (node, prec) pairs to print, in order, on one stack."""
    out, todo = [], [(root, prec)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, prec = item
        op = _OF_NODE.get(type(node))
        if op is None:
            parts = _fmt_operand(node, prec)
        elif op.node is Pow:
            parts = [(node.base, _ATOM), f"^{node.exp}"]
        elif op.node in (Neg, Not):
            parts = [op.text, (node.arg, op.prec)]
        else:
            lhs, rhs = children(node)
            text = node.op if op.node is Cmp else op.text
            # "|" and "&" are associative, so their right operand is printed at
            # their own precedence; the others' one step tighter
            parts = [(lhs, op.prec), f" {text} " if op.prec < _MUL else text,
                     (rhs, op.prec if op.prec < _CMP else op.prec + 1)]
        if op is not None and prec > op.prec:
            parts = ["(", *parts, ")"]
        todo += reversed(parts)
    return "".join(out)


def _fmt_operand(node: Expr | Pred, prec: int) -> list:
    """The parts of a node that no operator of _OPS prints, as _fmt reads them."""
    if isinstance(node, Const):
        if node.value < 0:
            return [f"(-{_fmt_rational(-node.value)})"]
        s = _fmt_rational(node.value)
        # a printed p/q re-parses as a constant division and folds back,
        # but only when no tighter operator can capture one side
        return [f"({s})" if node.value.denominator != 1 and prec > _MUL else s]
    if isinstance(node, (Var, SymConst)):
        return [node.name]
    if isinstance(node, TimeVar):
        return ["t"]
    if type(node) in _FUNCTION_NAMES:
        return [f"{_FUNCTION_NAMES[type(node)]}(", (node.arg, 0), ")"]
    if isinstance(node, (TruePred, FalsePred)):
        return ["true" if isinstance(node, TruePred) else "false"]
    if isinstance(node, TimeQuant):
        dom = format_domain(node.dom)
        parts = [f"forall {node.t_name} in {dom}. "
                 f"(forall {node.tau_name} in {dom}, {node.tau_name} <= {node.t_name}. ",
                 (node.prefix, 0), ") -> (", (node.body, 0), ")"]
        return ["(", *parts, ")"] if prec > 0 else parts
    raise TypeError(f"not a term or predicate node: {node!r}")


def format_expr(e: Expr) -> str:
    if not isinstance(e, Expr):
        raise TypeError(f"not an Expr node: {e!r}")
    return _fmt(e, 0)


def format_pred(p: Pred) -> str:
    if not isinstance(p, Pred):
        raise TypeError(f"not a Pred node: {p!r}")
    return _fmt(p, 0)


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


def format_spec(spec: VerifySpec) -> str:
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
