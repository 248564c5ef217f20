"""The term and predicate reader and printer agree with the reference grammar.

tests/reference_hwl.py keeps the ladder grammar that hwl's operator table
replaced.  These tests print seeded random trees with both printers, and
read seeded random token strings and single-token mutations of the
benchmark's predicates with both readers.  It also keeps the tokenizer
that built a Token per token; seeded random texts must split into the
same token texts, at the same positions, with the same first error.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hybridwlp import hwl
from hybridwlp.expr import (
    Add, And, Cmp, Const, Cos, Div, Exp, FALSE, Mul, Neg, Not, Or, Pow, Sin, Sub, SymConst,
    TimeQuant, TimeVar, TRUE, Var,
)
from hybridwlp.hprog import NONNEG, Evolve, IfThenElse, Loop, Test, TimeDomain
from hybridwlp.hwl import ParseError, format_expr, format_pred, parse_spec, tokenize
from hybridwlp.vcgen import _subprograms

from reference_hwl import ref_format_expr, ref_format_pred, ref_parse
from reference_hwl import tokenize as ref_tokenize
from treepasses import ref_fmt

ROOT = Path(__file__).resolve().parents[1]
VARS, CONSTS = ("x", "y"), ("c",)
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
ALPHABET = (
    "x", "y", "c", "w", "t", "0", "1", "2", "2.5", "true", "false", "sin", "cos", "exp",
    "+", "-", "*", "/", "^", "(", ")", "&", "|", "!", *CMP_OPS,
)


def _perfbench_gen():
    """perfbench/gen.py, the benchmark's input generator, as a module."""
    name = "perfbench_gen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "gen.py")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def _const(rng):
    value = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 7)))
    return Const(value)


def rand_expr(rng, depth, time=True):
    if depth == 0 or rng.random() < 0.25:
        leaves = [Var("x"), Var("y"), SymConst("c"), _const(rng), _const(rng)]
        return rng.choice(leaves + [TimeVar()] if time else leaves)
    kind = rng.randrange(9)
    sub = lambda: rand_expr(rng, depth - 1, time)  # noqa: E731
    if kind == 0:
        return Neg(_const(rng) if rng.random() < 0.3 else sub())
    if kind == 1:
        base = Const(Fraction(rng.randint(-3, 3), rng.choice((2, 3)))) if rng.random() < 0.3 else sub()
        return Pow(base, rng.randint(0, 3))
    if kind == 2:
        return rng.choice((Sin, Cos, Exp))(sub())
    if kind == 3:
        den = sub()
        return Div(sub(), Const(1) if den == Const(0) else den)
    return rng.choice((Add, Sub, Mul, Add, Sub, Mul))(sub(), sub())


def rand_pred(rng, depth, time=True):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return rng.choice((TRUE, FALSE))
        return Cmp(rng.choice(CMP_OPS), rand_expr(rng, 2, time), rand_expr(rng, 2, time))
    kind = rng.randrange(7)
    if kind == 0:
        return Not(rand_pred(rng, depth - 1, time))
    if kind == 1 and time:
        dom = rng.choice((NONNEG, TimeDomain(Fraction(-1), Fraction(5, 2))))
        return TimeQuant("t", "tau", dom, rand_pred(rng, depth - 1), rand_pred(rng, depth - 1))
    # either side nests, so right-nested And and Or occur
    return rng.choice((And, Or))(rand_pred(rng, depth - 1, time), rand_pred(rng, depth - 1, time))


def noisy_text(rng, node):
    """node printed by the reference printer with extra parentheses around
    some of its subterms and subpredicates, so groups of every kind occur."""
    if isinstance(node, (And, Or, Cmp)):
        sep = {And: "&", Or: "|"}.get(type(node)) or node.op
        s = f"{noisy_text(rng, node.lhs)} {sep} {noisy_text(rng, node.rhs)}"
    elif isinstance(node, Not):
        s = f"!{noisy_text(rng, node.arg)}"
    elif isinstance(node, (Add, Sub, Mul, Div)):
        lhs, rhs = (node.num, node.den) if isinstance(node, Div) else (node.lhs, node.rhs)
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(node)]
        s = f"{noisy_text(rng, lhs)} {op} {noisy_text(rng, rhs)}"
    elif isinstance(node, Neg):
        s = f"-{noisy_text(rng, node.arg)}"
    elif isinstance(node, Pow):
        s = f"{noisy_text(rng, node.base)}^{node.exp}"
    elif isinstance(node, (Sin, Cos, Exp)):
        s = f"{type(node).__name__.lower()}({noisy_text(rng, node.arg)})"
    else:
        s = ref_format_pred(node) if node in (TRUE, FALSE) else ref_format_expr(node)
    roll = rng.random()
    if roll < 0.05:  # unbalanced
        return "(" * rng.randint(0, 2) + s + ")" * rng.randint(0, 2)
    return f"({s})" if roll < 0.35 else s


def new_parse(text, vars, consts, entry="pred", allow_time=False):
    if entry == "pred" and not allow_time:
        return hwl.parse_pred(text, vars, consts)
    parser = hwl._Parser(text, vars, consts)
    parser.allow_time = allow_time
    node = parser.parse_pred() if entry == "pred" else parser.parse_expr()
    parser.expect_end()
    return node


def outcome(parse, text, vars, consts, entry, allow_time):
    try:
        return parse(text, vars, consts, entry=entry, allow_time=allow_time)
    except ParseError:
        return ParseError


def _guards(program):
    """The evolution guards, test and branch conditions and loop
    invariants of program."""
    out, stack = [], [program]
    while stack:
        p = stack.pop()
        if isinstance(p, (Evolve, Test, IfThenElse, Loop)):
            out.append(p.guard if isinstance(p, Evolve) else p.inv if isinstance(p, Loop) else p.cond)
        stack += [sub for _, sub in _subprograms(p)]
    return out


def benchmark_texts():
    """The pre, post and guard texts of the benchmark's verify inputs at
    workload seed 1, with the names each may read."""
    gen, out = _perfbench_gen(), []
    for inp in gen.prove_inputs(1, ROOT / "problems") + gen.refute_inputs(1, ROOT / "problems"):
        spec = parse_spec(inp.text)
        for p in [spec.pre, spec.post, *_guards(spec.program)]:
            out.append((ref_format_pred(p), spec.vars, spec.consts))
    return sorted(set(out))


def mutations(rng, texts, count):
    """count single-token deletions, duplications and swaps of texts."""
    out = []
    while len(out) < count:
        text, vars, consts = rng.choice(texts)
        toks = tokenize(text)[:-1]
        i = rng.randrange(len(toks))
        kind = rng.randrange(3)
        if kind == 0:
            del toks[i]
        elif kind == 1:
            toks.insert(i, toks[i])
        else:
            j = rng.randrange(len(toks))
            toks[i], toks[j] = toks[j], toks[i]
        out.append((" ".join(toks), vars, consts))
    return out


class TestPrinterMatchesReference:
    def test_random_trees_print_alike(self):
        rng = random.Random(20241)
        for _ in range(1500):
            p = rand_pred(rng, rng.randint(0, 4))
            assert format_pred(p) == ref_format_pred(p), repr(p)
        for _ in range(1500):
            e = rand_expr(rng, rng.randint(0, 5))
            assert format_expr(e) == ref_format_expr(e), repr(e)

    def test_printer_loop_matches_its_recursive_form(self):
        # _fmt prints from one stack; tests/treepasses.py keeps its
        # recursive form, which takes the surrounding precedence as well
        rng = random.Random(26)
        for _ in range(600):
            node = rand_pred(rng, rng.randint(0, 4)) if rng.random() < 0.5 else rand_expr(
                rng, rng.randint(0, 5))
            for prec in range(hwl._ATOM + 1):
                assert hwl._fmt(node, prec) == ref_fmt(node, prec), repr(node)

    def test_deep_trees_print(self):
        a = Cmp(">=", Var("x"), Const(0))
        p, e = a, Var("x")
        for _ in range(3000):
            p, e = Not(And(p, a)), Neg(Sub(e, Var("y")))
        assert format_pred(p) == "!(" * 3000 + "x >= 0" + " & x >= 0)" * 3000
        assert format_expr(e) == "-(" * 3000 + "x" + " - y)" * 3000

    @pytest.mark.parametrize("node, text", [
        (Neg(Const(2)), "-2"),
        (Neg(Const(-2)), "-(-2)"),
        (Pow(Const(Fraction(1, 2)), 2), "(1/2)^2"),
        (Mul(Var("x"), Const(Fraction(-1, 3))), "x*(-1/3)"),
        (Div(Var("x"), Const(Fraction(1, 3))), "x/(1/3)"),
        (Neg(Mul(Var("x"), Var("y"))), "-(x*y)"),
        (Sub(Var("x"), Sub(Var("y"), Var("c"))), "x - (y - c)"),
    ])
    def test_pinned_terms(self, node, text):
        assert format_expr(node) == ref_format_expr(node) == text

    def test_pinned_predicates(self):
        a, b, c = (Cmp(">=", Var(n), Const(0)) for n in "xyc")
        assert format_pred(And(a, And(b, c))) == "x >= 0 & y >= 0 & c >= 0"
        assert format_pred(Or(a, And(b, c))) == "x >= 0 | y >= 0 & c >= 0"
        assert format_pred(And(a, Or(b, c))) == "x >= 0 & (y >= 0 | c >= 0)"
        assert format_pred(Not(And(a, b))) == "!(x >= 0 & y >= 0)"
        assert format_pred(Not(Not(a))) == "!!x >= 0"


class TestReaderMatchesReference:
    def test_inputs_read_alike(self):
        rng = random.Random(20242)
        cases = []
        for _ in range(3000):
            text = " ".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 9)))
            cases.append((text, VARS, CONSTS, rng.choice(("pred", "expr")), rng.random() < 0.3))
        for _ in range(700):
            cases.append((noisy_text(rng, rand_pred(rng, 3, time=False)), VARS, CONSTS, "pred", False))
        for _ in range(300):
            cases.append((noisy_text(rng, rand_expr(rng, 4)), VARS, CONSTS, "expr", True))
        cases += [(text, v, c, "pred", False) for text, v, c in mutations(rng, benchmark_texts(), 2500)]
        assert len(cases) >= 5000
        counts = {"accepted": 0, "rejected": 0}
        for text, vars, consts, entry, allow_time in cases:
            want = outcome(ref_parse, text, vars, consts, entry, allow_time)
            got = outcome(new_parse, text, vars, consts, entry, allow_time)
            if want is ParseError:
                assert got is ParseError, text
                counts["rejected"] += 1
            else:
                assert got is not ParseError and type(got) is type(want) and got == want, text
                counts["accepted"] += 1
        assert counts["accepted"] >= 1000 and counts["rejected"] >= 1000, counts


# Pieces of random texts: tokens (a non-ASCII digit among the numbers),
# whitespace a token never holds (tab, CR LF, a no-break space) and
# comments; and the pieces that raise: numbers that leave a point behind
# ("1.5.3", "7."), non-ASCII letters and characters no token starts with
TOKEN_PIECES = (
    "problem", "vars", "x", "x1", "_y", "evolve", "inf", "0", "12", "2.5",
    ":=", "++", "<=", ">=", "!=", "=>", "'", "=", "<", ">", "-", "+", "*", "/", "^", "(", ")",
    "[", "]", ",", ";", ":", "&", "|", "!", "?", "\u0663",
)
SPACE_PIECES = (" ", "  ", "\t", "\n", "\r\n", "\n\n", "\u00a0", " # note\n", "#", "# x := 1")
BAD_PIECES = ("1.5.3", "7.", ".5", "@", "$", "~", "%", "`", "\"", "{", "\u00b2", "\u00e9", "\u03bb")


def random_text(rng, bad):
    pieces = []
    for _ in range(rng.randint(0, 24)):
        roll = rng.random()
        if roll < 0.55:
            pieces.append(rng.choice(TOKEN_PIECES))
        elif roll < 0.97 or not bad:
            pieces.append(rng.choice(SPACE_PIECES))
        else:
            pieces.append(rng.choice(BAD_PIECES))
    if bad and rng.random() < 0.5:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(BAD_PIECES))
    return "".join(pieces)


class TestTokenizerMatchesReference:
    def test_random_texts_split_alike(self):
        rng = random.Random(2030)
        counts = {"tokens": 0, "errors": 0}
        for _ in range(2000):
            text = random_text(rng, bad=rng.random() < 0.3)
            try:
                want = ref_tokenize(text)
            except ParseError as err:
                with pytest.raises(ParseError) as got:
                    tokenize(text)
                assert (str(got.value), got.value.line, got.value.col) == (
                    str(err), err.line, err.col), repr(text)
                counts["errors"] += 1
                continue
            parser = hwl._Parser(text)
            assert parser.tokens == [tok.text for tok in want], repr(text)
            for index, tok in enumerate(want):
                text_i = parser.tokens[index]
                assert (text_i == "", text_i.isidentifier(), text_i[:1].isdecimal()) == (
                    tok.kind == "eof", tok.kind == "id", tok.kind == "num"), repr(text)
                with pytest.raises(ParseError) as got:
                    parser.error("probe", index)
                assert (got.value.line, got.value.col) == (tok.line, tok.col), (repr(text), index)
            counts["tokens"] += len(want)
        assert counts["errors"] >= 250 and counts["tokens"] >= 8000, counts
