from fractions import Fraction
from pathlib import Path

import pytest

from hybridwlp.expr import And, Cmp, Const, Neg, Not, SymConst, Var
from hybridwlp.hprog import (
    Assign,
    Choice,
    Evolve,
    IfThenElse,
    Loop,
    NONNEG,
    Seq,
    Skip,
    TimeDomain,
)
from hybridwlp.hwl import (
    ParseError,
    format_program,
    format_spec,
    parse_pred,
    parse_spec,
    tokenize,
    _position,
)
from hybridwlp.vcgen import VerifySpec

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def parse_program_text(body: str, consts: str = ""):
    header = "problem p vars x v y"
    if consts:
        header += f" consts {consts}"
    text = f"{header} pre x = 0 post x = 0 program {body}"
    return parse_spec(text).program


class TestTokenize:
    def test_positions_across_comments_and_newlines(self):
        text = "problem p # a comment\n\n  vars x1\t# x2\r\n# only a comment\npre x1>=2.5\n"
        tokens = tokenize(text)
        assert tokens == ["problem", "p", "vars", "x1", "pre", "x1", ">=", "2.5", ""]
        assert [_position(text, i) for i in range(len(tokens))] == [
            (1, 1), (1, 9), (3, 3), (3, 8), (5, 1), (5, 5), (5, 7), (5, 9), (6, 1),
        ]
        assert tokenize("x := x'") == ["x", ":=", "x", "'", ""]
        assert _position("x := x'", 1) == (1, 3)

    @pytest.mark.parametrize("text, tokens", [
        ("", [""]),
        ("x", ["x", ""]),
        ("x  ", ["x", ""]),
        ("x # note", ["x", ""]),
        (" \n# only a comment", [""]),
    ])
    def test_one_end_of_file(self, text, tokens):
        assert tokenize(text) == tokens
        assert _position(text, len(tokens) - 1) == (text.count("\n") + 1,
                                                    len(text) - text.rfind("\n"))

    @pytest.mark.parametrize("text, line, col, char", [
        ("vars x\n  @ y", 2, 3, "@"),
        ("# comment\n\n x $", 3, 4, "$"),
        ("x\u00e9", 1, 2, "\u00e9"),
        ("x\r\n\t~", 2, 2, "~"),
    ])
    def test_unexpected_character_position(self, text, line, col, char):
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"{line}:{col}: unexpected character {char!r}"


HEAD = "problem p vars x pre x = 0 post x >= 0 program "


class TestErrorPositions:
    """A parse error points at the token it names, computed from the
    token's index only when the error is raised."""

    @pytest.mark.parametrize("text, line, col, message", [
        ("problem p vars x x pre x = 0 post x >= 0 program skip", 1, 18,
         "bad variable name 'x'"),
        ("problem p vars x consts c, c pre x = 0 post x >= 0 program skip", 1, 28,
         "bad constant name 'c'"),
        ("problem p vars x consts x pre x = 0 post x >= 0 program skip", 1, 25,
         "bad constant name 'x'"),
        (HEAD + "evolve x' = 1 & true on [1, inf) flow x = x + t", 1, 73,
         "forward domain must start at 0"),
        (HEAD + "evolve x' = 1 & true on [0, 1] flow x = x + t dinv x >= 0\n", 1, 94,
         "evolve carries at most one of flow/dinv"),
        (HEAD + "evolve x' = 1 & true on [1, 2]", 1, 73, "time domain must contain 0"),
        (HEAD + "y := 1", 1, 48, "assignment to undeclared variable 'y'"),
        (HEAD + "x := y", 1, 53, "unknown identifier 'y'"),
        (HEAD + "x := 1/0", 1, 55, "division by the constant zero"),
        ("problem p vars x consts c in [1, 2/0] pre x = 0 post x >= 0 program skip", 1, 36,
         "zero denominator"),
        (HEAD + "skip\nskip", 2, 1, "unexpected trailing input 'skip'"),
        (HEAD + "x := ", 1, 53, "expected expression, found ''"),
        (HEAD + "x := t", 1, 53, "the time symbol 't' is only allowed in flow expressions"),
        ("problem p vars x pre x = 0 post x >= tau program skip", 1, 38, "unknown identifier 'tau'"),
        (HEAD + "skip lemma a: x >= 0 lemma a: x <= 0", 1, 75, "repeated lemma name 'a'"),
        (HEAD + "skip config seed 1, seed 2", 1, 68, "repeated config key 'seed'"),
        (HEAD + "skip config trails 9", 1, 60, "unknown config key 'trails'"),
    ])
    def test_error_points_at_its_token(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert str(err.value) == f"{line}:{col}: {message}"
        assert (err.value.line, err.value.col) == (line, col)


class TestParsing:
    def test_predicate_over_given_names(self):
        p = parse_pred("x >= c & x <= 2", ("x",), ("c",))
        assert p == And(Cmp(">=", Var("x"), SymConst("c")), Cmp("<=", Var("x"), Const(2)))
        with pytest.raises(ParseError, match="unknown identifier 'y'"):
            parse_pred("y >= 0", ("x",), ())
        with pytest.raises(ParseError, match="trailing input"):
            parse_pred("x >= 0 x", ("x",), ())

    def test_minimal(self):
        spec = parse_spec("problem p vars x pre x = 0 post x = 0 program skip")
        assert spec.name == "p"
        assert spec.program == Skip()

    def test_precedence_seq_tighter_than_choice(self):
        prog = parse_program_text("x := 1 ; skip ++ abort")
        assert isinstance(prog, Choice)
        assert isinstance(prog.items[0], Seq)

    def test_parens_group(self):
        prog = parse_program_text("x := 1 ; (skip ++ abort)")
        assert isinstance(prog, Seq)
        assert isinstance(prog.items[1], Choice)

    def test_if_branches_are_single_statements(self):
        prog = parse_program_text("if x = 0 then v := 1 else skip ; x := 2")
        assert isinstance(prog, Seq)
        assert isinstance(prog.items[0], IfThenElse)

    def test_evolve_fills_missing_components_with_zero(self):
        prog = parse_program_text("evolve x' = v & true on [0,inf)")
        assert isinstance(prog, Evolve)
        assert prog.field.components["y"] == Const(Fraction(0))
        assert prog.dom == NONNEG

    def test_evolve_flow_completes_identity_components(self):
        prog = parse_program_text(
            "evolve x' = v & true on [0,inf) flow x = x + v*t"
        )
        assert prog.flow.components["v"] == Var("v")

    def test_evolve_guard_can_use_conjunction(self):
        prog = parse_program_text("evolve x' = v & x >= 0 & v >= 0 on R")
        assert isinstance(prog.guard, And)

    def test_evol_flow_command(self):
        prog = parse_program_text("evol x = x + t & true on [0,2]")
        assert isinstance(prog, Evolve) and prog.field is None
        assert set(prog.flow.components) == {"x"}
        assert prog.dom == TimeDomain(0.0, 2.0)

    def test_flow_and_dinv_are_mutually_exclusive(self):
        with pytest.raises(ParseError):
            parse_program_text(
                "evolve x' = v & true on R flow x = x dinv x = 0"
            )

    def test_constant_division_folds(self):
        prog = parse_program_text("x := 1/2")
        assert prog == Assign("x", Const(Fraction(1, 2)))

    def test_unary_minus_on_literal_folds(self):
        prog = parse_program_text("x := -3")
        assert prog == Assign("x", Const(Fraction(-3)))

    def test_decimals_are_exact(self):
        prog = parse_program_text("x := 0.1")
        assert prog == Assign("x", Const(Fraction(1, 10)))

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_spec("problem p vars x pre w = 0 post x = 0 program skip")
        assert "unknown identifier" in str(err.value)

    def test_reserved_time_symbol(self):
        with pytest.raises(ParseError):
            parse_spec("problem p vars t pre t = 0 post t = 0 program skip")

    def test_malformed_ode_position(self):
        with pytest.raises(ParseError) as err:
            parse_spec("problem p vars x pre x = 0 post x = 0 program evolve x' =")
        assert err.value.line == 1

    def test_assignment_to_undeclared_rejected(self):
        with pytest.raises(ParseError):
            parse_program_text("w := 1")

    def test_lemma_block(self):
        spec = parse_spec(
            "problem p vars x consts c\n"
            "pre x = 0 post x = 0 program skip\n"
            "lemma l1: x = 0 & c > 0 => c*x = 0\n"
            "lemma l2: x*x >= 0"
        )
        assert [l.name for l in spec.lemmas] == ["l1", "l2"]
        assert len(spec.lemmas[0].hyps) == 2
        assert spec.lemmas[1].hyps == ()

    def test_config_block(self):
        spec = parse_spec(
            "problem p vars x pre x = 0 post x = 0 program skip\n"
            "config seed 7, step 0.01, trials 500"
        )
        assert spec.config == {"seed": 7, "step": Fraction(1, 100), "trials": 500}

    def test_const_ranges(self):
        spec = parse_spec(
            "problem p vars x consts a in [-1, 2], b pre x = 0 post x = 0 program skip"
        )
        assert spec.const_ranges == {"a": (-1.0, 2.0)}
        assert spec.consts == ("a", "b")

    def test_empty_const_range_rejected(self):
        # the exact bounds are compared, at the lower one
        with pytest.raises(ParseError) as err:
            parse_spec("problem p vars x consts c in [6,1] pre x = 0 post x >= c program skip")
        assert str(err.value) == "1:31: empty range for constant 'c'"
        with pytest.raises(ParseError, match="1:32: empty range for constant 'c'"):
            parse_spec("problem p vars x consts c in [ -1/3, -2/3] pre x = 0 post x = 0 program skip")
        spec = parse_spec("problem p vars x consts c in [0, 0], d in [-2/3, -1/3] "
                          "pre x = 0 post x = 0 program skip")
        assert spec.const_ranges == {"c": (0.0, 0.0), "d": (-2 / 3, -1 / 3)}

    def test_comments_ignored(self):
        spec = parse_spec(
            "# leading note\nproblem p vars x # trailing\npre x = 0 post x = 0 program skip"
        )
        assert spec.name == "p"

    def test_pow_requires_natural_literal(self):
        with pytest.raises(ParseError):
            parse_program_text("x := x^v")


class TestRoundTrip:
    @pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.hwl")))
    def test_shipped_problems(self, path):
        spec = parse_spec(path.read_text())
        printed = format_spec(spec)
        spec2 = parse_spec(printed)
        assert spec2.program == spec.program
        assert spec2.pre == spec.pre and spec2.post == spec.post
        assert spec2.assumptions == spec.assumptions
        assert spec2.vars == spec.vars and spec2.consts == spec.consts
        assert spec2.const_ranges == spec.const_ranges
        for a, b in zip(spec.lemmas, spec2.lemmas):
            assert (a.name, a.hyps, a.concl) == (b.name, b.hyps, b.concl)
        # printing is a fixpoint
        assert format_spec(spec2) == printed

    @pytest.mark.parametrize("vars, consts", [(("tau",), ()), (("x",), ("tau",))])
    def test_api_spec_with_a_name_tau_round_trips(self, vars, consts):
        # fmt printed tau as written and the parser rejected it as reserved
        spec = VerifySpec("p", vars, consts)
        assert parse_spec(format_spec(spec)) == spec

    def test_config_values_re_parse(self):
        # str(1e-10) is "1e-10", which the number syntax does not read
        spec = parse_spec(
            "problem p vars x pre x = 0 post x = 0 program skip\n"
            "config step 1/10000000000, horizon 0.1, seed 7, fuel -1/3"
        )
        printed = format_spec(spec)
        assert parse_spec(printed).config == spec.config
        assert "horizon 1/10, seed 7, fuel -1/3\n" in printed
        assert format_spec(parse_spec(printed)) == printed

    @pytest.mark.parametrize(
        "body",
        [
            "skip",
            "abort",
            "x := -v + 2*y^3",
            "? x != 0 | !(v < 2)",
            "x := 1 ; v := x ; skip",
            "(x := 1 ++ v := 2) ; skip",
            "if x = 0 & v > 1 then (x := 1 ; v := 2) else skip",
            "loop (x := x + 1 ; ? x <= 3) inv x <= 3",
            "evolve x' = v, v' = -x & x >= 0 on [0,inf) flow x = x*cos(t), v = v",
            "evolve x' = v & true on R dinv x*x <= 1",
            "evol x = x + 2*t, v = v & v >= 0 on [-1,1]",
            "x := 1/3 ; v := x/2 ; y := (x + v)/3",
        ],
    )
    def test_program_fragments(self, body):
        prog = parse_program_text(body)
        printed = format_program(prog)
        assert parse_program_text(printed) == prog


class TestBallFile:
    def test_expected_ast_shape(self):
        spec = parse_spec((PROBLEMS / "bouncing_ball.hwl").read_text())
        assert isinstance(spec.program, Loop)
        body = spec.program.body
        assert isinstance(body, Seq)
        evolve, control = body.items
        assert isinstance(evolve, Evolve)
        assert evolve.flow is not None
        assert isinstance(control, IfThenElse)
        assert spec.consts == ("g", "h")
        assert len(spec.lemmas) == 1


class TestTimeSymbolScope:
    def test_time_allowed_in_flow(self):
        prog = parse_program_text("evolve x' = v & true on R flow x = x + v*t")
        assert prog.flow is not None

    def test_time_rejected_in_assignment(self):
        with pytest.raises(ParseError):
            parse_program_text("x := t")

    def test_time_rejected_in_ode(self):
        with pytest.raises(ParseError):
            parse_program_text("evolve x' = t & true on R")

    def test_time_rejected_in_guard(self):
        with pytest.raises(ParseError):
            parse_program_text("evolve x' = v & x <= t on R")


class TestDomainValidation:
    def test_interval_must_contain_zero(self):
        with pytest.raises(ParseError):
            parse_program_text("evolve x' = v & true on [1,2]")

    def test_two_sided_interval_ok(self):
        prog = parse_program_text("evolve x' = v & true on [-2,3]")
        assert prog.dom == TimeDomain(-2.0, 3.0)


# parser fuzzing: generated expressions survive print/parse
from fractions import Fraction as _F

from hypothesis import given, settings, strategies as st

from hybridwlp.expr import Cos as _Cos, Sin as _Sin, Pow as _Pow

_x, _v, _y = Var("x"), Var("v"), Var("y")
_leaves = st.sampled_from(
    [_x, _v, _y, Const(_F(2)), Const(_F(1, 3)), Const(_F(-5, 2)), Const(_F(0))]
)


def _build(children):
    a, b = children
    return st.sampled_from(
        [a + b, a - b, a * b, _Pow(a, 2), _Sin(a), _Cos(b), -a]
    )


_expr_strategy = st.recursive(_leaves, lambda s: st.tuples(s, s).flatmap(_build), max_leaves=10)


class TestExprRoundTripFuzz:
    @given(_expr_strategy)
    @settings(max_examples=150, deadline=None)
    def test_assignment_round_trip(self, e):
        from hybridwlp.hwl import format_expr

        # the parser folds literal negation/division, so compare through a
        # parse of the original printout
        prog = parse_program_text(f"x := {format_expr(e)}")
        reparsed = parse_program_text(f"x := {format_program(prog).split(':= ', 1)[1]}")
        assert reparsed == prog


class TestNesting:
    """Parentheses are read once and prefix chains in a loop, so nesting
    costs neither time nor stack beyond one frame pair per group."""

    @pytest.mark.parametrize("text", [
        "(" * 300 + "x" + ")" * 300 + " >= 0",
        "(" * 300 + "x >= 0" + ")" * 300,
    ], ids=["term", "predicate"])
    def test_300_parentheses(self, text):
        assert parse_pred(text, ("x",), ()) == Cmp(">=", Var("x"), Const(0))

    def test_prefix_chains(self):
        e = parse_pred("-" * 2000 + "x >= 0", ("x",), ()).lhs
        p = parse_pred("!" * 2000 + "x >= 0", ("x",), ())
        for _ in range(2000):
            assert isinstance(e, Neg) and isinstance(p, Not)
            e, p = e.arg, p.arg
        assert (e, p) == (Var("x"), Cmp(">=", Var("x"), Const(0)))
        assert parse_pred("-" * 2001 + "3 >= 0", ("x",), ()).lhs == Const(-3)

    def test_100_nested_sines(self):
        p = parse_pred("sin(" * 100 + "x" + ")" * 100 + " >= 0", ("x",), ())
        e = p.lhs
        for _ in range(100):
            e = e.arg
        assert e == Var("x")

    def test_200_parentheses_verify(self, tmp_path, capsys):
        # the grammar ladder rewound every group: quadratic time, and
        # "error: term nesting too deep" (exit 2) at 200 levels
        from hybridwlp.cli import main

        f = tmp_path / "parens.hwl"
        f.write_text("problem parens vars x pre " + "(" * 200 + "x" + ")" * 200
                     + " >= 0 post x >= 0 program skip\n")
        assert main(["verify", str(f)]) == 0
        assert "1 proved, 0 refuted, 0 unknown" in capsys.readouterr().out


def test_fmt_report_matches_golden():
    # CI diffs seeds 1-3 under two hash seeds; this is seed 1
    import subprocess
    import sys

    root = PROBLEMS.parent
    out = subprocess.run([sys.executable, str(root / "scripts" / "fmt_report.py")],
                         capture_output=True, text=True, check=True).stdout
    assert out == (root / "tests" / "golden" / "fmt_report.txt").read_text()
