import importlib.util
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from hybridwlp import expr
from hybridwlp.cli import main, run_certify, run_verify
from hybridwlp.expr import Cmp, SymConst, Var, const
from hybridwlp.hwl import parse_spec
from hybridwlp.odecert import FalsifyBudget, falsify
from hybridwlp.polynorm import normalize

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
# a variable named tau, which wlp's time binders must avoid
TAU_NAMED = ROOT / "tests" / "hwl" / "tau_named.hwl"
SCHEMA = json.loads((ROOT / "src/hybridwlp/report_schema.json").read_text())


# 1,500-level probes, each proved: a chain of assignments; a post of &, |,
# ! or prefix -, or a sum; a pre and a differential invariant of conjuncts
DEPTH_PROBES = {
    "assign": lambda n: (f"problem p vars x pre x = 0 post x = {n} program "
                         + "; ".join(["x := x + 1"] * n)),
    "and": lambda n: "problem p vars x pre x >= 0 post " + " & ".join(["x >= 0"] * n)
                     + " program skip",
    "or": lambda n: "problem p vars x pre x >= 0 post " + " | ".join(["x >= 0"] * n)
                    + " program skip",
    "not": lambda n: "problem p vars x pre x >= 0 post " + "!" * n + "x >= 0 program skip",
    "neg": lambda n: "problem p vars x pre x >= 0 post " + "-" * n + "x >= 0 program skip",
    "sum": lambda n: "problem p vars x pre x >= 0 post " + " + ".join(["x"] * n)
                     + " >= 0 program skip",
    "pre": lambda n: "problem p vars x pre " + " & ".join(["x >= 0"] * n)
                     + " post x >= 0 program skip",
    "dinv": lambda n: ("problem p vars x pre x >= 0 post x >= 0 program "
                       "evolve x' = 1 & true on [0,inf) dinv " + " & ".join(["x >= 0"] * n)),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerifyCommand:
    def test_ball_flow_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", str(PROBLEMS / "bouncing_ball.hwl"))
        assert code == 0
        assert "0 refuted, 0 unknown" in out

    def test_mutant_exits_two_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(PROBLEMS / "mutant_pendulum_radius.hwl")
        )
        assert code == 2
        assert "witness" in out

    def test_unknown_exit_one(self, capsys, tmp_path):
        f = tmp_path / "gap.hwl"
        f.write_text(
            "problem gap vars x pre x = 0 post x = 0\n"
            "program evolve x' = 1 & true on [0,inf)\n"
        )
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 1
        assert "unknown" in out

    def test_600_assignments_verify(self, capsys, tmp_path):
        # == and hash of the 600-level terms used to raise RecursionError
        f = tmp_path / "deep.hwl"
        f.write_text("problem deep vars x pre x = 0 post x = 600\nprogram "
                     + "; ".join(["x := x + 1"] * 600) + "\n")
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 0
        assert "1 proved, 0 refuted, 0 unknown" in out

    def test_too_deep_a_term_is_an_error_not_a_crash(self, capsys, tmp_path):
        # the parser still takes Python frames per parenthesised group, so
        # 1,000 nested groups exceed the recursion limit: exit 2 with an
        # error line, not a traceback with exit 1 (which reads as unknown)
        f = tmp_path / "deeper.hwl"
        f.write_text("problem deeper vars x pre " + "(" * 1000 + "x" + ")" * 1000
                     + " >= 0 post x >= 0 program skip\n")
        code, out, err = run(capsys, "verify", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: term nesting too deep")

    @pytest.mark.parametrize("probe", sorted(DEPTH_PROBES))
    def test_1500_levels_verify(self, capsys, tmp_path, probe):
        # each of these once ended in "term nesting too deep": a pass took
        # one Python frame per level of a term or predicate
        f = tmp_path / "deep.hwl"
        f.write_text(DEPTH_PROBES[probe](1500))
        code, out, err = run(capsys, "verify", str(f))
        proved = 3 if probe == "dinv" else 1
        assert (code, err) == (0, "")
        assert f"summary: {proved} proved, 0 refuted, 0 unknown" in out
        code, out, err = run(capsys, "fmt", str(f))
        assert (code, err) == (0, "")
        assert parse_spec(out) == parse_spec(f.read_text())

    def test_1500_conjuncts_refuted(self, capsys, tmp_path):
        f = tmp_path / "deep.hwl"
        f.write_text("problem deep vars x pre x >= 0 post "
                     + " & ".join(["x >= 1"] * 1500) + " program skip\n")
        code, out, err = run(capsys, "verify", str(f))
        assert (code, err) == (2, "")
        assert "summary: 0 proved, 1 refuted, 0 unknown" in out

    @pytest.mark.parametrize("post, want", [(10_000, 0), (10_001, 2)])
    def test_10000_assignments_verify(self, capsys, tmp_path, post, want):
        f = tmp_path / "chain.hwl"
        f.write_text(f"problem chain vars x pre x = 0 post x = {post}\nprogram "
                     + "; ".join(["x := x + 1"] * 10_000) + "\n")
        code, out, err = run(capsys, "verify", str(f))
        assert (code, err) == (want, "")

    def test_json_report_matches_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(PROBLEMS / "bouncing_ball_dinv.hwl"), "--json"
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report["summary"]["proved"] == len(report["obligations"])

    def test_mutant_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(PROBLEMS / "mutant_ball_no_guard.hwl"), "--json"
        )
        assert code == 2
        jsonschema.validate(json.loads(out), SCHEMA)

    def test_unevaluable_lemma_proves_nothing(self, capsys, tmp_path):
        from hybridwlp.cli import run_verify
        from hybridwlp.hwl import parse_spec

        text = (
            "problem lemma_probe\nvars x\npre x >= 0\n"
            "post exp(exp(exp(x) + 10)) <= 0\nprogram skip\n"
            "lemma bad: x >= 0 => exp(exp(exp(x) + 10)) <= 0\n"
        )
        report = run_verify(parse_spec(text))
        assert report["lemmas"] == [{"name": "bad", "status": "inconclusive", "trials": 0}]
        assert [o["verdict"]["status"] for o in report["obligations"]] == ["unknown"]
        assert report["summary"]["exit"] == 1
        f = tmp_path / "lemma_probe.hwl"
        f.write_text(text)
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 1
        assert "lemma:bad" not in out

    def test_true_hypothesis_of_a_lemma_is_dropped(self, capsys, tmp_path):
        # a true conjunct among the hypotheses once got a lemma key that
        # matched nothing, so the lemma was never used
        f = tmp_path / "cube.hwl"
        f.write_text("problem cube vars x y pre x >= 0 & y = x*x*x post y >= 0 program skip\n"
                     "lemma cube: true & x >= 0 => x*x*x >= 0\n")
        code, out, err = run(capsys, "verify", str(f))
        assert (code, err) == (0, "")
        assert "lemma:cube" in out
        code, out, _ = run(capsys, "fmt", str(f))
        assert code == 0 and "lemma cube: x >= 0 => x*x*x >= 0\n" in out

    def test_equation_pinning_a_constant_is_kept(self):
        # solving c = 2 for the constant c used to drop the hypothesis,
        # because substitution replaces variables and t, never constants
        from hybridwlp.cli import run_verify
        from hybridwlp.hwl import parse_spec

        report = run_verify(parse_spec(
            "problem const_eq\nvars x\nconsts c\nassume c = 2\n"
            "pre x = 0\npost x = 2\nprogram x := x + c\n"
        ))
        assert [o["verdict"]["status"] for o in report["obligations"]] == ["proved"]
        assert report["obligations"][0]["verdict"]["method"] == "hypothesis-match"
        assert report["summary"]["exit"] == 0

    def test_config_trials_is_the_refutation_budget(self, capsys, tmp_path):
        from hybridwlp.cli import run_certify, run_verify
        from hybridwlp.hwl import parse_spec

        text = "problem tr\nvars x\npre x >= 0\npost x >= 1\nprogram skip\n"
        f = tmp_path / "tr.hwl"
        f.write_text(text)
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 2 and "refuted" in out
        f.write_text(text + "config trials 0\n")
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 1 and "unknown" in out
        code, _, _ = run(capsys, "verify", str(f), "--trials", "50")  # the flag wins
        assert code == 2
        spec = parse_spec(text + "config trials 0\n")
        assert run_verify(spec)["summary"]["exit"] == 1
        assert run_certify(spec)["ok"] is True  # no side condition to decide

    def test_config_horizon_reaches_the_api(self, capsys, tmp_path):
        from hybridwlp.cli import run_verify
        from hybridwlp.hwl import parse_spec

        # x = t reaches 4 <= 5 by the horizon, so grid refutation has
        # nothing to find; at the default horizon 8 it would refute
        text = ("problem hz\nvars x\npre x = 0\npost x <= 5\n"
                "program evolve x' = 1 & true on [0,inf) flow x = x + t\n"
                "config horizon 4\n")
        f = tmp_path / "hz.hwl"
        f.write_text(text)
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 1 and "no proof method applies" in out
        report = run_verify(parse_spec(text))
        assert report["summary"]["exit"] == 1
        assert report["obligations"][0]["verdict"] == {
            "status": "unknown", "reason": "no proof method applies"}
        code, _, _ = run(capsys, "verify", str(f), "--horizon", "8")  # the flag wins
        assert code == 2

    def test_config_seed_reaches_the_api(self, capsys, tmp_path):
        from hybridwlp.cli import run_verify
        from hybridwlp.hwl import parse_spec

        text = "problem sd\nvars x\npre x >= 0\npost x >= 1\nprogram skip\n"
        spec = parse_spec(text + "config seed 5\n")
        report = run_verify(spec)
        assert report == run_verify(parse_spec(text), seed=5) != run_verify(spec, seed=0)
        f = tmp_path / "sd.hwl"
        f.write_text(text + "config seed 5\n")
        code, out, _ = run(capsys, "verify", str(f), "--json")
        assert (code, json.loads(out)) == (2, report)
        code, out, _ = run(capsys, "verify", str(f), "--json", "--seed", "0")
        assert json.loads(out) == run_verify(spec, seed=0)

    @pytest.mark.parametrize("command, setting, message", [
        *[(command, setting, message) for command in ("verify", "certify", "falsify")
          for setting, message in (
              ("seed 1/2", "seed must be an integer, got 1/2"),
              ("trials 5/2", "trials must be an integer, got 5/2"),
              ("trials -1", "trials must be nonnegative, got -1"))],
        ("verify", "lemma_trials 5/2", "lemma_trials must be an integer, got 5/2"),
        ("certify", "lemma_trials -5", "lemma_trials must be nonnegative, got -5"),
        ("falsify", "fuel 3/2", "fuel must be an integer, got 3/2"),
        ("falsify", "fuel -1", "fuel must be nonnegative, got -1"),
    ])
    def test_bad_integer_setting_is_an_error(self, capsys, tmp_path, command, setting,
                                             message):
        f = tmp_path / "bad.hwl"
        f.write_text("problem bad\nvars x\npre x >= 0\npost x >= 0\nprogram skip\n"
                     "lemma cube: x >= 0 => x*x*x >= 0\n"
                     f"config {setting}\n")
        code, out, err = run(capsys, command, str(f))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_negative_trials_flag_is_an_error(self, capsys):
        code, out, err = run(capsys, "verify", str(PROBLEMS / "constant_velocity.hwl"),
                             "--trials", "-5")
        assert (code, out, err) == (2, "", "error: trials must be nonnegative, got -5\n")

    @pytest.mark.parametrize("command", ["verify", "falsify"])
    @pytest.mark.parametrize("flag, value, shown", [
        ("--step", "0", "0.0"), ("--step", "-0.05", "-0.05"), ("--step", "nan", "nan"),
        ("--horizon", "0", "0.0"), ("--horizon", "-3", "-3.0"), ("--horizon", "inf", "inf"),
    ])
    def test_step_or_horizon_flag_that_is_not_positive_is_an_error(self, capsys, command,
                                                                  flag, value, shown):
        # the probe: a zero step used to loop forever in verify and end in a
        # traceback in falsify; a negative horizon turned both verdicts around
        code, out, err = run(capsys, command, str(PROBLEMS / "mutant_ball_no_guard.hwl"),
                             flag, value)
        name = flag[2:]
        assert (code, out, err) == (2, "", f"error: {name} must be positive and finite, "
                                           f"got {shown}\n")

    @pytest.mark.parametrize("command", ["verify", "certify", "falsify"])
    @pytest.mark.parametrize("setting", ["step 0", "step -1/20", "horizon 0", "horizon -3"])
    def test_step_or_horizon_config_that_is_not_positive_is_an_error(self, capsys, tmp_path,
                                                                    command, setting):
        text = (PROBLEMS / "mutant_ball_no_guard.hwl").read_text()
        f = tmp_path / "bad.hwl"
        f.write_text(text + f"config {setting}\n")
        name, value = setting.split()
        code, out, err = run(capsys, command, str(f))
        assert (code, out, err) == (2, "", f"error: {name} must be positive and finite, "
                                           f"got {value}\n")

    def test_integer_settings_read_as_given(self, capsys, tmp_path):
        # a negative seed is a seed; zero trials is an empty budget
        f = tmp_path / "ok.hwl"
        f.write_text("problem ok\nvars x\npre x >= 0\npost x >= 0\nprogram skip\n"
                     "lemma cube: x >= 0 => x*x*x >= 0\n"
                     "config seed -3, trials 0, lemma_trials 7, fuel 0\n")
        code, out, _ = run(capsys, "verify", str(f), "--json")
        assert code == 0
        assert json.loads(out)["lemmas"] == [
            {"name": "cube", "status": "accepted", "trials": 7}]
        code, _, err = run(capsys, "falsify", str(f))
        assert (code, err) == (0, "")

    def test_deterministic_given_seed(self, capsys):
        args = ("verify", str(PROBLEMS / "mutant_ball_no_flip.hwl"), "--json", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_parse_error_exit_two(self, capsys, tmp_path):
        f = tmp_path / "broken.hwl"
        f.write_text("problem broken vars x pre x = 0 post x = 0 program evolve x' =")
        code, _, err = run(capsys, "verify", str(f))
        assert code == 2
        assert "parse error" in err

    def test_empty_const_range_is_a_parse_error(self, capsys, tmp_path):
        # no witness may be drawn outside the declared range [6, 1]
        f = tmp_path / "empty.hwl"
        f.write_text("problem p vars x consts c in [6,1] pre x = 0 post x >= c program skip\n")
        for command in ("verify", "falsify"):
            code, out, err = run(capsys, command, str(f))
            assert (code, out, err) == (2, "", "parse error: 1:31: empty range for constant 'c'\n")

    @pytest.mark.parametrize("tail, message", [
        ("lemma a: x >= 0 lemma a: x <= 0", "1:75: repeated lemma name 'a'"),
        ("config seed 1, seed 2", "1:68: repeated config key 'seed'"),
        ("config trails 9", "1:60: unknown config key 'trails'"),
    ])
    def test_header_mistake_is_a_parse_error(self, capsys, tmp_path, tail, message):
        # each used to pass: two lemmas named a, only the last seed kept, a key ignored
        f = tmp_path / "header.hwl"
        f.write_text("problem p vars x pre x = 0 post x >= 0 program skip " + tail + "\n")
        for command in ("verify", "fmt"):
            code, out, err = run(capsys, command, str(f))
            assert (code, out, err) == (2, "", f"parse error: {message}\n")

    def test_a_variable_named_tau_verifies(self):
        report = run_verify(parse_spec(TAU_NAMED.read_text(encoding="utf-8")))
        assert report["summary"]["exit"] == 0
        assert [ob["verdict"]["status"] for ob in report["obligations"]] == ["proved", "proved"]
        assert report["obligations"][0]["forall"] == ["x", "tau", "t2", "tau2"]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 6: normalize cancels c*(1/c) to 1 without proving c != 0, so verify "
        "proves (trivial) a post undefined at c = 0, where falsify reports division by zero"))
    def test_division_by_a_constant_that_may_be_zero(self, capsys, tmp_path):
        f = tmp_path / "divz.hwl"
        f.write_text("problem divz vars x consts c in [-1, 1] pre c = 0\n"
                     "post c*(1/c) = 1 program skip\n")
        code, _, _ = run(capsys, "verify", str(f))
        assert code != 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-file.hwl")
        assert code == 2
        assert "io error" in err

    def test_differential_cut_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            str(PROBLEMS / "bouncing_ball_dinv.hwl"),
            "--dc",
            "2*g*x - 2*g*h - v*v = 0",
        )
        assert code == 0
        assert "dc-invariance" in out

    def test_differential_cut_rejects_trailing_input(self, capsys):
        code, _, err = run(
            capsys, "verify", str(PROBLEMS / "pendulum.hwl"),
            "--dc", "x*x + y*y >= 0 zzz ) (",
        )
        assert code == 2
        assert "trailing input 'zzz'" in err

    @pytest.mark.parametrize("n", [6, 7, 12, 50])
    def test_linear_chain_proved_by_simplex(self, capsys, tmp_path, n):
        # Fourier-Motzkin gave up past six names; the simplex has no cap
        names = [f"x{i}" for i in range(1, n + 1)]
        f = tmp_path / "chain.hwl"
        f.write_text(f"problem chain vars {' '.join(names)}\npre "
                     + " & ".join(f"{a} <= {b}" for a, b in zip(names, names[1:]))
                     + f"\npost x1 <= x{n}\nprogram skip\n")
        code, out, _ = run(capsys, "verify", str(f), "--json")
        assert code == 0
        verdict = json.loads(out)["obligations"][0]["verdict"]
        assert verdict == {"status": "proved", "method": "simplex"}

    @pytest.mark.parametrize("pre, post, program, reason", [
        ("y = 0 & x/y > 1", "x >= 0", "skip", "hypothesis undefined at a solved point"),
        ("y = 0", "x/y > 1", "skip", "conclusion undefined at a solved point"),
        ("y = 0", "x/y > 1 | x >= 0 | x < 0", "skip", "conclusion undefined at a solved point"),
        ("y = 0 & x/y = 1", "x >= 0", "skip", "hypothesis undefined at a solved point"),
        # the guard's instance at time zero divides by x(0) = 0
        ("x = 0", "x >= 0", "evolve x' = 1 & 1/x > 0 on [0,1] flow x = t",
         "hypothesis undefined at a solved point"),
    ], ids=["hypothesis", "conclusion", "negated-disjunct", "equation", "time-zero-guard"])
    def test_undefined_at_a_solved_point_is_unknown(self, capsys, tmp_path, pre, post,
                                                    program, reason):
        # a solved equality that zeroes a denominator used to raise
        # ValueError out of discharge
        f = tmp_path / "div.hwl"
        f.write_text(f"problem div vars x y\npre {pre}\npost {post}\nprogram {program}\n")
        code, out, err = run(capsys, "verify", str(f), "--json")
        assert code == 1 and "Traceback" not in err
        verdict = json.loads(out)["obligations"][0]["verdict"]
        assert verdict == {"status": "unknown", "reason": reason}

    @pytest.mark.parametrize("pre, post, program, at", [
        ("true", "1/x > 0", "x := 0", "program"),
        ("x < 0", "1/x < 0", "if x > 0 then x := 0 else skip", "program.then"),
        ("true", "1/x > 0", "x := 1 ; x := 0", "program.0"),
    ], ids=["assigned", "unreachable-branch", "assignment-run"])
    def test_assignment_zeroing_a_denominator_is_unknown(self, capsys, tmp_path, pre, post,
                                                         program, at):
        # substituting x := 0 into 1/x used to raise ValueError out of wlp
        f = tmp_path / "zd.hwl"
        f.write_text(f"problem zd\nvars x\npre {pre}\npost {post}\nprogram {program}\n")
        code, out, err = run(capsys, "verify", str(f), "--json")
        assert code == 1 and "Traceback" not in err
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        opaque = [(o["provenance"], o["verdict"]) for o in report["obligations"]
                  if o["kind"] == "opaque"]
        assert opaque == [(f"undefined-division@{at}", {
            "status": "unknown", "reason": "wlp undefined: division by the constant zero"})]
        code, out, err = run(capsys, "certify", str(f))
        assert code == 0 and "certification OK" in out  # no side condition to certify
        if pre == "true":
            code, out, err = run(capsys, "falsify", str(f))
            assert code == 1 and "undefined at a reached store: division by zero" in out


GOLDEN_REPORTS = Path(__file__).resolve().parent / "golden" / "verify"


class TestGoldenReports:
    """`verify --json` on every shipped problem prints its stored report
    byte for byte, so a change that should leave verdicts alone shows that
    it did."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.hwl")))
    def test_report_matches_golden(self, capsys, name):
        code, out, _ = run(capsys, "verify", str(PROBLEMS / f"{name}.hwl"), "--json")
        assert out == (GOLDEN_REPORTS / f"{name}.json").read_text(encoding="utf-8")
        assert code == json.loads(out)["summary"]["exit"]

    def test_verdicts_do_not_depend_on_node_addresses(self, capsys, monkeypatch):
        """Nodes hash by address, so the seed-1 benchmark verdicts, built
        again from fresh caches over terms at other addresses, must still
        be the golden's bytes."""
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
        monkeypatch.setattr(sys, "argv", ["verdicts_report.py"])
        spec = importlib.util.spec_from_file_location(
            "verdicts_report", ROOT / "scripts" / "verdicts_report.py")
        report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(report)
        golden = (ROOT / "tests" / "golden" / "verdicts_report.txt").read_text(encoding="utf-8")
        assert report.main() == 0 and capsys.readouterr().out == golden
        normalize.cache_clear()
        expr.memo_kernel.cache_clear()
        kept = [Cmp("<=", Var(f"unrelated_{i}") * const(i), SymConst("unrelated"))
                for i in range(3000)]
        assert report.main() == 0 and capsys.readouterr().out == golden
        del kept


class TestParsedSpecIsAValue:
    def test_commands_leave_the_parsed_spec_as_parsed(self):
        """verify, certify and falsify on one parsed problem neither change
        it nor see each other's work: a lemma's status is reported, never
        written into the spec."""
        text = (PROBLEMS / "bouncing_ball.hwl").read_text()
        spec = parse_spec(text)
        first = run_verify(spec)
        run_certify(spec)
        # the benchmark's falsify budget (FALSIFY_BUDGET in perfbench/run.py)
        falsify(spec, FalsifyBudget(trials=16, horizon=6.0, step=0.05, fuel=2))
        assert run_verify(spec) == first
        assert first["lemmas"][0]["status"] == "proved"
        assert spec == parse_spec(text)
        assert [lemma.status for lemma in spec.lemmas] == ["unvalidated"]


CUBE = """problem cube
vars x
consts a in [0, 2]
assume a >= 0
pre x = 0
post x >= 0
program
  evolve x' = a*a*a & true on [0,inf) dinv x >= 0
lemma cube: a >= 0 => a*a*a >= 0
"""


class TestCertifyCommand:
    def test_pendulum_flow(self, capsys):
        code, out, _ = run(capsys, "certify", str(PROBLEMS / "pendulum_flow.hwl"))
        assert code == 0
        assert "OK" in out

    def test_flow_only_skips_dinv(self, capsys):
        code, out, _ = run(
            capsys, "certify", str(PROBLEMS / "pendulum.hwl"), "--flow-only"
        )
        assert code == 0  # nothing to check is vacuously fine
        code2, out2, _ = run(
            capsys, "certify", str(PROBLEMS / "pendulum.hwl"), "--dinv-only", "--json"
        )
        assert code2 == 0
        doc = json.loads(out2)
        assert doc["certificates"][0]["kind"] == "dinv"

    def test_bad_dinv_fails(self, capsys):
        code, _, _ = run(
            capsys, "certify", str(PROBLEMS / "mutant_pendulum_radius.hwl")
        )
        assert code == 0  # the perturbed relation is still invariant
        # a genuinely broken annotation fails
        import tempfile, os

        with tempfile.NamedTemporaryFile("w", suffix=".hwl", delete=False) as fh:
            fh.write(
                "problem bad vars x pre x = 1 post x = 1\n"
                "program evolve x' = 1 & true on [0,inf) dinv x = 1\n"
            )
            path = fh.name
        try:
            code2, _, _ = run(capsys, "certify", path)
            assert code2 == 1
        finally:
            os.unlink(path)

    def test_nan_monoid_residual_refuses_in_strict_json(self, capsys, tmp_path):
        # M*M - M*M is 0 symbolically but NaN in floats: the symbolic checks
        # pass, the monoid check sees a NaN residual and refuses, and the
        # report stays strict JSON
        path = tmp_path / "nanflow.hwl"
        path.write_text(
            "problem nanflow\nvars a b\npre a = 0 & b = 0\npost b <= 1\nprogram\n"
            "  evolve a' = 0, b' = 0 & true on [0,1]\n"
            "    flow a = a + (10^200*10^200 - 10^200*10^200), b = b\n"
        )
        code, out, _ = run(capsys, "verify", str(path), "--json")

        def no_constant(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        report = json.loads(out, parse_constant=no_constant)
        (cert,) = [o for o in report["obligations"] if o["provenance"].startswith("flow-cert")]
        assert cert["verdict"]["reason"] == "monoid-action residual too large"
        assert cert["detail"]["checks"]["monoid"] == {
            "pass": False, "detail": "max residual nan", "residual": "nan"}
        assert code == 1

    def test_unevaluable_rk4_comparison_refuses(self, capsys, tmp_path):
        # c/c normalizes to 1, so the symbolic and monoid checks pass; at the
        # sampled c = 0 the RK4 trajectory divides by zero in its first stage
        f = tmp_path / "divfield.hwl"
        f.write_text(
            "problem divfield\nvars y\nconsts c in [0, 0]\npre y = 0\npost y >= 0\n"
            "program evolve y' = c/c & true on [0,inf) flow y = y + t\n"
        )
        code, out, err = run(capsys, "certify", str(f), "--json")
        assert code == 1 and err == ""
        (entry,) = json.loads(out)["certificates"]
        assert entry["report"]["refusal"] == "rk4 cross-check failed"
        assert entry["report"]["checks"]["monoid"]["pass"] is True
        assert entry["report"]["checks"]["rk4"] == {
            "pass": False, "detail": "evaluation failed: division by zero"}
        # no Lipschitz evidence either: c/c is no affine component, and the
        # field evaluates at no sampled pair
        assert entry["report"]["checks"]["lipschitz"]["pass"] is False
        code, out, err = run(capsys, "verify", str(f))
        assert code == 1 and err == ""
        assert "unknown  flow-cert@program" in out and "rk4 cross-check failed" in out

    def test_undecided_symbolic_checks_are_not_failures(self, capsys, tmp_path):
        # 1/(1/x - t) solves x' = x*x where it is defined, but the derivative
        # and initial-value identities hold only after cancelling a division
        # normalize keeps opaque, so neither check is decided
        f = tmp_path / "recip.hwl"
        f.write_text(
            "problem recip\nvars x\npre x = 1/2\npost x >= 0\nprogram\n"
            "  evolve x' = x*x & true on [0,1] flow x = 1/(1/x - t)\n"
        )
        code, out, err = run(capsys, "certify", str(f), "--json")
        assert (code, err) == (1, "")
        (entry,) = json.loads(out)["certificates"]
        report = entry["report"]
        assert report["issued"] is False
        assert report["refusal"] == "derivative check undecided for 'x'"
        assert report["checks"]["derivative[x]"] == {
            "pass": None, "detail": "undecided: likely-equal"}
        assert report["checks"]["initial[x]"] == {
            "pass": None, "detail": "undecided: likely-equal"}
        assert report["lipschitz"]["method"] == "sampled"
        # a sampled value is a lower bound, so it establishes no Lipschitz bound
        assert report["checks"]["lipschitz"] == {
            "pass": None,
            "detail": f"ell>={report['lipschitz']['ell']} (sampled: a numeric lower bound)"}
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 1
        assert "unknown  flow-cert@program" in out
        assert "derivative check undecided for 'x'" in out

    # certify decides exactly verify's flow-certificate and
    # differential-invariance obligations, by the same route
    @staticmethod
    def side_conditions(capsys, path):
        _, out, _ = run(capsys, "verify", str(path), "--json")
        return [e for e in json.loads(out)["obligations"]
                if e["kind"] in ("flow_cert", "diff_inv")]

    def test_cube_invariant_proved_with_the_file_lemma(self, capsys, tmp_path):
        path = tmp_path / "cube.hwl"
        path.write_text(CUBE)
        code, out, _ = run(capsys, "certify", str(path), "--json")
        assert code == 0
        (entry,) = json.loads(out)["certificates"]
        (ob,) = self.side_conditions(capsys, path)
        assert ob["verdict"]["method"] == "lie-lemma:cube"
        assert entry == {"at": "program", "kind": "dinv", "report": ob["detail"]}

    def test_cube_lemma_is_sampled_when_the_prover_declines(self, capsys, tmp_path):
        # the square rule has no positive multiplier for a >= 0, so the
        # lemma still rests on its 2,000 samples, and stays usable
        path = tmp_path / "cube.hwl"
        path.write_text(CUBE)
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["lemmas"] == [{"name": "cube", "status": "accepted", "trials": 2000}]
        (ob,) = [o for o in report["obligations"] if o["kind"] == "diff_inv"]
        assert ob["verdict"]["method"] == "lie-lemma:cube"
        jsonschema.validate(report, SCHEMA)

    @pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.hwl")))
    def test_entries_are_verify_details(self, capsys, name):
        path = PROBLEMS / f"{name}.hwl"
        code, out, _ = run(capsys, "certify", str(path), "--json")
        doc = json.loads(out)
        obs = self.side_conditions(capsys, path)
        assert [(e["at"], e["kind"], e["report"]) for e in doc["certificates"]] == [
            (ob["provenance"].split("@", 1)[1],
             {"flow_cert": "flow", "diff_inv": "dinv"}[ob["kind"]],
             ob["detail"])
            for ob in obs
        ]
        proved = all(ob["verdict"]["status"] == "proved" for ob in obs)
        assert doc["ok"] is proved and code == (0 if proved else 1)


class TestFalsifyCommand:
    def test_mutant_found(self, capsys):
        code, out, _ = run(
            capsys, "falsify", str(PROBLEMS / "mutant_ball_no_flip.hwl")
        )
        assert code == 2
        assert "counterexample found" in out

    def test_dropped_steps_are_marked(self, capsys):
        # the text output shows a counterexample's last four steps and says
        # how many earlier ones the --json report holds
        code, out, _ = run(capsys, "falsify", str(PROBLEMS / "mutant_ball_no_flip.hwl"))
        _, out_json, _ = run(capsys, "falsify", str(PROBLEMS / "mutant_ball_no_flip.hwl"), "--json")
        steps = json.loads(out_json)["counterexample"]["steps"]
        lines = out.splitlines()
        assert code == 2 and len(steps) == 13
        assert lines[3] == "  ... (9 earlier steps)"
        assert lines[4:] == [f"  {s['label']:<16} {s['store']}" for s in steps[-4:]]

    def test_valid_pendulum_none(self, capsys):
        code, out, _ = run(
            capsys, "falsify", str(PROBLEMS / "pendulum.hwl"), "--trials", "300"
        )
        assert code == 0
        assert "no counterexample" in out

    def test_each_start_is_searched_once(self, capsys, tmp_path, monkeypatch):
        # the precondition pins the start, so all 200 trials sample the
        # same x = -0.0; each search at fuel 3000 took some 30 ms
        import hybridwlp.odecert as odecert

        calls = []
        search = odecert.find_violation
        monkeypatch.setattr(odecert, "find_violation", lambda *a: calls.append(a) or search(*a))
        f = tmp_path / "pinned.hwl"
        f.write_text("problem pinned\nvars x\npre x = 0\npost x >= 0\n"
                     "program loop x := x + 1 inv x >= 0\nconfig fuel 3000\n")
        code, out, _ = run(capsys, "falsify", str(f))
        assert (code, out) == (0, "pinned: no counterexample within 200 trials\n")
        assert len(calls) == 1

    def test_wrong_flow_is_not_followed(self, capsys, tmp_path):
        # the ODE gives x = t <= 3/5, but the flow claims x + 2*t; following
        # it reported a run to x = 1.1 at t = 0.55 that does not exist
        f = tmp_path / "wrong_flow.hwl"
        f.write_text("problem wrong_flow\nvars x\npre x = 0\npost x <= 1\n"
                     "program evolve x' = 1 & true on [0,3/5] flow x = x + 2*t\n")
        code, out, err = run(capsys, "falsify", str(f))
        assert (code, out, err) == (0, "wrong_flow: no counterexample within 200 trials\n", "")

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "falsify", str(PROBLEMS / "mutant_ball_no_flip.hwl"), "--json"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["counterexample"]["violating"]

    def test_math_domain_error_is_no_counterexample(self, capsys, tmp_path):
        path = tmp_path / "domain_probe.hwl"
        path.write_text(
            "problem domain_probe\nvars x\nconsts c in [400, 500]\n"
            "assume sin(exp(c)*exp(c)) <= 2\npre x = 0\npost x >= 0\n"
            "program x := x + 1\n"
        )
        code, out, _ = run(capsys, "falsify", str(path))
        assert code == 0
        assert "no counterexample" in out

    def test_undefined_post_exits_one(self, capsys, tmp_path):
        path = tmp_path / "divz.hwl"
        path.write_text(
            "problem divz\nvars x\nconsts c in [-1, 1]\npre c = 0\n"
            "post c*(1/c) = 1\nprogram skip\n"
        )
        code, out, err = run(capsys, "falsify", str(path))
        assert code == 1
        assert "divz: undefined at a reached store: division by zero" in out
        assert "counterexample found" not in out and err == ""
        code, out, _ = run(capsys, "falsify", str(path), "--json")
        assert code == 1
        assert json.loads(out)["counterexample"]["undefined"] == "division by zero"


    @pytest.mark.parametrize("step", ["?(y >= 0)", "y := y + 1"])
    def test_flow_naming_some_variables_keeps_the_rest(self, capsys, tmp_path, step):
        path = tmp_path / "partial_flow.hwl"
        path.write_text(
            "problem partial_flow\nvars x y\npre x = 0 & y = 0\npost y >= 0\n"
            f"program evol x = x + t & x <= 1 on [0,inf) ; {step}\n"
        )
        code, out, err = run(capsys, "falsify", str(path))
        assert (code, err) == (0, "")
        assert "no counterexample" in out
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "summary: 1 proved, 0 refuted, 0 unknown" in out

    def test_1500_statements_falsify(self, capsys, tmp_path):
        # the run search once took Python frames per statement, so a chain
        # of about 1,000 statements ended in "term nesting too deep"
        f = tmp_path / "chain.hwl"
        f.write_text("problem chain vars x pre x = 0 post x <= 1499\nprogram "
                     + "; ".join(["x := x + 1"] * 1500) + "\n")
        code, out, err = run(capsys, "falsify", str(f), "--json")
        assert (code, err) == (2, "")
        cex = json.loads(out)["counterexample"]
        assert len(cex["steps"]) == 1501
        assert cex["steps"][-1]["store"] == cex["violating"] == {"x": 1500.0}

    def test_fuel_3000_loop_falsify(self, capsys, tmp_path):
        # the same for loop iterations: no term is deep, but fuel 3000 was
        f = tmp_path / "fuel.hwl"
        f.write_text("problem fuel vars x pre x = 0 post x >= 0\n"
                     "program loop x := x + 1 inv x >= 0\nconfig fuel 3000\n")
        code, out, err = run(capsys, "falsify", str(f), "--trials", "1")
        assert (code, err) == (0, "")
        assert "no counterexample" in out and "term nesting too deep" not in out

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: the loop rule cuts x = 2 after one iteration (+2) since two "
        "(+1, +1) reached it first, so falsify misses x = 4 at fuel 2 (finds it at 3)"))
    def test_loop_rule_gap(self, capsys, tmp_path):
        f = tmp_path / "gap.hwl"
        f.write_text("problem gap vars x pre x = 0 post x <= 3\n"
                     "program loop (x := x + 1 ++ x := x + 2) inv true\nconfig fuel 2\n")
        code, _, _ = run(capsys, "falsify", str(f))
        assert code == 2


class TestLawsCommand:
    def test_exhaustive_default_pass(self, capsys):
        code, out, _ = run(capsys, "laws", "--model", "rel", "--n", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_json_report_fields(self, capsys):
        code, out, _ = run(
            capsys, "laws", "--model", "sta", "--n", "3", "--mode", "random",
            "--trials", "200", "--laws", "box-seq,dia-box-adjunction", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert {e["law"] for e in doc} == {"box-seq", "dia-box-adjunction"}
        assert all(e["pass"] for e in doc)

    def test_group_selection_and_failure_exit(self, capsys):
        code, out, _ = run(capsys, "laws", "--laws", "sanity", "--n", "2")
        assert code == 1
        assert "counterexample" in out

    def test_unknown_law_rejected(self, capsys):
        code, _, err = run(capsys, "laws", "--laws", "no-such-law")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--n", "3"], "exhaustive mode too large for law 'union-assoc' at n=3"),
        (["--n", "-1"], "state count n must be non-negative, got -1"),
        (["--mode", "random", "--trials", "0"], "random mode needs trials >= 1, got 0"),
        (["--mode", "random", "--n", "-2"], "state count n must be non-negative, got -2"),
        (["--laws", ","], "no law selected"),
    ], ids=["exhaustive-too-large", "negative-n", "zero-trials", "random-negative-n",
            "empty-selection"])
    def test_invalid_run_is_a_usage_error(self, capsys, argv, message):
        # exit 2 with one line on stderr, never a traceback, an empty pass
        # or the exit code 1 of a failing law
        code, out, err = run(capsys, "laws", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


FMT_INPUTS = {p.stem: p for p in (*PROBLEMS.glob("*.hwl"), TAU_NAMED)}


class TestFmtCommand:
    @pytest.mark.parametrize("name", sorted(FMT_INPUTS))
    def test_canonical_output_reparses(self, capsys, tmp_path, name):
        code, out, _ = run(capsys, "fmt", str(FMT_INPUTS[name]))
        assert code == 0
        from hybridwlp.hwl import parse_spec

        spec = parse_spec(out)
        assert spec.name == name
        # fmt is a fixed point on its own output
        again = tmp_path / f"{name}.hwl"
        again.write_text(out, encoding="utf-8")
        code, out2, _ = run(capsys, "fmt", str(again))
        assert code == 0 and out2 == out

    @pytest.mark.parametrize("text", [
        "problem tiny vars x pre x = 0 post x <= 1\n"
        "program evol x = x + t & true on [0,1/3000000007]\n",
        "problem tiny vars x consts c in [0,1/3000000007] pre x = 0 post x <= 1\n"
        "program x := x + c\n",
    ], ids=["domain", "const-range"])
    def test_tiny_bounds_reparse_to_the_same_spec(self, capsys, tmp_path, text):
        from hybridwlp.hwl import parse_spec

        f = tmp_path / "tiny.hwl"
        f.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "fmt", str(f))
        assert code == 0
        assert parse_spec(out) == parse_spec(text)


    def test_config_values_print_as_written(self, capsys, tmp_path):
        from hybridwlp.hwl import parse_spec

        text = ("problem cfg vars x pre x = 0 post x >= 0 program skip\n"
                "config step 1/10000000000, horizon 7/2, seed 3\n")
        f = tmp_path / "cfg.hwl"
        f.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "fmt", str(f))
        assert code == 0
        assert out.endswith("config step 1/10000000000, horizon 7/2, seed 3\n")
        assert parse_spec(out) == parse_spec(text)


def _verify_probe(capsys, tmp_path, post, program, pre="x = 0", vars_="x"):
    f = tmp_path / "probe.hwl"
    f.write_text(f"problem probe vars {vars_}\npre {pre}\npost {post}\nprogram {program}\n")
    code, out, _ = run(capsys, "verify", str(f), "--json")
    return code, json.loads(out)["obligations"][0]["verdict"]["status"]


class TestExactTimeDomains:
    """Domain bounds are exact rationals, and refutation follows the
    down-set of each end time in the domain."""

    @pytest.mark.parametrize("post, program", [
        ("x < 1/3", "evol x = x + t & true on [0,1/3]"),
        ("x < 1/3", "evolve x' = 1 & true on [0,1/3] flow x = x + t"),
        ("x > -1/3", "evol x = x + t & true on [-1/3,1]"),
    ])
    def test_a_bound_is_not_rounded_to_a_float(self, capsys, tmp_path, post, program):
        # the store at the bound violates the post, so the spec is not valid
        code, status = _verify_probe(capsys, tmp_path, post, program)
        assert status != "proved" and code != 0

    @pytest.mark.parametrize("dom", ["[-1,5]", "R"])
    def test_guard_failing_in_every_down_set_yields_no_witness(self, capsys, tmp_path, dom):
        # every down-set holds tau = -1 (or lower), where x < 0 breaks the
        # guard, so no state is reached and the spec holds
        code, status = _verify_probe(
            capsys, tmp_path, "x <= 1", f"evolve x' = 1 & x >= 0 on {dom} flow x = x + t")
        assert (code, status) == (1, "unknown")

    def test_refutation_declines_on_R_under_a_guard(self, capsys, tmp_path):
        # every down-set on R holds a tau < -10, where the guard fails, but
        # the grid stops at -horizon, so no witness is read off it
        code, status = _verify_probe(
            capsys, tmp_path, "x <= 1", "evolve x' = 1 & x >= -10 on R flow x = x + t")
        assert (code, status) == (1, "unknown")
        code, status = _verify_probe(
            capsys, tmp_path, "x <= 1", "evolve x' = 1 & true on R flow x = x + t")
        assert (code, status) == (2, "refuted")

    def test_states_reached_at_negative_times_still_refute(self, capsys, tmp_path):
        code, status = _verify_probe(
            capsys, tmp_path, "-1*x + 0*v < -2",
            "evolve x' = 1, v' = 0 & 2*x + 0*v > 1 | -1*x + 0*v > 1 on [-1,2] "
            "flow x = x + 1*t, v = v",
            pre="x = -1 & v = 2", vars_="x v")
        assert (code, status) == (2, "refuted")


class TestReportDetailEmbedding:
    def test_flow_certificate_embedded(self, capsys):
        code, out, _ = run(
            capsys, "verify", str(PROBLEMS / "pendulum_flow.hwl"), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        cert_entry = next(e for e in doc["obligations"] if e["kind"] == "flow_cert")
        assert cert_entry["detail"]["issued"] is True
        assert "lipschitz" in cert_entry["detail"]
        jsonschema.validate(doc, SCHEMA)

    def test_invariant_report_embedded(self, capsys):
        code, out, _ = run(capsys, "verify", str(PROBLEMS / "pendulum.hwl"), "--json")
        doc = json.loads(out)
        inv_entry = next(e for e in doc["obligations"] if e["kind"] == "diff_inv")
        assert inv_entry["detail"]["rulings"][0]["rule"] == "eq-rule"
        jsonschema.validate(doc, SCHEMA)
