import json
from pathlib import Path

import jsonschema
import pytest

from hybridwlp.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/hybridwlp/report_schema.json").read_text()
)


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
        code, out, err = run(capsys, "verify", str(f))
        assert code == 1 and err == ""
        assert "unknown  flow-cert@program" in out and "rk4 cross-check failed" in out

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

    def test_valid_pendulum_none(self, capsys):
        code, out, _ = run(
            capsys, "falsify", str(PROBLEMS / "pendulum.hwl"), "--trials", "300"
        )
        assert code == 0
        assert "no counterexample" in out

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


class TestFmtCommand:
    @pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.hwl")))
    def test_canonical_output_reparses(self, capsys, tmp_path, name):
        code, out, _ = run(capsys, "fmt", str(PROBLEMS / f"{name}.hwl"))
        assert code == 0
        from hybridwlp.hwl import parse_spec

        spec = parse_spec(out)
        assert spec.name == name
        # fmt is a fixed point on its own output
        again = tmp_path / f"{name}.hwl"
        again.write_text(out, encoding="utf-8")
        code, out2, _ = run(capsys, "fmt", str(again))
        assert code == 0 and out2 == out


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
