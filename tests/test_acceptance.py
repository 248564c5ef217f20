"""Acceptance suite: one test per shipped criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import random
import time
from pathlib import Path

import pytest

from hybridwlp.algebra import check_laws, laws_in_groups
from hybridwlp.cli import run_verify
from hybridwlp.expr import (
    Cmp,
    Cos,
    EvalError,
    Sin,
    SymConst,
    TRUE,
    TimeVar,
    Var,
    const,
    diff,
    eval_pred,
    evaluate,
    free_names,
    free_vars,
    uses_time,
)
from hybridwlp.hprog import (
    NONNEG, REALS, Flow, RunConfig, VectorField, guarded_orbit_flow, run_sampled,
)
from hybridwlp.hwl import format_pred, parse_spec
from hybridwlp.odecert import (
    FalsifyBudget,
    certify_flow,
    falsify,
    lipschitz_estimate,
    rk4_integrate,
)
from hybridwlp.vcgen import ds_closed_form, wlp

from test_hprog import random_discrete_program

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
GOLDEN = Path(__file__).parent / "golden"

x, y, v = Var("x"), Var("y"), Var("v")
t = TimeVar()
g, h = SymConst("g"), SymConst("h")

BALL_FIELD = VectorField({"x": v, "v": g})
BALL_FLOW = Flow({"x": g * t ** 2 / const(2) + v * t + x, "v": g * t + v})
PEND_FIELD = VectorField({"x": y, "y": -x})
PEND_FLOW = Flow({"x": x * Cos(t) + y * Sin(t), "y": y * Cos(t) - x * Sin(t)})


def _verify_file(name: str):
    spec = parse_spec((PROBLEMS / name).read_text())
    start = time.perf_counter()
    report = run_verify(spec, seed=0)
    elapsed = time.perf_counter() - start
    return spec, report, elapsed


def _ok(message: str):
    print(f"ACCEPTANCE PASS: {message}")


def test_criterion_01_bouncing_ball_via_flow():
    spec, report, elapsed = _verify_file("bouncing_ball.hwl")
    assert report["summary"]["exit"] == 0, report
    assert report["summary"]["proved"] == len(report["obligations"])
    assert elapsed < 2.0
    # the flow certificate's derivative check is exact, not numeric
    cert = certify_flow(
        BALL_FIELD, BALL_FLOW, NONNEG, const_valuations=[{"g": -1.0}, {"g": -3.0}]
    )
    assert cert.issued
    for var in ("x", "v"):
        assert cert.checks[f"derivative[{var}]"].detail == "symbolic identity"
    # the shipped lemma block is the only user-supplied help, and it is
    # proved exactly, not sampled
    assert [l["status"] for l in report["lemmas"]] == ["proved"]
    _ok(f"bouncing ball via flow proved in {elapsed:.2f}s (< 2 s), exit 0")


def test_criterion_02_bouncing_ball_via_differential_invariant():
    spec, report, elapsed = _verify_file("bouncing_ball_dinv.hwl")
    assert report["summary"]["exit"] == 0, report
    assert elapsed < 2.0
    inv_entries = [e for e in report["obligations"] if e["kind"] == "diff_inv"]
    assert len(inv_entries) == 1
    # discharged by Lie-derivative normalization alone: no numeric fallback
    assert inv_entries[0]["verdict"]["method"] == "lie-normalize"
    _ok(f"bouncing ball via invariant proved in {elapsed:.2f}s, lie-normalize only")


def test_criterion_03_pendulum_via_invariant():
    spec, report, elapsed = _verify_file("pendulum.hwl")
    assert report["summary"]["exit"] == 0, report
    assert elapsed < 1.0
    assert spec.lemmas == ()  # fully automatic, no lemma blocks
    kinds = [e["kind"] for e in report["obligations"]]
    assert kinds.count("diff_inv") == 1
    inv = next(e for e in report["obligations"] if e["kind"] == "diff_inv")
    assert inv["verdict"]["method"] == "lie-normalize"
    _ok(f"pendulum invariant proved automatically in {elapsed:.2f}s (< 1 s)")


def test_criterion_04_pendulum_via_flow():
    spec, report, elapsed = _verify_file("pendulum_flow.hwl")
    assert report["summary"]["exit"] == 0, report
    assert elapsed < 1.0
    cert = certify_flow(PEND_FIELD, PEND_FLOW, REALS)
    assert cert.issued
    assert cert.checks["derivative[x]"].detail == "symbolic identity"
    # the main obligation is the squared-rotation identity, proved exactly
    main = report["obligations"][0]
    assert main["verdict"]["status"] == "proved"
    assert main["verdict"]["method"] in (
        "hypothesis-match",
        "poly-identity",
        "hypothesis-match+poly-identity",
    )
    _ok(f"pendulum flow proved via the sin^2 reduction in {elapsed:.2f}s")


def test_criterion_05_ds_closed_form_golden():
    c = SymConst("c")
    guard = Cmp("<=", x, const(10))
    tq = ds_closed_form({"x": c}, guard, guard)
    golden = (GOLDEN / "ds_closed_form.txt").read_text().strip()
    assert format_pred(tq) == golden
    # and the generic wlp on the equivalent flow-annotated command agrees
    from hybridwlp.hprog import Evolve

    ev = Evolve(VectorField({"x": c}), guard, NONNEG, flow=Flow({"x": x + c * t}))
    pred, _ = wlp(ev, guard)
    assert pred == tq
    _ok("constant-field closed form matches the golden structure")


def test_criterion_06_algebraic_laws():
    start = time.perf_counter()
    exhaustive_laws = laws_in_groups(["dioid", "antidomain"]) + [
        "box-def-agree",
        "box-demorgan",
    ]
    for model in ("rel", "sta"):
        reports = check_laws(model, 2, exhaustive_laws, mode="exhaustive")
        assert all(r.passed for r in reports), [r.law for r in reports if not r.passed]
    random_laws = [
        "star-unfold-left",
        "star-unfold-right",
        "star-induction-left",
        "star-induction-right",
        "invariant-meet-join",
        "dia-box-adjunction",
    ]
    for model, n in (("rel", 3), ("sta", 4)):
        reports = check_laws(
            model, n, random_laws, mode="random", seed=2024, trials=10000
        )
        assert all(r.passed for r in reports)
        assert all(r.checked == 10000 for r in reports)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(f"law suite exhaustive(n=2) + 10^4 random trials in {elapsed:.1f}s (< 30 s)")


def test_criterion_07_discrete_wlp_soundness_oracle():
    rng = random.Random(2024)
    cfg = RunConfig()
    from hybridwlp.expr import Or

    post = Or(Cmp("<=", x, const(1)), Cmp("=", v, const(0)))
    discrepancies = 0
    for _ in range(200):
        prog = random_discrete_program(rng, 3)
        pred, obs = wlp(prog, post)
        assert obs == []
        for xv in range(-2, 3):
            for vv in range(-2, 3):
                store = {"x": float(xv), "v": float(vv)}
                lhs = eval_pred(pred, store)
                rhs = all(
                    eval_pred(post, s) for s in run_sampled(prog, store, cfg).states
                )
                if lhs != rhs:
                    discrepancies += 1
    assert discrepancies == 0
    _ok("200 random discrete programs: wlp membership == sampler agreement, 0 diffs")


def test_criterion_08_numeric_cross_checks():
    # (a) symbolic derivatives vs central differences at 1e-5 relative
    rng = random.Random(31)
    exprs = [
        g * t ** 2 / const(2) + v * t + x,
        x * Cos(t) + y * Sin(t),
        (x + y) ** 4 - x * y ** 2,
        v * v / const(2) - g * (h - x),
    ]
    for e in exprs:
        names = sorted(free_names(e))
        wrt_names = sorted(free_vars(e)) + (["t"] if uses_time(e) else [])
        for _ in range(60):
            valuation = {n: rng.uniform(-2, 2) for n in names}
            for w in wrt_names:
                try:
                    sym = evaluate(diff(e, w), valuation)
                    up = dict(valuation)
                    dn = dict(valuation)
                    up[w] += 1e-5
                    dn[w] -= 1e-5
                    num = (evaluate(e, up) - evaluate(e, dn)) / 2e-5
                except EvalError:
                    continue
                if abs(sym) > 1e6:
                    continue
                assert abs(sym - num) <= 1e-5 * (1 + abs(sym))

    # (b) RK4 vs certified flows within 1e-6 sup-norm on [0,1] at h=1e-3
    for field, flow, consts in (
        (BALL_FIELD, BALL_FLOW, {"g": -1.7}),
        (PEND_FIELD, PEND_FLOW, {}),
    ):
        s0 = {k: rng.uniform(-1.5, 1.5) for k in field.components}
        traj, divergent = rk4_integrate(field, s0, 1e-3, 1000, consts)
        assert not divergent
        orbit = guarded_orbit_flow(flow, TRUE, NONNEG, s0, 1e-3, consts, horizon=1.0)
        assert [tt for tt, _ in orbit] == [tt for tt, _ in traj]
        worst = 0.0
        for (_, st), (_, target) in zip(traj, orbit):
            worst = max(worst, max(abs(target[k] - st[k]) for k in st))
        assert worst <= 1e-6

    # (c) RK4 convergence ratio error(h)/error(h/2) in [12, 20]
    def err(step):
        n = int(round(1.0 / step))
        traj, _ = rk4_integrate(PEND_FIELD, {"x": 1.0, "y": 0.0}, step, n)
        _, sf = traj[-1]
        return max(abs(sf["x"] - math.cos(1.0)), abs(sf["y"] + math.sin(1.0)))

    ratio = err(0.1) / err(0.05)
    assert 12.0 <= ratio <= 20.0

    # (d) monoid-action residual at most 1e-9 for certified flows
    for field, flow, dom, cvs in (
        (BALL_FIELD, BALL_FLOW, NONNEG, [{"g": -1.0}, {"g": -2.0}]),
        (PEND_FIELD, PEND_FLOW, REALS, [{}]),
    ):
        cert = certify_flow(field, flow, dom, const_valuations=cvs)
        assert cert.issued
        assert cert.checks["monoid"].residual <= 1e-9
    _ok(f"derivative/RK4/monoid cross-checks hold (convergence ratio {ratio:.1f})")


@pytest.mark.parametrize(
    "name",
    ["mutant_ball_no_guard.hwl", "mutant_ball_no_flip.hwl", "mutant_pendulum_radius.hwl"],
)
def test_criterion_09_mutation_detection(name):
    spec = parse_spec((PROBLEMS / name).read_text())
    start = time.perf_counter()
    report = run_verify(spec, seed=0)
    refuted = report["summary"]["refuted"] > 0
    cex = None
    if not refuted:
        cex = falsify(spec, FalsifyBudget())
    elapsed = time.perf_counter() - start
    assert refuted or cex is not None
    assert elapsed < 10.0
    how = "refuted obligation" if refuted else "falsifier counterexample"
    _ok(f"{name} detected via {how} in {elapsed:.2f}s (< 10 s)")


def test_criterion_10_lipschitz_constants():
    for field in (BALL_FIELD, PEND_FIELD):
        est = lipschitz_estimate(field)
        assert est.ell == 1.0
        assert est.method == "exact-affine"
    _ok("ball and pendulum fields report ell = 1 via the exact affine method")
