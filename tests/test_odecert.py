import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hybridwlp import hprog, odecert
from hybridwlp.expr import (
    EVAL_FAILURES,
    And,
    Cmp,
    Cos,
    Exp,
    FALSE,
    Or,
    Sin,
    SymConst,
    TimeVar,
    TRUE,
    Var,
    const,
    eval_pred,
    evaluate,
)
from hybridwlp.hprog import (
    Evolve,
    Flow,
    Loop,
    NONNEG,
    REALS,
    Seq,
    Skip,
    TimeDomain,
    VectorField,
)
from hybridwlp.hwl import format_pred, parse_spec
from hybridwlp.odecert import (
    MONOID_SAMPLES,
    SUP_TOL_MONOID,
    CheckResult,
    FalsifyBudget,
    LipschitzEstimate,
    _monoid_check,
    certify_flow,
    check_diff_invariant,
    falsify,
    lipschitz_estimate,
    rk4_integrate,
)
from hybridwlp.vcgen import VerifySpec
from test_hprog import random_discrete_program, random_looping_program
from treewalk import ref_flow_at, ref_rk4_states

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

x, y, v, z = Var("x"), Var("y"), Var("v"), Var("z")
x_a, x_b = Var("a"), Var("b")
t = TimeVar()
g, h, r, vc = SymConst("g"), SymConst("h"), SymConst("r"), SymConst("v_c")

BALL_FIELD = VectorField({"x": v, "v": g})
BALL_FLOW = Flow({"x": g * t ** 2 / const(2) + v * t + x, "v": g * t + v})
PEND_FIELD = VectorField({"x": y, "y": -x})
PEND_FLOW = Flow({"x": x * Cos(t) + y * Sin(t), "y": y * Cos(t) - x * Sin(t)})
DOMAIN_PROBE = """problem domain_probe
vars x
consts c in [400, 500]
assume sin(exp(c)*exp(c)) <= 2
pre x = 0
post x >= 0
program x := x + 1
"""


class TestRk4:
    def test_zero_field_constant(self):
        field = VectorField({"x": const(0)})
        traj, divergent = rk4_integrate(field, {"x": 3.0}, 0.1, 20)
        assert not divergent
        assert all(s["x"] == 3.0 for _, s in traj)

    def test_ball_closed_form_to_roundoff(self):
        traj, _ = rk4_integrate(BALL_FIELD, {"x": 1.0, "v": 0.0}, 1e-3, 1000, {"g": -1.0})
        tf, sf = traj[-1]
        assert tf == pytest.approx(1.0)
        assert abs(sf["x"] - 0.5) <= 1e-9
        assert abs(sf["v"] + 1.0) <= 1e-9

    def test_pendulum_quarter_turn(self):
        n = 1571  # pi/2 at h close to 1e-3
        step = (math.pi / 2) / n
        traj, _ = rk4_integrate(PEND_FIELD, {"x": 1.0, "y": 0.0}, step, n)
        _, sf = traj[-1]
        assert abs(sf["x"]) <= 1e-6
        assert abs(sf["y"] + 1.0) <= 1e-6

    def test_divergence_flagged(self):
        field = VectorField({"x": x * x})
        traj, divergent = rk4_integrate(field, {"x": 5.0}, 0.5, 60)
        assert divergent
        assert len(traj) < 61

    def test_overflow_to_inf_truncates_and_flags(self):
        # the store variable n lies outside the field and passes through
        field = VectorField({"x": x * x})
        traj, divergent = rk4_integrate(field, {"x": 5.0, "n": 3}, 0.5, 60)
        assert divergent and 0 < len(traj) < 61
        assert [tt for tt, _ in traj] == [0.5 * k for k in range(len(traj))]
        assert all(math.isfinite(s["x"]) and s["n"] == 3 for _, s in traj)
        nxt = list(itertools.islice(ref_rk4_states(field, {"x": 5.0, "n": 3}, 0.5, {}),
                                    len(traj) + 1))
        assert nxt[:-1] == [s for _, s in traj] and not math.isfinite(nxt[-1]["x"])

    def test_convergence_order(self):
        def err(step):
            n = int(round(1.0 / step))
            traj, _ = rk4_integrate(PEND_FIELD, {"x": 1.0, "y": 0.0}, step, n)
            _, sf = traj[-1]
            return max(abs(sf["x"] - math.cos(1.0)), abs(sf["y"] + math.sin(1.0)))

        ratio = err(0.1) / err(0.05)
        assert 12 <= ratio <= 20


class TestLipschitz:
    def test_ball_exact_one(self):
        est = lipschitz_estimate(BALL_FIELD)
        assert est.ell == 1.0 and est.method == "exact-affine"

    def test_pendulum_exact_one(self):
        est = lipschitz_estimate(PEND_FIELD)
        assert est.ell == 1.0 and est.method == "exact-affine"

    def test_zero_field(self):
        est = lipschitz_estimate(VectorField({"x": const(0), "v": const(0)}))
        assert est.ell == 0.0 and est.method == "exact-affine"

    def test_affine_bound_holds_on_samples(self):
        rng = random.Random(5)
        field = VectorField({"x": const(2) * v - x, "v": const(3) * x})
        est = lipschitz_estimate(field)
        assert est.method == "exact-affine"
        for _ in range(1000):
            s1 = {"x": rng.uniform(-5, 5), "v": rng.uniform(-5, 5)}
            s2 = {"x": rng.uniform(-5, 5), "v": rng.uniform(-5, 5)}
            df = max(
                abs(
                    evaluate(field.components[k], s1)
                    - evaluate(field.components[k], s2)
                )
                for k in ("x", "v")
            )
            dx = max(abs(s1[k] - s2[k]) for k in ("x", "v"))
            assert df <= est.ell * dx + 1e-9

    def test_nonlinear_falls_back_to_sampling(self):
        field = VectorField({"x": Sin(x)})
        est = lipschitz_estimate(field, samples=400, seed=3)
        assert est.method == "sampled"
        assert 0.5 <= est.ell <= 1.01  # true constant is 1

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_estimate(PEND_FIELD, region={"x": (0.0, 0.0), "y": (0.0, 1.0)})

    def test_quotient_by_a_name_is_sampled_and_needs_an_evaluated_pair(self):
        c = SymConst("c")
        # c/c normalizes to 1, but it is undefined at c = 0
        field = VectorField({"y": c / c})
        with pytest.raises(ValueError, match="evaluates at no sampled pair"):
            lipschitz_estimate(field, consts={"c": 0.0})
        assert lipschitz_estimate(field, consts={"c": 2.0}) == LipschitzEstimate(0.0, "sampled")
        # a constant denominator keeps the exact bound
        est = lipschitz_estimate(VectorField({"x": v / const(2), "v": x}))
        assert est == LipschitzEstimate(1.0, "exact-affine")


class TestCertifyFlow:
    def test_ball_certified(self):
        cert = certify_flow(
            BALL_FIELD, BALL_FLOW, NONNEG,
            const_valuations=[{"g": -1.0}, {"g": -2.5}],
        )
        assert cert.issued
        assert cert.checks["derivative[x]"].passed
        assert cert.checks["initial[x]"].passed
        assert cert.lipschitz.ell == 1.0

    def test_pendulum_certified(self):
        cert = certify_flow(PEND_FIELD, PEND_FLOW, REALS)
        assert cert.issued
        assert cert.checks["monoid"].residual <= 1e-9
        assert "rk4" not in cert.checks

    FLUID_FIELD = VectorField({"x": vc, "y": const(0), "z": -Sin(x)})
    FLUID_FLOW = Flow({"x": x + vc * t, "y": y, "z": z - Cos(x) / vc + Cos(x + vc * t) / vc})

    def test_fluid_particle_certified(self):
        # the derivative of cos(x + v_c t)/v_c is -sin(x + v_c t) only where
        # v_c != 0, which the assumption proves
        cert = certify_flow(self.FLUID_FIELD, self.FLUID_FLOW, REALS,
                            const_valuations=[{"v_c": 1.3}], assumptions=(Cmp(">", vc, const(0)),))
        assert cert.issued
        assert cert.checks["derivative[z]"].passed
        assert cert.checks["definedness"] == CheckResult(True, "every denominator is nonzero")

    def test_fluid_particle_refused_where_the_velocity_may_be_zero(self):
        # a valuation is no evidence: without the assumption the flow divides
        # by a v_c that may be zero, and v_c * (1/v_c) does not cancel
        cert = certify_flow(self.FLUID_FIELD, self.FLUID_FLOW, REALS,
                            const_valuations=[{"v_c": 1.3}])
        assert not cert.issued
        assert cert.checks["derivative[z]"] == CheckResult(None, "undecided: likely-equal")
        assert cert.checks["definedness"] == CheckResult(False, "denominator `v_c` may be zero")
        assert cert.refusal == "derivative check undecided for 'z'"
        assert "monoid" not in cert.checks

    def test_rational_denominators_need_no_assumption(self):
        field = VectorField({"x": const(1) / const(2)})
        cert = certify_flow(field, Flow({"x": x + t / const(2)}), REALS)
        assert cert.issued
        assert cert.checks["definedness"] == CheckResult(True, "every denominator is nonzero")

    @pytest.mark.parametrize("assumptions, issued", [
        ((), False), ((Cmp("<", SymConst("c"), const(0)),), True),
    ], ids=["unassumed", "assumed-negative"])
    def test_a_division_in_the_flow_alone(self, assumptions, issued):
        # the field divides by nothing; the flow's t*c/c still needs c != 0
        c = SymConst("c")
        cert = certify_flow(VectorField({"x": const(1)}), Flow({"x": x + t * c / c}), REALS,
                            const_valuations=[{"c": -0.5}], assumptions=assumptions)
        assert cert.issued == issued
        assert cert.checks["definedness"].passed == issued
        if not issued:
            assert cert.checks["definedness"].detail == "denominator `c` may be zero"

    def test_fluid_particle_unit_velocity_literal_flow(self):
        field = VectorField({"x": const(1), "y": const(0), "z": -Sin(x)})
        flow = Flow({"x": x + t, "y": y, "z": z - Cos(x) + Cos(x + t)})
        assert certify_flow(field, flow, REALS).issued

    def test_wrong_flow_refused_with_witness(self):
        bad = Flow({"x": x + v * t, "v": g * t + v})  # missing the g t^2/2 term
        cert = certify_flow(BALL_FIELD, bad, NONNEG, const_valuations=[{"g": -1.0}])
        assert not cert.issued
        assert "derivative" in cert.refusal
        assert cert.refusal_witness

    def test_wrong_initial_value_refused(self):
        bad = Flow({"x": g * t ** 2 / const(2) + v * t + x + const(1), "v": g * t + v})
        cert = certify_flow(BALL_FIELD, bad, NONNEG, const_valuations=[{"g": -1.0}])
        assert not cert.issued
        assert "initial" in cert.refusal

    def test_domain_containment_checked(self):
        narrow = Flow(dict(BALL_FLOW.components), TimeDomain(-1.0, 1.0))
        cert = certify_flow(
            BALL_FIELD, narrow, NONNEG, const_valuations=[{"g": -1.0}]
        )
        assert not cert.issued
        assert "domain" in cert.refusal

    def test_variable_set_must_match(self):
        with pytest.raises(ValueError):
            certify_flow(BALL_FIELD, Flow({"x": x}), NONNEG)

    def test_monoid_evaluation_failure_refuses(self):
        # 0*q leaves the flow a solution, but q has no value to evaluate
        q = SymConst("q")
        flow = Flow({"x": BALL_FLOW.components["x"] + const(0) * q,
                     "v": BALL_FLOW.components["v"]})
        cert = certify_flow(BALL_FIELD, flow, NONNEG, const_valuations=[{"g": -1.0}])
        assert not cert.issued
        assert cert.refusal == "monoid-action check failed"
        assert cert.checks["monoid"].detail == "evaluation failed: unbound name 'q'"

    def test_monoid_programming_error_propagates(self, monkeypatch):
        def broken(flow, names, bound):
            def residual(*args):
                raise TypeError("not an evaluation failure")
            return residual

        monkeypatch.setattr(odecert, "_monoid_kernel", broken)
        with pytest.raises(TypeError, match="not an evaluation failure"):
            certify_flow(BALL_FIELD, BALL_FLOW, NONNEG, const_valuations=[{"g": -1.0}])

    @pytest.mark.parametrize("field, flow", [(BALL_FIELD, BALL_FLOW), (PEND_FIELD, PEND_FLOW)],
                             ids=["with-constants", "without-constants"])
    def test_empty_valuations_rejected(self, field, flow):
        with pytest.raises(ValueError, match="at least one valuation"):
            certify_flow(field, flow, REALS, const_valuations=[])

    def test_empty_variable_set_rejected(self):
        with pytest.raises(ValueError, match="at least one variable"):
            certify_flow(VectorField({}), Flow({}), REALS)


# ---------------------------------------------------------------------------
# Reference numeric cross-check: the certificate's monoid loop over the tree
# walk's flow states (tests/treewalk.py), except that a NaN deviation wins
# every maximum (nan_max).  The generated check kernel must give the same
# CheckResult, residual bit for bit, and leave the random draws where the
# reference leaves them.


def nan_max(values):
    """max(values), but NaN as soon as one value is NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def ref_monoid_check(flow, names, valuations, rng, negative):
    residual = 0.0
    for _ in range(MONOID_SAMPLES):
        cv = valuations[rng.randrange(len(valuations))]
        s = {v: rng.uniform(-2.0, 2.0) for v in names}
        if negative:
            t1, t2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        else:
            t1, t2 = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        try:
            one_shot = ref_flow_at(flow, t1 + t2, s, cv)
            two_step = ref_flow_at(flow, t1, ref_flow_at(flow, t2, s, cv), cv)
        except EVAL_FAILURES as exc:
            return CheckResult(False, f"evaluation failed: {exc}")
        residual = nan_max([residual, nan_max(abs(one_shot[v] - two_step[v]) for v in names)])
    return CheckResult(residual <= SUP_TOL_MONOID, f"max residual {residual:.3e}", residual)


def exact(result):
    return result.passed, result.detail, repr(result.residual)


def random_term(rng, names, consts, depth, time=False):
    """A random term over names, consts and (when time) t: polynomial
    operations, sin, cos, and now and then exp or a division."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(4 if time else 3)
        if pick == 0:
            return Var(rng.choice(names))
        if pick == 1 and consts:
            return SymConst(rng.choice(consts))
        if pick == 3:
            return t
        return const(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
    a = random_term(rng, names, consts, depth - 1, time)
    op = rng.randrange(9)
    if op == 3:
        return -a
    if op == 4:
        return Sin(a)
    if op == 5:
        return Cos(a)
    if op == 6:
        return Exp(a) if rng.random() < 0.3 else a * a
    b = random_term(rng, names, consts, depth - 1, time)
    if op == 7:
        return a / b if rng.random() < 0.3 and b != const(0) else a + b
    return (a + b, a - b, a * b)[op % 3]


def random_case(rng):
    """(field, flow, valuations): a solvable family with its flow, right or
    perturbed, or a random field with a random flow; a valuation now and
    then leaves a constant unbound."""
    consts = rng.sample(["a", "b"], rng.randint(0, 2))
    kind = rng.randrange(7)
    a = SymConst(consts[0]) if consts else const(Fraction(rng.randint(-5, 5), 2))
    w = const(Fraction(rng.randint(1, 6), 2))
    if kind == 0:  # constant acceleration
        field = VectorField({"x": v, "v": a})
        flow = {"x": a * t ** 2 / const(2) + v * t + x, "v": a * t + v}
    elif kind == 1:  # rotation at angular speed w
        field = VectorField({"x": w * y, "y": -(w * x)})
        flow = {"x": x * Cos(w * t) + y * Sin(w * t), "y": y * Cos(w * t) - x * Sin(w * t)}
    elif kind == 2:  # exponential decay beside a drift
        field = VectorField({"x": -x, "y": a})
        flow = {"x": x * Exp(-t), "y": y + a * t}
    elif kind == 3:
        names = rng.sample(["x", "y", "z"], rng.randint(1, 3))
        field = VectorField({n: random_term(rng, names, consts, 3) for n in names})
        flow = {n: random_term(rng, names, consts, 3, time=True) for n in names}
    elif kind == 4:  # a field on a constant alone
        field = VectorField({"x": const(2) * a})
        flow = {"x": x + const(2) * a * t}
    elif kind == 5:  # components sharing one constant, one of them on it alone
        field = VectorField({"x": a * w, "y": y - a})
        flow = {"x": x + a * w * t, "y": (y - a) * Exp(t) + a}
    else:  # a product on a constant beside z/z, undefined at z = 0
        field = VectorField({"y": const(2) * a + z / z, "z": const(-1000) * z})
        flow = {"y": y + (const(2) * a + const(1)) * t, "z": z * Exp(const(-1000) * t)}
    if kind != 3 and rng.random() < 0.5:  # a wrong flow
        n = rng.choice(sorted(flow))
        flow[n] = flow[n] + random_term(rng, sorted(flow), consts, 2, time=True) * t
    valuations = [{c: rng.uniform(-2, 2) for c in consts} for _ in range(rng.randint(1, 3))]
    if consts and rng.random() < 0.2:
        del valuations[-1][consts[-1]]
    return field, Flow(flow), valuations


class TestCheckKernelsBitIdentity:
    def test_random_cases_match_references(self):
        rng = random.Random(13)
        outcomes = set()
        for case in range(100):
            field, flow, valuations = random_case(rng)
            names = sorted(field.components)
            negative = rng.random() < 0.5
            got_rng, want_rng = random.Random(case), random.Random(case)
            got = _monoid_check(flow, names, valuations, got_rng, negative)
            want = ref_monoid_check(flow, names, valuations, want_rng, negative)
            assert exact(got) == exact(want), case
            assert got_rng.getstate() == want_rng.getstate()
            outcomes.add(got.detail.split(" ")[0] if got.passed else got.detail[:18])
        # right and wrong flows, and failures, were all met
        assert {"max", "evaluation failed:"} <= outcomes
        assert len(outcomes) >= 3

    def test_names_that_are_not_python_identifiers(self):
        # names reach the generated code only through its globals; a
        # variable named t is the time symbol inside a flow, as in an orbit
        names = ["class", "t", "worst", "ferr", "_v1"]
        consts = ["k", "steps", "h"]
        rng = random.Random(17)
        for case in range(10):
            field = VectorField({n: random_term(rng, names, consts, 2) for n in names})
            flow = Flow({n: random_term(rng, names, consts, 2, time=True) for n in names})
            valuations = [{c: rng.uniform(-2, 2) for c in consts}]
            ordered = sorted(names)
            got = _monoid_check(flow, ordered, valuations, random.Random(case), case % 2 == 0)
            want = ref_monoid_check(flow, ordered, valuations, random.Random(case), case % 2 == 0)
            assert exact(got) == exact(want)

    def test_flow_on_a_constant_alone(self):
        c = SymConst("c")
        flow = Flow({"x": x + const(2) * c * t})
        valuations = [{"c": 0.75}, {"c": -1.25}, {"c": 1e-3}]
        want = ref_monoid_check(flow, ["x"], valuations, random.Random(5), True)
        assert exact(_monoid_check(flow, ["x"], valuations, random.Random(5), True)) == exact(want)

    @pytest.mark.parametrize("comps, want", [
        ({"x": x + SymConst("a") * t}, "unbound name 'a'"),
        ({"x": x + const(1) / (x - x) * SymConst("a")}, "division by zero"),
        ({"x": x + SymConst("a") * (const(1) / (x - x))}, "unbound name 'a'"),
        ({"x": x + t, "y": y + const(0) * SymConst("q")}, "unbound name 'q'"),
    ], ids=["lone", "division-first", "load-first", "later-component"])
    def test_monoid_unbound_constant(self, comps, want):
        # the first failure of the flow's evaluation, in the reference's
        # order, fails the check
        names = sorted(comps)
        got_rng, want_rng = random.Random(2), random.Random(2)
        got = _monoid_check(Flow(comps), names, [{"b": 1.0}], got_rng, False)
        assert exact(got) == exact(ref_monoid_check(Flow(comps), names, [{"b": 1.0}],
                                                    want_rng, False))
        assert got_rng.getstate() == want_rng.getstate()
        assert got.detail == "evaluation failed: " + want

    def test_monoid_components_sharing_one_constant(self):
        c = SymConst("c")
        flow = Flow({"x": x + c * t, "y": y - c * t,
                     "z": z + x * t + c * t * t / const(2) + c * t})
        valuations = [{"c": 1.5}, {"c": -0.5}]
        got = _monoid_check(flow, ["x", "y", "z"], valuations, random.Random(4), True)
        want = ref_monoid_check(flow, ["x", "y", "z"], valuations, random.Random(4), True)
        assert got.passed and exact(got) == exact(want)

    def test_monoid_nan_after_a_finite_residual_sticks(self):
        # a NaN at a later draw replaces a finite largest residual, and
        # later finite ones never replace it
        cm = SymConst("c") * const(10 ** 200)
        flow = Flow({"a": x_a + t + (cm * cm - cm * cm)})  # NaN at c = 1 only
        valuations = [{"c": 0.0}, {"c": 1.0}, {"c": 0.0}]
        got = _monoid_check(flow, ["a"], valuations, random.Random(6), False)
        assert not got.passed and math.isnan(got.residual)
        assert exact(got) == exact(ref_monoid_check(flow, ["a"], valuations,
                                                    random.Random(6), False))

    @pytest.mark.parametrize("valuations, want", [
        ([{"a": 1.0, "b": 2.0}, {"a": 3.0}], "unbound name 'b'"),
        ([{"a": 1.0}, {"b": 2.0}, {"a": 0.5, "b": 0.5}], "unbound name"),
        ([{"b": 2.0, "a": 1.0, "c": 5.0}, {"a": 0.5, "b": -0.5}], "max residual"),
    ], ids=["one-short", "each-short", "same-names"])
    def test_monoid_valuations_binding_different_names(self, valuations, want):
        # one generated loop makes every draw; a valuation binding other
        # names takes a branch of its own and fails at its first draw
        a, b = SymConst("a"), SymConst("b")
        flow = Flow({"x": x + a * t, "y": y + b * t})
        for seed in range(3):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = _monoid_check(flow, ["x", "y"], valuations, got_rng, seed == 1)
            assert exact(got) == exact(ref_monoid_check(flow, ["x", "y"], valuations,
                                                        want_rng, seed == 1))
            assert got_rng.getstate() == want_rng.getstate()
            assert got.detail.startswith(("evaluation failed: " + want, want))

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_deviation(self, nan_first):
        # M*M overflows to inf, so M*M - M*M is NaN without an exception.  A
        # NaN deviation fails the check wherever it comes in name order
        big = const(10 ** 200)
        nan = big * big - big * big
        comps = {"a": x_a + nan, "b": x_b + t} if nan_first else {"a": x_a + t, "b": x_b + nan}
        names = ["a", "b"]
        monoid = _monoid_check(Flow(comps), names, [{}], random.Random(3), False)
        assert not monoid.passed and monoid.detail == "max residual nan"
        assert exact(monoid) == exact(ref_monoid_check(Flow(comps), names, [{}],
                                                       random.Random(3), False))


class TestDiffInvariant:
    def test_ball_energy_equality(self):
        inv = Cmp("=", const(2) * g * x - const(2) * g * h - v * v, const(0))
        report = check_diff_invariant(inv, BALL_FIELD, NONNEG)
        assert report.overall.proved
        (ruling,) = report.rulings
        assert ruling.rule == "eq-rule"
        assert ruling.verdict.method == "lie-normalize"

    def test_pendulum_radius(self):
        report = check_diff_invariant(Cmp("=", x * x + y * y, r * r), PEND_FIELD, REALS)
        assert report.overall.proved
        assert report.rulings[0].verdict.method == "lie-normalize"

    def test_moving_state_not_invariant(self):
        report = check_diff_invariant(
            Cmp("=", x, const(1)), VectorField({"x": const(1)}), NONNEG
        )
        assert report.overall.kind == "unknown"
        # the falsifier confirms: any orbit leaves x = 1
        spec = VerifySpec(
            name="m",
            vars=("x",),
            pre=Cmp("=", x, const(1)),
            post=Cmp("=", x, const(1)),
            program=Evolve(VectorField({"x": const(1)}), TRUE, NONNEG, dinv=Cmp("=", x, const(1))),
        )
        assert falsify(spec, FalsifyBudget(trials=50)) is not None

    def test_conjunction_rule(self):
        inv = And(Cmp("=", x * x + y * y, r * r), Cmp("=", r, r))
        report = check_diff_invariant(inv, PEND_FIELD, REALS)
        assert report.overall.proved
        assert len(report.rulings) == 2

    def test_inequality_rule_forward_domain(self):
        # radius shrinks along x' = -x, y' = -y, so x^2+y^2 <= r^2 persists forward
        shrink = VectorField({"x": -x, "y": -y})
        report = check_diff_invariant(
            Cmp("<=", x * x + y * y, r * r), shrink, NONNEG
        )
        assert report.overall.proved
        assert report.rulings[0].rule == "le-rule"

    def test_inequality_needs_both_directions_on_reals(self):
        shrink = VectorField({"x": -x, "y": -y})
        report = check_diff_invariant(Cmp("<=", x * x + y * y, r * r), shrink, REALS)
        # the t < 0 direction fails, so no verdict stronger than unknown
        assert report.overall.kind == "unknown"

    def test_neq_rule_via_both_strict_directions(self):
        report = check_diff_invariant(Cmp("!=", x * x + y * y, r * r), PEND_FIELD, REALS)
        assert report.overall.proved
        assert report.rulings[-1].rule == "neq-rule"

    def test_time_symbol_rejected(self):
        with pytest.raises(ValueError):
            check_diff_invariant(
                Cmp("=", Var("t"), const(0)), VectorField({"t": const(1)}), NONNEG
            )

    def test_proved_invariant_holds_along_rk4_orbits(self):
        rng = random.Random(8)
        inv = Cmp("=", x * x + y * y, r * r)
        report = check_diff_invariant(inv, PEND_FIELD, REALS)
        assert report.overall.proved
        for _ in range(100):
            rr = rng.uniform(0.5, 2.0)
            theta = rng.uniform(0, 2 * math.pi)
            s = {"x": rr * math.cos(theta), "y": rr * math.sin(theta)}
            traj, _ = rk4_integrate(PEND_FIELD, s, 1e-2, 100)
            for _, st in traj:
                val = st["x"] ** 2 + st["y"] ** 2
                assert abs(val - rr * rr) <= 1e-6 * (1 + abs(val))


# One case per Lie-derivative ruling shape: (invariant, field, domain,
# assumptions), and the (atom, rule, status, method or reason) of each ruling.
RADIUS = x * x + y * y
SHRINK = VectorField({"x": -x, "y": -y})
FALL = VectorField({"x": const(-1)})
DINV_CASES = {
    "eq_by_normalize": (Cmp("=", RADIUS, r * r), PEND_FIELD, REALS, ()),
    "eq_by_discharge": (Cmp("=", x, const(1)), VectorField({"x": SymConst("c")}), NONNEG,
                        (Cmp("=", SymConst("c"), const(0)),)),
    "eq_failed": (Cmp("=", x, const(1)), VectorField({"x": const(1)}), NONNEG, ()),
    "lt_nonneg": (Cmp("<", RADIUS, r * r), SHRINK, NONNEG, ()),
    "lt_reals": (Cmp("<", RADIUS, r * r), SHRINK, REALS, ()),
    "le_nonneg": (Cmp("<=", RADIUS, r * r), SHRINK, NONNEG, ()),
    "le_reals": (Cmp("<=", RADIUS, r * r), SHRINK, REALS, ()),
    "gt_nonneg": (Cmp(">", r * r, RADIUS), SHRINK, NONNEG, ()),
    "gt_reals": (Cmp(">", r * r, RADIUS), SHRINK, REALS, ()),
    "ge_nonneg": (Cmp(">=", r * r, RADIUS), SHRINK, NONNEG, ()),
    "ge_reals": (Cmp(">=", r * r, RADIUS), SHRINK, REALS, ()),
    "le_both_directions_normalize": (Cmp("<=", RADIUS, r * r), PEND_FIELD, REALS, ()),
    "le_by_discharge": (Cmp("<=", x, const(5)), FALL, NONNEG, ()),
    "le_reverse_direction_fails": (Cmp("<=", x, const(5)), FALL, REALS, ()),
    "ge_by_discharge": (Cmp(">=", const(5), x), FALL, NONNEG, ()),
    "neq_proved": (Cmp("!=", RADIUS, r * r), PEND_FIELD, REALS, ()),
    "neq_failed": (Cmp("!=", RADIUS, r * r), SHRINK, NONNEG, ()),
    "unsupported": (Cmp("<=", z, const(1)), PEND_FIELD, NONNEG, ()),
    "true": (TRUE, PEND_FIELD, REALS, ()),
    "false": (FALSE, PEND_FIELD, REALS, ()),
    "and": (And(Cmp("=", RADIUS, r * r), Cmp("<=", x, const(5))), PEND_FIELD, REALS, ()),
    "or": (Or(Cmp("<", x, const(1)), Cmp(">=", y, const(0))), SHRINK, NONNEG, ()),
}
DINV_RULINGS = {
    "eq_by_normalize": [
        ("x*x + y*y = r*r", "eq-rule", "proved", "lie-normalize"),
    ],
    "eq_by_discharge": [
        ("x = 1", "eq-rule", "proved", "lie-hypothesis-match"),
    ],
    "eq_failed": [
        ("x = 1", "eq-rule", "unknown", "lie derivatives not provably equal"),
    ],
    "lt_nonneg": [
        ("x*x + y*y < r*r", "lt-rule", "proved", "lie-square-rule"),
    ],
    "lt_reals": [
        ("x*x + y*y < r*r", "lt-rule", "unknown", "lie-derivative inequality not proved"),
    ],
    "le_nonneg": [
        ("x*x + y*y <= r*r", "le-rule", "proved", "lie-square-rule"),
    ],
    "le_reals": [
        ("x*x + y*y <= r*r", "le-rule", "unknown", "lie-derivative inequality not proved"),
    ],
    "gt_nonneg": [
        ("r*r > x*x + y*y", "lt-rule", "proved", "lie-square-rule"),
    ],
    "gt_reals": [
        ("r*r > x*x + y*y", "lt-rule", "unknown", "lie-derivative inequality not proved"),
    ],
    "ge_nonneg": [
        ("r*r >= x*x + y*y", "le-rule", "proved", "lie-square-rule"),
    ],
    "ge_reals": [
        ("r*r >= x*x + y*y", "le-rule", "unknown", "lie-derivative inequality not proved"),
    ],
    "le_both_directions_normalize": [
        ("x*x + y*y <= r*r", "le-rule", "proved", "lie-normalize+lie-normalize"),
    ],
    "le_by_discharge": [
        ("x <= 5", "le-rule", "proved", "lie-trivial"),
    ],
    "le_reverse_direction_fails": [
        ("x <= 5", "le-rule", "unknown", "lie-derivative inequality not proved"),
    ],
    "ge_by_discharge": [
        ("5 >= x", "le-rule", "proved", "lie-trivial"),
    ],
    "neq_proved": [
        ("x*x + y*y < r*r", "lt-rule", "proved", "lie-normalize+lie-normalize"),
        ("r*r < x*x + y*y", "lt-rule", "proved", "lie-normalize+lie-normalize"),
        ("x*x + y*y != r*r", "neq-rule", "proved", "both-strict-directions"),
    ],
    "neq_failed": [
        ("x*x + y*y < r*r", "lt-rule", "proved", "lie-square-rule"),
        ("r*r < x*x + y*y", "lt-rule", "unknown", "lie-derivative inequality not proved"),
        ("x*x + y*y != r*r", "neq-rule", "unknown", "a strict direction failed"),
    ],
    "unsupported": [
        ("z <= 1", "unsupported", "unknown", "lie_derivative: not field variables: ['z']"),
    ],
    "true": [
        ("true", "trivial", "proved", "trivial"),
    ],
    "false": [
        ("false", "trivial", "proved", "empty-set"),
    ],
    "and": [
        ("x*x + y*y = r*r", "eq-rule", "proved", "lie-normalize"),
        ("x <= 5", "le-rule", "unknown", "lie-derivative inequality not proved"),
    ],
    "or": [
        ("x < 1", "lt-rule", "unknown", "lie-derivative inequality not proved"),
        ("y >= 0", "le-rule", "unknown", "lie-derivative inequality not proved"),
    ],
}


class TestDiffInvariantRulings:
    @pytest.mark.parametrize("name", DINV_CASES)
    def test_report_is_pinned(self, name):
        inv, field, dom, assumptions = DINV_CASES[name]
        rulings = [
            {"atom": atom, "rule": rule,
             "verdict": {"status": status, "method" if status == "proved" else "reason": note}}
            for atom, rule, status, note in DINV_RULINGS[name]
        ]
        proved = all(r["verdict"]["status"] == "proved" for r in rulings)
        overall = ({"status": "proved", "method": "diff-invariant"} if proved
                   else {"status": "unknown", "reason": "some atom ruling failed"})
        report = check_diff_invariant(inv, field, dom, assumptions=assumptions)
        assert report.to_json() == {
            "invariant": format_pred(inv), "rulings": rulings, "verdict": overall,
        }

    @pytest.mark.parametrize("name", DINV_CASES)
    def test_rulings_sample_no_equality(self, name, monkeypatch):
        # a ruling reads only whether L(a) - L(b) normalizes to zero, so
        # expr_eq's sampled fallback is never run
        import hybridwlp.odecert as odecert

        inv, field, dom, assumptions = DINV_CASES[name]
        want = check_diff_invariant(inv, field, dom, assumptions=assumptions).to_json()
        monkeypatch.setattr(odecert, "expr_eq", None)
        assert check_diff_invariant(inv, field, dom, assumptions=assumptions).to_json() == want


def _ball_mutant_spec():
    inv = And(
        Cmp("<=", const(0), x),
        Cmp("=", const(2) * g * x - const(2) * g * h - v * v, const(0)),
    )
    body = Seq((Evolve(BALL_FIELD, TRUE, NONNEG, flow=BALL_FLOW),))
    return VerifySpec(
        name="mutant",
        vars=("x", "v"),
        consts=("g", "h"),
        assumptions=(Cmp("<", g, const(0)), Cmp(">=", h, const(0))),
        pre=And(Cmp("=", x, h), Cmp("=", v, const(0))),
        post=And(Cmp("<=", const(0), x), Cmp("<=", x, h)),
        program=Loop(body, inv),
        const_ranges={"g": (-10.0, -0.5), "h": (0.5, 10.0)},
    )


class TestFalsify:
    def test_ball_without_flip_or_guard_falls_through(self):
        cex = falsify(_ball_mutant_spec(), FalsifyBudget(trials=60))
        assert cex is not None
        assert cex.violating["x"] < 0
        assert eval_pred(
            And(Cmp("=", x, h), Cmp("=", v, const(0))),
            {**cex.consts, **cex.initial},
            eq_tol=1e-6,
        )

    def test_valid_pendulum_yields_nothing(self):
        spec = VerifySpec(
            name="pend",
            vars=("x", "y"),
            consts=("r",),
            pre=Cmp("=", x * x + y * y, r * r),
            post=Cmp("=", x * x + y * y, r * r),
            program=Evolve(PEND_FIELD, TRUE, REALS, dinv=Cmp("=", x * x + y * y, r * r)),
            const_ranges={"r": (0.5, 5.0)},
        )
        assert falsify(spec, FalsifyBudget(trials=300)) is None

    def test_false_precondition_is_vacuous(self):
        from hybridwlp.expr import FALSE

        spec = VerifySpec(
            name="void", vars=("x",), pre=FALSE, post=Cmp("=", x, x), program=Skip()
        )
        assert falsify(spec, FalsifyBudget(trials=20)) is None

    def test_math_domain_error_rejects_the_start(self):
        # exp(c)*exp(c) overflows to inf and sin(inf) is a math domain
        # error: no start satisfies the assumption, so there is no witness
        spec = parse_spec(DOMAIN_PROBE)
        assert falsify(spec, FalsifyBudget(trials=40)) is None

    @pytest.mark.parametrize("setting", [{"horizon": math.inf}, {"step": math.inf},
                                         {"horizon": -1.0}, {"step": math.nan}])
    def test_grid_that_is_not_positive_and_finite_is_rejected(self, setting):
        # an infinite horizon on [0,inf) used to grow the orbit grid forever
        with pytest.raises(ValueError, match="must be positive and finite"):
            falsify(_ball_mutant_spec(), FalsifyBudget(**setting))

    def test_deterministic_given_seed(self):
        a = falsify(_ball_mutant_spec(), FalsifyBudget(trials=40, seed=3))
        b = falsify(_ball_mutant_spec(), FalsifyBudget(trials=40, seed=3))
        assert (a is None) == (b is None)
        if a is not None:
            assert a.initial == b.initial and a.consts == b.consts


def _fresh_table(p, s, post, cfg, kernels=None):
    """find_violation with a new table for the search, as if falsify
    shared none across its trials."""
    return hprog.find_violation(p, s, post, cfg)


def _shared_and_fresh(spec, budget, monkeypatch):
    """falsify's outcome, as JSON, with one table for all trials and with a
    fresh table per trial."""
    shared = falsify(spec, budget)
    with monkeypatch.context() as m:
        m.setattr(odecert, "find_violation", _fresh_table)
        fresh = falsify(spec, budget)
    return [None if cex is None else cex.to_json() for cex in (shared, fresh)]


class TestFalsifySharesOneTable:
    """falsify fills one table of kernels and orbit steps for all its
    trials (see hprog.find_violation); a search per trial with a table of
    its own must find the same outcome."""

    # a flow that names v before x, so that its states change the key
    # order of the stores that reach later orbits
    REORDER = Evolve(None, Cmp("<=", v, const(3)), NONNEG, flow=Flow({"v": v + t, "x": x - v * t}))
    # the last post is undefined where exp overflows, from x = 1.78 or so
    POSTS = (Cmp("<=", x, const(2)), Cmp(">=", v, x - const(3)),
             Cmp("<=", x * v, SymConst("c")), Cmp(">", Exp(const(400) * x), const(0)))

    def test_random_programs(self, monkeypatch):
        rng = random.Random(88)
        seen = set()
        for i in range(240):
            pick = i % 3
            prog = (random_discrete_program(rng) if pick == 0 else random_looping_program(rng)
                    if pick == 1 else Loop(Seq((random_looping_program(rng, 2), self.REORDER)), TRUE))
            spec = VerifySpec(name="p", vars=("x", "v"), consts=("c",),
                              pre=Cmp("<=", x * x + v * v, const(8)),
                              post=rng.choice(self.POSTS), program=prog,
                              const_ranges={"c": (-1.0, 2.0)})
            budget = FalsifyBudget(trials=12, horizon=2.0, step=rng.choice((1.0, 0.5)),
                                   fuel=rng.randint(0, 3), seed=i)
            shared, fresh = _shared_and_fresh(spec, budget, monkeypatch)
            assert shared == fresh, i
            seen.add("none" if shared is None else "undefined" if "undefined" in shared
                     else "violating")
        assert seen == {"none", "undefined", "violating"}

    @pytest.mark.parametrize("name", sorted(p.stem for p in PROBLEMS.glob("*.hwl")))
    def test_shipped_problems(self, name, monkeypatch):
        spec = parse_spec((PROBLEMS / f"{name}.hwl").read_text())
        budget = FalsifyBudget(trials=10, horizon=3.0, step=0.1, fuel=3)
        shared, fresh = _shared_and_fresh(spec, budget, monkeypatch)
        assert shared == fresh


def _undefined_probe(program: str, post: str = "x >= 0") -> str:
    return f"problem undef\nvars x\npre x = 0\npost {post}\nprogram {program}\n"


class TestFalsifyUndefined:
    """A run that reaches a store where something it must evaluate is
    undefined ends the search with that run, marked undefined."""

    @pytest.mark.parametrize(
        "program, post",
        [
            ("skip", "1/x >= 0"),
            ("? 1/x >= 0 ; x := 1", "x >= 0"),
            ("if 1/x >= 0 then skip else skip", "x >= 0"),
            ("x := 1/x", "x >= 0"),
        ],
        ids=["post", "test", "branch", "assignment"],
    )
    def test_reported_at_the_reached_store(self, program, post):
        spec = parse_spec(_undefined_probe(program, post))
        cex = falsify(spec, FalsifyBudget(trials=5))
        assert cex is not None
        assert cex.undefined == "division by zero"
        assert cex.steps == [("init", {"x": 0.0})]
        assert cex.violating == {"x": 0.0}
        assert cex.to_json()["undefined"] == "division by zero"

    def test_search_stops_at_the_first_undefined_run(self):
        # the first branch is undefined, the second would violate the post
        spec = parse_spec(_undefined_probe("x := 1/x ++ x := x - 1"))
        assert falsify(spec, FalsifyBudget(trials=5)).undefined == "division by zero"

    def test_runs_before_it_are_checked_first(self):
        spec = parse_spec(_undefined_probe("x := x + 1 ++ x := 1/x"))
        cex = falsify(spec, FalsifyBudget(trials=5))
        assert cex.undefined == "division by zero" and cex.violating == {"x": 0.0}

    def test_violation_carries_no_undefined_key(self):
        spec = parse_spec(_undefined_probe("x := x - 1"))
        cex = falsify(spec, FalsifyBudget(trials=5))
        assert cex.undefined is None and "undefined" not in cex.to_json()
