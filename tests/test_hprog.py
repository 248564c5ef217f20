import itertools
import random
from fractions import Fraction

import pytest

from hybridwlp.cli import main
from hybridwlp.expr import (
    Add, Cmp, Const, Cos, EvalError, Exp, FALSE, Mul, Sin, SymConst, TimeVar, TRUE, Var, const,
    evaluate,
)
from hybridwlp.hprog import (
    Abort,
    Assign,
    Choice,
    Evolve,
    Flow,
    IfThenElse,
    Loop,
    NONNEG,
    RunConfig,
    Seq,
    Skip,
    Test,
    TimeDomain,
    VectorField,
    guarded_orbit_field,
    guarded_orbit_flow,
    rk4_states,
    run_sampled,
    store_update,
)
from hybridwlp.hwl import parse_spec

x, v, y = Var("x"), Var("v"), Var("y")
t = TimeVar()
g = SymConst("g")

BALL_FLOW = Flow({"x": g * t ** 2 / const(2) + v * t + x, "v": g * t + v})
BALL_FIELD = VectorField({"x": v, "v": g})
# the guard cannot be evaluated where the orbit reaches x = 1/2 (t = 0.5)
ORBDIV = """problem orbdiv
vars x
pre x = 1
post x >= 0
program evol x = x - t & 1/(x - 1/2) >= -100 on [0,inf)
"""


def random_discrete_program(rng: random.Random, depth: int = 3):
    """Random loop-free discrete program over integer-valued stores x, v."""
    leaves = [
        Skip(),
        Abort(),
        Assign("x", x + 1),
        Assign("x", x - 1),
        Assign("v", v + x),
        Assign("x", x * v),
        Assign("v", -v),
        Test(Cmp("<=", x, const(1))),
        Test(Cmp(">=", v, const(0))),
        Test(Cmp("=", x, const(0))),
    ]
    if depth <= 0:
        return leaves[rng.randrange(len(leaves))]
    shape = rng.random()
    if shape < 0.35:
        return leaves[rng.randrange(len(leaves))]
    if shape < 0.6:
        return Seq(tuple(random_discrete_program(rng, depth - 1) for _ in range(2)))
    if shape < 0.85:
        return Choice(tuple(random_discrete_program(rng, depth - 1) for _ in range(2)))
    return IfThenElse(
        Cmp("<", x, v),
        random_discrete_program(rng, depth - 1),
        random_discrete_program(rng, depth - 1),
    )


class TestStoreUpdate:
    def test_velocity_flip(self):
        assert store_update({"x": 1.0, "v": 2.0}, "v", -v) == {"x": 1.0, "v": -2.0}

    def test_identity(self):
        s = {"x": 4.0}
        assert store_update(s, "x", x) == s

    def test_iterate_increment(self):
        s = {"x": 0.0}
        for _ in range(3):
            s = store_update(s, "x", x + 1)
        assert s == {"x": 3.0}

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            store_update({"x": 0.0}, "z", x)


class TestGuardedOrbit:
    def test_constant_flow_full_interval(self):
        flow = Flow({"x": x})
        dom = TimeDomain("interval", 0.0, 1.0)
        orbit = guarded_orbit_flow(flow, TRUE, dom, {"x": 5.0}, 0.5)
        assert [(tt, s["x"]) for tt, s in orbit] == [(0.0, 5.0), (0.5, 5.0), (1.0, 5.0)]

    def test_ball_prefix_stops_below_ground(self):
        guard = Cmp(">=", x, const(0))
        orbit = guarded_orbit_flow(
            BALL_FLOW, guard, NONNEG, {"x": 1.0, "v": 0.0}, 0.5, {"g": -1.0}, horizon=10
        )
        assert [tt for tt, _ in orbit] == [0.0, 0.5, 1.0]

    def test_guard_false_at_zero_gives_empty_orbit(self):
        guard = Cmp(">=", x, const(0))
        orbit = guarded_orbit_flow(
            BALL_FLOW, guard, NONNEG, {"x": -1.0, "v": 0.0}, 0.5, {"g": -1.0}
        )
        assert orbit == []

    def test_prefix_closed(self):
        rng = random.Random(0)
        guard = Cmp(">=", x, const(0))
        for _ in range(50):
            s = {"x": rng.uniform(-1, 3), "v": rng.uniform(-2, 2)}
            orbit = guarded_orbit_flow(
                BALL_FLOW, guard, NONNEG, s, 0.25, {"g": -1.0}, horizon=8
            )
            ts = [tt for tt, _ in orbit]
            assert ts == [0.25 * k for k in range(len(ts))]

    def test_flow_and_rk4_orbits_agree(self):
        guard = Cmp(">=", x, const(0))
        dom = TimeDomain("interval", 0.0, 1.0)
        s = {"x": 1.0, "v": 0.0}
        a = guarded_orbit_flow(BALL_FLOW, guard, dom, s, 1e-3, {"g": -1.0})
        b = guarded_orbit_field(BALL_FIELD, guard, dom, s, 1e-3, {"g": -1.0})
        assert len(a) == len(b)
        worst = max(
            max(abs(sa[k] - sb[k]) for k in sa) for (_, sa), (_, sb) in zip(a, b)
        )
        assert worst <= 1e-6

    def test_undefined_guard_falsify_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "orbdiv.hwl"
        path.write_text(ORBDIV)
        assert main(["falsify", str(path)]) == 0
        assert "no counterexample" in capsys.readouterr().out

    def test_undefined_guard_ends_flow_orbit(self):
        ev = parse_spec(ORBDIV).program
        orbit = guarded_orbit_flow(ev.flow, ev.guard, ev.dom, {"x": 1.0}, 0.05, horizon=6)
        ts = [tt for tt, _ in orbit]
        assert ts and max(ts) < 0.5

    def test_undefined_guard_ends_field_orbit(self):
        ev = parse_spec(ORBDIV).program
        # at step 1/8, RK4 on x' = -1 reaches x = 1/2 exactly at t = 0.5
        field = VectorField({"x": const(-1)})
        orbit = guarded_orbit_field(field, ev.guard, ev.dom, {"x": 1.0}, 0.125, horizon=6)
        assert [tt for tt, _ in orbit] == [0.0, 0.125, 0.25, 0.375]

    def test_flow_overflow_ends_orbit(self):
        # 1e300 * t * 1e300 is finite only at t = 0
        big = Const(10**300)
        flow = Flow({"x": Mul(Mul(big, t), big)})
        orbit = guarded_orbit_flow(flow, TRUE, NONNEG, {"x": 0.0}, 0.5, horizon=3)
        assert orbit == [(0.0, {"x": 0.0})]


class TestRunSampled:
    CFG = RunConfig()

    def test_skip(self):
        out = run_sampled(Skip(), {"x": 1.0}, self.CFG)
        assert out.states == [{"x": 1.0}] and out.complete

    def test_test_false_aborts(self):
        assert run_sampled(Test(FALSE), {"x": 1.0}, self.CFG).states == []

    def test_control_flips_velocity(self):
        prog = IfThenElse(Cmp("=", x, const(0)), Assign("v", -v), Skip())
        out = run_sampled(prog, {"x": 0.0, "v": 3.0}, self.CFG)
        assert out.states == [{"v": -3.0, "x": 0.0}]

    def test_kleisli_composition_randomized(self):
        rng = random.Random(12)
        for _ in range(60):
            p = random_discrete_program(rng, 2)
            q = random_discrete_program(rng, 2)
            s = {"x": float(rng.randint(-2, 2)), "v": float(rng.randint(-2, 2))}
            seq = run_sampled(Seq((p, q)), s, self.CFG)
            stepwise = set()
            for mid in run_sampled(p, s, self.CFG).states:
                stepwise |= run_sampled(q, mid, self.CFG).as_keys()
            assert seq.as_keys() == frozenset(stepwise)

    def test_choice_is_union(self):
        rng = random.Random(13)
        for _ in range(60):
            p = random_discrete_program(rng, 2)
            q = random_discrete_program(rng, 2)
            s = {"x": float(rng.randint(-2, 2)), "v": float(rng.randint(-2, 2))}
            both = run_sampled(Choice((p, q)), s, self.CFG)
            union = run_sampled(p, s, self.CFG).as_keys() | run_sampled(
                q, s, self.CFG
            ).as_keys()
            assert both.as_keys() == union

    def test_loop_accumulates_reachable_states(self):
        body = IfThenElse(Cmp("<", x, const(3)), Assign("x", x + 1), Skip())
        out = run_sampled(Loop(body, TRUE), {"x": 0.0}, self.CFG)
        assert sorted(s["x"] for s in out.states) == [0.0, 1.0, 2.0, 3.0]
        assert out.complete

    def test_fuel_exhaustion_flagged(self):
        body = Assign("x", x + 1)
        out = run_sampled(Loop(body, TRUE), {"x": 0.0}, RunConfig(fuel=3))
        assert not out.complete
        assert len(out.states) == 4  # 0 through 3 iterations

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError, match="step must be positive"):
            RunConfig(step=0.0)

    def test_evolve_contributes_every_orbit_point(self):
        prog = Evolve(BALL_FIELD, Cmp(">=", x, const(0)), NONNEG, flow=BALL_FLOW)
        cfg = RunConfig(step=0.5, horizon=10, consts={"g": -1.0})
        out = run_sampled(prog, {"x": 1.0, "v": 0.0}, cfg)
        assert len(out.states) == 3  # t = 0, 0.5, 1.0

    def test_agrees_with_finite_state_transformer_semantics(self):
        # map stores with x in {0..3} onto state indices and compare against
        # the transformer composition of the same program
        from hybridwlp.algebra import sta, sta_kleisli, sta_union

        inc = IfThenElse(Cmp("<", x, const(3)), Assign("x", x + 1), Skip())
        dec = IfThenElse(Cmp(">", x, const(0)), Assign("x", x - 1), Skip())
        prog = Choice((inc, Seq((dec, dec))))

        def denote(node):
            if isinstance(node, Choice):
                out = denote(node.items[0])
                for item in node.items[1:]:
                    out = sta_union(out, denote(item))
                return out
            if isinstance(node, Seq):
                out = denote(node.items[0])
                for item in node.items[1:]:
                    out = sta_kleisli(out, denote(item))
                return out
            # leaf: run the sampler pointwise over the finite carrier
            return sta(
                4,
                (
                    {
                        int(st["x"])
                        for st in run_sampled(node, {"x": float(i)}, self.CFG).states
                    }
                    for i in range(4)
                ),
            )

        composed = denote(prog)
        for i in range(4):
            direct = {
                int(st["x"])
                for st in run_sampled(prog, {"x": float(i)}, self.CFG).states
            }
            assert direct == set(composed.successors[i])


# ---------------------------------------------------------------------------
# Reference numeric loops over the compiled closures: the RK4 step that
# built a merged environment and a derivative dict per stage, and Flow.at
# as one evaluate call per component.  The generated kernels must match them
# bit for bit, failures included.


def ref_rk4_step(field, s, h, consts):
    names = list(field.components)

    def deriv(state):
        env = {**consts, **state}
        return {x: evaluate(field.components[x], env) for x in names}

    k1 = deriv(s)
    s2 = {x: s[x] + 0.5 * h * k1[x] for x in names}
    k2 = deriv(s2)
    s3 = {x: s[x] + 0.5 * h * k2[x] for x in names}
    k3 = deriv(s3)
    s4 = {x: s[x] + h * k3[x] for x in names}
    k4 = deriv(s4)
    out = dict(s)
    for x in names:
        out[x] = s[x] + (h / 6.0) * (k1[x] + 2 * k2[x] + 2 * k3[x] + k4[x])
    return out


def ref_rk4_states(field, s, h, consts):
    state = dict(s)
    while True:
        yield state
        state = ref_rk4_step(field, state, h, consts)


def ref_flow_at(flow, t, s, consts):
    env = {**consts, **s, "t": t}
    rest = {x: Var(x) for x in s if x not in flow.components}
    return {x: evaluate(e, env) for x, e in {**flow.components, **rest}.items()}


def failure(states, n):
    """The exception that ends the first n states early, or None."""
    try:
        for _ in itertools.islice(states, n):
            pass
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return exc
    return None


def take(states, n):
    """The first n states as reprs (exact for floats, ints stay ints), and
    the (type, message) of the exception that ended them early, if any."""
    out = []
    try:
        for s in itertools.islice(states, n):
            out.append({k: repr(val) for k, val in s.items()})
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return out, (type(exc), str(exc))
    return out, None


def random_expr(rng, names, consts, depth):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(3)
        if pick == 0:
            return Var(rng.choice(names))
        if pick == 1 and consts:
            return SymConst(rng.choice(consts))
        return const(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
    a = random_expr(rng, names, consts, depth - 1)
    op = rng.randrange(6)
    if op == 3:
        return -a
    if op == 4:
        return Sin(a)
    if op == 5:
        return Cos(a)
    b = random_expr(rng, names, consts, depth - 1)
    return (a + b, a - b, a * b)[op]


class TestRk4StatesBitIdentity:
    def test_random_fields_match_reference(self):
        rng = random.Random(2024)
        for _ in range(60):
            names = rng.sample(["x", "y", "z"], rng.randint(1, 3))
            consts = rng.sample(["a", "b"], rng.randint(0, 2))
            field = VectorField({n: random_expr(rng, names, consts, 3) for n in names})
            cv = {c: rng.uniform(-2, 2) for c in consts}
            # n and w are store variables outside the field
            s = {**{n: rng.uniform(-2, 2) for n in names}, "n": 7, "w": 0.5}
            h = rng.choice([0.1, 0.05, 0.125])
            got = take(rk4_states(field, s, h, cv), 40)
            assert got == take(ref_rk4_states(field, s, h, cv), 40)
            assert all(st["n"] == "7" and st["w"] == "0.5" for st in got[0])

    def test_blow_up_matches_reference(self):
        # x' = x*x from 5 overflows to inf, then inf - inf gives nan; sin of
        # an infinity raises ValueError at the stage that first reads it
        square = VectorField({"x": x * x})
        with_sin = VectorField({"x": x * x, "y": Sin(x)})
        a = take(rk4_states(square, {"x": 5.0}, 0.5), 60)
        b = take(rk4_states(with_sin, {"x": 5.0, "y": 0.0}, 0.5), 60)
        assert a == take(ref_rk4_states(square, {"x": 5.0}, 0.5, {}), 60)
        assert b == take(ref_rk4_states(with_sin, {"x": 5.0, "y": 0.0}, 0.5, {}), 60)
        assert a[1] is None and any(st["x"] in ("inf", "nan") for st in a[0])
        assert b[1] == (ValueError, "math domain error")

    @pytest.mark.parametrize("pole", [1.25, 1.3125, 1.65625], ids=["stage2", "stage3", "stage4"])
    def test_stage_failure_ends_at_the_same_point(self, pole):
        # x' = x from x = 1 at h = 1/2 reads x = 1, 1.25, 1.3125, 1.65625 at
        # the four stages of the first step, so y' = 1/(x - pole) fails at one
        field = VectorField({"x": x, "y": const(1) / (x - const(Fraction(pole)))})
        s = {"x": 1.0, "y": 0.0}
        got = take(rk4_states(field, s, 0.5), 5)
        assert got == take(ref_rk4_states(field, s, 0.5, {}), 5)
        assert got == ([{"x": "1.0", "y": "0.0"}], (EvalError, "division by zero"))
        assert failure(rk4_states(field, s, 0.5), 5).subterm is field.components["y"]
        orbit = guarded_orbit_field(field, TRUE, NONNEG, s, 0.5, horizon=2)
        assert orbit == [(0.0, s)]

    @pytest.mark.parametrize("comps, subterm", [
        ({"x": g * x}, lambda c: g),
        # the division fails first: the constant loads at its own position
        ({"x": const(1) / (x - const(1)) + g}, lambda c: c["x"].lhs),
        ({"x": g / (x - const(1))}, lambda c: c["x"]),  # the denominator first
        ({"x": x, "y": Exp(x * g)}, lambda c: g),
        # an OverflowError anywhere in an exp's argument is that exp's
        ({"x": x, "y": Exp((x + const(9)) ** 400)}, lambda c: c["y"]),
        ({"x": x, "y": Exp(Const(10 ** 400) * x)}, lambda c: c["y"]),
        ({"x": (x + const(9)) ** 400}, lambda c: None),
    ], ids=["unbound", "division-first", "denominator-first", "unbound-in-exp", "power-in-exp",
            "out-of-range-in-exp", "power"])
    def test_failure_at_the_second_state_names_the_same_subterm(self, comps, subterm):
        field = VectorField(comps)
        s = {"x": 1.0, "y": 0.0}
        got = take(rk4_states(field, s, 0.5), 5)
        assert got == take(ref_rk4_states(field, s, 0.5, {}), 5)
        assert got[0] == [{"x": "1.0", "y": "0.0"}] and got[1] is not None
        exc = failure(rk4_states(field, s, 0.5), 5)
        assert getattr(exc, "subterm", None) is subterm(comps)
        assert getattr(failure(ref_rk4_states(field, s, 0.5, {}), 5), "subterm", None) \
            is subterm(comps)

    def test_names_that_are_not_python_identifiers(self):
        # names reach the generated code only through its globals
        names = ["class", "__import__", "x'); import os #", "_v1", "state"]
        consts = ["env", "_g5", "float", "t", "lambda"]
        rng = random.Random(11)
        for _ in range(20):
            field = VectorField({n: random_expr(rng, names, consts, 3) for n in names})
            cv = {c: rng.uniform(-2, 2) for c in consts}
            s = {**{n: rng.uniform(-1, 1) for n in names}, "None": 1}
            got = take(rk4_states(field, s, 0.05), 30)  # unbound constants
            assert got == take(ref_rk4_states(field, s, 0.05, {}), 30)
            got = take(rk4_states(field, s, 0.05, cv), 30)
            assert got == take(ref_rk4_states(field, s, 0.05, cv), 30)
            flow = Flow({n: e * t + Var(n) for n, e in field.components.items()})
            times = [0.1 * k for k in range(10)]
            want = [ref_flow_at(flow, tt, s, cv) for tt in times]
            assert take(flow.states(times, s, cv), 10) == take(want, 10)

    def test_deep_chain_and_shared_subterms(self):
        chain = x
        for i in range(600):
            chain = Add(chain, const(Fraction(i % 7 - 3, 1000)))
        dag = y
        for _ in range(10):  # 1024 leaves over 10 distinct nodes
            dag = Sin(dag + dag)
        field = VectorField({"x": chain, "y": dag * x, "z": dag + chain})
        s = {"x": 0.5, "y": 0.25, "z": 0.0}
        got = take(rk4_states(field, s, 0.01), 20)
        assert got == take(ref_rk4_states(field, s, 0.01, {}), 20)
        flow = Flow({"x": chain * t + dag, "y": dag})
        times = [0.25 * k for k in range(8)]
        want = [ref_flow_at(flow, tt, s, {}) for tt in times]
        assert take(flow.states(times, s, {}), 8) == take(want, 8)

    def test_kernels_are_cached_outside_equality(self):
        field = VectorField({"x": v, "v": g})
        step = field.rk4_step()
        assert field.rk4_step() is step
        assert field == VectorField({"x": v, "v": g})
        assert repr(field) == repr(VectorField({"x": v, "v": g}))
        flow = Flow({"x": x + v * t})
        f = flow.kernel({"x": 0.0, "v": 1.0})
        assert flow.kernel({"v": 2.0, "x": 1.0}) is f  # same pass-through variables
        assert flow.kernel({"x": 0.0, "w": 1.0, "v": 1.0}) is not f
        assert flow == Flow({"x": x + v * t}) and repr(flow) == repr(Flow({"x": x + v * t}))

    def test_orbit_matches_reference_points(self):
        guard = Cmp(">=", x, const(0))
        s = {"x": 1.0, "v": 0.5}
        orbit = guarded_orbit_field(BALL_FIELD, guard, NONNEG, s, 0.05, {"g": -1.0}, horizon=6)
        ref = ref_rk4_states(BALL_FIELD, s, 0.05, {"g": -1.0})
        assert [st for _, st in orbit] == list(itertools.islice(ref, len(orbit)))
        assert 0 < len(orbit) < 121


class TestFlowStates:
    def test_matches_flow_at(self):
        rng = random.Random(7)
        flows = [
            BALL_FLOW,
            Flow({"x": x * Cos(t) + y * Sin(t), "y": y * Cos(t) - x * Sin(t)}),
            Flow({"x": x + g * t * t, "v": v * Const(Fraction(3, 2))}),
        ]
        for flow in flows:
            for _ in range(5):
                s = {"x": rng.uniform(-2, 2), "v": rng.uniform(-2, 2),
                     "y": rng.uniform(-2, 2), "n": 3}
                cv = {"g": rng.uniform(-2, 2)}
                times = [0.05 * k for k in range(50)]
                got = list(flow.states(times, s, cv))
                want = [flow.at(tt, s, cv) for tt in times]
                assert take(got, 50) == take(want, 50)
                ref = [ref_flow_at(flow, tt, s, cv) for tt in times]
                assert take(want, 50) == take(ref, 50)
                # a variable the flow does not name keeps its value
                assert all(st[k] == s[k] for st in got for k in set(s) - set(flow.components))

    def test_error_at_a_later_time_raises_on_that_element(self):
        flow = Flow({"x": x + const(1) / (t - const(1))})
        times = [0.0, 0.5, 1.0, 1.5]
        states = flow.states(times, {"x": 2.0}, {})
        assert next(states) == flow.at(0.0, {"x": 2.0}, {})
        assert next(states) == flow.at(0.5, {"x": 2.0}, {})
        with pytest.raises(EvalError, match="division by zero") as raised:
            next(states)
        assert raised.value.subterm is flow.components["x"].rhs
        assert flow.at(1.5, {"x": 2.0}, {}) == {"x": 4.0}
        unbound = Flow({"x": x + g * t})
        with pytest.raises(EvalError, match="unbound name 'g'") as raised:
            unbound.at(1.0, {"x": 2.0}, {})
        assert raised.value.subterm is g
