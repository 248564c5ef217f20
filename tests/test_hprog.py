import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hybridwlp import hprog, odecert, sampling
from hybridwlp.cli import main, run_verify
from hybridwlp.expr import (
    EVAL_FAILURES, Add, And, Cmp, Const, Cos, EvalError, Exp, FALSE, KernelWriter, Mul, Sin,
    SymConst, TimeQuant, TimeVar, TRUE, Var, const, eval_pred, memo_kernel,
)
from hybridwlp.hprog import (
    Abort,
    Assign,
    Choice,
    EQ_TOL,
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
    find_violation,
    guarded_orbit_field,
    guarded_orbit_flow,
    orbit_kernel,
    run_sampled,
    store_update,
    _key,
    _orbit,
    _orbit_run,
    _orbit_source,
    _steps,
)
from hybridwlp.hwl import parse_spec
from hybridwlp.odecert import rk4_integrate
from hybridwlp.vcgen import _find_evolves, eval_pred_ext
from test_hwl_reference import rand_expr, rand_pred
from treepasses import ref_eval_pred_ext
from treewalk import (
    ref_eval_pred, ref_flow_at, ref_guarded_prefix, ref_orbit_field, ref_orbit_flow,
    ref_rk4_states, ref_rk4_step, ref_steps,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def field_orbit_kernel(field, keys, in_consts, guard=TRUE):
    """The orbit kernel of RK4 on field, from the memo (see orbit_kernel)."""
    return memo_kernel(orbit_kernel, ("rk4", tuple(field.components.items())), keys, in_consts,
                       guard)


def flow_orbit_kernel(flow, keys, in_consts, guard=TRUE):
    """The orbit kernel of flow, from the memo (see orbit_kernel)."""
    return memo_kernel(orbit_kernel, ("flow", tuple(flow.components.items())), keys, in_consts,
                       guard)


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


class TestTimeDomainGrids:
    @pytest.mark.parametrize("h", [0.0, -0.5])
    def test_step_that_is_not_positive_raises(self, h):
        # downset_grid used to append -k*h forever when h <= 0
        for grid in (TimeDomain().downset_grid, TimeDomain().grid, NONNEG.downset_grid):
            with pytest.raises(ValueError, match="grid step must be positive"):
                grid(h, 1.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_horizon_without_a_finite_bound_raises(self, horizon):
        # grid used to append k*h forever when the horizon and hi are inf
        for grid in (NONNEG.grid, TimeDomain().grid, TimeDomain(-math.inf, 1).downset_grid):
            with pytest.raises(ValueError, match="grid needs a finite horizon"):
                grid(0.5, horizon)
        if horizon == math.inf:  # a finite domain bounds the grid
            assert TimeDomain(0, 1).grid(0.5, horizon) == [0.0, 0.5, 1.0]
            assert TimeDomain(-1, 1).downset_grid(0.5, horizon) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    @pytest.mark.parametrize("setting", [{"step": math.inf}, {"horizon": math.inf},
                                         {"horizon": 0.0}, {"step": math.nan}])
    def test_run_config_rejects_a_grid_that_is_not_positive_and_finite(self, setting):
        with pytest.raises(ValueError, match="must be positive and finite"):
            RunConfig(**setting)


class TestGuardedOrbit:
    def test_constant_flow_full_interval(self):
        flow = Flow({"x": x})
        dom = TimeDomain(0.0, 1.0)
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
        dom = TimeDomain(0.0, 1.0)
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


WRONG_FLOW = ("problem wrong_flow\nvars x\npre x = 0\npost x <= 1\n"
              "program evolve x' = 1 & true on [0,3/5] flow x = x + {}\n")


class TestFlowOrRk4:
    """An evolution command follows its flow only when the flow solves its
    field exactly; otherwise its orbit integrates the field."""

    CFG = RunConfig(step=0.05, horizon=6.0)

    def test_wrong_flow_integrates_the_field(self):
        ev = parse_spec(WRONG_FLOW.format("2*t")).program
        steps = _steps(ev, {"x": 0.0}, self.CFG)
        assert len(steps) == 13
        assert steps == _steps(Evolve(ev.field, ev.guard, ev.dom), {"x": 0.0}, self.CFG)
        assert abs(steps[-1][1]["x"] - 0.6) < 1e-9  # the flow claims 1.2
        # only the last point, at x = 0.6, violates x < 0.59
        path, message = find_violation(ev, {"x": 0.0}, Cmp("<", x, const(Fraction(59, 100))),
                                       self.CFG)
        assert message is None and [label for label, _ in path] == ["init", "evolve t=0.6"]
        assert path[-1][1] == steps[-1][1]

    def test_right_flow_and_field_free_flow_are_followed(self, monkeypatch):
        import hybridwlp.hprog as hprog

        checked = []
        solves = hprog._solves_exactly
        monkeypatch.setattr(hprog, "_solves_exactly",
                            lambda *args: checked.append(args) or solves(*args))
        right = [parse_spec(WRONG_FLOW.format("t")).program for _ in range(2)]
        assert right[0] is not right[1]
        followed = _steps(Evolve(None, TRUE, right[0].dom, right[0].flow), {"x": 0.0}, self.CFG)
        assert checked == []  # no field, nothing to check
        for ev in right:
            assert _steps(ev, {"x": 0.0}, self.CFG) == followed
        assert len(checked) == 1  # checked once per value, not per command


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
# find_violation's explicit-stack search must find exactly the run, or the
# failure, that the recursive search it replaced found.


class _RefUndefined(Exception):
    """Carries (path, message) of a run stopped by an evaluation failure."""


def reference_find_violation(p, s, post, cfg):
    """find_violation as nested recursive generators, one per node, Seq
    items, and loop unrolling: depth first, a loop's rest before its next
    iteration, an iteration ending at a store the loop has reached is cut,
    and a failure reports the path into the node that failed.  Python's
    recursion limit bounds it; keep it to small programs."""

    def holds(q, store):
        return ref_eval_pred(q, {**cfg.consts, **store}, EQ_TOL)

    def runs(node, path):
        try:
            if isinstance(node, Seq):
                def chain(items, pth):
                    if not items:
                        yield pth
                        return
                    for pth2 in runs(items[0], pth):
                        yield from chain(items[1:], pth2)

                yield from chain(list(node.items), path)
            elif isinstance(node, Choice):
                for item in node.items:
                    yield from runs(item, path)
            elif isinstance(node, IfThenElse):
                taken = holds(node.cond, path[-1][1])
                yield from runs(node.then if taken else node.els, path)
            elif isinstance(node, Loop):
                yield path
                seen = {_key(path[-1][1])}

                def unroll(pth, fuel):
                    if fuel <= 0:
                        return
                    for pth2 in runs(node.body, pth):
                        k = _key(pth2[-1][1])
                        if k in seen:
                            continue
                        seen.add(k)
                        yield pth2
                        yield from unroll(pth2, fuel - 1)

                yield from unroll(path, cfg.fuel)
            else:
                for step in ref_steps(node, path[-1][1], cfg):
                    yield path if step[0] is None else path + [step]
        except EVAL_FAILURES as exc:
            # a failure from a nested run arrives here as _RefUndefined already
            raise _RefUndefined(path, str(exc)) from None

    try:
        for path in runs(p, [("init", dict(s))]):
            try:
                if not holds(post, path[-1][1]):
                    return path, None
            except EVAL_FAILURES as exc:
                return path, str(exc)
    except _RefUndefined as exc:
        return exc.args
    return None


DIV_LEAF = Assign("x", x / v)  # undefined where v = 0
# up to three successors each, at t = 0, 1, 2 under a step of 1 and a
# horizon of 2, up to five under a step of 1/2 and six under 3/8, whose
# labels show four digits (t=1.125)
LOOPING_LEAVES = (
    Evolve(None, Cmp("<=", x, const(3)), NONNEG, flow=Flow({"x": x + t})),
    # RK4 on a field alone, and on the field of a flow that does not solve it
    Evolve(VectorField({"x": v, "v": const(-1)}), Cmp(">=", x, const(-2)), NONNEG),
    Evolve(VectorField({"x": const(1)}), Cmp("<=", x, const(3)), TimeDomain(0, Fraction(3, 2)),
           flow=Flow({"x": x + 2 * t})),
    # a guard that reads the constant c
    Evolve(None, Cmp("<=", x * v, SymConst("c")), NONNEG, flow=Flow({"x": x + v * t})),
    # a guard undefined where x reaches 1 mid-orbit, which ends the orbit there
    Evolve(None, Cmp(">", const(1) / (x - const(1)), const(-9)), NONNEG, flow=Flow({"x": x + t})),
    Test(Cmp("<=", v, SymConst("c"))),
)


def random_looping_program(rng: random.Random, depth: int = 3, leaves=None):
    """random_discrete_program's programs, DIV_LEAF and LOOPING_LEAVES under
    Loop, Seq and Choice, over stores x, v and the constant c; or, given
    leaves, the same shapes over those leaves alone."""
    shape = rng.random()
    if depth <= 0 or shape < 0.3:
        if leaves is not None:
            return rng.choice(leaves)
        leaf = rng.random()
        return DIV_LEAF if leaf < 0.15 else rng.choice(LOOPING_LEAVES) if leaf < 0.4 else (
            random_discrete_program(rng, 2))
    if shape < 0.55:
        return Loop(random_looping_program(rng, depth - 1, leaves), TRUE)
    items = tuple(random_looping_program(rng, depth - 1, leaves)
                  for _ in range(rng.randint(1, 3)))
    return Seq(items) if shape < 0.8 else Choice(items)


class TestFindViolation:
    POSTS = (Cmp("<=", x, const(2)), Cmp(">=", v, x - const(3)), Cmp("<=", x * v, const(4)))

    def test_agrees_with_recursive_reference(self):
        rng = random.Random(23)
        outcomes = {"violating": 0, "undefined": 0, "clean": 0}
        checked_reachable = 0
        labels = set()
        for _ in range(600):
            prog = random_looping_program(rng)
            s = {"x": float(rng.randint(-2, 2)), "v": float(rng.randint(-2, 2))}
            post = rng.choice(self.POSTS)
            consts = {"c": float(rng.randint(-1, 2))}
            if rng.random() < 0.3:
                consts["x"] = 9.0  # the store's x wins
            cfg = RunConfig(fuel=rng.randint(0, 3), step=rng.choice((1.0, 0.5, 0.375)),
                            horizon=2.0, consts=consts)
            found = find_violation(prog, s, post, cfg)
            assert found == reference_find_violation(prog, s, post, cfg)
            if found is None:
                outcomes["clean"] += 1
                continue
            path, message = found
            assert path[0] == ("init", s)
            labels.update(label for label, _ in path if label.startswith("evolve"))
            if message is not None:
                outcomes["undefined"] += 1
                continue
            outcomes["violating"] += 1
            try:
                reached = run_sampled(prog, s, cfg).as_keys()
            except EVAL_FAILURES:
                continue  # another run of the program is undefined
            assert _key(path[-1][1]) in reached
            checked_reachable += 1
        assert all(outcomes.values()), outcomes
        assert checked_reachable > 0
        assert {"evolve t=0", "evolve t=0.5", "evolve t=1.125"} <= labels, labels

    # evolution commands that end a program, so each orbit point ends a run
    # and find_violation decides the post in the orbit's kernel first
    ENDS = (
        # flow and RK4 orbits that the guard ends early
        Evolve(None, Cmp("<=", x, const(3)), NONNEG, flow=Flow({"x": x + t})),
        Evolve(VectorField({"x": v, "v": const(-1)}), Cmp(">=", x, const(-2)), NONNEG),
        # RK4 on the field of a flow that does not solve it, on a bounded domain
        Evolve(VectorField({"x": const(1)}), Cmp("<=", x, const(3)), TimeDomain(0, Fraction(3, 2)),
               flow=Flow({"x": x + 2 * t})),
        # orbits cut by an evaluation failure: the flow at t = 1, the field's
        # stage where x reaches 1, the guard where x reaches 1
        Evolve(None, TRUE, NONNEG, flow=Flow({"x": x + const(1) / (const(1) - t)})),
        Evolve(VectorField({"x": const(1), "v": const(1) / (x - const(1))}), TRUE, NONNEG),
        Evolve(None, Cmp(">", const(1) / (x - const(1)), const(-9)), NONNEG, flow=Flow({"x": x + t})),
    )
    # false mid-orbit, undefined where x crosses 0, reading the constant c
    END_POSTS = (Cmp("<=", x, const(2)), Cmp("<=", const(1) / x, const(9)),
                 Cmp("<=", x * v, SymConst("c")), Cmp(">=", v, x - const(3)))

    def test_run_ending_orbits_agree_with_recursive_reference(self):
        rng = random.Random(36)
        outcomes = {"violating": 0, "undefined": 0, "clean": 0}
        mid_orbit = {"violating": 0, "undefined": 0}
        sources = set()
        for _ in range(600):
            end = rng.choice(self.ENDS)
            if rng.random() < 0.3:
                end = Choice((end, rng.choice(self.ENDS)))
            prog = Seq((random_looping_program(rng, 2), end))
            s = {"x": float(rng.randint(-2, 2)), "v": float(rng.randint(-2, 2))}
            post = rng.choice(self.END_POSTS)
            consts = {"c": float(rng.randint(-1, 2))}
            if rng.random() < 0.3:
                consts["x"] = 9.0  # the store's x wins
            cfg = RunConfig(fuel=rng.randint(0, 2), step=rng.choice((1.0, 0.5, 0.375)),
                            horizon=2.0, consts=consts)
            found = find_violation(prog, s, post, cfg)
            assert found == reference_find_violation(prog, s, post, cfg)
            if type(end) is Evolve:
                sources.add(_orbit_source(end)[0][0])
            if found is None:
                outcomes["clean"] += 1
                continue
            path, message = found
            kind = "violating" if message is None else "undefined"
            outcomes[kind] += 1
            if path[-1][0].startswith("evolve") and path[-1][0] != "evolve t=0":
                mid_orbit[kind] += 1
        assert all(outcomes.values()) and all(mid_orbit.values()), (outcomes, mid_orbit)
        assert sources == {"flow", "rk4"}

    @pytest.mark.parametrize("build", [
        lambda: Evolve(VectorField({"x": v, "v": const(-1)}), Cmp(">=", x, const(-2)), NONNEG),
        lambda: Evolve(VectorField({"x": v, "v": const(-1)}), Cmp(">=", x, const(-2)), NONNEG,
                       dinv=Cmp(">=", v, const(-9))),
        lambda: Evolve(None, Cmp("<=", x, const(3)), NONNEG, flow=Flow({"x": x + t})),
        lambda: Evolve(VectorField({"x": const(1)}), TRUE, NONNEG, flow=Flow({"x": x + t})),
    ], ids=["field", "field-dinv", "flow", "field-flow"])
    def test_equal_evolution_commands_share_one_step(self, monkeypatch, build):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        fetched = []
        fetch = hprog._orbit_step
        monkeypatch.setattr(hprog, "_orbit_step",
                            lambda node, *args: fetched.append(node) or fetch(node, *args))
        # a and b each run inside the program and at its end, once per point
        prog = Seq((a, b, Choice((a, b))))
        cfg = RunConfig(step=0.5, horizon=1.0)
        assert find_violation(prog, {"x": 0.0, "v": 1.0}, TRUE, cfg) is None
        assert fetched == [a, a]  # one orbit step, one post-mode step

    def test_evolution_commands_hash_by_value(self):
        # a field's or flow's value is its component items in order, and a
        # flow's domain; equal values hash equal
        ball = {"x": v, "v": g}
        assert VectorField(ball) == VectorField(dict(ball)) != VectorField({"v": g, "x": v})
        assert hash(VectorField(ball)) == hash(VectorField(dict(ball)))
        assert Flow({"x": x + t}) != Flow({"x": x + t}, NONNEG)
        assert hash(Flow({"x": x + t}, NONNEG)) == hash(Flow({"x": x + t}, TimeDomain(0)))
        guard = Cmp(">=", x, const(0))
        field, flow = VectorField(ball), Flow(BALL_FLOW.components)
        variants = [Evolve(field, guard, NONNEG), Evolve(field, guard, NONNEG, dinv=guard),
                    Evolve(field, guard, NONNEG, flow=flow), Evolve(None, guard, NONNEG, flow=flow),
                    Evolve(field, guard, TimeDomain(0, 1)), Evolve(field, TRUE, NONNEG)]
        assert len(set(variants)) == len(variants)
        assert set(variants) == {Evolve(VectorField(ball), guard, NONNEG),
                                 Evolve(field, guard, TimeDomain(0), dinv=guard),
                                 Evolve(field, guard, NONNEG, flow=Flow(dict(BALL_FLOW.components))),
                                 Evolve(None, guard, NONNEG, flow=flow),
                                 Evolve(field, guard, TimeDomain(0, Fraction(1))),
                                 Evolve(VectorField(ball), TRUE, TimeDomain(0))}

    def test_orbit_that_reorders_the_store_keys(self):
        # the flow names x before v, so the stores after its orbit have the
        # keys in that order, unlike the start store; the next pass through
        # the loop reads them in their own order (one kernel shared by both
        # orders swapped x and v and missed the violation at v = 7)
        evol = Evolve(None, TRUE, TimeDomain(0, 1), flow=Flow({"x": x + t, "v": v + 1}))
        prog = Loop(Seq((evol, Assign("x", x))), TRUE)
        s, post = {"v": 5.0, "x": 1.0}, Cmp("<=", v, const(Fraction(13, 2)))
        for step in (0.5, 1.0):
            cfg = RunConfig(fuel=2, step=step, horizon=1.0)
            found = find_violation(prog, s, post, cfg)
            assert found == reference_find_violation(prog, s, post, cfg)
            assert found[0][-1] == ("x := ...", {"x": 1.0, "v": 7.0})

    def test_fuel_3000_loop_runs_every_iteration(self):
        # the recursive search took Python frames per iteration
        body = Assign("x", x + 1)
        cfg = RunConfig(fuel=3000)
        path, message = find_violation(Loop(body, TRUE), {"x": 0.0}, Cmp("<=", x, const(2999)), cfg)
        assert message is None and len(path) == 3001
        assert path[-1] == ("x := ...", {"x": 3000.0})
        assert find_violation(Loop(body, TRUE), {"x": 0.0}, Cmp("<=", x, const(3000)), cfg) is None

    @pytest.mark.parametrize("leaves, store, posts", [
        # one variable: a loop keys the stores it reached by x alone
        ((Skip(), Abort(), Assign("x", x + 1), Assign("x", -x), Assign("x", x / SymConst("c")),
          Test(Cmp("<=", x, const(1))), Test(Cmp("=", x, const(0))),
          IfThenElse(Cmp("<", x, SymConst("c")), Assign("x", x + 2), Skip()),
          Evolve(None, Cmp("<=", x, const(3)), NONNEG, flow=Flow({"x": x + t})),
          Evolve(VectorField({"x": const(-1)}), Cmp(">=", x, const(-2)), NONNEG)),
         {"x": 0.0}, (Cmp("<=", x, const(2)), Cmp(">=", const(1) / (x - const(1)), const(-2)))),
        # no variable: every store is the empty one, a new one at each orbit point
        ((Skip(), Abort(), Test(Cmp("<=", SymConst("c"), const(1))),
          IfThenElse(Cmp(">", SymConst("c"), const(0)), Abort(), Skip()),
          Evolve(None, Cmp(">=", SymConst("c"), const(0)), TimeDomain(0, 1), flow=Flow({}))),
         {}, (Cmp("<=", SymConst("c"), const(1)), Cmp(">", const(1) / SymConst("c"), const(0)))),
    ], ids=["one-variable", "empty-store"])
    def test_small_stores_agree_with_recursive_reference(self, leaves, store, posts):
        rng = random.Random(41)
        outcomes = {"violating": 0, "undefined": 0, "clean": 0}
        for _ in range(300):
            prog, post = random_looping_program(rng, 4, leaves), rng.choice(posts)
            cfg = RunConfig(fuel=rng.randint(0, 3), step=rng.choice((1.0, 0.5)), horizon=2.0,
                            consts={"c": float(rng.randint(-1, 2))})
            found = find_violation(prog, store, post, cfg)
            assert found == reference_find_violation(prog, store, post, cfg)
            outcomes["clean" if found is None else "violating" if found[1] is None
                     else "undefined"] += 1
        assert all(outcomes.values()), outcomes

    def test_fuel_2_loop_over_a_5000_step_straight_line(self):
        # assignments, passed tests, skips and ifs, each run on in place;
        # the if raises v to x + 1 at every odd x
        items = []
        for _ in range(1250):
            items += [Assign("x", x + 1), Test(Cmp(">=", x, v - const(2))), Skip(),
                      IfThenElse(Cmp(">", x, v), Assign("v", v + 2), Skip())]
        prog, s, cfg = Loop(Seq(items), TRUE), {"x": 0.0, "v": 0.0}, RunConfig(fuel=2)
        path, message = find_violation(prog, s, Cmp("<=", x, const(2499)), cfg)
        want, store = [("init", s)], s
        for k in range(1, 2501):
            store = {**store, "x": float(k)}
            want.append(("x := ...", store))
            if k % 2:
                store = {**store, "v": k + 1.0}
                want.append(("v := ...", store))
        assert message is None and path == want
        assert len(path) == 3751 and path[-1] == ("x := ...", {"x": 2500.0, "v": 2500.0})
        assert find_violation(prog, s, Cmp("<=", x, const(2500)), cfg) is None

    # the straight-line tails an orbit kernel runs at each point before it
    # decides the post (hprog._straight_line), per store shape: the orbits,
    # the tail leaves, the if conditions and the posts; the leaves and
    # conditions include terms undefined at some points (1/(x - 1), v/x)
    TAIL_SHAPES = {
        "two-variables": (
            tuple(leaf for leaf in LOOPING_LEAVES if type(leaf) is Evolve),
            (Assign("x", x + 1), Assign("v", -v), Assign("v", v / x), Assign("x", x * v),
             Test(Cmp("<=", x, const(2))), Test(Cmp(">", const(1) / (x - const(1)), const(-9))),
             Skip(), Abort()),
            (Cmp("<", x, v), Cmp("=", x, const(0)), Cmp(">=", const(1) / (x - const(1)), const(0))),
            {"x": 0.0, "v": 1.0},
            (Cmp("<=", x, const(2)), Cmp("<=", const(1) / x, const(9)),
             Cmp("<=", x * v, SymConst("c")), Cmp(">=", v, x - const(3)))),
        "one-variable": (
            (Evolve(None, Cmp("<=", x, const(3)), NONNEG, flow=Flow({"x": x + t})),
             Evolve(VectorField({"x": const(-1)}), Cmp(">=", x, const(-2)), NONNEG)),
            (Assign("x", x + 1), Assign("x", -x), Assign("x", SymConst("c") / x),
             Test(Cmp("<=", x, const(1))), Skip(), Abort()),
            (Cmp("<", x, SymConst("c")), Cmp(">", const(1) / (x - const(1)), const(0))),
            {"x": 0.0},
            (Cmp("<=", x, const(2)), Cmp(">=", const(1) / (x - const(1)), const(-2)))),
        "empty-store": (
            (Evolve(None, Cmp(">=", SymConst("c"), const(0)), TimeDomain(0, 1), flow=Flow({})),),
            (Test(Cmp("<=", SymConst("c"), const(1))), Skip(), Abort()),
            (Cmp(">", SymConst("c"), const(0)), Cmp(">", const(1) / SymConst("c"), const(0))),
            {},
            (Cmp("<=", SymConst("c"), const(1)), Cmp(">", const(1) / SymConst("c"), const(0)))),
    }

    @staticmethod
    def random_tail(rng, leaves, conds, depth=2):
        shape = rng.random()
        if depth <= 0 or shape < 0.4:
            return rng.choice(leaves)
        if shape < 0.7:
            return Seq(tuple(TestFindViolation.random_tail(rng, leaves, conds, depth - 1)
                             for _ in range(rng.randint(1, 3))))
        return IfThenElse(rng.choice(conds),
                          TestFindViolation.random_tail(rng, leaves, conds, depth - 1),
                          TestFindViolation.random_tail(rng, leaves, conds, depth - 1))

    @pytest.mark.parametrize("shape", TAIL_SHAPES)
    def test_orbits_with_tails_agree_with_recursive_reference(self, monkeypatch, shape):
        evolves, leaves, conds, start, posts = self.TAIL_SHAPES[shape]
        rng = random.Random(39)
        # what each tail kernel returned, or the name of what it raised
        ran = []
        fetch = hprog._orbit_step

        def step(node, store, cfg, post=None, tail=()):
            run, grid = fetch(node, store, cfg, post, tail)
            if not tail:
                return run, grid

            def record(*args):
                try:
                    ran.append(run(*args))
                except EVAL_FAILURES as exc:
                    ran.append(type(exc).__name__)
                    raise
                return ran[-1]
            return record, grid

        monkeypatch.setattr(hprog, "_orbit_step", step)

        def body():
            return Seq((rng.choice(evolves), self.random_tail(rng, leaves, conds)))

        outcomes = {"violating": 0, "undefined": 0, "clean": 0}
        for i in range(500):
            tail = self.random_tail(rng, leaves, conds)
            pick = i % 5
            if pick == 0:  # one loop, then a tail
                prog = Seq((Loop(body(), TRUE), tail))
            elif pick == 1:  # two loops in sequence
                prog = Seq((Loop(body(), TRUE), Loop(body(), TRUE)))
            elif pick == 2:  # a loop inside a loop
                prog = Loop(Seq((Loop(body(), TRUE), tail)), TRUE)
            elif pick == 3:  # no loop: the tail ends the program
                prog = Seq((tail, body()))
            else:
                prog = Loop(body(), TRUE)
            store = {k: float(rng.randint(-2, 2)) for k in start}
            consts = {"c": float(rng.randint(-1, 2))}
            cfg = RunConfig(fuel=rng.randint(0, 2 if pick == 2 else 3),
                            step=rng.choice((1.0, 0.5)), horizon=2.0, consts=consts)
            post = rng.choice(posts)
            found = find_violation(prog, store, post, cfg)
            assert found == reference_find_violation(prog, store, post, cfg), (i, prog)
            outcomes["clean" if found is None else "violating" if found[1] is None
                     else "undefined"] += 1
        assert all(outcomes.values()), outcomes
        # the kernels ran tails to the end of the orbit, stopped at an
        # undefined point and, where the post reads a variable, at a violating one
        assert set(ran) == {True, "EvalError"} | ({False} if start else set()), set(ran)

    def test_ball_loop_fetches_one_tail_step(self, monkeypatch):
        # at fuel 2 only the third iteration's orbits run straight to the
        # end: the if, then the loop end with no iterations left
        def ball():
            evol = Evolve(BALL_FIELD, Cmp(">=", x, const(0)), NONNEG, flow=BALL_FLOW)
            flip = IfThenElse(Cmp("=", x, const(0)), Assign("v", -v), Skip())
            return Loop(Seq((evol, flip)), TRUE), evol, flip

        fetched = []
        fetch = hprog._orbit_step
        monkeypatch.setattr(hprog, "_orbit_step", lambda node, store, cfg, *rest: (
            fetched.append((node, tuple(store), rest)) or fetch(node, store, cfg, *rest)))
        post = And(Cmp("<=", const(0), x), Cmp("<=", x, SymConst("h")))
        kernels: dict = {}
        for height in (1.0, 2.0, 5.0):
            prog, evol, flip = ball()  # equal programs, built anew
            cfg = RunConfig(fuel=2, step=0.1, horizon=3.0, consts={"g": -9.81, "h": height})
            s = {"x": height, "v": 0.0}
            assert find_violation(prog, s, post, cfg, kernels) is None
            assert find_violation(prog, s, post, cfg, kernels) == reference_find_violation(
                prog, s, post, cfg)
        assert fetched == [(evol, ("x", "v"), ()), (evol, ("x", "v"), (post, (flip, None)))]
        assert set(kernels) >= {(evol, ("x", "v")), (evol, ("x", "v"), post, (flip, None))}

    def test_ifs_nested_deeper_than_the_kernel_nests_run_point_by_point(self):
        # generated code nests one block per if, and Python bounds the
        # nesting: a tail in more than _TAIL_DEPTH ifs gets no kernel
        evol = Evolve(None, Cmp("<=", x, const(3)), NONNEG, flow=Flow({"x": x + t}))
        for depth in (hprog._TAIL_DEPTH, hprog._TAIL_DEPTH + 1, 60):
            tail = Assign("v", v + 1)
            for i in range(depth):
                tail = IfThenElse(And(Cmp(">=", x, const(0)), Cmp("<=", v, const(i))), tail,
                                  Assign("v", v - 1))
            prog, s = Loop(Seq((evol, tail)), TRUE), {"x": 0.0, "v": 0.0}
            cfg = RunConfig(fuel=1, step=0.5, horizon=2.0)
            for post in (Cmp("<=", v, const(1)), Cmp("<=", x, const(9))):
                kernels: dict = {}
                found = find_violation(prog, s, post, cfg, kernels)
                assert found == reference_find_violation(prog, s, post, cfg)
                assert bool(kernels[evol, ("x", "v"), post, (tail, None)]) is (
                    depth <= hprog._TAIL_DEPTH)

    def test_a_kernel_that_returns_false_adds_no_key(self):
        evol = Evolve(None, Cmp("<=", x, const(3)), NONNEG, flow=Flow({"x": x + t}))
        tail = (Assign("v", v + x), None)
        cfg = RunConfig(step=0.5, horizon=2.0, consts={"c": 9.0})
        s = {"x": 0.0, "v": 0.0}
        args = (s, cfg.consts, EQ_TOL, cfg.step, 0.5 * cfg.step, cfg.step / 6.0)
        # the post fails at x = 1.5, and is undefined at x = 1, after the
        # points before have new stores
        for post in (Cmp("<=", x, const(1)), Cmp("<=", const(1) / (x - const(1)), const(9))):
            run, grid = hprog._orbit_step(evol, s, cfg, post, tail)
            reached = {(0.0, 0.0)}
            assert outcome(run, [reached], grid, *args)[0] in ("value", "raise")
            assert reached == {(0.0, 0.0)}
        # the loop has reached the store (v, x) = (1, 1): the run from x = 1
        # ends at the loop end, before the post, which only x = 1 violates
        run, grid = hprog._orbit_step(evol, s, cfg, Cmp("!=", x, const(1)), tail)
        reached = {(1.0, 1.0)}
        assert run([reached], grid, *args) is True
        assert reached == {(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.5, 1.5), (2.0, 2.0)}


# ---------------------------------------------------------------------------
# The orbit writer (hprog.orbit_kernel) must match the tree walk's RK4
# states and flow states (tests/treewalk.py) bit for bit, failures
# included: through rk4_integrate, which raises what the writer raises, and
# through guarded_orbit_flow under the guard true, or the writer's flow
# kernel itself where the failure is the point.


def ref_rk4_integrate(field, s, h, n, consts):
    """The reference states as rk4_integrate keeps them: the first n + 1,
    cut at the first that is not finite, with the flag set there."""
    traj = []
    for k, st in zip(range(n + 1), ref_rk4_states(field, s, h, consts)):
        if not all(map(math.isfinite, st.values())):
            return traj, True
        traj.append((k * h, st))
    return traj, False


def rk4_result(field, s, h, n, consts={}):
    """outcome of rk4_integrate, asserted equal to the reference's."""
    got = outcome(rk4_integrate, field, s, h, n, consts)
    assert got == outcome(ref_rk4_integrate, field, s, h, n, consts)
    return got


def flow_orbit(flow, s, h, horizon, consts={}):
    """guarded_orbit_flow of flow under the guard true, from time 0 to the
    horizon, asserted equal in repr to the tree walk's orbit."""
    got = guarded_orbit_flow(flow, TRUE, NONNEG, s, h, consts, horizon)
    assert repr(got) == repr(ref_orbit_flow(flow, TRUE, NONNEG, s, h, consts, horizon, 0.0))
    return got


def flow_failure(flow, times, s, consts={}):
    """The exception that the orbit writer's kernel of flow under the guard
    true raises at times (guarded_orbit_flow ends the orbit there), or None."""
    run = _orbit_run(("flow", tuple(flow.components.items())), flow.reads, TRUE, s, consts)
    try:
        run([], times, s, consts, 0.0, 0.0, 0.0, 0.0)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return exc
    return None


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
            got = rk4_result(field, s, h, 39, cv)
            if got[0] == "value":
                traj, _ = rk4_integrate(field, s, h, 39, cv)
                assert all(st["n"] == 7 and type(st["n"]) is int and st["w"] == 0.5
                           for _, st in traj)

    def test_seeded_property(self):
        # fields over sin, exp, division and blow-ups, with constants bound,
        # unbound and shadowed by the store, pass-through store variables
        # and, now and then, a field variable the store lacks
        rng = random.Random(33)
        seen = set()
        for _ in range(300):
            names = rng.sample(["x", "y", "z"], rng.randint(1, 3))
            comps = {}
            for n in names:
                e = rand_expr(rng, rng.randint(0, 3), False)
                pick = rng.random()
                if pick < 0.15:
                    e = Exp(e * Var(rng.choice(names)))
                elif pick < 0.3:
                    e = e / (Var(rng.choice(names)) - _random_rat(rng))
                elif pick < 0.4:
                    e = e * SymConst(rng.choice(["c", "p", "u"]))  # p is a store key
                elif pick < 0.5:
                    e = const(8) * Var(n) * Var(n)  # blows up to inf
                comps[n] = e
            try:
                field = VectorField(comps)
            except ValueError:  # reads a variable it does not declare
                continue
            s = {n: rng.uniform(-2, 2) for n in names if rng.random() < 0.95}
            s["p"] = rng.choice((3, 0.5))
            consts = {"c": rng.uniform(-2, 2)}
            if rng.random() < 0.3:
                consts[rng.choice(names)] = 9.0  # shadowed by the store
            got = rk4_result(field, s, rng.choice((0.05, 0.1, 0.5)), 30, consts)
            seen.add(got[1].__name__ if got[0] == "raise" else got[1].endswith("True)"))
        assert {True, False, "EvalError", "KeyError", "OverflowError"} <= seen

    def test_blow_up_matches_reference(self):
        # x' = x*x from 5 overflows to inf, which ends the trajectory; sin
        # of an infinity raises ValueError at the stage that first reads it
        square = VectorField({"x": x * x})
        with_sin = VectorField({"x": x * x, "y": Sin(x)})
        a = rk4_result(square, {"x": 5.0}, 0.5, 59)
        b = rk4_result(with_sin, {"x": 5.0, "y": 0.0}, 0.5, 59)
        assert a[0] == "value" and a[1].endswith("True)")
        assert b == ("raise", ValueError, "math domain error", None)

    @pytest.mark.usefixtures("fresh_kernels")
    @pytest.mark.parametrize("pole", [1.25, 1.3125, 1.65625], ids=["stage2", "stage3", "stage4"])
    def test_stage_failure_ends_at_the_same_point(self, pole):
        # x' = x from x = 1 at h = 1/2 reads x = 1, 1.25, 1.3125, 1.65625 at
        # the four stages of the first step, so y' = 1/(x - pole) fails at one
        field = VectorField({"x": x, "y": const(1) / (x - const(Fraction(pole)))})
        s = {"x": 1.0, "y": 0.0}
        assert rk4_result(field, s, 0.5, 4) == (
            "raise", EvalError, "division by zero", field.components["y"])
        assert rk4_result(field, s, 0.5, 0) == ("value", repr(([(0.0, s)], False)))
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
    @pytest.mark.usefixtures("fresh_kernels")
    def test_failure_at_the_second_state_names_the_same_subterm(self, comps, subterm):
        field = VectorField(comps)
        s = {"x": 1.0, "y": 0.0}
        got = rk4_result(field, s, 0.5, 4)
        assert got[0] == "raise" and got[3] is subterm(comps)
        assert rk4_result(field, s, 0.5, 0) == ("value", repr(([(0.0, s)], False)))

    def test_names_that_are_not_python_identifiers(self):
        # names reach the generated code only through its globals
        names = ["class", "__import__", "x'); import os #", "_v1", "state"]
        consts = ["env", "_g5", "float", "t", "lambda"]
        rng = random.Random(11)
        for _ in range(20):
            field = VectorField({n: random_expr(rng, names, consts, 3) for n in names})
            cv = {c: rng.uniform(-2, 2) for c in consts}
            s = {**{n: rng.uniform(-1, 1) for n in names}, "None": 1}
            rk4_result(field, s, 0.05, 29)  # unbound constants
            rk4_result(field, s, 0.05, 29, cv)
            flow = Flow({n: e * t + Var(n) for n, e in field.components.items()})
            flow_orbit(flow, s, 0.1, 0.9, cv)

    def test_deep_chain_and_shared_subterms(self):
        chain = x
        for i in range(600):
            chain = Add(chain, const(Fraction(i % 7 - 3, 1000)))
        dag = y
        for _ in range(10):  # 1024 leaves over 10 distinct nodes
            dag = Sin(dag + dag)
        field = VectorField({"x": chain, "y": dag * x, "z": dag + chain})
        s = {"x": 0.5, "y": 0.25, "z": 0.0}
        assert rk4_result(field, s, 0.01, 19)[0] == "value"
        flow = Flow({"x": chain * t + dag, "y": dag})
        assert len(flow_orbit(flow, s, 0.25, 1.75)) == 8

    def test_kernels_are_cached_outside_equality(self):
        field = VectorField({"x": v, "v": g})
        assert field.reads == ("g",)
        keys = ("x", "v")
        run = field_orbit_kernel(field, keys, ("g",))
        assert field_orbit_kernel(field, keys, ("g",)) is run
        assert field_orbit_kernel(field, keys, ()) is not run
        assert field == VectorField({"x": v, "v": g})
        assert repr(field) == repr(VectorField({"x": v, "v": g}))
        flow = Flow({"x": x + v * t})
        assert flow.reads == ("v", "x")
        run = flow_orbit_kernel(flow, keys, ())
        assert flow_orbit_kernel(flow, keys, ()) is run  # same store keys and constants
        assert flow_orbit_kernel(flow, ("x", "v", "w"), ()) is not run
        assert flow_orbit_kernel(flow, ("x",), ("v",)) is not run
        assert flow == Flow({"x": x + v * t}) and repr(flow) == repr(Flow({"x": x + v * t}))

    def test_kernels_of_one_shape_share_code(self):
        def evolve(text):
            ((_, node),) = _find_evolves(parse_spec(text).program)
            return node

        text = (PROBLEMS / "bouncing_ball.hwl").read_text()
        first, second = evolve(text), evolve(text)
        assert first.field is not second.field
        keys, bound = ("x", "v"), first.field.reads
        assert field_orbit_kernel(first.field, keys, bound).__code__ is field_orbit_kernel(
            second.field, keys, bound).__code__
        assert flow_orbit_kernel(first.flow, keys, bound).__code__ is flow_orbit_kernel(
            second.flow, keys, bound).__code__
        # kernels of one shape with different constants keep their own values
        s = {"x": 1.0, "v": 0.0}
        fields = [VectorField({"x": v, "v": const(c)}) for c in (2, 3)]
        run2, run3 = (field_orbit_kernel(f, keys, ()) for f in fields)
        assert run2 is not run3 and run2.__code__ is run3.__code__
        for f in fields:
            [_, (_, got)], _ = rk4_integrate(f, s, 0.5, 1)
            assert got == ref_rk4_step(f, s, 0.5, {})
        assert rk4_integrate(fields[0], s, 0.5, 1) != rk4_integrate(fields[1], s, 0.5, 1)
        flows = [Flow({"x": x + const(c) * t}) for c in (2, 3)]
        codes = {flow_orbit_kernel(f, keys, ()).__code__ for f in flows}
        assert len(codes) == 1
        assert [flow_orbit(f, s, 1.0, 1.0)[1][1] for f in flows] == [
            {"x": 3.0, "v": 0.0}, {"x": 4.0, "v": 0.0}]

    def test_two_parses_share_every_kernel(self):
        text = (PROBLEMS / "bouncing_ball.hwl").read_text()
        specs = [parse_spec(text) for _ in range(2)]
        (_, first), (_, second) = (next(_find_evolves(s.program)) for s in specs)
        assert first.field is not second.field and first.field == second.field
        assert first.guard is second.guard  # two parses give one term
        keys = ("x", "v")
        assert field_orbit_kernel(first.field, keys, ("g",), first.guard) is field_orbit_kernel(
            second.field, keys, ("g",), second.guard)
        assert flow_orbit_kernel(first.flow, keys, ("g",), first.guard) is flow_orbit_kernel(
            second.flow, keys, ("g",), second.guard)
        monoids = [memo_kernel(odecert._monoid_kernel, ev.flow.component_items, ("v", "x"), ("g",))
                   for ev in (first, second)]
        assert monoids[0] is monoids[1]
        hyps = [(*s.assumptions, s.pre) for s in specs]
        assert hyps[0][0] is hyps[1][0]  # two parses give one term
        plans = [memo_kernel(sampling._attempt_kernel, ("g", "x", "v"), h) for h in hyps]
        assert plans[0] is plans[1]

    @pytest.mark.usefixtures("fresh_kernels")
    def test_second_parse_builds_no_kernel(self, monkeypatch):
        text = (PROBLEMS / "bouncing_ball.hwl").read_text()
        built = []
        function = KernelWriter.function
        monkeypatch.setattr(KernelWriter, "function",
                            lambda w, *args: built.append(args) or function(w, *args))
        budget = odecert.FalsifyBudget(trials=4, fuel=2)
        counts = []
        for _ in range(2):
            spec = parse_spec(text)
            assert run_verify(spec)["summary"]["exit"] == 0
            assert odecert.falsify(spec, budget) is None
            counts.append(len(built))
        assert counts[0] > 0 and counts[1] == counts[0]

    def test_equal_fields_share_one_kernel(self):
        a = VectorField({"x": v, "v": g * x})
        b = VectorField({"x": Var("v"), "v": SymConst("g") * Var("x")})
        keys = ("x", "v")
        assert field_orbit_kernel(a, keys, ("g",)) is field_orbit_kernel(b, keys, ("g",))
        assert field_orbit_kernel(a, keys, ()) is not field_orbit_kernel(a, keys, ("g",))
        # the field's order is part of its value: it orders the kernel's statements
        c = VectorField({"v": g * x, "x": v})
        assert c != a and c == VectorField({"v": g * x, "x": v})
        assert field_orbit_kernel(c, keys, ("g",)) is not field_orbit_kernel(a, keys, ("g",))

    @pytest.mark.usefixtures("fresh_kernels")
    @pytest.mark.parametrize("bound_first", [True, False], ids=["bound-first", "unbound-first"])
    def test_kernels_are_kept_per_bound_names(self, bound_first):
        # a kernel kept per object alone would run the other binding's code
        field, flow = VectorField({"x": v, "v": g}), Flow({"x": x + g * t})
        s, times = {"x": 1.0, "v": 0.5}, [0.0, 0.5, 1.0]
        for consts in ([{"g": -2.0}, {}] if bound_first else [{}, {"g": -2.0}]):
            got = rk4_result(field, s, 0.5, 3, consts)
            orbit = flow_orbit(flow, s, 0.5, 1.0, consts)
            exc = flow_failure(flow, times, s, consts)
            if consts:
                assert got[0] == "value" and len(orbit) == 3 and exc is None
            else:
                assert got == ("raise", EvalError, "unbound name 'g'", g)
                assert orbit == [] and type(exc) is EvalError
                assert str(exc) == "unbound name 'g'" and exc.subterm is g

    def test_orbit_matches_reference_points(self):
        guard = Cmp(">=", x, const(0))
        s = {"x": 1.0, "v": 0.5}
        orbit = guarded_orbit_field(BALL_FIELD, guard, NONNEG, s, 0.05, {"g": -1.0}, horizon=6)
        ref = ref_rk4_states(BALL_FIELD, s, 0.05, {"g": -1.0})
        assert [st for _, st in orbit] == list(itertools.islice(ref, len(orbit)))
        assert 0 < len(orbit) < 121


def _random_rat(rng):
    return const(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))))


def outcome(fn, *args):
    """("value", repr of the result: exact for floats, ints stay ints, keys
    in order) or ("raise", type, message, subterm) of fn's exception."""
    try:
        return "value", repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "raise", type(exc), str(exc), getattr(exc, "subterm", None)


class TestOrbitKernelMatchesReference:
    """An orbit is one generated function (hprog.orbit_kernel); the loop it
    replaced, over the tree walk's flow states and RK4 steps, is the
    reference (tests/treewalk.py).  Points, states, their key order and
    every exception must agree."""

    DOMAINS = (NONNEG, TimeDomain(0, Fraction(7, 10)), TimeDomain(0, 2))

    @staticmethod
    def store(rng):
        values = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2), "p": rng.uniform(-2, 2)}
        if rng.random() < 0.15:
            values[rng.choice("xyp")] = rng.choice((math.inf, -math.inf, math.nan))
        if rng.random() < 0.05:
            values["p"] = None  # a pass-through value float() rejects: TypeError
        keys = list(values)
        rng.shuffle(keys)
        return {k: values[k] for k in keys}

    @staticmethod
    def consts(rng):
        consts = {"c": rng.uniform(-2, 2)}
        if rng.random() < 0.3:
            consts[rng.choice("xyp")] = rng.uniform(-2, 2)  # shadowed by the store
        return consts

    @staticmethod
    def guard(rng):
        kind = rng.random()
        if kind < 0.1:
            return Cmp("<=", SymConst("c"), const(rng.randint(-1, 1)))  # constants only
        if kind < 0.15:
            return Cmp(">=", x + Var("w"), const(0))  # w is unbound: no point is kept
        if kind < 0.2:
            return And(Cmp(">=", x, const(-2)), x)  # not a Pred: TypeError when reached
        return rand_pred(rng, rng.randint(0, 2), time=False)

    @staticmethod
    def term(rng, time):
        if rng.random() < 0.1:
            return Exp(Mul(const(400), x))  # overflows where x > 1.8 or so
        return rand_expr(rng, rng.randint(0, 3), time)

    def test_random_flows_and_fields(self):
        rng = random.Random(32)
        seen = set()
        for i in range(1500):
            s, consts, guard = self.store(rng), self.consts(rng), self.guard(rng)
            dom = rng.choice(self.DOMAINS)
            h, horizon = rng.choice((0.1, 0.25, 0.5)), rng.choice((1.0, 3.0))
            eq_tol = rng.choice((0.0, EQ_TOL))
            if i % 2:
                names = rng.sample(("x", "y"), 2)
                field = VectorField({n: self.term(rng, False) for n in names})
                got = outcome(guarded_orbit_field, field, guard, dom, s, h, consts, horizon, eq_tol)
                want = outcome(ref_orbit_field, field, guard, dom, s, h, consts, horizon, eq_tol)
            else:
                names = rng.sample(("x", "y", "q"), rng.randint(1, 3))  # q is no store key
                flow = Flow({n: self.term(rng, True) for n in names})
                got = outcome(guarded_orbit_flow, flow, guard, dom, s, h, consts, horizon, eq_tol)
                want = outcome(ref_orbit_flow, flow, guard, dom, s, h, consts, horizon, eq_tol)
            assert got == want, (i, guard, s, consts)
            if got[0] == "raise":
                seen.add(got[1].__name__)
            else:
                points = got[1].count("(")  # one per kept point, one per "(t, {...})"
                seen.add("empty" if points == 0 else f"{'field' if i % 2 else 'flow'} points")
        assert seen == {"empty", "flow points", "field points", "TypeError"}

    def test_post_mode_decides_the_post_at_each_kept_point(self):
        # the plain kernel's points, each decided by eval_pred in order, then
        # the plain kernel's own outcome (True where it returns)
        rng = random.Random(37)
        seen = set()
        for i in range(1500):
            s, consts, guard = self.store(rng), self.consts(rng), self.guard(rng)
            post = Cmp("<", Exp(Mul(const(400), y)), const(9)) if rng.random() < 0.1 else (
                self.guard(rng))  # the exp overflows where y > 1.8 or so
            h, horizon = rng.choice((0.1, 0.25, 0.5)), rng.choice((1.0, 3.0))
            times = rng.choice(self.DOMAINS).grid(h, horizon)
            eq_tol = rng.choice((0.0, EQ_TOL))
            if i % 2:
                field = VectorField({n: self.term(rng, False) for n in rng.sample(("x", "y"), 2)})
                source, reads = ("rk4", field.component_items), field.reads
            else:
                names = rng.sample(("x", "y", "q"), rng.randint(1, 3))  # q is no store key
                flow = Flow({n: self.term(rng, True) for n in names})
                source, reads = ("flow", flow.component_items), flow.reads
            args = (times, s, consts, eq_tol, h, 0.5 * h, h / 6.0)
            got = outcome(_orbit_run(source, reads, guard, s, consts, post), None, *args)
            points: list = []
            want = outcome(_orbit_run(source, reads, guard, s, consts), points, *args)
            for _, state in points:
                decided = outcome(eval_pred, post, {**consts, **state}, eq_tol)
                if decided != ("value", "True"):
                    want = decided
                    break
            else:
                if want == ("value", "None"):
                    want = ("value", "True")
            assert got == want, (i, guard, post, s, consts)
            seen.add(got[1] if got[0] == "value" else got[1].__name__)
        assert {"True", "False", "EvalError", "TypeError"} <= seen, seen

    # fields whose step doubles one stage value twice (k3 is k2 for x when
    # v's stage is one value) or has stages on literals alone, which the
    # orbit computes once before its loop; c loads inside the loop
    STAGE_SHAPES = (
        VectorField({"x": v, "v": SymConst("c")}),
        VectorField({"x": v, "v": const(-1)}),
        VectorField({"x": v * const(2), "v": const(3) * const(Fraction(1, 4)) - const(2)}),
        VectorField({"y": const(2), "x": y + v, "v": -SymConst("c")}),
        VectorField({"y": const(2), "x": Sin(y + v), "v": -SymConst("c")}),
        VectorField({"x": const(1), "v": const(1) / (x - const(1))}),
    )

    def test_rk4_stage_shapes_match_reference(self):
        rng = random.Random(38)
        seen = set()
        for i in range(300):
            field = rng.choice(self.STAGE_SHAPES)
            s = {"x": float(rng.randint(-2, 2)), "y": rng.uniform(-2, 2), "v": rng.uniform(-2, 2)}
            consts = {"c": rng.uniform(-2, 2)}
            guard = rng.choice((TRUE, Cmp(">=", x, const(-2)), Cmp("<=", v * SymConst("c"), x)))
            h = rng.choice((0.1, 0.25, 0.5, Fraction(1, 4)))
            eq_tol = rng.choice((0.0, EQ_TOL))
            args = (field, guard, NONNEG, s, h, consts, 2.0, eq_tol)
            got = outcome(guarded_orbit_field, *args)
            assert got == outcome(ref_orbit_field, *args), (i, field, guard)
            if type(h) is float:  # the division raises from rk4_integrate
                seen.add(rk4_result(field, s, h, 8, consts)[0])
        assert seen == {"value", "raise"}

    def test_stages_share_a_term_on_constants_alone(self, monkeypatch):
        # sin(c) reads no field variable, so the four stages of a step take
        # the first stage's value: one sine per step, not four
        field = VectorField({"y": const(2), "x": y + v, "v": Sin(SymConst("c"))})
        s, consts = {"x": 0.5, "y": -1.0, "v": 0.25}, {"c": 0.7}
        args = (field, TRUE, NONNEG, s, 0.1, consts, 0.5, EQ_TOL)
        assert repr(guarded_orbit_field(*args)) == repr(ref_orbit_field(*args))
        kernel = field_orbit_kernel(field, tuple(s), ("c",))
        sines = []
        monkeypatch.setitem(kernel.__globals__, "_sin", lambda a: sines.append(a) or math.sin(a))
        out = []
        kernel(out, [k * 0.1 for k in range(6)], s, consts, EQ_TOL, 0.1, 0.05, 0.1 / 6.0)
        assert len(out) == 6 and sines == [0.7] * 5

    def test_stages_on_one_state_share_their_values(self, monkeypatch):
        # y' = 2 and v' = -c move y and v alike in stages 2 and 3, which so
        # load the same identifiers: sin(y + v) three times per step, not four
        field = VectorField({"y": const(2), "x": Sin(y + v), "v": -SymConst("c")})
        s, consts = {"x": 0.5, "y": -1.0, "v": 0.25}, {"c": 0.7}
        args = (field, TRUE, NONNEG, s, 0.1, consts, 0.5, EQ_TOL)
        assert repr(guarded_orbit_field(*args)) == repr(ref_orbit_field(*args))
        kernel = field_orbit_kernel(field, tuple(s), ("c",))
        sines = []
        monkeypatch.setitem(kernel.__globals__, "_sin", lambda a: sines.append(a) or math.sin(a))
        out = []
        kernel(out, [k * 0.1 for k in range(6)], s, consts, EQ_TOL, 0.1, 0.05, 0.1 / 6.0)
        assert len(out) == 6 and len(sines) == 15

    def test_fraction_top_and_shadowed_constant(self):
        # 7/10 is no float: the grid compares k * h with float(7/10) + 1e-12
        s, consts = {"x": 0.0, "v": 1.0}, {"x": 9.0, "g": -1.0}
        dom = TimeDomain(0, Fraction(7, 10))
        for h, points in ((0.1, 8), (0.07, 11), (Fraction(1, 10), 8)):
            for guard in (Cmp("<=", x, const(1)), Cmp("<", g, const(0))):
                got = guarded_orbit_flow(BALL_FLOW, guard, dom, s, h, consts, 5.0, EQ_TOL)
                want = ref_orbit_flow(BALL_FLOW, guard, dom, s, h, consts, 5.0, EQ_TOL)
                assert repr(got) == repr(want) and len(got) == points
                got = guarded_orbit_field(BALL_FIELD, guard, dom, s, h, consts, 5.0, EQ_TOL)
                want = ref_orbit_field(BALL_FIELD, guard, dom, s, h, consts, 5.0, EQ_TOL)
                assert repr(got) == repr(want) and len(got) == points

    def test_rk4_steps_only_after_a_kept_point_with_a_next_time(self):
        # z is no store key: reading it for a step raises KeyError, which
        # no orbit catches and rk4_integrate passes on
        field = VectorField({"x": const(1), "z": const(2)})
        with pytest.raises(KeyError, match="'z'"):
            guarded_orbit_field(field, TRUE, NONNEG, {"x": 0.0}, 0.5)
        assert rk4_result(field, {"x": 0.0}, 0.5, 1) == ("raise", KeyError, "'z'", None)
        assert rk4_result(field, {"x": 0.0}, 0.5, 0) == ("value", "([(0.0, {'x': 0.0})], False)")
        assert guarded_orbit_field(field, FALSE, NONNEG, {"x": 0.0}, 0.5) == []
        one_point = TimeDomain(0, 0)
        assert guarded_orbit_field(field, TRUE, one_point, {"x": 0.0}, 0.5) == [(0.0, {"x": 0.0})]

    def test_empty_states_and_fields(self):
        for s in ({}, {"x": 1.0}):
            args = (TRUE, NONNEG, s, 0.5, {}, 2.0, 0.0)
            assert guarded_orbit_flow(Flow({}), *args) == ref_orbit_flow(Flow({}), *args)
            assert guarded_orbit_field(VectorField({}), *args) == ref_orbit_field(
                VectorField({}), *args)
            assert len(guarded_orbit_flow(Flow({}), *args)) == 5

    def test_grid_errors_raise_before_the_orbit(self):
        for h, dom, horizon, message in ((0.0, NONNEG, 1.0, "step must be positive"),
                                         (0.5, NONNEG, math.inf, "finite horizon")):
            for orbit in (lambda: guarded_orbit_flow(BALL_FLOW, TRUE, dom, {}, h, {}, horizon),
                          lambda: guarded_orbit_field(BALL_FIELD, TRUE, dom, {}, h, {}, horizon)):
                with pytest.raises(ValueError, match=message):
                    orbit()

    def test_time_binder_orbits_on_down_set_grids(self):
        rng = random.Random(33)
        tau = Var("tau")
        seen = set()
        for _ in range(400):
            lo = rng.choice((-3, -1, Fraction(-3, 4), Fraction(-1, 3)))
            dom = TimeDomain(lo, rng.choice((0, Fraction(1, 2), 2, math.inf)))
            prefix = Cmp(rng.choice(("<", "<=", ">", ">=")),
                         _random_rat(rng) * tau + SymConst("c") * x, _random_rat(rng))
            if rng.random() < 0.3:  # undefined where tau reaches the pole
                prefix = And(prefix, Cmp(">", const(1) / (tau - _random_rat(rng)), const(-4)))
            val = {"x": rng.uniform(-2, 2), "c": rng.uniform(-2, 2)}
            if rng.random() < 0.2:
                val["tau"] = 100.0  # the binder shadows it
            step, horizon = rng.choice((0.25, 0.5)), rng.choice((2.0, 3.0))
            ts = dom.downset_grid(step, horizon)
            got = _orbit(("time", "tau"), (), prefix, ts, {}, val, EQ_TOL)
            want = ref_guarded_prefix(ts, ({"tau": tt} for tt in ts), prefix, val, EQ_TOL)
            assert repr(got) == repr(want)
            body = Cmp("<=", Var("t") * _random_rat(rng), x)
            quant = TimeQuant("t", "tau", dom, prefix, body)
            assert outcome(eval_pred_ext, quant, val, step, horizon) == outcome(
                ref_eval_pred_ext, quant, val, step, horizon)
            seen.add(len(got) in (0, len(ts)))
        assert seen == {True, False}


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
                got = flow_orbit(flow, s, 0.05, 2.45, cv)
                assert [tt for tt, _ in got] == [k * 0.05 for k in range(50)]
                want = [ref_flow_at(flow, tt, s, cv) for tt, _ in got]
                assert repr([st for _, st in got]) == repr(want)
                # a variable the flow does not name keeps its value
                assert all(st[k] == s[k] for _, st in got for k in set(s) - set(flow.components))

    def test_constant_denominators(self):
        # a (nonzero) constant denominator needs no zero check
        halves = Flow({"x": x / const(2) + t / const(Fraction(1, 3))})
        assert flow_orbit(halves, {"x": 3.0}, 1.5, 1.5)[1] == (
            1.5, ref_flow_at(halves, 1.5, {"x": 3.0}, {}))

    @pytest.mark.usefixtures("fresh_kernels")
    def test_error_at_a_later_time_raises_on_that_element(self):
        flow = Flow({"x": x + const(1) / (t - const(1))})
        s = {"x": 2.0}
        orbit = flow_orbit(flow, s, 0.5, 1.5)
        assert orbit == [(tt, ref_flow_at(flow, tt, s, {})) for tt in (0.0, 0.5)]
        exc = flow_failure(flow, [0.0, 0.5, 1.0, 1.5], s)
        assert type(exc) is EvalError and str(exc) == "division by zero"
        assert exc.subterm is flow.components["x"].rhs
        assert guarded_orbit_flow(flow, TRUE, TimeDomain(Fraction(-3, 2), Fraction(3, 2)), s, 1.5,
                                  {}, 1.5) == [(0.0, {"x": 1.0}), (1.5, {"x": 4.0})]
        unbound = Flow({"x": x + g * t})
        assert flow_orbit(unbound, s, 1.0, 1.0) == []
        exc = flow_failure(unbound, [1.0], s)
        assert type(exc) is EvalError and str(exc) == "unbound name 'g'" and exc.subterm is g
