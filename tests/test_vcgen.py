import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hybridwlp.expr as expr_module
from hybridwlp.cli import run_verify
from hybridwlp.discharge import discharge
from hybridwlp.expr import (
    And,
    Cmp,
    Cos,
    EVAL_FAILURES,
    EvalError,
    Exp,
    Expr,
    FALSE,
    Neg,
    Or,
    Not,
    Pred,
    Sin,
    SymConst,
    TimeVar,
    TRUE,
    Var,
    const,
    eval_pred,
    substitute_pred,
)
from hybridwlp.hprog import (
    Assign,
    Choice,
    Evolve,
    Flow,
    IfThenElse,
    Loop,
    NONNEG,
    REALS,
    RunConfig,
    Seq,
    Skip,
    Test,
    TimeDomain,
    VectorField,
    guarded_orbit_flow,
    run_sampled,
)
from hybridwlp.hwl import ParseError, format_pred, parse_spec
from hybridwlp.odecert import certify_flow, falsify
from hybridwlp.vcgen import (
    CONFIG_KEYS,
    Lemma,
    Obligation,
    TimeQuant,
    VerifySpec,
    _WlpPass,
    _find_evolves,
    _replace_at,
    _with_context,
    dc_split,
    ds_closed_form,
    dw_check,
    eval_pred_ext,
    verify,
    wlp,
)

from test_hprog import random_discrete_program
from test_hwl_reference import rand_pred
from treepasses import outcome as call_outcome, ref_eval_pred_ext
from treewalk import ref_flow_at

x, v, y = Var("x"), Var("v"), Var("y")
t = TimeVar()
g, h, r = SymConst("g"), SymConst("h"), SymConst("r")

GOLDEN = Path(__file__).parent / "golden"

BALL_FIELD = VectorField({"x": v, "v": g})
BALL_FLOW = Flow({"x": g * t ** 2 / const(2) + v * t + x, "v": g * t + v})
BALL_GUARD = Cmp(">=", x, const(0))
BALL_I = And(
    Cmp("<=", const(0), x),
    Cmp("=", const(2) * g * x - const(2) * g * h - v * v, const(0)),
)
BALL_BODY = Seq(
    (
        Evolve(BALL_FIELD, BALL_GUARD, NONNEG, flow=BALL_FLOW),
        IfThenElse(Cmp("=", x, const(0)), Assign("v", -v), Skip()),
    )
)


def ball_spec(**overrides):
    base = dict(
        name="ball",
        vars=("x", "v"),
        consts=("g", "h"),
        assumptions=(Cmp("<", g, const(0)), Cmp(">=", h, const(0))),
        pre=And(Cmp("=", x, h), Cmp("=", v, const(0))),
        post=And(Cmp("<=", const(0), x), Cmp("<=", x, h)),
        program=Loop(BALL_BODY, BALL_I),
        const_ranges={"g": (-10.0, -0.5), "h": (0.5, 10.0)},
    )
    base.update(overrides)
    return VerifySpec(**base)


PEND_FIELD = VectorField({"x": y, "y": -x})
PEND_I = Cmp("=", x * x + y * y, r * r)


class TestWlpRules:
    def test_assign_substitutes(self):
        q = Cmp("=", const(Fraction(1, 2)) * v * v, g * (h - x))
        pred, obs = wlp(Assign("v", -v), q)
        assert obs == []
        assert pred == Cmp("=", const(Fraction(1, 2)) * Neg(v) * Neg(v), g * (h - x))

    def test_skip_is_identity(self):
        q = Cmp("<", x, h)
        assert wlp(Skip(), q) == (q, [])

    def test_seq_composes(self):
        q = Cmp("=", x, const(0))
        p1, p2 = Assign("x", x + 1), Assign("x", x * 2)
        whole, _ = wlp(Seq((p1, p2)), q)
        inner, _ = wlp(p2, q)
        outer, _ = wlp(p1, inner)
        assert whole == outer

    def test_choice_is_conjunction(self):
        q = Cmp("<", x, h)
        pred, _ = wlp(Choice((Skip(), Assign("x", x + 1))), q)
        assert isinstance(pred, And)

    def test_test_is_implication(self):
        q = Cmp("<", x, h)
        cond = Cmp(">", x, const(0))
        from hybridwlp.hprog import Test as TestNode

        pred, _ = wlp(TestNode(cond), q)
        assert pred == Or(Not(cond), q)

    def test_loop_returns_invariant_and_defers_premises(self):
        q = Cmp("<=", x, h)
        pred, obs = wlp(Loop(Assign("x", x + 1), Cmp("<=", x, h)), q)
        assert pred == Cmp("<=", x, h)
        tags = sorted(o.provenance.split("@")[0] for o in obs)
        assert tags == ["loop-post", "loop-preserve"]

    def test_evolve_flow_emits_certificate_and_quantifier(self):
        q = Cmp(">=", x, const(0))
        ev = Evolve(BALL_FIELD, BALL_GUARD, NONNEG, flow=BALL_FLOW)
        pred, obs = wlp(ev, q)
        assert isinstance(pred, TimeQuant)
        assert [o.kind for o in obs] == ["flow_cert"]
        # guard and post have the flow substituted in
        assert "g*t^2" in format_pred(pred.body) or "g*t" in format_pred(pred.body)

    def test_evolve_dinv_returns_invariant(self):
        q = Cmp(">=", x, const(0))
        ev = Evolve(BALL_FIELD, BALL_GUARD, NONNEG, dinv=BALL_I)
        pred, obs = wlp(ev, q)
        assert pred == BALL_I
        assert sorted(o.kind for o in obs) == ["arith", "diff_inv"]
        post_ob = next(o for o in obs if o.kind == "arith")
        assert post_ob.hyps == (BALL_I, BALL_GUARD)
        assert post_ob.concl == q

    def test_evolve_bare_is_opaque(self):
        ev = Evolve(BALL_FIELD, BALL_GUARD, NONNEG)
        pred, obs = wlp(ev, Cmp(">=", x, const(0)))
        assert pred == TRUE
        assert [o.kind for o in obs] == ["opaque"]

    def test_assignment_zeroing_a_denominator_is_opaque(self):
        q = Cmp(">", const(1) / x, const(0))
        pred, obs = wlp(Seq((Assign("x", const(2)), Assign("x", const(0)))), q)
        assert pred == TRUE
        assert [(o.kind, o.provenance, o.payload) for o in obs] == [
            ("opaque", "undefined-division@program.0",
             "wlp undefined: division by the constant zero")]
        # only the run that zeroes the denominator is replaced by true
        pred, obs = wlp(IfThenElse(Cmp(">", x, const(0)), Assign("x", const(0)),
                                   Assign("x", const(-1))), q)
        assert pred.lhs.rhs == TRUE and pred.rhs.rhs == Cmp(">", const(1) / const(-1), const(0))
        assert [o.provenance for o in obs] == ["undefined-division@program.then"]

    def test_nested_evolves_get_fresh_time_names(self):
        ev = Evolve(BALL_FIELD, BALL_GUARD, NONNEG, flow=BALL_FLOW)
        pred, _ = wlp(Seq((ev, ev)), Cmp(">=", x, const(0)))
        outer = pred
        assert isinstance(outer, TimeQuant)
        inner = outer.body
        assert isinstance(inner, TimeQuant)
        assert outer.t_name != inner.t_name


def _dag_and_tree_size(root):
    """(distinct node objects, tree size counting every occurrence)."""
    sizes = {}

    def size(n):
        if id(n) not in sizes:
            kids = [c for c in vars(n).values() if isinstance(c, (Expr, Pred))]
            sizes[id(n)] = 1 + sum(map(size, kids))
        return sizes[id(n)]

    tree = size(root)
    return len(sizes), tree


class TestWlpSharing:
    def test_sequential_ifs_build_a_linear_dag(self):
        # each if doubles the tree; its branches differ only under z, and
        # the assignments to x reach the shared copies once
        z = Var("z")
        q = And(Cmp(">=", x, const(0)), Cmp(">=", z, const(0)))
        counts = []
        for k in range(1, 11):
            items = []
            for i in range(k):
                items += [Assign("x", x + const(1)),
                          IfThenElse(Cmp(">", x, const(i)), Assign("z", x), Assign("z", -x))]
            pred, obs = wlp(Seq(tuple(items)), q)
            assert obs == []
            counts.append(_dag_and_tree_size(pred))
        dag = [d for d, _ in counts]
        # a bounded number of new nodes per two statements: 9 at most, and
        # fewer where equal subterms of the branches are one node
        assert all(0 < b - a <= 9 for a, b in zip(dag, dag[1:]))
        assert all(b >= 2 * a for (_, a), (_, b) in zip(counts, counts[1:]))  # 2^k


class TestVerifyStructure:
    def test_skip_spec_single_obligation(self):
        p = Cmp("=", x, const(0))
        spec = VerifySpec(name="s", vars=("x",), pre=p, post=p, program=Skip())
        obs = verify(spec)
        assert len(obs) == 1
        assert obs[0].hyps == (p,)
        assert obs[0].concl == p

    def test_ball_obligation_shape(self):
        obs = verify(ball_spec())
        tags = [o.provenance.split("@")[0] for o in obs]
        assert tags == ["pre-implies-wlp", "flow-cert", "loop-preserve", "loop-post"]
        main = obs[0]
        assert main.concl == BALL_I  # P => I with the loop invariant as wlp
        preserve = obs[2]
        assert BALL_I in preserve.hyps
        assert isinstance(preserve.concl, TimeQuant)
        post = obs[3]
        assert post.concl == ball_spec().post

    def test_pendulum_exactly_invariance_plus_trivial_implications(self):
        spec = VerifySpec(
            name="pend",
            vars=("x", "y"),
            consts=("r",),
            pre=PEND_I,
            post=PEND_I,
            program=Evolve(PEND_FIELD, TRUE, REALS, dinv=PEND_I),
        )
        obs = verify(spec)
        kinds = [o.kind for o in obs]
        assert kinds.count("diff_inv") == 1
        arith = [o for o in obs if o.kind == "arith"]
        assert len(arith) == 2
        for ob in arith:  # both are I => I up to the guard hypothesis
            assert ob.concl == PEND_I
            assert PEND_I in ob.hyps

    def test_assumptions_attach_to_every_obligation(self):
        obs = verify(ball_spec())
        for ob in obs:
            if ob.kind == "arith":
                assert Cmp("<", g, const(0)) in ob.hyps

    def test_undeclared_names_rejected(self):
        with pytest.raises(ValueError):
            VerifySpec(name="bad", vars=("x",), pre=Cmp("=", x, y), post=TRUE)

    def test_empty_const_range_rejected(self):
        # uniform(6, 1) would draw from [1, 6], outside the declared range
        with pytest.raises(ValueError, match="empty range for constant 'c'"):
            VerifySpec(name="bad", vars=("x",), consts=("c",), const_ranges={"c": (6.0, 1.0)})
        point = VerifySpec(name="ok", vars=("x",), consts=("c",), const_ranges={"c": (0.0, 0.0)})
        assert point.const_ranges == {"c": (0.0, 0.0)}

    def test_header_rules_hold_through_the_api(self):
        # the parser's header rules, for a spec built without the parser
        square, cube = Cmp(">=", x * x, const(0)), Cmp(">=", x * x * x, const(0))
        with pytest.raises(ValueError, match="^repeated lemma name 'a'$"):
            VerifySpec("p", ("x",), lemmas=(Lemma("a", (), square), Lemma("a", (), cube)))
        with pytest.raises(ValueError, match="^unknown config key 'trails'$"):
            VerifySpec("p", ("x",), config={"trails": 0})
        spec = VerifySpec("p", ("x",), lemmas=(Lemma("a", (), square), Lemma("b", (), cube)),
                          config=dict.fromkeys(sorted(CONFIG_KEYS), 1))
        assert [lemma.name for lemma in spec.lemmas] == ["a", "b"]
        assert sorted(spec.config) == ["fuel", "horizon", "lemma_trials", "seed", "step", "trials"]

    @pytest.mark.parametrize("header, kwargs, message", [
        ("vars x x", dict(vars=("x", "x")), "bad variable name 'x'"),
        ("vars x x consts x", dict(vars=("x", "x"), consts=("x",)), "bad variable name 'x'"),
        ("vars x consts x", dict(vars=("x",), consts=("x",)), "bad constant name 'x'"),
        ("vars x consts c, c", dict(vars=("x",), consts=("c", "c")), "bad constant name 'c'"),
        # the parser reads a keyword as no name at all
        (None, dict(vars=("x", "skip")), "bad variable name 'skip'"),
        (None, dict(vars=("x",), consts=("inf",)), "bad constant name 'inf'"),
        # the time symbol, in the parser's words too
        ("vars x t", dict(vars=("x", "t")), "bad variable name 't'"),
        ("vars x consts t", dict(vars=("x",), consts=("t",)), "bad constant name 't'"),
    ])
    def test_bad_names_rejected_in_the_parsers_words(self, header, kwargs, message):
        # a name that repeats, is a keyword, or is both a variable and a
        # constant; the program reads x as a constant where x is one
        program = Assign("x", SymConst("x") if "x" in kwargs.get("consts", ()) else x)
        with pytest.raises(ValueError, match=f"^{message}$"):
            VerifySpec("p", pre=Cmp("=", x, const(0)), post=Cmp(">=", x, const(0)),
                       program=program, **kwargs)
        if header is not None:
            with pytest.raises(ParseError, match=f": {message}$"):
                parse_spec(f"problem p {header} pre x = 0 post x >= 0 program x := x")

    def test_range_for_undeclared_constant_rejected(self):
        with pytest.raises(ValueError, match="^range for undeclared constant 'zz'$"):
            VerifySpec("p", ("x",), const_ranges={"zz": (0, 1)})
        with pytest.raises(ValueError, match="^range for undeclared constant 'zz'$"):
            VerifySpec("p", ("x",), consts=("c",), const_ranges={"c": (0, 1), "zz": (0, 1)})
        spec = VerifySpec("p", ("x",), consts=("c", "zz"), const_ranges={"zz": (0, 1)})
        assert spec.const_ranges == {"zz": (0, 1)}


class TestTimeQuantEvaluation:
    def test_matches_orbit_definition_on_ball(self):
        rng = random.Random(17)
        q = And(Cmp(">=", x, const(0)), Cmp("<=", x, h))
        ev = Evolve(BALL_FIELD, BALL_GUARD, NONNEG, flow=BALL_FLOW)
        pred, _ = wlp(ev, q)
        step, horizon = 0.25, 4.0
        for _ in range(1000):
            consts = {"g": rng.uniform(-3, -0.5), "h": rng.uniform(0.5, 3)}
            store = {"x": rng.uniform(-1, 3), "v": rng.uniform(-2, 2)}
            valuation = {**consts, **store}
            got = eval_pred_ext(pred, valuation, step=step, horizon=horizon)
            orbit = guarded_orbit_flow(
                BALL_FLOW, BALL_GUARD, NONNEG, store, step, consts, horizon
            )
            want = all(eval_pred(q, {**consts, **st}) for _, st in orbit)
            assert got == want

    def test_matches_orbit_definition_with_partly_undefined_guard(self):
        # exp overflows once v < -1.78, so the guard cannot be evaluated
        # along the later part of many orbits, and the orbit ends there
        rng = random.Random(19)
        guard = And(BALL_GUARD, Cmp(">", Exp(const(-400) * v), const(0)))
        q = And(Cmp(">=", x, const(0)), Cmp("<=", x, h))
        ev = Evolve(BALL_FIELD, guard, NONNEG, flow=BALL_FLOW)
        pred, _ = wlp(ev, q)
        step, horizon = 0.25, 4.0
        grid = NONNEG.grid(step, horizon)
        cut = 0
        for _ in range(1000):
            consts = {"g": rng.uniform(-3, -0.5), "h": rng.uniform(0.5, 3)}
            store = {"x": rng.uniform(-1, 3), "v": rng.uniform(-2, 2)}
            valuation = {**consts, **store}
            got = eval_pred_ext(pred, valuation, step=step, horizon=horizon)
            orbit = guarded_orbit_flow(BALL_FLOW, guard, NONNEG, store, step, consts, horizon)
            want = all(eval_pred(q, {**consts, **st}) for _, st in orbit)
            assert got == want
            if len(orbit) < len(grid):
                stop = ref_flow_at(BALL_FLOW, grid[len(orbit)], store, consts)
                try:
                    eval_pred(guard, {**consts, **stop})
                except EVAL_FAILURES:
                    cut += 1
        assert cut > 100

    def test_matches_orbit_definition_on_pendulum(self):
        rng = random.Random(23)
        flow = Flow(
            {"x": x * Cos(t) + y * Sin(t), "y": y * Cos(t) - x * Sin(t)}
        )
        q = Cmp("<=", x * x + y * y, const(9))
        ev = Evolve(PEND_FIELD, TRUE, NONNEG, flow=flow)
        pred, _ = wlp(ev, q)
        for _ in range(1000):
            store = {"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}
            got = eval_pred_ext(pred, store, step=0.5, horizon=3.0)
            orbit = guarded_orbit_flow(flow, TRUE, NONNEG, store, 0.5, {}, 3.0)
            want = all(eval_pred(q, st) for _, st in orbit)
            assert got == want

    def test_guard_conjunction_agrees(self):
        # boxing Q and boxing G and Q agree pointwise on samples
        rng = random.Random(31)
        q = Cmp("<=", x, h)
        ev = Evolve(BALL_FIELD, BALL_GUARD, NONNEG, flow=BALL_FLOW)
        p1, _ = wlp(ev, q)
        p2, _ = wlp(ev, And(BALL_GUARD, q))
        for _ in range(400):
            valuation = {
                "g": rng.uniform(-3, -0.5),
                "h": rng.uniform(0.5, 3),
                "x": rng.uniform(-1, 3),
                "v": rng.uniform(-2, 2),
            }
            a = eval_pred_ext(p1, valuation, step=0.25, horizon=4.0)
            b = eval_pred_ext(p2, valuation, step=0.25, horizon=4.0)
            assert a == b

    def test_monotonicity_on_discrete_programs(self):
        rng = random.Random(41)
        q1 = Cmp("<=", x, const(1))
        q2 = Cmp("<=", x, const(3))  # q1 implies q2
        for _ in range(80):
            prog = random_discrete_program(rng, 3)
            w1, _ = wlp(prog, q1)
            w2, _ = wlp(prog, q2)
            for _ in range(10):
                valuation = {
                    "x": float(rng.randint(-2, 2)),
                    "v": float(rng.randint(-2, 2)),
                }
                if eval_pred(w1, valuation):
                    assert eval_pred(w2, valuation)


class TestDiscreteSoundness:
    def test_wlp_matches_sampler_exhaustively(self):
        rng = random.Random(55)
        cfg = RunConfig()
        q = Or(Cmp("<=", x, const(1)), Cmp("=", v, const(0)))
        for _ in range(60):
            prog = random_discrete_program(rng, 3)
            pred, obs = wlp(prog, q)
            assert obs == []
            for xv in range(-2, 3):
                for vv in range(-2, 3):
                    store = {"x": float(xv), "v": float(vv)}
                    lhs = eval_pred(pred, store)
                    rhs = all(
                        eval_pred(q, s) for s in run_sampled(prog, store, cfg).states
                    )
                    assert lhs == rhs


class TestDlRules:
    def test_ds_closed_form_matches_golden(self):
        c = SymConst("c")
        guard = Cmp("<=", x, const(10))
        tq = ds_closed_form({"x": c}, guard, guard)
        golden = (GOLDEN / "ds_closed_form.txt").read_text().strip()
        assert format_pred(tq) == golden

    def test_ds_equals_generic_wlp_with_affine_flow(self):
        c = SymConst("c")
        guard = Cmp("<=", x, const(10))
        tq = ds_closed_form({"x": c}, guard, guard)
        ev = Evolve(
            VectorField({"x": c}), guard, NONNEG, flow=Flow({"x": x + c * t})
        )
        pred, _ = wlp(ev, guard)
        assert pred == tq

    def test_ds_rejects_nonconstant_field(self):
        with pytest.raises(ValueError):
            ds_closed_form({"x": x}, TRUE, TRUE)

    def test_dw_emits_guard_implies_post(self):
        ev = Evolve(BALL_FIELD, BALL_GUARD, NONNEG)
        ob = dw_check(ev, Cmp(">=", x, const(0)))
        assert ob.hyps == (BALL_GUARD,)
        assert ob.concl == Cmp(">=", x, const(0))

    def test_dw_rejects_non_evolve(self):
        with pytest.raises(TypeError):
            dw_check(Skip(), TRUE)

    def test_dc_split_strengthens_guard(self):
        cut = Cmp("=", const(2) * g * x - const(2) * g * h - v * v, const(0))
        spec = ball_spec()
        new_spec, obs = dc_split(spec, cut)
        evolves = [
            n
            for n in _walk(new_spec.program)
            if isinstance(n, Evolve)
        ]
        assert evolves[0].guard == And(BALL_GUARD, cut)
        kinds = sorted(o.kind for o in obs)
        assert kinds == ["arith", "diff_inv"]
        inv_ob = next(o for o in obs if o.kind == "diff_inv")
        assert inv_ob.payload.dinv == cut

    def test_dc_split_requires_evolve(self):
        spec = VerifySpec(name="s", vars=("x",), pre=TRUE, post=TRUE, program=Skip())
        with pytest.raises(ValueError):
            dc_split(spec, TRUE)


def _walk(p):
    yield p
    if isinstance(p, (Seq, Choice)):
        for q in p.items:
            yield from _walk(q)
    elif isinstance(p, IfThenElse):
        yield from _walk(p.then)
        yield from _walk(p.els)
    elif isinstance(p, Loop):
        yield from _walk(p.body)


def _random_hybrid_program(rng: random.Random, depth: int = 4):
    """Random program over x, v, y whose leaves include evolution commands
    with a flow, with an invariant and (not found by _find_evolves) without
    a field."""
    leaves = [
        Skip(),
        Assign("x", x + 1),
        Evolve(BALL_FIELD, BALL_GUARD, NONNEG, flow=BALL_FLOW),
        Evolve(PEND_FIELD, TRUE, REALS, dinv=PEND_I),
        Evolve(None, BALL_GUARD, NONNEG, flow=BALL_FLOW),
    ]
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    shape = rng.randrange(4)
    if shape < 2:
        items = tuple(_random_hybrid_program(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        return Seq(items) if shape == 0 else Choice(items)
    if shape == 2:
        return IfThenElse(
            Cmp("<", x, v),
            _random_hybrid_program(rng, depth - 1),
            _random_hybrid_program(rng, depth - 1),
        )
    return Loop(_random_hybrid_program(rng, depth - 1), TRUE)


def _node_at(p, path: str):
    """The node a path names, read off the path grammar step by step."""
    head, *steps = path.split(".")
    assert head == "program"
    for step in steps:
        if step.isdigit():
            p = p.items[int(step)]
        else:
            p = getattr(p, {"then": "then", "else": "els", "body": "body"}[step])
    return p


class TestProgramPaths:
    def test_find_and_replace_agree_on_random_programs(self):
        rng = random.Random(2024)
        marker = Evolve(PEND_FIELD, Cmp("<=", x, const(7)), REALS, dinv=PEND_I)
        checked = 0
        for _ in range(300):
            p = _random_hybrid_program(rng)
            found = list(_find_evolves(p))
            assert len(found) == sum(
                isinstance(n, Evolve) and n.field is not None for n in _walk(p)
            )
            for path, node in found:
                assert isinstance(node, Evolve) and node.field is not None
                assert _node_at(p, path) is node
                new = _replace_at(p, path, marker)
                assert _node_at(new, path) is marker
                # the rest of the program is as it was
                assert [e for e in found if e[0] != path] == [
                    e for e in _find_evolves(new) if e[0] != path
                ]
                assert _replace_at(new, path, node) == p
                checked += 1
        assert checked > 200


class TestObligationWellFormedness:
    def test_free_names_within_quantified_or_constants(self):
        from hybridwlp.expr import pred_free_names

        spec = ball_spec()
        for ob in verify(spec):
            names = set()
            for hh in ob.hyps:
                names |= pred_free_names(hh)
            names |= pred_free_names(ob.concl)
            assert names <= set(ob.forall) | set(spec.consts)


class TestEvolFlowCommand:
    def test_no_side_conditions(self):
        flow = Flow({"x": x + t})
        node = Evolve(None, Cmp(">=", x, const(0)), NONNEG, flow=flow)
        pred, obs = wlp(node, Cmp("<=", x, const(5)))
        assert obs == []
        assert isinstance(pred, TimeQuant)

    def test_needs_a_field_or_a_flow(self):
        with pytest.raises(ValueError, match="vector field or a flow"):
            Evolve(None, TRUE, NONNEG)

    def test_differential_cut_finds_no_target(self):
        node = Evolve(None, TRUE, NONNEG, flow=Flow({"x": x + t}))
        spec = VerifySpec(name="e", vars=("x",), program=node)
        with pytest.raises(ValueError, match="no evolution command"):
            dc_split(spec, TRUE)


class TestObligationSerialization:
    def test_json_fields(self):
        obs = verify(ball_spec())
        doc = obs[0].to_json()
        assert set(doc) == {"id", "forall", "hyps", "concl", "provenance", "kind"}
        assert doc["kind"] == "arith"
        assert "x" in doc["forall"] and "v" in doc["forall"]


def _downset_reference(tq: TimeQuant, valuation, step: float, horizon: float) -> bool:
    """Brute force over the grid {k*step} of a domain bounded below: every
    grid time t whose whole down-set grid satisfies the prefix satisfies the
    body.  A prefix that cannot be evaluated at tau does not hold there."""
    lo = tq.dom.lo
    top = min(horizon, tq.dom.hi)
    ks = range(math.floor(lo / step) - 1, math.ceil(top / step) + 2)
    times = [k * step for k in ks if lo - 1e-12 <= k * step <= top + 1e-12]

    def prefix_holds(tau):
        try:
            return eval_pred(tq.prefix, {**valuation, tq.tau_name: tau})
        except EVAL_FAILURES:
            return False

    return all(
        eval_pred(tq.body, {**valuation, tq.t_name: t})
        for t in times
        if all(prefix_holds(tau) for tau in times if tau <= t)
    )


def _random_rat(rng) -> Expr:
    return const(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))))


def _random_downset_quant(rng) -> TimeQuant:
    tau, end = Var("tau"), Var("t")

    def guard_atom():
        if rng.random() < 0.2:  # undefined where tau hits the pole
            return Cmp(">", const(1) / (tau - _random_rat(rng)), const(-4))
        lhs = _random_rat(rng) * tau + _random_rat(rng) * x + _random_rat(rng) * tau * tau
        return Cmp(rng.choice(("<", "<=", ">", ">=")), lhs, _random_rat(rng))

    prefix = guard_atom()
    for _ in range(rng.randint(0, 2)):
        prefix = (And if rng.random() < 0.5 else Or)(prefix, guard_atom())
    body = Cmp(rng.choice(("<", "<=", ">", ">=")),
               _random_rat(rng) * end + _random_rat(rng) * x, _random_rat(rng))
    lo = rng.choice((-math.inf, -3, -2, -1, Fraction(-3, 4), Fraction(-1, 3)))
    hi = math.inf if lo == -math.inf else rng.choice((0, Fraction(1, 2), 2, math.inf))
    return TimeQuant("t", "tau", TimeDomain(lo, hi), prefix, body)


class TestDownSetEvaluation:
    def test_matches_brute_force_down_set_with_negative_times(self):
        rng = random.Random(53)
        outcomes = set()
        declined = 0
        for _ in range(600):
            tq = _random_downset_quant(rng)
            step, horizon = rng.choice((0.25, 0.5)), rng.choice((2.0, 3.0))
            valuation = {"x": rng.uniform(-2, 2)}
            if tq.dom.lo == -math.inf:
                # the down-sets leave the grid, and no prefix here is true
                with pytest.raises(EvalError, match="unbounded below"):
                    eval_pred_ext(tq, valuation, step=step, horizon=horizon)
                declined += 1
                continue
            want = _downset_reference(tq, valuation, step, horizon)
            assert eval_pred_ext(tq, valuation, step=step, horizon=horizon) == want, tq
            outcomes.add(want)
        assert outcomes == {True, False} and declined


class TestGridEvaluatorSemantics:
    def test_negative_times_quantified_on_reals(self):
        tq = TimeQuant(
            t_name="t", tau_name="tau", dom=REALS, prefix=TRUE,
            body=Cmp(">=", x + Var("t"), const(-3)),
        )
        assert eval_pred_ext(tq, {"x": 0.0}, step=1.0, horizon=2.0)
        assert not eval_pred_ext(tq, {"x": 0.0}, step=1.0, horizon=5.0)

    def test_failed_prefix_shields_later_violations(self):
        tq = TimeQuant(
            t_name="t", tau_name="tau", dom=NONNEG,
            prefix=Cmp("<=", Var("tau"), const(2)),
            body=Cmp("<=", Var("t"), const(2)),
        )
        # beyond t = 2 the guard prefix fails, so the body there is moot
        assert eval_pred_ext(tq, {}, step=0.5, horizon=6.0)

    def test_body_violation_inside_guarded_prefix(self):
        tq = TimeQuant(
            t_name="t", tau_name="tau", dom=NONNEG,
            prefix=Cmp("<=", Var("tau"), const(4)),
            body=Cmp("<=", Var("t"), const(2)),
        )
        assert not eval_pred_ext(tq, {}, step=0.5, horizon=6.0)


# A user variable named like the binder of the second evolution command.
CAPTURE_PROBE = """problem probe_binder_capture
vars x t2
pre x = 0 & t2 = -1
post t2 >= 0
program
  evolve x' = 1 & true on [0,inf) flow x = x + t ;
  evolve x' = 1 & true on [0,inf) flow x = x + t
"""

# (assign c := b first?, post, verdict of the main obligation).  The flow
# moves only a, so b can share a name with a time binder: read by the post
# (case 0), by the precondition only (case 1), or by an assignment made
# after wlp chose the binders (case 2).
HYGIENE_CASES = [
    (False, lambda a, b, c: Cmp(">=", b, const(0)), "refuted"),
    (False, lambda a, b, c: Cmp(">=", c, const(0)), "refuted"),
    (True, lambda a, b, c: Cmp(">=", c, const(0)), "refuted"),
    (False, lambda a, b, c: Cmp("<=", a, const(1)), "refuted"),
    (False, lambda a, b, c: Cmp(">=", a, const(0)), "proved"),
    (True, lambda a, b, c: Cmp("<=", c, const(0)), "proved"),
]


def _hygiene_spec(names, case):
    """pre a = 0 & b = -1 & c = -1; [c := b;] twice evolve a' = 1 & a >= 0."""
    assign, post, _ = HYGIENE_CASES[case]
    a, b, c = (Var(n) for n in names)
    ev = Evolve(
        VectorField({names[0]: const(1)}), Cmp(">=", a, const(0)), NONNEG,
        flow=Flow({names[0]: a + t}),
    )
    program = Seq(((Assign(names[2], b),) if assign else ()) + (ev, ev))
    pre = And(Cmp("=", a, const(0)), And(Cmp("=", b, const(-1)), Cmp("=", c, const(-1))))
    return VerifySpec(
        name="hygiene", vars=names, pre=pre, post=post(a, b, c), program=program
    )


def _verdict_kinds(spec):
    kinds = []
    for ob in verify(spec):
        if ob.kind == "arith":
            kinds.append(discharge(ob).kind)
        else:
            ev = ob.payload
            kinds.append("proved" if certify_flow(ev.field, ev.flow, ev.dom).issued else "unknown")
    return kinds


def _expected_kinds(case):
    return [HYGIENE_CASES[case][2], "proved", "proved"]


class TestBinderHygiene:
    def test_capture_probe_refuted_and_falsified(self):
        spec = parse_spec(CAPTURE_PROBE)
        report = run_verify(spec)
        assert report["summary"]["exit"] == 2
        assert report["obligations"][0]["verdict"]["status"] == "refuted"
        assert falsify(spec) is not None

    @pytest.mark.parametrize("names", [("a", "b", "c"), ("a", "t2", "c"), ("tau2", "t2", "tau")])
    @pytest.mark.parametrize("case", range(len(HYGIENE_CASES)))
    def test_binder_named_user_variables(self, case, names):
        assert _verdict_kinds(_hygiene_spec(names, case)) == _expected_kinds(case)

    def test_binders_avoid_declared_names(self):
        # t2 is read only by the precondition, so the post alone would not
        # keep the second evolution's binder off it
        obs = verify(_hygiene_spec(("a", "t2", "c"), 1))
        assert obs[0].forall == ("a", "t2", "c", "t", "t3", "tau", "tau3")
        for ob in obs:
            assert len(set(ob.forall)) == len(ob.forall)

    @given(
        st.sampled_from(range(len(HYGIENE_CASES))),
        st.permutations(("x", "y", "t2", "t3", "t10", "tau", "tau2", "tau3")),
    )
    @settings(max_examples=40, deadline=None)
    def test_renaming_user_variables_keeps_verdicts(self, case, pool):
        spec = _hygiene_spec(tuple(pool[:3]), case)
        assert _verdict_kinds(spec) == _expected_kinds(case)

    def test_time_symbol_reserved_in_api(self):
        # a flow binds t to the time, so a store variable t would be
        # silently replaced along every orbit
        tv = Var("t")
        with pytest.raises(ValueError, match="bad variable name 't'"):
            VerifySpec(
                name="reserved",
                vars=("x", "t"),
                pre=And(Cmp("=", x, const(0)), Cmp("=", tv, const(5))),
                post=Cmp("=", tv, const(5)),
                program=Evolve(
                    VectorField({"x": const(1), "t": const(0)}), TRUE, NONNEG,
                    flow=Flow({"x": x + t, "t": tv}),
                ),
            )
        with pytest.raises(ValueError, match="bad constant name 't'"):
            VerifySpec(name="reserved", vars=("x",), consts=("t",))


class TestApiProgramNames:
    """Through the API, as through the parser, a program writes only
    declared variables and reads only declared names (and the time symbol),
    so every store of a run has the keys of the start store."""

    c = SymConst("c")

    @pytest.mark.parametrize("program, message", [
        # a flow of an undeclared y made falsify's stores gain a key y mid-run
        (Seq((Evolve(None, TRUE, TimeDomain(0, 1), flow=Flow({"y": x + t})),
              IfThenElse(Cmp(">", y, const(0)), Assign("x", const(-1)), Skip()))),
         "flow of undeclared variable 'y'"),
        (Assign("z", Var("w")), "assignment to undeclared variable 'z'"),
        (Assign("x", Var("w")), r"assignment to 'x' reads undeclared names \['w'\]"),
        (Assign("c", const(1)), "assignment to undeclared variable 'c'"),  # a constant
        (Test(Cmp(">", y, const(0))), r"test reads undeclared names \['y'\]"),
        (IfThenElse(Cmp(">", SymConst("k"), x), Skip(), Skip()),
         r"branch condition reads undeclared names \['k'\]"),
        (Loop(Skip(), Cmp(">=", y, const(0))), r"loop invariant reads undeclared names \['y'\]"),
        (Evolve(VectorField({"x": const(1)}), Cmp(">=", y, const(0)), NONNEG),
         r"guard reads undeclared names \['y'\]"),
        (Evolve(VectorField({"x": const(1), "y": x}), TRUE, NONNEG),
         "field of undeclared variable 'y'"),
        (Evolve(VectorField({"x": SymConst("k")}), TRUE, NONNEG),
         r"field of 'x' reads undeclared names \['k'\]"),
        (Evolve(VectorField({"x": const(1)}), TRUE, NONNEG,
                flow=Flow({"x": x + SymConst("k") * t})),
         r"flow of 'x' reads undeclared names \['k'\]"),
        (Evolve(VectorField({"x": const(1)}), TRUE, NONNEG, dinv=Cmp(">=", x, Var("w"))),
         r"dinv reads undeclared names \['w'\]"),
        # nested under a choice and a loop body, found without recursion
        (Choice((Skip(), Loop(Seq((Skip(), Assign("w", x))), TRUE))),
         "assignment to undeclared variable 'w'"),
    ], ids=["flow-writes", "assign-writes", "assign-reads", "assign-to-constant", "test",
            "branch", "invariant", "guard", "field-writes", "field-reads", "flow-reads", "dinv",
            "nested"])
    def test_undeclared_names_are_rejected(self, program, message):
        with pytest.raises(ValueError, match=message):
            VerifySpec(name="p", vars=("x",), consts=("c",), pre=Cmp("=", x, const(0)),
                       post=Cmp(">=", x, const(0)), program=program)

    def test_declared_names_and_the_time_symbol_are_accepted(self):
        program = Seq((
            Assign("x", x + self.c + t),
            Evolve(VectorField({"x": self.c}), Cmp(">=", x, const(0)), NONNEG,
                   flow=Flow({"x": x + self.c * t})),
            Loop(Test(Cmp("<=", x, self.c)), Cmp(">=", x, const(0))),
        ))
        spec = VerifySpec(name="p", vars=("x",), consts=("c",), program=program)
        assert spec.program is program

    def test_a_chain_deeper_than_the_recursion_limit_is_checked(self):
        program = Seq((Assign("x", x + const(1)),))
        for _ in range(3000):
            program = Seq((program, Skip()))
        VerifySpec(name="p", vars=("x",), program=program)
        with pytest.raises(ValueError, match="undeclared variable 'y'"):
            VerifySpec(name="p", vars=("x",), program=Seq((program, Assign("y", x))))


# ---------------------------------------------------------------------------
# A run of assignments is one simultaneous substitution


class _SequentialWlp(_WlpPass):
    """Reference fold: one substitute_pred per assignment, item by item."""

    def wlp(self, p, q, path):
        if isinstance(p, Assign):
            return substitute_pred(q, {p.var: p.expr})
        if isinstance(p, Seq):
            for i in reversed(range(len(p.items))):
                q = self.wlp(p.items[i], q, f"{path}.{i}")
            return q
        return super().wlp(p, q, path)


def _sequential_verify(spec):
    run = _SequentialWlp(set(spec.vars) | set(spec.consts))
    pred = run.wlp(spec.program, spec.post, "program")
    main = Obligation("ob0", (), (spec.pre,), pred, "pre-implies-wlp@program")
    return [_with_context(ob, spec) for ob in [main] + run.obligations]


RUN_ASSIGNS = [
    Assign("x", x + 1),
    Assign("v", v + x),
    Assign("x", x * v),
    Assign("v", -v),
    Assign("y", x - v),
    Assign("x", y + const(2)),
    Assign("y", x + t),  # the time symbol: a term an evolution's binder t captures
]
DRIFT = Evolve(VectorField({"x": v, "v": const(0)}), Cmp(">=", x, const(0)), NONNEG,
               flow=Flow({"x": x + v * t}))
RUN_EVOLVES = [
    DRIFT,
    Evolve(BALL_FIELD, BALL_GUARD, NONNEG, flow=BALL_FLOW),
    Evolve(VectorField({"y": const(1)}), TRUE, REALS, flow=Flow({"y": y + t})),
]


def _random_run_program(rng: random.Random, depth: int = 2):
    """A sequence of assignment runs, evolution commands with a flow, small
    discrete programs and ifs over such sequences."""
    items = []
    for _ in range(rng.randint(1, 5)):
        shape = rng.random()
        if shape < 0.45:
            items += [rng.choice(RUN_ASSIGNS) for _ in range(rng.randint(1, 4))]
        elif shape < 0.7:
            items.append(rng.choice(RUN_EVOLVES))
        elif shape < 0.85 or depth == 0:
            items.append(random_discrete_program(rng, 2))
        else:
            items.append(IfThenElse(Cmp("<", x, v), _random_run_program(rng, depth - 1),
                                    _random_run_program(rng, depth - 1)))
    return Seq(tuple(items))


class TestAssignmentRuns:
    def test_verify_matches_one_substitution_per_assignment(self, monkeypatch):
        renames = []
        fresh = expr_module.fresh_time_binders
        monkeypatch.setattr(expr_module, "fresh_time_binders",
                            lambda avoid, k: renames.append(k) or fresh(avoid, k))
        rng = random.Random(71)
        posts = [Cmp(">=", x, const(0)), And(Cmp("<=", x, v), Cmp(">", y, g)), TRUE]
        quantified = 0
        for _ in range(100):
            spec = VerifySpec(
                name="runs", vars=("x", "v", "y"), consts=("g", "h"),
                pre=Cmp("=", x, h), post=rng.choice(posts),
                program=_random_run_program(rng),
            )
            got = verify(spec)
            assert got == _sequential_verify(spec)
            quantified += bool(got[0].forall[3:])
        assert quantified and renames  # binders were renamed apart from y := x + t

    @pytest.mark.parametrize("run, renamed", [
        # both terms land under the second evolution's binders t2/tau2
        ((Assign("v", Var("t2") + const(1)), Assign("y", Var("t2")), DRIFT,
          Assign("x", x + y)), True),
        # y is not free under them, so its term t2 renames nothing
        ((Assign("y", Var("t2")), Assign("v", v + const(1))), False),
    ])
    def test_assigned_term_mentioning_a_binder(self, run, renamed):
        # wlp() reserves no names, so a binder may be a name a term reads
        program = Seq(run + (DRIFT, DRIFT))
        q = Cmp("<=", x, const(3))
        got, _ = wlp(program, q)
        assert got == _SequentialWlp().wlp(program, q, "program")
        assert isinstance(got, TimeQuant) and (got.t_name != "t2") == renamed


class TestGridEvaluatorMatchesRecursiveReference:
    """eval_pred_ext decides on one stack; tests/treepasses.py keeps its
    recursive form.  Values and exceptions must agree."""

    def test_random_predicates(self):
        rng = random.Random(26)
        seen = set()
        for _ in range(700):
            parts = [rand_pred(rng, rng.randint(0, 3)), _random_downset_quant(rng)]
            p = parts[rng.randrange(2)]
            if rng.random() < 0.5:
                p = rng.choice((And, Or))(*(parts if rng.random() < 0.5 else parts[::-1]))
            if rng.random() < 0.3:
                p = Not(p)
            val = {"x": rng.uniform(-2, 2), "c": rng.uniform(-2, 2)}
            if rng.random() < 0.7:
                val["y"] = rng.choice((0.0, rng.uniform(-2, 2)))
            step, horizon = rng.choice((0.5, 1.0)), rng.choice((1.0, 2.0))
            got = call_outcome(eval_pred_ext, p, val, step, horizon)
            assert got == call_outcome(ref_eval_pred_ext, p, val, step, horizon), p
            seen.add(got[1] if got[0] == "value" else got[1].__name__)
        assert seen >= {True, False, "EvalError", "TypeError"}

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        tq = TimeQuant("t", "tau", NONNEG, TRUE, Cmp("<=", Var("t"), x))
        p = Cmp(">=", x, const(0))
        for i in range(3000):  # x >= 0 & tq & tq ...
            p = Or(FALSE, p) if i % 2 else Not(Not(And(p, tq)))
        assert eval_pred_ext(p, {"x": 3.0}, step=1.0, horizon=2.0)
        assert not eval_pred_ext(p, {"x": 1.0}, step=1.0, horizon=2.0)  # 2 <= x fails
