import copy
import dataclasses
import gc
import math
import pickle
import random
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hybridwlp import expr as expr_module, sampling
from hybridwlp.expr import (
    CMP_OPS,
    FALSE,
    Add,
    And,
    Cmp,
    Const,
    Cos,
    Div,
    EvalError,
    Exp,
    Expr,
    FalsePred,
    KernelWriter,
    Mul,
    Neg,
    Not,
    Or,
    Pow,
    Pred,
    Sin,
    Sub,
    SymConst,
    TRUE,
    TimeQuant,
    TimeVar,
    TruePred,
    Var,
    ZERO,
    const,
    children,
    diff,
    eval_pred,
    evaluate,
    free_consts,
    free_names,
    free_vars,
    fresh_time_binders,
    lie_derivative,
    memo_kernel,
    nnf,
    pred_bound_names,
    pred_free_names,
    substitute,
    substitute_pred,
    subterms,
    uses_time,
)
from hybridwlp.hprog import NONNEG, TimeDomain
from hybridwlp.hwl import parse_pred
from hybridwlp.polynorm import atom_form, expr_eq, normalize
from structural import ref_equal
from treepasses import outcome, ref_diff, ref_free_names, ref_nnf, ref_pred_bound_names
from treewalk import ref_eval_pred, ref_evaluate

x, y, v = Var("x"), Var("y"), Var("v")
t = TimeVar()
g, h, c = SymConst("g"), SymConst("h"), SymConst("c")


class TestEval:
    def test_constant(self):
        assert evaluate(const(5), {}) == 5.0

    def test_pythagorean(self):
        val = evaluate(Sin(t) ** 2 + Cos(t) ** 2, {"t": 0.37})
        assert abs(val - 1.0) <= 1e-12

    def test_ball_position(self):
        e = g * t ** 2 / const(2) + v * t + x
        assert evaluate(e, {"g": -1, "t": 2, "v": 3, "x": 0}) == 4.0

    def test_unbound_name(self):
        with pytest.raises(EvalError):
            evaluate(x + y, {"x": 1.0})

    def test_division_by_zero_reports_subterm(self):
        bad = x / (y - y)
        with pytest.raises(EvalError) as err:
            evaluate(bad, {"x": 1.0, "y": 2.0})
        assert err.value.subterm is not None

    def test_structural_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            x / const(0)

    def test_pow_exponent_natural(self):
        with pytest.raises(ValueError):
            x ** -1


class TestDiff:
    def test_square(self):
        assert expr_eq(diff(t ** 2, "t"), const(2) * t).is_equal

    def test_mixed_polynomial_transcendental(self):
        # d/dt (a5*t^5 + a3*(t^3/c) - a2*exp(t^2) + a1*cos t + a0)
        a5, a3, a2, a1, a0 = (SymConst(f"a{i}") for i in (5, 3, 2, 1, 0))
        e = a5 * t ** 5 + a3 * (t ** 3 / c) - a2 * Exp(t ** 2) + a1 * Cos(t) + a0
        expected = (
            const(5) * a5 * t ** 4
            + const(3) * a3 * (t ** 2 / c)
            - const(2) * a2 * t * Exp(t ** 2)
            - a1 * Sin(t)
        )
        assert expr_eq(diff(e, "t"), expected).is_equal

    def test_rotation_flow_component(self):
        got = diff(x * Cos(t) + y * Sin(t), "t")
        assert expr_eq(got, -(x * Sin(t)) + y * Cos(t)).is_equal

    def test_symconst_derivative_zero(self):
        assert normalize(diff(g, "t")).is_zero()

    def test_quotient_rule_general(self):
        e = x / (x + const(1))
        want = const(1) / (x + const(1)) ** 2
        assert expr_eq(diff(e, "x"), want).kind in ("equal", "unknown")
        # numeric check away from the pole
        got = evaluate(diff(e, "x"), {"x": 2.0})
        assert abs(got - 1.0 / 9.0) <= 1e-12


REGRESSION_EXPRS = [
    g * t ** 2 / const(2) + v * t + x,
    x * Cos(t) + y * Sin(t),
    const(Fraction(1, 2)) * v ** 2 - g * (h - x),
    Exp(x) * Sin(y) + x ** 3 * y,
    (x + y) ** 4 - x * y,
    x / c + Cos(x * y),
]


def _central_diff(e, wrt, valuation, step=1e-5):
    up = dict(valuation)
    dn = dict(valuation)
    up[wrt] += step
    dn[wrt] -= step
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * step)


class TestDiffAgainstFiniteDifferences:
    @pytest.mark.parametrize("expr", REGRESSION_EXPRS)
    def test_regression_set(self, expr):
        import random

        rng = random.Random(7)
        from hybridwlp.expr import free_names, free_vars, uses_time

        names = sorted(free_names(expr))
        wrt_names = sorted(free_vars(expr)) + (["t"] if uses_time(expr) else [])
        for _ in range(40):
            valuation = {n: rng.uniform(-2.0, 2.0) for n in names}
            if "c" in valuation and abs(valuation["c"]) < 0.2:
                valuation["c"] = 1.0
            for wrt in wrt_names:
                try:
                    symbolic = evaluate(diff(expr, wrt), valuation)
                    numeric = _central_diff(expr, wrt, valuation)
                except EvalError:
                    continue
                if abs(symbolic) > 1e6:
                    continue
                assert abs(symbolic - numeric) <= 1e-5 * (1.0 + abs(symbolic))


class TestLieDerivative:
    def test_ball_energy(self):
        # kinetic-energy rate along fall: matches -g*v
        lie = lie_derivative(const(Fraction(1, 2)) * v ** 2, {"x": v, "v": -g})
        assert expr_eq(lie, -(g * v)).is_equal

    def test_rotation_radius_cancels(self):
        lie = lie_derivative(x ** 2 + y ** 2, {"x": y, "y": -x})
        assert normalize(lie).is_zero()

    def test_constant_is_zero(self):
        assert normalize(lie_derivative(const(3), {"x": y, "y": -x})).is_zero()

    def test_time_rejected(self):
        with pytest.raises(ValueError):
            lie_derivative(x + t, {"x": x})

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            lie_derivative(x + y, {"x": x})


class TestSubstitute:
    def test_flip_squares(self):
        q = Cmp("=", v ** 2, c)
        out = substitute_pred(q, {"v": -v})
        assert out == Cmp("=", (-v) ** 2, c)

    def test_empty(self):
        assert substitute(x + y, {}) == x + y

    def test_simultaneous_swap(self):
        assert substitute(x + y, {"x": y, "y": x}) == y + x

    def test_eval_commutes(self):
        import random

        rng = random.Random(3)
        e = x * y + x ** 2
        u = y + const(1)
        for _ in range(50):
            valuation = {"x": rng.uniform(-3, 3), "y": rng.uniform(-3, 3)}
            lhs = evaluate(substitute(e, {"x": u}), valuation)
            rhs = evaluate(e, {**valuation, "x": evaluate(u, valuation)})
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def _quant(t_name, tau_name, prefix, body):
    return TimeQuant(t_name, tau_name, NONNEG, prefix, body)


class TestTimeQuantBinders:
    # for all t2 >= 0 (guard x + tau2 >= 0 on the prefix): y <= x + t2
    TQ = _quant(
        "t2", "tau2",
        Cmp(">=", x + Var("tau2"), const(0)),
        Cmp("<=", y, x + Var("t2")),
    )

    def test_free_names_exclude_binders(self):
        assert pred_free_names(self.TQ) == {"x", "y"}
        assert pred_bound_names(And(self.TQ, Cmp("=", x, y))) == {"t2", "tau2"}

    def test_binder_shadows_substitution(self):
        assert substitute_pred(self.TQ, {"t2": const(7), "tau2": const(7)}) == self.TQ

    def test_substitution_without_capture_keeps_binders(self):
        out = substitute_pred(self.TQ, {"y": Var("z")})
        assert out == _quant(
            "t2", "tau2", self.TQ.prefix, Cmp("<=", Var("z"), x + Var("t2"))
        )

    def test_captured_binders_are_renamed_apart(self):
        # y := t2 must mean the free t2, not the bound end time
        out = substitute_pred(self.TQ, {"y": Var("t2"), "x": Var("t3")})
        assert (out.t_name, out.tau_name) == ("t4", "tau4")
        assert out.prefix == Cmp(">=", Var("t3") + Var("tau4"), const(0))
        assert out.body == Cmp("<=", Var("t2"), Var("t3") + Var("t4"))
        assert pred_free_names(out) == {"t2", "t3"}

    def test_a_term_for_a_name_not_free_here_renames_nothing(self):
        # w is not free in TQ, so its term t2 never lands under the binders
        out = substitute_pred(self.TQ, {"y": Var("z"), "w": Var("t2")})
        assert out == substitute_pred(self.TQ, {"y": Var("z")})
        assert (out.t_name, out.tau_name) == ("t2", "tau2")

    def test_renaming_reaches_nested_binders(self):
        nested = _quant("t", "tau", TRUE, And(self.TQ, Cmp(">=", Var("t"), y)))
        out = substitute_pred(nested, {"y": Var("t")})
        # the outer binder becomes t2; the inner quantifier does not read
        # it, so the inner t2 stays and shadows it
        inner = _quant("t2", "tau2", self.TQ.prefix, Cmp("<=", Var("t"), x + Var("t2")))
        assert out == _quant("t2", "tau2", TRUE, And(inner, Cmp(">=", Var("t2"), Var("t"))))
        # an inner quantifier that reads the outer end time moves on to t3
        reads_outer = _quant("t2", "tau2", self.TQ.prefix, Cmp("<=", y, Var("t") + Var("t2")))
        nested = _quant("t", "tau", TRUE, reads_outer)
        out = substitute_pred(nested, {"y": Var("t")})
        inner = _quant(
            "t3", "tau3",
            Cmp(">=", x + Var("tau3"), const(0)),
            Cmp("<=", Var("t"), Var("t2") + Var("t3")),
        )
        assert out == _quant("t2", "tau2", TRUE, inner)


class TestNnf:
    def test_flip_lt(self):
        assert nnf(Not(Cmp("<", x, y))) == Cmp(">=", x, y)

    def test_de_morgan(self):
        p = Not(And(Cmp("<", x, y), Cmp("=", x, y)))
        assert nnf(p) == Or(Cmp(">=", x, y), Cmp("!=", x, y))

    def test_double_negation(self):
        assert nnf(Not(Not(Cmp("=", x, y)))) == Cmp("=", x, y)

    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_preserves_evaluation(self, a, b):
        p = Not(Or(And(Cmp("<", x, y), Not(Cmp("=", x, const(0)))), Cmp(">=", y, x)))
        valuation = {"x": float(a), "y": float(b)}
        assert eval_pred(p, valuation) == eval_pred(nnf(p), valuation)


class TestLieAgainstTrajectory:
    def test_matches_rk4_derivative_at_time_zero(self):
        # directional derivative along the field equals the time derivative
        # of the observable along an integrated trajectory
        import random

        from hybridwlp.hprog import VectorField
        from hybridwlp.odecert import rk4_integrate

        rng = random.Random(19)
        cases = [
            (
                {"x": v, "v": -g},
                const(Fraction(1, 2)) * v ** 2,
                {"g": 1.3},
            ),
            ({"x": y, "y": -x}, x ** 2 + y ** 2, {}),
            ({"x": y, "y": -x}, x * y + x ** 3, {}),
        ]
        for comps, mu, consts in cases:
            field = VectorField(comps)
            lie = lie_derivative(mu, comps)
            for _ in range(30):
                s = {k: rng.uniform(-1.5, 1.5) for k in comps}
                step = 1e-4
                traj, _ = rk4_integrate(field, s, step, 2, consts)
                vals = [evaluate(mu, {**consts, **st}) for _, st in traj]
                numeric = (vals[2] - vals[0]) / (2 * step)  # central at t=step
                mid = traj[1][1]
                symbolic = evaluate(lie, {**consts, **mid})
                assert abs(symbolic - numeric) <= 1e-4 * (1 + abs(symbolic))


# ---------------------------------------------------------------------------
# Kernel evaluation against the reference tree walk (tests/treewalk.py)


_NAMES = ("x", "y", "g")
_LEAVES = ("const", "var", "symconst", "time")
_INNER = ("neg", "add", "sub", "mul", "div", "pow", "sin", "cos", "exp")


def _random_expr(rng, depth):
    kind = rng.choice(_LEAVES if depth == 0 else _LEAVES + _INNER + _INNER)
    if kind == "const":
        value = Fraction(rng.randint(-400, 400), rng.randint(1, 4))
        if rng.random() < 0.02:
            value *= 10 ** 400  # out of float range
        return const(value)
    if kind == "var":
        return Var(rng.choice(_NAMES[:2]))
    if kind == "symconst":
        return SymConst("g")
    if kind == "time":
        return t
    d = depth - 1
    if kind == "neg":
        return Neg(_random_expr(rng, d))
    if kind in ("add", "sub", "mul"):
        return {"add": Add, "sub": Sub, "mul": Mul}[kind](_random_expr(rng, d), _random_expr(rng, d))
    if kind == "div":
        den = _random_expr(rng, d)
        while isinstance(den, Const) and den.value == 0:
            den = _random_expr(rng, d)
        return Div(_random_expr(rng, d), den)
    if kind == "pow":
        return Pow(_random_expr(rng, d), rng.randint(0, 40))
    return {"sin": Sin, "cos": Cos, "exp": Exp}[kind](_random_expr(rng, d))


def _random_pred(rng, depth):
    kind = rng.choice(("cmp", "cmp", "true", "false") if depth == 0
                      else ("cmp", "and", "or", "not"))
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "cmp":
        return Cmp(rng.choice(CMP_OPS), _random_expr(rng, 2), _random_expr(rng, 2))
    if kind == "not":
        return Not(_random_pred(rng, depth - 1))
    return (And if kind == "and" else Or)(
        _random_pred(rng, depth - 1), _random_pred(rng, depth - 1))


def _random_valuation(rng):
    val = {}
    for name in _NAMES + ("t",):
        roll = rng.random()
        if roll < 0.1:
            continue  # unbound
        if roll < 0.2:
            val[name] = 0
        elif roll < 0.3:
            val[name] = rng.choice((1e300, -1e300, 750.0))
        else:
            val[name] = rng.uniform(-3.0, 3.0)
    return val


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (EvalError, OverflowError, ValueError, TypeError) as exc:
        return "raise", exc


def _assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "value":
        a, b = got[1], want[1]
        assert a == b or (math.isnan(a) and math.isnan(b)), (a, b)
        return
    a, b = got[1], want[1]
    assert type(a) is type(b) and str(a) == str(b), (a, b)
    if isinstance(b, EvalError):
        # a term equal to an earlier one runs the earlier one's kernel
        assert a.subterm == b.subterm


class TestCompiledEvaluation:
    def test_matches_reference_walk_on_random_trees(self):
        rng = random.Random(4)
        kinds, raised = set(), set()
        for _ in range(400):
            e = _random_expr(rng, rng.randint(0, 5))
            kinds |= {type(s) for s in subterms(e)}
            for _ in range(6):
                val = _random_valuation(rng)
                got = _outcome(evaluate, e, val)
                _assert_same(got, _outcome(ref_evaluate, e, val))
                if got[0] == "raise":
                    raised.add(type(got[1]))
        assert len(kinds) == 13  # every Expr node type was exercised
        assert raised == {EvalError, OverflowError, ValueError}

    def test_predicates_match_reference_walk(self):
        rng = random.Random(5)
        for _ in range(300):
            p = _random_pred(rng, rng.randint(0, 3))
            for _ in range(4):
                val = _random_valuation(rng)
                tol = rng.choice((0.0, 1e-7, 0.5))
                _assert_same(_outcome(eval_pred, p, val, tol),
                             _outcome(ref_eval_pred, p, val, tol))

    def test_out_of_range_constant_raises_when_reached(self):
        huge = const(10 ** 400)
        p = Or(Cmp("<=", x, const(0)), Cmp(">=", x, huge))
        assert eval_pred(p, {"x": -1.0}) is True
        with pytest.raises(OverflowError):
            eval_pred(p, {"x": 1.0})
        with pytest.raises(EvalError, match="unbound name 'x'") as info:
            evaluate(x + huge, {})
        assert info.value.subterm == x

    def test_and_short_circuits(self):
        p = And(Cmp("<", x, const(0)), Cmp(">", const(1) / x, const(0)))
        assert eval_pred(p, {"x": 0.0}) is False

    def test_or_short_circuits(self):
        p = Or(Cmp(">=", x, const(0)), Cmp(">", const(1) / x, const(0)))
        assert eval_pred(p, {"x": 0.0}) is True

    def test_time_quant_is_a_type_error(self):
        q = TimeQuant("t", "tau", NONNEG, TRUE, Cmp(">=", x, const(0)))
        with pytest.raises(TypeError, match="not a Pred node"):
            eval_pred(q, {"x": 1.0})
        # reached only when the walk gets there, as before
        assert eval_pred(And(FALSE, q), {}) is False

    def test_non_node_is_a_type_error_when_reached(self):
        with pytest.raises(TypeError, match="not an Expr node: 5"):
            evaluate(Add(x, 5), {"x": 1.0})
        with pytest.raises(EvalError):  # the walk fails on x before reaching 5
            evaluate(Add(x, 5), {})
        with pytest.raises(TypeError, match="not a Pred node"):
            eval_pred(And(TRUE, x), {"x": 1.0})

    def test_one_kernel_per_value(self, monkeypatch):
        written = []
        write = expr_module.expr_kernel

        def counting(e, bound):
            written.append((e, bound))
            return write(e, bound)

        monkeypatch.setattr(expr_module, "expr_kernel", counting)
        e = Add(Var("kx"), Var("ky"))
        assert evaluate(e, {"kx": 1.0, "ky": 2.0}) == 3.0
        # an equal term under another dict with the same keys
        assert evaluate(Add(Var("kx"), Var("ky")), {"ky": 4.0, "kx": 3.0}) == 7.0
        assert evaluate(Add(Var("kx"), Var("ky")), {"kx": 3.0, "ky": 4.0, "z": 0.0}) == 7.0
        assert len(written) == 1 and written[0][0] is e
        # binding fewer names is another kernel, whose loads raise
        with pytest.raises(EvalError, match="unbound name 'ky'"):
            evaluate(e, {"kx": 1.0})
        assert [bound for _, bound in written] == [written[0][1], ("kx",)]
        huge = const(10 ** 400)
        assert memo_kernel(expr_module.expr_kernel, huge, ()) is memo_kernel(
            expr_module.expr_kernel, const(10 ** 400), ())

    def test_two_parses_share_one_kernel(self, monkeypatch):
        written = []
        write = expr_module.pred_kernel

        def counting(p, bound):
            written.append(p)
            return write(p, bound)

        monkeypatch.setattr(expr_module, "pred_kernel", counting)
        text = "kx * kx + 1 > kx | kx = 7/2"
        first, second = (parse_pred(text, ("kx",), ()) for _ in range(2))
        assert first is second  # two parses give one term
        assert eval_pred(first, {"kx": 3.5}) is True
        assert eval_pred(second, {"kx": -1.0}) is True
        assert written == [first]

    def test_compiled_node_equals_fresh_node(self):
        a, b = Cmp("<=", x * x, y + const(1)), Cmp("<=", x * x, y + const(1))
        eval_pred(a, {"x": 1.0, "y": 1.0})
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.lhs == b.lhs and hash(a.lhs) == hash(b.lhs)



def _deep_ref(p, val, tol):
    """The reference walk's outcome on a predicate deeper than the default
    recursion limit allows it, under a raised limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 3000)
    try:
        return _outcome(ref_eval_pred, p, val, tol)
    finally:
        sys.setrecursionlimit(limit)


def _fold(kinds, parts, left):
    """parts joined by kinds[i % len(kinds)] in turn, nested to the left
    (((a & b) | c) ...) or to the right (a & (b | (c ...)))."""
    if left:
        out = parts[0]
        for i, q in enumerate(parts[1:]):
            out = kinds[i % len(kinds)](out, q)
        return out
    out = parts[-1]
    for i, q in enumerate(reversed(parts[:-1])):
        out = kinds[i % len(kinds)](q, out)
    return out


def _chain_atoms(n, holds):
    """n comparisons over x and y that all hold (holds) or all fail at x = 1/2,
    y = 3, some by tolerance, then one that divides by x - y."""
    atoms = []
    for k in range(n - 1):
        if k % 3 == 0:
            atoms.append(Cmp(">=" if holds else "<", x + const(k), const(0)))
        elif k % 3 == 1:
            atoms.append(Cmp("=" if holds else "!=", x * const(k) + y, y + const(k) * x))
        else:
            atoms.append(Not(Cmp("<" if holds else ">=", Exp(x) * const(k), const(-1))))
    atoms.append(Cmp(">", const(1) / (x - y), const(0)))
    return atoms


class _Counted(float):
    """A float that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return float(self) * other

    __rmul__ = __mul__


class TestLoopInvariants:
    """KernelWriter.invariant: a float +, -, * or unary - of fixed values,
    asked for inside a loop opened at the top level, is computed once
    before that loop, in the order first asked for, and shared."""

    def test_computed_once_before_the_loop_and_shared(self):
        w = KernelWriter()
        w.fixed("h")
        c = w.expr(SymConst("c"), {"c": "cv"}, {})  # a top-level load: fixed
        assert w.invariant("{0} * {1}", "h", c) is None  # no loop is open
        w.line("acc = 0.0")
        w.begin("for _ in range(n):")
        p = w.invariant("{0} * {1}", "h", c)
        assert p is not None and w.invariant("{0} * {1}", "h", c) == p
        q = w.invariant("{0} - {1}", p, c)  # on a value computed here
        assert w.invariant("{0} + {1}", "acc", q) is None  # acc changes in the loop
        # the terms' products on c alone are computed here too: 3 * c is
        # one product for every stage's memo, with the 3 bound once
        r1 = w.expr(Mul(const(3), SymConst("c")), {"c": "cv"}, {})
        r2 = w.expr(Mul(const(3), SymConst("c")), {"c": "cv"}, {})
        assert r1 == r2
        w.line(f"acc = acc + {q} + {r1}")
        w.end()
        kernel = w.function("cv, h, n", "acc")
        _Counted.products = 0
        assert kernel(2.0, _Counted(0.5), 4) == 4 * (0.5 * 2.0 - 2.0 + 3.0 * 2.0)
        assert _Counted.products == 1

    def test_values_that_may_change_or_go_unassigned_stay_put(self):
        # a load in a guarded region, or inside a block, is not fixed: the
        # region may fail, the block may not run
        w = KernelWriter()
        w.guard("return None")
        a = w.expr(SymConst("a"), {"a": "av"}, {})
        w.guard(None)
        w.begin("if flag:")
        b = w.expr(SymConst("b"), {"b": "bv"}, {})
        w.end()
        w.fixed("h")
        w.begin("for _ in range(1):")
        assert w.invariant("{0} * {1}", "h", a) is None
        assert w.invariant("{0} * {1}", "h", b) is None
        assert w.invariant("{0} * {1}", "h", "h") is not None
        w.end()
        assert w.invariant("{0} * {1}", "h", "h") is None  # the loop has ended


class TestDeepPredicates:
    VALUATIONS = ({"x": 0.5, "y": 3.0}, {"x": 0.5, "y": 0.5}, {"x": -2000.0, "y": 3.0},
                  {"x": 0.5}, {"x": 800.0, "y": 3.0})

    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    @pytest.mark.parametrize("kind", [And, Or])
    def test_thousand_operand_chains(self, kind, left):
        p = _fold((kind,), _chain_atoms(1000, holds=kind is And), left)
        reached_last = 0
        for val in self.VALUATIONS:
            for tol in (0.0, 1e-7):
                got = _outcome(eval_pred, p, val, tol)
                _assert_same(got, _deep_ref(p, val, tol))
                reached_last += got[0] == "raise"
        assert reached_last  # the last operand's division was reached

    @pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
    def test_alternation_of_three_hundred_levels(self, left):
        rng = random.Random(9)
        for _ in range(4):
            atoms = [_random_pred(rng, 0) for _ in range(301)]
            p = _fold((And, Or), atoms, left)
            for _ in range(6):
                val = _random_valuation(rng)
                tol = rng.choice((0.0, 1e-7, 0.5))
                _assert_same(_outcome(eval_pred, p, val, tol), _outcome(ref_eval_pred, p, val, tol))


class TestSamplingPlan:
    def test_atom_form_runs_once_per_equation(self, monkeypatch):
        calls = []

        def counting(c):
            calls.append(c)
            return atom_form(c)

        monkeypatch.setattr(sampling, "atom_form", counting)
        hyps = [Cmp("=", y, x * const(2) + const(1)), Cmp(">=", x, const(0)),
                Cmp("=", g, x * x)]
        rng = random.Random(0)
        found = [sampling.sample_valuation(["g", "x", "y"], hyps, rng) for _ in range(100)]
        assert all(v is not None for v in found)
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# Sharing-preserving substitution against a reference tree walk


def _ref_free(p):
    """Free names by a tree walk, binders removed."""
    if isinstance(p, (Var, SymConst)):
        return {p.name}
    if isinstance(p, TimeVar):
        return {"t"}
    if isinstance(p, Const):
        return set()
    if isinstance(p, Pow):
        return _ref_free(p.base)
    if isinstance(p, TimeQuant):
        return (_ref_free(p.prefix) | _ref_free(p.body)) - {p.t_name, p.tau_name}
    out = set()
    for part in vars(p).values():
        if isinstance(part, (Expr, Pred)):
            out |= _ref_free(part)
    return out


def _ref_substitute(e, binding):
    """The tree walk substitute must agree with: it rebuilds every node."""
    if isinstance(e, Var):
        return binding.get(e.name, e)
    if isinstance(e, TimeVar):
        return binding.get("t", e)
    if isinstance(e, (Const, SymConst)):
        return e
    if isinstance(e, Pow):
        return Pow(_ref_substitute(e.base, binding), e.exp)
    if isinstance(e, (Neg, Sin, Cos, Exp)):
        return type(e)(_ref_substitute(e.arg, binding))
    if isinstance(e, Div):
        return Div(_ref_substitute(e.num, binding), _ref_substitute(e.den, binding))
    return type(e)(_ref_substitute(e.lhs, binding), _ref_substitute(e.rhs, binding))


def _ref_substitute_pred(p, binding):
    """Capture-avoiding tree walk; a TimeQuant in which no key of the
    binding is free is left as it is, and one renames its binders only when
    a term substituted for one of its free names mentions one."""
    if isinstance(p, (TruePred, FalsePred)):
        return p
    if isinstance(p, Cmp):
        return Cmp(p.op, _ref_substitute(p.lhs, binding), _ref_substitute(p.rhs, binding))
    if isinstance(p, Not):
        return Not(_ref_substitute_pred(p.arg, binding))
    if isinstance(p, (And, Or)):
        return type(p)(_ref_substitute_pred(p.lhs, binding),
                       _ref_substitute_pred(p.rhs, binding))
    if not set(binding) & _ref_free(p):
        return p
    bound = {p.t_name, p.tau_name}
    inner = {k: e for k, e in binding.items() if k not in bound}
    used = set().union(*(_ref_free(e) for k, e in inner.items() if k in _ref_free(p)))
    t_name, tau_name = p.t_name, p.tau_name
    if used & bound:
        t_name, tau_name = fresh_time_binders(used | _ref_free(p), 2)
        inner[p.t_name], inner[p.tau_name] = Var(t_name), Var(tau_name)
    return TimeQuant(t_name, tau_name, p.dom, _ref_substitute_pred(p.prefix, inner),
                     _ref_substitute_pred(p.body, inner))


def _chain(depth, bottom=Add, last=1):
    e = bottom(x, const(last))
    for k in range(depth - 1):
        e = Add(e, const(k % 5))
    return e


class TestStructuralIdentity:
    @pytest.mark.parametrize("depth", [600, 10_000])
    def test_deep_chains_compare_and_hash(self, depth):
        a, b = _chain(depth), _chain(depth)
        assert a is b and a == b and hash(a) == hash(b)
        assert Cmp(">=", a, y) is Cmp(">=", b, y)
        # Add and Sub over the same fields are two nodes that compare
        # unequal without a walk
        other = _chain(depth, bottom=Sub)
        assert a is not other and a != other and not a == other
        assert not ref_equal(a, other)
        assert a is not _chain(depth, last=2) and a != _chain(depth, last=2)
        assert len({a, b, other}) == 2

    def test_matches_structural_reference_on_random_terms(self):
        rng = random.Random(19)
        equal = 0
        for _ in range(300):
            seed, depth = rng.randrange(40), rng.randint(0, 4)
            a = _random_expr(random.Random(seed), depth)
            b = _random_expr(random.Random(rng.choice((seed, rng.randrange(40)))), depth)
            p = _random_shared_pred(random.Random(seed), depth, [])
            q = _random_shared_pred(random.Random(rng.choice((seed, rng.randrange(40)))),
                                    depth, [])
            for u, w in ((a, b), (p, q), (a, p), (Cmp("=", a, b), Cmp("=", b, a))):
                # equal terms are one object
                assert (u == w) is (u is w) is ref_equal(u, w) is not (u != w)
                equal += u == w
        assert 100 < equal < 900

    def test_equal_constants_are_one_node(self):
        one = Const(1)
        assert Const(Fraction(1)) is one and Const(1.0) is one and const(1) is one
        assert type(one.value) is Fraction and one.value == 1
        zero = Const(0)
        assert Const(-0.0) is zero and zero is ZERO and type(zero.value) is Fraction
        assert Const(1) is not zero and Var("x") is not SymConst("x")
        # an int is keyed as the Fraction it becomes; a bool is an int
        three = Const(3)
        assert three is Const(Fraction(3)) is Const(Fraction(6, 2)) is Const(3.0)
        assert Const(True) is one and Const(False) is zero and type(Const(True).value) is Fraction
        assert Const(-7) is Const(Fraction(-14, 2)) and Const(Fraction(1, 2)) is Const(0.5)

    def test_equal_time_domains_give_one_quantifier(self):
        body = Cmp("<=", Var("t"), const(2))
        a = TimeQuant("t", "tau", TimeDomain(0), TRUE, body)
        b = TimeQuant("t", "tau", TimeDomain(Fraction(0)), TRUE, body)
        c = TimeQuant(t_name="t", tau_name="tau", dom=NONNEG, prefix=TRUE, body=body)
        assert a is b is c
        assert TimeQuant("t", "tau", TimeDomain(0, 1), TRUE, body) is not a

    def test_validation_errors_are_raised_as_before(self):
        size = len(expr_module._TABLE)
        for den in (Const(Fraction(0)), Const(0), Const(-0.0), ZERO):
            with pytest.raises(ValueError, match="^division by the constant zero$"):
                Div(x, den)
            with pytest.raises(ValueError, match="^division by the constant zero$"):
                Div(num=x, den=den)
        with pytest.raises(ValueError, match="division by the constant zero"):
            x / 0
        for exp in (-1, 1.5, 2.0, Fraction(2), "2", None):
            with pytest.raises(ValueError, match="^Pow exponent must be a natural number$"):
                Pow(x, exp)
        for op in ("<>", "==", None, 1):
            with pytest.raises(ValueError, match=f"^unknown comparison operator {op!r}$"):
                Cmp(op, x, y)
        with pytest.raises(TypeError):
            Const(None)
        for make in (lambda: Add(x), lambda: Add(x, y, x), lambda: Neg(arg=x, other=y),
                     lambda: Add(x, lhs=y), lambda: TimeVar(x)):
            with pytest.raises(TypeError):
                make()
        assert len(expr_module._TABLE) == size  # a rejected node is not filed
        assert Neg(arg=x) is Neg(x) and Div(num=x, den=y) is Div(x, y)
        assert Pow(base=x, exp=2) is Pow(x, 2) and Cmp(op="<", lhs=x, rhs=y) is Cmp("<", x, y)
        assert Pow(x, True) is Pow(x, 1) and type(Pow(x, True).exp) is int

    def test_copies_and_pickles_are_the_node(self):
        p = And(Cmp(">=", Sin(x) * y, const(Fraction(1, 3))), Not(FALSE))
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert copy.deepcopy([p, p.lhs]) == [p, p.lhs]
        assert pickle.loads(pickle.dumps(p)) is p
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.lhs = TRUE

    def test_dropped_term_leaves_the_table(self):
        size = len(expr_module._TABLE)
        e = Mul(Var("dropped_name"), Add(Var("dropped_name"), const(Fraction(7, 13))))
        alive, text = weakref.ref(e), repr(e)
        key = (Mul, e.lhs, e.rhs)  # the children themselves
        assert expr_module._TABLE[key]() is e and len(expr_module._TABLE) == size + 4
        del e
        # the key held the children: they live on until it goes
        assert alive() is None and key not in expr_module._TABLE
        assert len(expr_module._TABLE) == size + 3
        del key
        assert len(expr_module._TABLE) == size
        # built again, it is a new node, filed again
        again = Mul(Var("dropped_name"), Add(Var("dropped_name"), const(Fraction(7, 13))))
        assert expr_module._TABLE[(Mul, again.lhs, again.rhs)]() is again
        assert repr(again) == text

    def test_comparison_with_other_objects(self):
        assert const(1) != 1 and not const(1) == Fraction(1)
        assert x != "x" and TRUE != True  # noqa: E712
        assert TRUE == TruePred() and TRUE != FALSE
        assert Add(x, y) != Sub(x, y)
        assert Pow(x, 2) == Pow(Var("x"), 2) != Pow(x, 3)
        assert {Const(Fraction(1, 2)): 1}[const(Fraction(2, 4))] == 1


# one node of every class, its fields by position
_ONE_OF_EACH = [
    (Const, (Fraction(2, 3),)), (Const, (5,)), (SymConst, ("g",)), (Var, ("x",)),
    (TimeVar, ()), (Neg, (x,)), (Add, (x, y)), (Sub, (x, g)), (Mul, (y, t)),
    (Div, (x, y)), (Pow, (x, 3)), (Sin, (t,)), (Cos, (x,)), (Exp, (g,)),
    (TruePred, ()), (FalsePred, ()), (Cmp, ("<=", x, y)), (And, (TRUE, FALSE)),
    (Or, (FALSE, TRUE)), (Not, (TRUE,)),
    (TimeQuant, ("t", "tau", NONNEG, TRUE, Cmp(">=", Var("t"), x))),
]


class TestConstructorContract:
    """Each shape of node has a constructor of its own, which builds the
    intern key inline; each keeps its class's dataclass signature, and
    every node hashes by identity."""

    @pytest.mark.parametrize("cls, fields", _ONE_OF_EACH, ids=lambda a: getattr(a, "__name__", ""))
    def test_fields_by_name_and_by_position(self, cls, fields):
        node = cls(*fields)
        names = cls.__match_args__
        assert cls(**dict(zip(names, fields))) is node
        assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) is node
        assert type(node).__hash__ is object.__hash__ and hash(node) == object.__hash__(node)
        assert copy.copy(node) is node and pickle.loads(pickle.dumps(node)) is node

    @pytest.mark.parametrize("cls, fields", _ONE_OF_EACH, ids=lambda a: getattr(a, "__name__", ""))
    def test_a_wrong_arity_is_a_type_error(self, cls, fields):
        size = len(expr_module._TABLE)
        for make in (lambda: cls(*fields, x), lambda: cls(*fields, other=x),
                     lambda: cls(*fields[:-1]) if fields else cls(x)):
            with pytest.raises(TypeError):
                make()
        assert len(expr_module._TABLE) == size

    def test_an_int_constant_hit_builds_no_fraction(self, monkeypatch):
        made = []

        class CountingFraction(Fraction):
            def __new__(cls, *args):
                made.append(args)
                return Fraction(*args)

        kept = Const(41)
        monkeypatch.setattr(expr_module, "Fraction", CountingFraction)
        assert Const(41) is kept and made == []
        # a miss builds the value once
        fresh = Const(987_654_323)
        assert made == [(987_654_323,)] and type(fresh.value) is Fraction
        assert Const(987_654_323) is fresh and len(made) == 1


_SUBST_NAMES = ("x", "y", "t", "t2", "tau", "tau2")


def _random_shared_expr(rng, depth, pool):
    """A random expression whose subtrees are often taken from pool, so the
    result is a DAG."""
    if pool and rng.random() < 0.3:
        return rng.choice(pool)
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        e = rng.choice((Var(rng.choice(_SUBST_NAMES)), t, g, const(rng.randint(-3, 3))))
    elif roll < 0.4:
        e = rng.choice((Neg, Sin, Cos, Exp))(_random_shared_expr(rng, depth - 1, pool))
    elif roll < 0.5:
        e = Pow(_random_shared_expr(rng, depth - 1, pool), rng.randint(0, 3))
    else:
        a = _random_shared_expr(rng, depth - 1, pool)
        b = _random_shared_expr(rng, depth - 1, pool)
        if isinstance(b, Const) and b.value == 0:
            b = const(2)
        e = rng.choice((Add, Sub, Mul, Div))(a, b)
    pool.append(e)
    return e


def _random_shared_pred(rng, depth, pool):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Cmp(rng.choice(CMP_OPS), _random_shared_expr(rng, 2, pool),
                   _random_shared_expr(rng, 2, pool))
    if roll < 0.4:
        return Not(_random_shared_pred(rng, depth - 1, pool))
    if roll < 0.7:
        a = _random_shared_pred(rng, depth - 1, pool)
        return (And if rng.random() < 0.5 else Or)(a, rng.choice(
            (a, _random_shared_pred(rng, depth - 1, pool))))
    t_name, tau_name = rng.choice((("t", "tau"), ("t2", "tau2")))
    return _quant(t_name, tau_name, _random_shared_pred(rng, depth - 1, pool),
                  _random_shared_pred(rng, depth - 1, pool))


def _random_binding(rng):
    keys = rng.sample(_SUBST_NAMES + ("g",), rng.randint(0, 3))
    return {k: _random_shared_expr(rng, 2, []) for k in keys}


class TestSharingSubstitution:
    def test_expressions_match_reference_walk(self):
        rng = random.Random(6)
        raised = 0
        for _ in range(400):
            e = _random_shared_expr(rng, rng.randint(0, 5), [])
            binding = _random_binding(rng)
            if rng.random() < 0.2:
                binding["y"] = const(0)  # may zero a denominator
            got = _outcome(substitute, e, binding)
            _assert_same(got, _outcome(_ref_substitute, e, binding))
            raised += got[0] == "raise"
        assert raised  # a denominator became the constant zero

    def test_predicates_match_reference_walk(self):
        rng = random.Random(7)
        renamed = shadowed = 0
        for _ in range(600):
            p = _random_shared_pred(rng, rng.randint(0, 4), [])
            binding = _random_binding(rng)
            got = _outcome(substitute_pred, p, binding)
            _assert_same(got, _outcome(_ref_substitute_pred, p, binding))
            if got[0] == "value" and isinstance(p, TimeQuant):
                renamed += got[1].t_name != p.t_name
                shadowed += p.t_name in binding and got[1] is p
        assert renamed and shadowed

    def test_binding_to_time_replaces_the_time_symbol(self):
        e = x * t + Var("t")
        assert substitute(e, {"t": const(3)}) == x * const(3) + const(3)
        assert substitute(e, {"t": y}) == _ref_substitute(e, {"t": y})

    def test_untouched_subtree_is_the_same_object(self):
        left = x * x + Sin(g)
        e = Add(left, Cos(y))
        out = substitute(e, {"y": v})
        assert out == Add(left, Cos(v))
        assert out.lhs is left
        assert substitute(e, {"z": v}) is e
        assert substitute(e, {}) is e
        p = And(Cmp("<=", left, g), Cmp(">", y, const(0)))
        got = substitute_pred(p, {"y": v})
        assert got.lhs is p.lhs
        assert substitute_pred(p, {"z": v}) is p

    def test_shared_subtree_is_substituted_once(self):
        # names no other test uses, so no cache holds a node of the result
        a, b = Var("once_a"), Var("once_b")
        shared = a * (a + const(1))
        e = shared + Neg(shared)
        gc.disable()  # so no collection frees nodes of other tests meanwhile
        try:
            size = len(expr_module._TABLE)
            out = substitute(e, {"once_a": b})
            grown = len(expr_module._TABLE) - size
        finally:
            gc.enable()
        # the nodes filed anew: a + 1, the product, Neg and the sum, while
        # the tree has six nodes over a
        assert grown == 4
        assert out == b * (b + const(1)) + Neg(b * (b + const(1)))
        assert out.rhs.arg is out.lhs

    def test_one_memo_get_and_store_per_rebuilt_node(self):
        class CountingMemo(dict):
            def get(self, key, default=None):
                gets.append(key)
                return super().get(key, default)

            def __setitem__(self, key, value):
                stores.append(key)
                super().__setitem__(key, value)

        gets, stores = [], []
        shared = x * (x + const(1))
        e = shared + Neg(shared)
        out = substitute_pred(Cmp(">=", e, y), {"x": y}, CountingMemo())
        assert out == Cmp(">=", y * (y + const(1)) + Neg(y * (y + const(1))), y)
        # rebuilt: x + 1, the product, Neg, the sum and the comparison; the
        # Vars and the constant are resolved where they are met, and Neg
        # finds the product in the memo
        assert stores == [x + const(1), shared, Neg(shared), e, Cmp(">=", e, y)]
        assert sorted(map(id, gets)) == sorted(map(id, stores + [shared]))

    def test_shared_predicate_is_substituted_once(self):
        atom = Cmp(">=", x * x, const(0))
        p = And(Or(Not(atom), atom), atom)
        out = substitute_pred(p, {"x": y + const(1)})
        assert out == _ref_substitute_pred(p, {"x": y + const(1)})
        assert out.lhs.lhs.arg is out.lhs.rhs is out.rhs

    def test_zero_denominator_still_raises(self):
        with pytest.raises(ValueError, match="division by the constant zero"):
            substitute(Div(x, y) + x, {"y": const(0)})
        with pytest.raises(ValueError, match="division by the constant zero"):
            substitute_pred(Cmp("<", x / y, const(1)), {"y": const(0)})

    def test_deep_chain_within_the_recursion_limit(self):
        # 600 levels at the default limit of 1000: a substitution taking
        # two Python frames per level would overflow here
        e = x
        for i in range(600):
            e = Add(e, const(i))
        for out in (substitute(e, {"x": y}),
                    substitute_pred(Cmp(">=", e, const(0)), {"x": y}).lhs):
            old = e
            while isinstance(old, Add):  # every Add is new, every constant shared
                assert out is not old and out.rhs is old.rhs
                old, out = old.lhs, out.lhs
            assert out == y

    def test_subterm_walks_are_not_bounded_by_the_recursion_limit(self):
        e = x
        for i in range(3000):
            e = Sub(Neg(e), const(i)) if i % 2 else Add(t, e)
        assert free_vars(e) == {"x"} and uses_time(e)
        assert free_consts(e * g) == {"g"}
        # parent before children, children left to right
        small = Add(Mul(x, y), Neg(t))
        assert list(subterms(small)) == [small, small.lhs, x, y, small.rhs, t]

    def test_free_names_are_cached_and_copied(self):
        e = x * g + t
        assert free_names(e) == {"x", "g", "t"}
        free_names(e).add("zzz")
        assert free_names(e) == {"x", "g", "t"}
        q = _quant("t", "tau", Cmp(">=", Var("tau"), x), Cmp("<=", Var("t"), y))
        names = pred_free_names(q)
        names.add("zzz")
        assert pred_free_names(q) == {"x", "y"}
        with pytest.raises(TypeError, match="not a Pred node"):
            pred_free_names(x)


def _random_terms(rng):
    """A few random terms and predicates, over shared subterms and
    TimeQuants with either pair of binders."""
    pool = []
    return [_random_expr(rng, rng.randint(0, 4)), _random_pred(rng, rng.randint(0, 3)),
            _random_shared_expr(rng, rng.randint(0, 4), pool),
            _random_shared_pred(rng, rng.randint(0, 4), pool)]


class TestNamesAtConstruction:
    """_file gives every node its names when it files it; they must be the
    names the recursive reference (tests/treepasses.py) reads."""

    def test_names_match_the_reference(self):
        rng = random.Random(28)
        quants = 0
        for _ in range(300):
            for term in _random_terms(rng):
                for node in subterms(term):
                    assert free_names(node) == ref_free_names(node), node
                    quants += type(node) is TimeQuant
                if isinstance(term, Pred):
                    assert pred_free_names(term) == ref_free_names(term)
        assert quants

    def test_names_under_shadowing_and_renamed_binders(self):
        rng = random.Random(29)
        renamed = shadowed = 0
        for _ in range(600):
            p = _random_shared_pred(rng, rng.randint(1, 4), [])
            binding = _random_binding(rng)
            try:
                out = substitute_pred(p, binding)
            except ValueError:  # a denominator became the constant zero
                continue
            for node in subterms(out):
                assert free_names(node) == ref_free_names(node), node
            if isinstance(p, TimeQuant):
                renamed += out.t_name != p.t_name
                shadowed += bool({p.t_name, p.tau_name} & binding.keys())
        assert renamed and shadowed
        q = _quant("t", "tau", Cmp("<=", Var("tau"), Var("t2")), Cmp(">=", Var("t"), x))
        assert pred_free_names(q) == {"t2", "x"}
        assert pred_free_names(substitute_pred(q, {"x": Var("tau")})) == {"t2", "tau"}

    def test_a_non_node_field_builds_a_node_without_names(self):
        bad = Add(x, 5)
        assert bad.rhs == 5 and Neg(bad).arg is bad
        for term in (bad, Neg(bad), Cmp("<", y, bad), _quant("t", "tau", TRUE, Cmp("<", bad, t))):
            with pytest.raises(TypeError, match="not an Expr or Pred node: 5"):
                free_names(term)
            assert expr_module.bound_names(term, {"x": 1, "q": 2}) == ("x", "q")
        with pytest.raises(TypeError, match="not an Expr or Pred node"):
            substitute(bad, {"x": y})


def _assert_interned(terms):
    for u in terms:
        for w in terms:
            assert (u is w) == ref_equal(u, w), (u, w)


class TestKeysHoldChildren:
    """The intern table keys a child field by the child itself, so a key
    keeps its children alive; a dead node's entry must leave the table,
    and a term built again is a new node, filed again."""

    def test_terms_dropped_and_rebuilt(self):
        # terms form no cycles: del frees them, and their entries must leave
        # the table at once; the collector runs once per round as well
        rng = random.Random(30)
        gc.collect()
        for _ in range(40):
            seed = rng.randrange(10**9)
            size = len(expr_module._TABLE)
            first = _random_terms(random.Random(seed))
            texts = [repr(u) for u in first]
            kept = first[rng.randrange(4)]
            del first
            gc.collect()
            size_kept = len(expr_module._TABLE)
            # the freed nodes' memory is reused by the terms built next; a
            # rebuilt node is a new object, so its hash need not be the old one's
            others = _random_terms(rng)
            again = _random_terms(random.Random(seed))
            assert [repr(u) for u in again] == texts
            _assert_interned(again + others + [kept])
            assert any(u is kept for u in again)
            del others, again
            assert len(expr_module._TABLE) == size_kept
            del kept
            assert len(expr_module._TABLE) == size

    def test_a_late_drop_keeps_the_rebuilt_node(self):
        a = Var("late_drop")
        e = Neg(a)
        key = (Neg, a)
        stale = expr_module._TABLE[key]
        del e  # its entry's callback removes the key
        again = Neg(a)
        # a callback that runs after an equal node was rebuilt, as in a
        # collector's batch, leaves the new entry
        expr_module._drop(stale)
        assert expr_module._TABLE[key]() is again is Neg(a)

    def test_rebuilt_inside_a_collection(self):
        a = Var("gc_rebuild")
        gc.collect()
        size = len(expr_module._TABLE)

        class Cycle:
            pass

        rebuilt = []
        cycle = Cycle()
        cycle.self, cycle.node = cycle, Neg(a)  # the Neg lives only in the cycle
        # the collector clears the weak references to the cycle and the Neg
        # before it runs their callbacks: this one builds an equal Neg
        probe = weakref.ref(cycle, lambda _: rebuilt.append(Neg(a)))
        del cycle
        gc.collect()
        assert probe() is None and rebuilt
        assert expr_module._TABLE[(Neg, a)]() is rebuilt[0] is Neg(a)
        assert len(expr_module._TABLE) == size + 1
        rebuilt.clear()
        assert len(expr_module._TABLE) == size

    def test_non_node_children(self):
        # a child that is not a node builds, and raises where a walk reaches it
        bad = Add(x, 5)
        with pytest.raises(TypeError, match="^not an Expr node: 5$"):
            evaluate(bad, {"x": 1.0})
        # it is keyed by value: equal children share one node
        assert Add(x, 5) is bad and Add(x, 5.0) is bad
        assert Add(x, float("2.5")) is Add(x, float("2.5"))
        # so a child that cannot be hashed is rejected at construction
        size = len(expr_module._TABLE)
        for make in (lambda: Add(x, [5]), lambda: Neg({}), lambda: Cmp("<", x, [y])):
            with pytest.raises(TypeError, match="unhashable type"):
                make()
        assert len(expr_module._TABLE) == size


def _nested(depth, leaf, *wraps):
    """leaf under depth nodes, each built by the next of wraps in turn."""
    node = leaf
    for i in range(depth):
        node = wraps[i % len(wraps)](node)
    return node


class TestLoopsMatchRecursiveReferences:
    """diff, nnf and pred_bound_names walk on explicit stacks; their
    recursive forms live in tests/treepasses.py."""

    def test_diff(self):
        rng = random.Random(26)
        for _ in range(600):
            e = (_random_expr(rng, rng.randint(0, 5)) if rng.random() < 0.5
                 else _random_shared_expr(rng, rng.randint(0, 5), []))
            for wrt in ("x", "y", "t", "g"):
                assert outcome(diff, e, wrt) == outcome(ref_diff, e, wrt), (e, wrt)

    def test_nnf_and_bound_names(self):
        rng = random.Random(27)
        raised = 0
        for _ in range(800):
            p = (_random_pred(rng, rng.randint(0, 4)) if rng.random() < 0.5
                 else _random_shared_pred(rng, rng.randint(0, 4), []))
            for q in (p, Not(p), Not(Not(p)), And(Not(p), Or(TRUE, p))):
                got = outcome(nnf, q)
                assert got == outcome(ref_nnf, q), q
                raised += got[0] == "raise"  # a TimeQuant, with its Not
                assert pred_bound_names(q) == ref_pred_bound_names(q), q
        assert raised
        assert outcome(nnf, Not(x)) == outcome(ref_nnf, Not(x))
        assert outcome(nnf, And(TRUE, x)) == outcome(ref_nnf, And(TRUE, x))

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        depth = 3 * sys.getrecursionlimit()
        atom = Cmp(">=", x, const(0))
        assert nnf(_nested(depth, atom, Not)) is atom
        assert nnf(_nested(depth + 1, atom, Not)) == Cmp("<", x, const(0))
        chain = atom
        for i in range(depth):
            chain = (And if i % 2 else Or)(chain, Cmp(">=", x, const(i)))
        assert nnf(Not(chain)).lhs.rhs == Cmp("<", x, const(depth - 2))
        q = _quant("t", "tau", TRUE, Cmp("<=", Var("t"), x))
        assert pred_bound_names(And(_nested(depth, q, Not), FALSE)) == {"t", "tau"}
        assert diff(_nested(depth, x, Neg), "x") is _nested(depth, const(1), Neg)
        e, d = x, const(1)  # a term and its derivative in x
        for i in range(depth):
            e, d = (Add(e, t), Add(d, ZERO)) if i % 2 else (Mul(e, g), Add(Mul(d, g), Mul(e, ZERO)))
        assert diff(e, "x") is d

    def test_children_table(self):
        for node, kids in [(x, ()), (g, ()), (t, ()), (const(2), ()), (Neg(x), (x,)),
                           (Add(x, y), (x, y)), (Div(x, y), (x, y)), (Pow(x, 3), (x,)),
                           (Exp(y), (y,)), (TRUE, ()), (Not(FALSE), (FALSE,)),
                           (Cmp("<", x, y), (x, y)), (Or(TRUE, FALSE), (TRUE, FALSE))]:
            assert children(node) == kids
        q = _quant("t", "tau", TRUE, FALSE)
        assert children(q) == (TRUE, FALSE)
        for bad in (5, "x", [x]):
            with pytest.raises(TypeError, match="not an Expr or Pred node"):
                children(bad)
