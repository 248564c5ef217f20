import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hybridwlp.expr import (
    Cmp,
    Cos,
    Div,
    EvalError,
    Exp,
    Neg,
    Sin,
    Sub,
    SymConst,
    TimeVar,
    Var,
    const,
    eval_pred,
    evaluate,
    fold,
    free_names,
    swap_cmp,
)
from hybridwlp.polynorm import (
    Atom,
    NormalizeError,
    _norm,
    atom_form,
    cancel_inverses,
    expr_eq,
    inverse_pairs,
    normalize,
    poly_to_expr,
    rational_combination,
    solve_linear_system,
)
from test_expr import _random_shared_expr
from test_hwl_reference import rand_expr
from treepasses import outcome, ref_norm
from treewalk import ref_compare

x, y, v = Var("x"), Var("y"), Var("v")
t = TimeVar()
g, h, c, r = SymConst("g"), SymConst("h"), SymConst("c"), SymConst("r")


class TestNormalize:
    def test_collect(self):
        nf = normalize(x + x)
        assert nf == normalize(const(2) * x)

    def test_rotation_identity(self):
        e = (x * Cos(t) + y * Sin(t)) ** 2 + (y * Cos(t) - x * Sin(t)) ** 2
        assert normalize(Sub(e, x ** 2 + y ** 2)).is_zero()

    def test_expand_to_zero(self):
        e = const(2) * (x + 1) * (x - 1) - const(2) * x ** 2 + 2
        assert normalize(e).is_zero()

    def test_idempotent(self):
        for e in (x * y + x ** 2, (x + y) ** 3, Sin(x) ** 2 + Cos(x) ** 2):
            p = normalize(e)
            assert normalize(poly_to_expr(p)) == p

    def test_symconst_reciprocal_cancels(self):
        # c/(c*c) - 1/c is c*inv(c)^2 - inv(c): zero only where c != 0, so
        # normalize keeps the pair and cancel_inverses cancels it for a c
        # proved nonzero, and only for such a c
        p = normalize(Sub(Div(c, c * c), Div(const(1), c)))
        assert not p.is_zero() and inverse_pairs(p) == ["c"]
        assert cancel_inverses(p, {"c"}).is_zero()
        assert cancel_inverses(p, set()) is p and cancel_inverses(p, {"d"}) == p
        # c^3 * inv(c) and c * inv(c)^3 leave c^2 and inv(c)^2
        assert cancel_inverses(normalize(c * c * c / c), {"c"}) == normalize(c * c)
        assert cancel_inverses(normalize(c / (c * c * c)), {"c"}) == normalize(const(1) / (c * c))

    def test_trig_at_zero_folds(self):
        assert normalize(Cos(const(0))) == normalize(const(1))
        assert normalize(Sin(x - x)).is_zero()
        assert normalize(Exp(const(0))) == normalize(const(1))

    def test_atoms_hash_in_c(self):
        # atoms key the power maps of every monomial product
        assert Atom.__hash__ is tuple.__hash__
        assert Atom("var", "x") == Atom("var", "x", ())
        assert Atom("var", "x").sort_key() == (0, "x", ())

    def test_zero_denominator_raises(self):
        with pytest.raises(NormalizeError):
            normalize(x / (y - y))

    def test_eval_soundness_on_regression_set(self):
        rng = random.Random(11)
        exprs = [
            (x + y) ** 3 - x ** 3 - y ** 3,
            Sin(x) ** 2 * y + Cos(x) ** 2 * y,
            g * t ** 2 / const(2) + v * t + x,
            x * y / c + Exp(x) * Sin(y),
        ]
        for e in exprs:
            back = poly_to_expr(normalize(e))
            names = sorted(free_names(e))
            done = 0
            while done < 1000:
                valuation = {n: rng.uniform(-2, 2) for n in names}
                try:
                    a = evaluate(e, valuation)
                    b = evaluate(back, valuation)
                except EvalError:
                    continue
                done += 1
                assert abs(a - b) <= 1e-9 * (1 + abs(a))


class TestExprEq:
    def test_double_angle_is_outside_the_fragment(self):
        res = expr_eq(Sin(const(2) * t), const(2) * Sin(t) * Cos(t))
        assert res.kind == "unknown"
        assert res.note == "likely-equal"

    def test_squares(self):
        assert expr_eq(x ** 2, x * x).is_equal

    def test_distinct_powers_with_witness(self):
        res = expr_eq(x ** 2, x ** 3)
        assert res.kind == "not-equal"
        a = evaluate(x ** 2, res.witness)
        b = evaluate(x ** 3, res.witness)
        assert abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b))

    def test_equal_implies_numeric_agreement(self):
        rng = random.Random(5)
        a = (x + y) ** 2
        b = x ** 2 + const(2) * x * y + y ** 2
        assert expr_eq(a, b).is_equal
        for _ in range(200):
            valuation = {"x": rng.uniform(-5, 5), "y": rng.uniform(-5, 5)}
            fa, fb = evaluate(a, valuation), evaluate(b, valuation)
            assert abs(fa - fb) <= 1e-9 * max(1.0, abs(fa), abs(fb))

    def test_deterministic(self):
        r1 = expr_eq(x ** 2, x ** 3, seed=4)
        r2 = expr_eq(x ** 2, x ** 3, seed=4)
        assert r1 == r2


# random expression trees for the soundness property
_leaf = st.sampled_from([x, y, const(2), const(Fraction(1, 2)), SymConst("c")])


def _combine(children):
    a, b = children
    return st.sampled_from([a + b, a - b, a * b, a ** 2, Sin(a), Cos(a)])


_expr_trees = st.recursive(
    _leaf, lambda s: st.tuples(s, s).flatmap(_combine), max_leaves=8
)


class TestNormalizeProperty:
    @given(_expr_trees)
    @settings(max_examples=80, deadline=None)
    def test_normalize_preserves_value(self, e):
        rng = random.Random(0)
        back = poly_to_expr(normalize(e))
        names = sorted(free_names(e))
        for _ in range(5):
            valuation = {n: rng.uniform(-2, 2) for n in names}
            a = evaluate(e, valuation)
            b = evaluate(back, valuation)
            assert abs(a - b) <= 1e-7 * (1 + abs(a))


class TestLinearAlgebra:
    def test_solve_simple(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        rhs = [Fraction(3), Fraction(1)]
        assert solve_linear_system(rows, rhs) == [Fraction(2), Fraction(1)]

    def test_inconsistent(self):
        rows = [[Fraction(1)], [Fraction(1)]]
        rhs = [Fraction(0), Fraction(1)]
        assert solve_linear_system(rows, rhs) is None

    def test_rational_combination_ball_energy(self):
        hyp = normalize(const(2) * g * x - const(2) * g * h - v * v)
        target = normalize(
            const(2) * g * (g * t ** 2 / const(2) + v * t + x)
            - const(2) * g * h
            - (g * t + v) ** 2
        )
        assert rational_combination(target, [hyp]) == [Fraction(1)]

    def test_rational_combination_fails_cleanly(self):
        hyp = normalize(x + y)
        target = normalize(x * y)
        assert rational_combination(target, [hyp]) is None


OPS = ("<", "<=", ">", ">=", "=", "!=")


def _random_side(rng: random.Random):
    """A random polynomial in x, v and the constant c, as an expression."""
    out = const(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
    for _ in range(rng.randint(0, 3)):
        term = const(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        for base in (x, v, c):
            k = rng.randint(0, 2)
            if k:
                term = term * base ** k
        out = out + term
    return out


class TestAtomForm:
    @pytest.mark.parametrize("op, diff, rel", [
        ("<", const(1) - x, ">"),
        ("<=", const(1) - x, ">="),
        (">", x - const(1), ">"),
        (">=", x - const(1), ">="),
        ("=", x - const(1), "="),
        ("!=", x - const(1), "!="),
    ])
    def test_orientation_table(self, op, diff, rel):
        assert atom_form(Cmp(op, x, const(1))) == (normalize(diff), rel)

    def test_normalization_failure_is_none(self):
        assert atom_form(Cmp("<", x / (x - x), const(0))) is None

    def test_equations_keep_their_sign(self):
        p, _ = atom_form(Cmp("=", x, const(1)))
        q, _ = atom_form(Cmp("=", const(1), x))
        assert q == p.neg()

    def test_swapped_comparison_same_form(self):
        rng = random.Random(11)
        for _ in range(60):
            cmp = Cmp(rng.choice(OPS), _random_side(rng), _random_side(rng))
            p, rel = atom_form(cmp)
            q, rel_swapped = atom_form(swap_cmp(cmp))
            assert rel_swapped == rel
            # orderings give the very same polynomial; (in)equations read
            # lhs - rhs, so swapping their sides flips its sign
            assert q == (p.neg() if rel in ("=", "!=") else p)

    def test_form_agrees_with_evaluation(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(300):
            cmp = Cmp(rng.choice(OPS), _random_side(rng), _random_side(rng))
            p, rel = atom_form(cmp)
            expr = poly_to_expr(p)
            for _ in range(4):
                val = {n: rng.uniform(-3, 3) for n in ("x", "v", "c")}
                value = evaluate(expr, val)
                if abs(value) > 1e-9:
                    assert ref_compare(rel, value, 0.0, 0.0) == eval_pred(cmp, val)
                    checked += 1
        assert checked > 1000


class TestAtomFormCache:
    """A comparison's atom form, read through normalize's memo, must be the
    one a fresh normalization gives."""

    def test_cached_form_is_a_fresh_normalization(self):
        rng = random.Random(2806)
        failed = 0
        for _ in range(600):
            op = rng.choice(OPS)
            cmp = Cmp(op, rand_expr(rng, rng.randint(0, 3)), rand_expr(rng, rng.randint(0, 3)))
            form = atom_form(cmp)
            diff = Sub(cmp.rhs, cmp.lhs) if op in ("<", "<=") else Sub(cmp.lhs, cmp.rhs)
            fresh = outcome(normalize.__wrapped__, diff)  # past normalize's memo
            if fresh[0] == "raise":
                assert fresh[1] is NormalizeError and form is None
                failed += 1
            else:
                assert form[0] == fresh[1] and form[0].key() == fresh[1].key()
                assert form[1] == {"<": ">", "<=": ">="}.get(op, op)
        assert failed  # a denominator that normalizes to zero


class TestNormLoopMatchesRecursiveReference:
    """normalize folds _norm on an explicit stack; tests/treepasses.py keeps
    the recursive form."""

    def test_random_terms(self):
        rng = random.Random(2006)
        opaque = raised = 0
        for _ in range(1500):
            e = (rand_expr(rng, rng.randint(0, 5)) if rng.random() < 0.5
                 else _random_shared_expr(rng, rng.randint(0, 4), []))
            got = outcome(fold, e, _norm)
            assert got == outcome(ref_norm, e), e
            opaque += got[0] == "value" and any(a.kind == "div" for a in got[1].atoms())
            raised += got[0] == "raise"
        assert opaque and raised  # a Div atom; a denominator that normalizes to zero

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        e = x
        for i in range(3000):
            e = Neg(e) if i % 3 else e + (x - const(1))
        assert normalize(e) == normalize(const(1000) * x - const(1000) + x)
