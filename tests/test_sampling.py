"""The sampler's generated attempt function against a reference sampler.

ref_sample_valuation is the sampler as it ran before plans compiled into
straight-line kernels: it draws, solves and checks over merged dicts, with
every value from the tree walk of tests/treewalk.py.  sample_valuation must
return the same valuations (values and key order), the same None outcomes
and the same exceptions, and leave the random stream in the same state.
"""

import math
import random
from pathlib import Path

import pytest

from hybridwlp import expr, hwl, sampling
from hybridwlp.expr import (
    CMP_OPS,
    EVAL_FAILURES,
    EvalError,
    TRUE,
    Cmp,
    Exp,
    FalsePred,
    Not,
    Or,
    Pow,
    Sin,
    SymConst,
    TimeQuant,
    Var,
    const,
    eval_pred,
    memo_kernel,
    pred_free_names,
)
from hybridwlp.hprog import NONNEG
from treewalk import ref_compare, ref_eval_pred, ref_evaluate

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

x, y, z, g = Var("x"), Var("y"), Var("z"), SymConst("g")


# ---------------------------------------------------------------------------
# Reference: the attempt over merged dicts


def ref_residual(cmp_diff, name, valuation, x):
    try:
        return ref_evaluate(cmp_diff, {**valuation, name: x})
    except EVAL_FAILURES:
        return None


def ref_solve_linear(cmp_diff, name, valuation):
    f0 = ref_residual(cmp_diff, name, valuation, 0.0)
    f1 = ref_residual(cmp_diff, name, valuation, 1.0)
    if f0 is None or f1 is None:
        return None
    a = f1 - f0
    if abs(a) < 1e-12:
        return None
    return -f0 / a


def ref_solve_bisect(cmp_diff, name, valuation, width):
    prev_x, prev_r = None, None
    for x in [width * (k / 12.0) for k in range(-12, 13)]:
        r = ref_residual(cmp_diff, name, valuation, x)
        if r is None:
            prev_x, prev_r = None, None
            continue
        if abs(r) < 1e-12:
            return x
        if prev_r is not None and (r < 0) != (prev_r < 0):
            lo, hi, rlo = prev_x, x, prev_r
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                rm = ref_residual(cmp_diff, name, valuation, mid)
                if rm is None:
                    return None
                if abs(rm) < 1e-13:
                    return mid
                if (rm < 0) == (rlo < 0):
                    lo, rlo = mid, rm
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev_x, prev_r = x, r
    return None


def ref_check(hyps, valuation):
    try:
        return all(ref_eval_pred(h, valuation, sampling.EQ_CHECK_TOL) for h in hyps)
    except EVAL_FAILURES:
        return False


def ref_sample_valuation(names, hyps, rng, ranges={}, attempts=300):
    planned = sampling._build_plan(tuple(names), tuple(hyps))
    if planned is None:
        return None
    flat, plan, free = planned
    width = sampling.BASE_WIDTH
    for attempt in range(attempts):
        if attempt and attempt % 60 == 0 and width < 1e5:
            width *= 2.0
        v = {}
        ok = True
        for n in free:
            lo, hi = ranges.get(n, (-width, width))
            v[n] = rng.uniform(lo, hi)
        for diff, n, how in plan:
            if how == "linear":
                xv = ref_solve_linear(diff, n, v)
            else:
                xv = ref_solve_bisect(diff, n, v, width)
            if xv is None:
                ok = False
                break
            lo, hi = ranges.get(n, (-math.inf, math.inf))
            if not (lo - 1e-9 <= xv <= hi + 1e-9):
                ok = False
                break
            v[n] = xv
        if not ok:
            continue
        if not ref_check(flat, v):
            continue
        return v
    return None


def outcome(sample, names, hyps, seed, calls, **kw):
    """Each call's result as (key, float.hex) pairs in key order, or the
    exception that ended the run, and the random stream's final state."""
    rng = random.Random(seed)
    out = []
    try:
        for _ in range(calls):
            v = sample(names, hyps, rng, **kw)
            out.append(None if v is None else [(k, float(val).hex()) for k, val in v.items()])
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        out.append((type(exc), str(exc)))
    return out, rng.getstate()


def assert_same(names, hyps, seeds=range(4), calls=40, **kw):
    for seed in seeds:
        got = outcome(sampling.sample_valuation, names, hyps, seed, calls, **kw)
        want = outcome(ref_sample_valuation, names, hyps, seed, calls, **kw)
        assert got == want
    return got[0]


def lemma_cases():
    for path in sorted(PROBLEMS.glob("*.hwl")):
        for lemma in hwl.parse_spec(path.read_text()).lemmas:
            yield f"{path.stem}:{lemma.name}", lemma
    # the energy lemmas of the k-ball products, over all k balls' equations
    for k in (1, 2, 3):
        idx = range(1, k + 1)
        energy = " & ".join(f"2*g*x{i} - 2*g*h{i} - v{i}*v{i} = 0" for i in idx)
        text = "\n".join([
            f"problem ball_k{k}",
            "vars " + " ".join(f"x{i} v{i}" for i in idx),
            "consts g, " + ", ".join(f"h{i}" for i in idx),
            "pre true", "post true", "program skip",
            *(f"lemma energy_height_bound_{i}: g < 0 & {energy} => x{i} <= h{i}"
              for i in idx),
        ]) + "\n"
        for lemma in hwl.parse_spec(text).lemmas:
            yield f"ball_k{k}:{lemma.name}", lemma


LEMMAS = dict(lemma_cases())


@pytest.mark.parametrize("case", sorted(LEMMAS))
def test_lemma_samples_match_reference(case):
    lemma = LEMMAS[case]
    names = sorted(set().union(*map(pred_free_names, (*lemma.hyps, lemma.concl))))
    got = assert_same(names, lemma.hyps, attempts=20)
    assert any(v is not None for v in got)


def test_ranges_and_refutation_budget_match_reference():
    hyps = (Cmp("<", g, const(0)), Cmp("=", y, x * g + const(1)))
    got = assert_same(["g", "x", "y"], hyps, ranges={"g": (-2.0, -0.5)}, attempts=12)
    assert all(-2.0 <= float.fromhex(dict(v)["g"]) <= -0.5 for v in got)


def test_comparison_templates_match_reference():
    # the attempt kernel's inline checks are these templates
    values = [0.0, -0.0, 1.0, 1.0 + 1e-8, -3.5, 1e300, math.inf, -math.inf, math.nan]
    assert set(expr._CMP) == set(CMP_OPS)
    for op, text in expr._CMP.items():
        rel = eval(f"lambda a, b, tol: {text.format('a', 'b', 'tol')}")
        for a in values:
            for b in values:
                want = ref_compare(op, a, b, sampling.EQ_CHECK_TOL)
                assert rel(a, b, sampling.EQ_CHECK_TOL) == want, (op, a, b)


class TestShortCircuitAndFailures:
    def test_unreached_branch_would_divide_by_zero(self):
        zero_div = Cmp(">", const(1) / (x - x), const(0))
        hyps = (Or(Cmp(">", x, const(0)), zero_div), Not(Cmp(">", x, const(5))))
        got = assert_same(["x"], hyps, attempts=3)
        assert any(v is not None for v in got) and None in got

    def test_failing_conjuncts_reject(self):
        overflow = Cmp(">", Exp(x * x * x), const(0))  # exp overflow for x > 8.9
        big = Pow(x, 200) * Pow(x, 200)  # inf for |x| > 5.9, so sin raises ValueError
        domain = Cmp("<=", Sin(big), const(1))
        unbound = Cmp(">", x + Var("w"), const(0))
        zero_div = Cmp(">", const(1) / (x - y), const(0))
        with pytest.raises(EvalError, match="exp overflow"):
            eval_pred(overflow, {"x": 9.5})
        with pytest.raises(ValueError, match="math domain error"):
            eval_pred(domain, {"x": 8.0})
        for bad in (overflow, domain):
            got = assert_same(["x"], (Cmp(">", x, const(-100)), bad), attempts=1)
            assert any(v is not None for v in got) and None in got
        for bad in (unbound, zero_div):
            assert assert_same(["x", "y"], (Cmp("=", y, x), bad), attempts=2, calls=10) == [None] * 10

    def test_false_conjunct_draws_nothing(self):
        hyps = (Cmp(">", x, const(0)), FalsePred())
        assert assert_same(["x"], hyps, calls=3) == [None] * 3

    def test_time_quantifier_still_raises_type_error(self):
        quant = TimeQuant("t", "tau", NONNEG, TRUE, Cmp(">=", x, const(0)))
        got = assert_same(["x"], (Cmp("<", x, const(3)), quant), calls=2)
        assert got == [(TypeError, f"not a Pred node: {quant!r}")]


class TestPlans:
    def test_equation_reading_a_later_solved_name_is_unbound(self):
        # the first equation solves z and reads y, which the second solves
        hyps = (Cmp("=", x, y + z), Cmp("=", y, const(2)))
        plan = sampling._build_plan(("x", "y", "z"), hyps)[1]
        assert [(n, how) for _, n, how in plan] == [("z", "linear"), ("y", "linear")]
        assert assert_same(["x", "y", "z"], hyps, calls=3, attempts=5) == [None] * 3
        # solved in the other order, both equations bind
        flipped = (hyps[1], hyps[0])
        got = assert_same(["x", "y", "z"], flipped, calls=5)
        assert all(v is not None and [k for k, _ in v] == ["x", "y", "z"] for v in got)

    def test_bisect_plan(self):
        hyps = (Cmp("=", x * x + y * y, const(4)), Cmp(">=", x, const(0)))
        plan = sampling._build_plan(("x", "y"), hyps)[1]
        assert [(n, how) for _, n, how in plan] == [("y", "bisect")]
        got = assert_same(["x", "y"], hyps, calls=20)
        assert any(v is not None for v in got)

    def test_range_rejects_solved_value(self):
        hyps = (Cmp("=", y, x * const(3)),)
        got = assert_same(["x", "y"], hyps, ranges={"y": (0.0, 1.0)}, calls=20, attempts=4)
        assert None in got and any(v is not None for v in got)

    def test_width_doubles_past_attempt_60(self):
        got = assert_same(["x"], (Cmp(">", x, const(15)),), calls=5)
        assert all(v is not None and float.fromhex(v[0][1]) > 15 for v in got)

    def test_repeated_name_keeps_first_position_and_last_draw(self):
        got = assert_same(["x", "y", "x"], (Cmp("<", x, y),), calls=10)
        assert all(v is None or [k for k, _ in v] == ["x", "y"] for v in got)

    def test_deep_conjunct_compiles(self):
        chain = x
        for k in range(600):
            chain = chain + const(k % 3)
        # no equation, so no planner recursion: only the check walks the chain
        hyps = (Cmp(">=", chain, const(0)), Cmp("<=", x, y))
        got = assert_same(["x", "y"], hyps, seeds=range(2), calls=5)
        assert all(v is not None for v in got)

    def test_same_shape_plans_share_code(self):
        def hyps(c):
            return (Cmp("=", y, x * const(c)), Cmp("<", x, const(c)))

        first = memo_kernel(sampling._attempt_kernel, ("x", "y"), hyps(2))
        second = memo_kernel(sampling._attempt_kernel, ("x", "y"), hyps(3))
        assert first is not second and first.__code__ is second.__code__
        # equal hypotheses get one attempt function
        assert memo_kernel(sampling._attempt_kernel, ("x", "y"), hyps(2)) is first
        rng = random.Random(0)
        v = sampling.sample_valuation(["x", "y"], hyps(3), rng)
        assert v["y"] == v["x"] * 3.0 and v["x"] < 3.0
