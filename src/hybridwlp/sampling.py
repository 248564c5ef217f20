"""Rejection sampling of valuations under predicate constraints.

Equality constraints are handled by solving for one name per equation:
linearly when the name occurs linearly, otherwise by bracketing and
bisection on the residual.  Sampling windows widen exponentially when
rejection keeps failing.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Optional, Sequence

from .expr import (
    And,
    Cmp,
    EVAL_FAILURES,
    FalsePred,
    Pred,
    Sub,
    TruePred,
    eval_pred,
    evaluate,
    pred_free_names,
)
from .polynorm import Poly, atom_form

EQ_CHECK_TOL = 1e-7
BASE_WIDTH = 10.0  # initial half-width of the sampling window


def flatten_conj(preds) -> list[Pred]:
    out: list[Pred] = []
    stack = list(preds)
    while stack:
        p = stack.pop()
        if isinstance(p, And):
            stack.append(p.lhs)
            stack.append(p.rhs)
        elif isinstance(p, TruePred):
            continue
        else:
            out.append(p)
    out.reverse()
    return out


def _linear_in(form: Optional[tuple[Poly, str]], name: str) -> bool:
    if form is None:
        return False
    poly = form[0]
    if poly.degree_in(name) != 1:
        return False
    # reject powers hiding inside transcendental or opaque atoms
    for atom in poly.atoms():
        if atom.kind in ("sin", "cos", "exp", "div"):
            inner = set()
            for arg in atom.args:
                for a in arg.atoms():
                    inner.add(a.name)
            if name in inner:
                return False
    return True


def _solve_linear(cmp_diff, name: str, valuation: dict) -> Optional[float]:
    # a*name + b = 0 with a, b evaluated at the current partial valuation
    try:
        f0 = evaluate(cmp_diff, {**valuation, name: 0.0})
        f1 = evaluate(cmp_diff, {**valuation, name: 1.0})
    except EVAL_FAILURES:
        return None
    a = f1 - f0
    if abs(a) < 1e-12:
        return None
    return -f0 / a


def _solve_bisect(cmp_diff, name: str, valuation: dict, width: float) -> Optional[float]:
    def residual(x: float) -> Optional[float]:
        try:
            return evaluate(cmp_diff, {**valuation, name: x})
        except EVAL_FAILURES:
            return None

    pts = [width * (k / 12.0) for k in range(-12, 13)]
    prev_x, prev_r = None, None
    for x in pts:
        r = residual(x)
        if r is None:
            prev_x, prev_r = None, None
            continue
        if abs(r) < 1e-12:
            return x
        if prev_r is not None and (r < 0) != (prev_r < 0):
            lo, hi, rlo = prev_x, x, prev_r
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                rm = residual(mid)
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


def check_valuation(hyps: Sequence[Pred], valuation: Mapping[str, float],
                    eq_tol: float = EQ_CHECK_TOL) -> bool:
    try:
        return all(eval_pred(h, valuation, eq_tol) for h in hyps)
    except EVAL_FAILURES:
        return False


# The plan of the latest hypothesis set, after the key it was built for: the
# names and the identities of the hypotheses.  A key is as cheap to build for
# a 15,000-node obligation as for one atom, and the entry holds its
# hypotheses, so no key's identities can be reused while it is kept.  Every
# caller samples one set in a loop, so one entry serves it.
_last_plan: tuple = (None, (), None)


def _plan(names: tuple, hyps: tuple) -> Optional[tuple]:
    """(flat, plan, free) for sampling names under hyps, built once per
    hypothesis set, or None when a conjunct is false."""
    global _last_plan
    key = (names, tuple(map(id, hyps)))
    if _last_plan[0] != key:
        _last_plan = (key, hyps, _build_plan(names, hyps))
    return _last_plan[2]


def _build_plan(names: tuple, hyps: tuple) -> Optional[tuple]:
    """flat lists the conjuncts, plan solves one determined name per
    equation in turn, and the free names are drawn."""
    flat = flatten_conj(hyps)
    if any(isinstance(h, FalsePred) for h in flat):
        return None
    plan = []
    determined: set[str] = set()
    for eq in flat:
        if not (isinstance(eq, Cmp) and eq.op == "="):
            continue
        candidates = [n for n in sorted(pred_free_names(eq) & set(names))
                      if n not in determined]
        if not candidates:
            continue
        form = atom_form(eq)
        linear = [n for n in candidates if _linear_in(form, n)]
        if linear:
            chosen, how = linear[-1], "linear"
        else:
            chosen, how = candidates[-1], "bisect"
        determined.add(chosen)
        # one Sub node per equation, so its compiled closure serves every sample
        plan.append((Sub(eq.lhs, eq.rhs), chosen, how))
    free = tuple(n for n in names if n not in determined)
    return tuple(flat), tuple(plan), free


def sample_valuation(
    names: Sequence[str],
    hyps: Sequence[Pred],
    rng: random.Random,
    ranges: Mapping[str, tuple] = {},
    attempts: int = 300,
) -> Optional[dict]:
    """One valuation of the given names satisfying all hypotheses, or None.

    ranges may pin per-name sampling intervals.
    """
    planned = _plan(tuple(names), tuple(hyps))
    if planned is None:
        return None
    flat, plan, free = planned
    width = BASE_WIDTH
    for attempt in range(attempts):
        if attempt and attempt % 60 == 0 and width < 1e5:
            width *= 2.0
        v: dict = {}
        ok = True
        for n in free:
            lo, hi = ranges.get(n, (-width, width))
            v[n] = rng.uniform(lo, hi)
        for diff, n, how in plan:
            if how == "linear":
                x = _solve_linear(diff, n, v)
            else:
                x = _solve_bisect(diff, n, v, width)
            if x is None:
                ok = False
                break
            lo, hi = ranges.get(n, (-math.inf, math.inf))
            if not (lo - 1e-9 <= x <= hi + 1e-9):
                ok = False
                break
            v[n] = x
        if not ok:
            continue
        if not check_valuation(flat, v):
            continue
        return v
    return None
