"""Rejection sampling of valuations under predicate constraints.

Equality constraints are handled by solving for one name per equation:
linearly when the name occurs linearly, otherwise by bracketing and
bisection on the residual.  Sampling windows widen exponentially when
rejection keeps failing.  Each hypothesis set's plan compiles into one
generated attempt function (see expr.KernelWriter).
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Optional, Sequence

from .expr import (
    Cmp,
    FalsePred,
    KernelWriter,
    Pred,
    Sub,
    bound_names,
    flatten_conj,
    memo_kernel,
    pred_free_names,
    pred_kernel,
)
from .polynorm import Poly, atom_form

EQ_CHECK_TOL = 1e-7
BASE_WIDTH = 10.0  # initial half-width of the sampling window


def _linear_in(form: Optional[tuple[Poly, str]], name: str) -> bool:
    if form is None:
        return False
    poly = form[0]
    if poly.degree_in(name) != 1:
        return False
    # reject powers hiding inside transcendental or opaque atoms
    for atom in poly.atoms():
        if atom.kind in ("sin", "cos", "exp", "div") and any(
                a.name == name for arg in atom.args for a in arg.atoms()):
            return False
    return True


def _solve_bisect(residual, values: tuple, width: float) -> Optional[float]:
    """A root in [-width, width] of x -> residual(x, *values), a residual
    kernel (see _residual_kernel), or None."""
    pts = [width * (k / 12.0) for k in range(-12, 13)]
    prev_x, prev_r = None, None
    for x in pts:
        r = residual(x, *values)
        if r is None:
            prev_x, prev_r = None, None
            continue
        if abs(r) < 1e-12:
            return x
        if prev_r is not None and (r < 0) != (prev_r < 0):
            lo, hi, rlo = prev_x, x, prev_r
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                rm = residual(mid, *values)
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


def _build_plan(names: tuple, hyps: tuple) -> Optional[tuple]:
    """(flat, plan, free), or None when a conjunct is false: flat lists the
    conjuncts, plan solves one determined name per equation in turn, and
    the free names are drawn."""
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
        # one Sub node per equation: the subterm of its failures and bisect's residual
        plan.append((Sub(eq.lhs, eq.rhs), chosen, how))
    free = tuple(n for n in names if n not in determined)
    return tuple(flat), tuple(plan), free


def _residual_kernel(diff, name: str, bound: tuple):
    """r(x, *values) -> the value of diff with name at x and the names bound
    at the values, or None where it fails with EVAL_FAILURES."""
    w = KernelWriter()
    local = {n: w.temp() for n in bound}
    w.floats("x")
    w.guard("return None")
    r = w.expr(diff, {**local, name: "x"}, {})
    w.guard(None)
    return w.function(", ".join(["x", *local.values()]), r)


def _attempt_kernel(names: tuple, hyps: tuple):
    """attempt(uniform, ranges, width) -> the valuation of one sampling
    attempt under the plan of names and hyps (see _build_plan), or None
    when it is rejected; None for no plan.  It draws each free name with
    uniform from its range or (-width, width), solves each plan step at the
    names bound so far (a linear one from the residuals at 0 and 1, a bisect
    one by _solve_bisect over its residual kernel), rejects a solution
    outside its range, and checks the conjuncts in order at EQ_CHECK_TOL, a
    comparison inline and any other conjunct by its predicate kernel, given
    the values of the names it reads.  An EVAL_FAILURES exception while
    solving or checking rejects; any other propagates.  The valuation's
    keys come in the order in which they were bound."""
    planned = _build_plan(names, hyps)
    if planned is None:
        return None
    flat, plan, free = planned
    w = KernelWriter()
    local: dict = {}  # bound name -> identifier of its value
    bound: list = []  # "key: value" in the valuation's insertion order
    w.line("box = (-width, width)")
    for n in free:
        key, x = w.bind(n), w.temp()
        w.line(f"lo, hi = ranges.get({key}, box)")
        w.line(f"{x} = uniform(lo, hi)")
        local[n] = x
        bound.append(f"{key}: {x}")
    unbounded = w.bind((-math.inf, math.inf))
    for diff, n, how in plan:
        key, x = w.bind(n), w.temp()
        if how == "linear":
            w.guard("return None")
            f0 = w.expr(diff, {**local, n: "0.0"}, {})
            f1 = w.expr(diff, {**local, n: "1.0"}, {})
            w.guard(None)
            w.line(f"a = {f1} - {f0}")
            w.line("if abs(a) < 1e-12:")
            w.line("    return None")
            w.line(f"{x} = -{f0} / a")
        else:
            others = bound_names(diff, local)
            residual = w.bind(_residual_kernel(diff, n, others))
            values = "".join(f"{local[m]}, " for m in others)
            w.line(f"{x} = {w.bind(_solve_bisect)}({residual}, ({values}), width)")
            w.line(f"if {x} is None:")
            w.line("    return None")
        w.line(f"lo, hi = ranges.get({key}, {unbounded})")
        w.line(f"if not (lo - 1e-9 <= {x} <= hi + 1e-9):")
        w.line("    return None")
        local[n] = x
        bound.append(f"{key}: {x}")
    tol, memo = w.bind(EQ_CHECK_TOL), {}
    w.guard("return None")
    for p in flat:
        if type(p) is Cmp:
            w.line(f"if not ({w.cmp(p, local, memo, tol)}):")
        else:
            reads = bound_names(p, local)
            check = w.bind(memo_kernel(pred_kernel, p, reads))
            values = ", ".join(f"{w.bind(m)}: {local[m]}" for m in reads)
            w.line(f"if not {check}({{{values}}}, {tol}):")
        w.line("    return None")
    w.guard(None)
    return w.function("uniform, ranges, width", "{%s}" % ", ".join(bound))


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
    attempt = memo_kernel(_attempt_kernel, tuple(names), tuple(hyps))
    if attempt is None:  # a conjunct is false
        return None
    uniform = rng.uniform
    width = BASE_WIDTH
    for i in range(attempts):
        if i and i % 60 == 0 and width < 1e5:
            width *= 2.0
        v = attempt(uniform, ranges, width)
        if v is not None:
            return v
    return None
