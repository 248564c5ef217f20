"""Reference evaluation by a recursive tree walk, shared by the tests.

The kernel evaluates every term through generated kernels (see
expr.KernelWriter).  These walks are written independently of them, one
Python call per node, in the order the kernels must follow: children left
to right, a division's denominator before its numerator, And and Or
short-circuiting.  The tests compare the kernels' values, exceptions and
subterms with theirs, so that no kernel is checked against another.  Over
them run the loops the generated orbits replaced: the grid, the orbit rule
and the leaf step of a run.
"""

import math

from hybridwlp.expr import (
    EVAL_FAILURES, Add, And, Cmp, Const, Cos, Div, EvalError, Exp, FalsePred, Mul, Neg, Not, Or,
    Pow, Sin, Sub, SymConst, TimeVar, TruePred, Var,
)
from hybridwlp.hprog import EQ_TOL, Abort, Assign, Evolve, Skip, Test, _solves_exactly


def ref_evaluate(e, val):
    """The value of e at the valuation val."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, (SymConst, Var)):
        try:
            return float(val[e.name])
        except KeyError:
            raise EvalError(f"unbound name {e.name!r}", e) from None
    if isinstance(e, TimeVar):
        try:
            return float(val["t"])
        except KeyError:
            raise EvalError("unbound time symbol 't'", e) from None
    if isinstance(e, Neg):
        return -ref_evaluate(e.arg, val)
    if isinstance(e, Add):
        return ref_evaluate(e.lhs, val) + ref_evaluate(e.rhs, val)
    if isinstance(e, Sub):
        return ref_evaluate(e.lhs, val) - ref_evaluate(e.rhs, val)
    if isinstance(e, Mul):
        return ref_evaluate(e.lhs, val) * ref_evaluate(e.rhs, val)
    if isinstance(e, Div):
        den = ref_evaluate(e.den, val)
        if den == 0.0:
            raise EvalError("division by zero", e)
        return ref_evaluate(e.num, val) / den
    if isinstance(e, Pow):
        return ref_evaluate(e.base, val) ** e.exp
    if isinstance(e, Sin):
        return math.sin(ref_evaluate(e.arg, val))
    if isinstance(e, Cos):
        return math.cos(ref_evaluate(e.arg, val))
    if isinstance(e, Exp):
        try:
            return math.exp(ref_evaluate(e.arg, val))
        except OverflowError:
            raise EvalError("exp overflow", e) from None
    raise TypeError(f"not an Expr node: {e!r}")


def ref_compare(op, a, b, eq_tol):
    if op == "=":
        return abs(a - b) <= eq_tol * (1.0 + max(abs(a), abs(b)))
    if op == "!=":
        return not ref_compare("=", a, b, eq_tol)
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown comparison operator {op!r}")


def ref_eval_pred(p, val, eq_tol):
    """The truth of p at the valuation val, equality at eq_tol."""
    if isinstance(p, TruePred):
        return True
    if isinstance(p, FalsePred):
        return False
    if isinstance(p, Cmp):
        return ref_compare(p.op, ref_evaluate(p.lhs, val), ref_evaluate(p.rhs, val), eq_tol)
    if isinstance(p, And):
        return ref_eval_pred(p.lhs, val, eq_tol) and ref_eval_pred(p.rhs, val, eq_tol)
    if isinstance(p, Or):
        return ref_eval_pred(p.lhs, val, eq_tol) or ref_eval_pred(p.rhs, val, eq_tol)
    if isinstance(p, Not):
        return not ref_eval_pred(p.arg, val, eq_tol)
    raise TypeError(f"not a Pred node: {p!r}")


# ---------------------------------------------------------------------------
# Numeric loops over the walk: the RK4 step that builds a merged
# environment and a derivative dict per stage, and a flow's state as one
# walk per component


def ref_rk4_step(field, s, h, consts):
    names = list(field.components)
    for x in names:  # a field variable the store lacks: KeyError before any stage
        s[x]

    def deriv(state):
        # a stage state holds the field's variables; the store's others
        # keep their values along the step, and shadow constants as in s
        env = {**consts, **s, **state}
        return {x: ref_evaluate(field.components[x], env) for x in names}

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
    return {x: ref_evaluate(e, env) for x, e in {**flow.components, **rest}.items()}


# ---------------------------------------------------------------------------
# Orbits and leaf steps as Python loops over the walk


def ref_grid(dom, h, horizon):
    """The forward grid {0, h, 2h, ...} up to min(horizon, dom.hi)."""
    if h <= 0:
        raise ValueError("grid step must be positive")
    top = min(horizon, dom.hi)
    if not math.isfinite(top):
        raise ValueError("grid needs a finite horizon or upper bound")
    out, k = [], 0
    while k * h <= top + 1e-12:
        out.append(k * h)
        k += 1
    return out


def ref_guarded_prefix(grid, states, guard, consts, eq_tol):
    """The orbit rule: the longest prefix of grid points whose states
    evaluate, are finite and satisfy the guard."""
    env = dict(consts)
    out = []
    try:
        for t, state in zip(grid, states):
            finite = all(map(math.isfinite, state.values()))
            env.update(state)
            if not (finite and ref_eval_pred(guard, env, eq_tol)):
                break
            out.append((t, state))
    except EVAL_FAILURES:
        pass
    return out


def ref_orbit_flow(flow, guard, dom, s, h, consts, horizon, eq_tol):
    grid = ref_grid(dom, h, horizon)
    states = (ref_flow_at(flow, t, s, consts) for t in grid)
    return ref_guarded_prefix(grid, states, guard, consts, eq_tol)


def ref_orbit_field(field, guard, dom, s, h, consts, horizon, eq_tol):
    grid = ref_grid(dom, h, horizon)
    return ref_guarded_prefix(grid, ref_rk4_states(field, s, h, consts), guard, consts, eq_tol)


def ref_steps(node, s, cfg):
    """(label, store) successors of a leaf node, each label formatted."""
    if isinstance(node, Skip):
        return [(None, s)]
    if isinstance(node, Abort):
        return []
    if isinstance(node, Assign):
        if node.var not in s:
            raise KeyError(f"unknown variable {node.var!r}")
        value = ref_evaluate(node.expr, {**cfg.consts, **s})
        return [(f"{node.var} := ...", {**s, node.var: value})]
    if isinstance(node, Test):
        return [(None, s)] if ref_eval_pred(node.cond, {**cfg.consts, **s}, EQ_TOL) else []
    if isinstance(node, Evolve):
        args = (node.guard, node.dom, s, cfg.step, cfg.consts, cfg.horizon, EQ_TOL)
        if node.flow is not None and (node.field is None or _solves_exactly(
                tuple(node.field.components.items()), tuple(node.flow.components.items()))):
            orbit = ref_orbit_flow(node.flow, *args)
        else:
            orbit = ref_orbit_field(node.field, *args)
        return [(f"evolve t={t:.4g}", state) for t, state in orbit]
    raise TypeError(f"not a HybridProgram node: {node!r}")
