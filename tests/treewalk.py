"""Reference evaluation by a recursive tree walk, shared by the tests.

The kernel evaluates every term through generated kernels (see
expr.KernelWriter).  These walks are written independently of them, one
Python call per node, in the order the kernels must follow: children left
to right, a division's denominator before its numerator, And and Or
short-circuiting.  The tests compare the kernels' values, exceptions and
subterms with theirs, so that no kernel is checked against another.
"""

import math

from hybridwlp.expr import (
    Add, And, Cmp, Const, Cos, Div, EvalError, Exp, FalsePred, Mul, Neg, Not, Or, Pow, Sin,
    Sub, SymConst, TimeVar, TruePred, Var,
)


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

    def deriv(state):
        env = {**consts, **state}
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
