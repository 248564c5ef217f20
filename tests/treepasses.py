"""Reference passes by recursive tree walks, shared by the tests.

The kernel walks terms and predicates with loops over explicit stacks, so
that no pass is bounded by the recursion limit.  These are the recursive
passes the loops replaced, one Python call per node: derivatives, the
polynomial normal form, negation normal form, the free and the binder
names, the printer, the prover's goal split and grid evaluation.  The tests compare
each loop's results, and where it raises its exceptions, with these.
"""

from math import inf

from hybridwlp.discharge import _Goal, _unfold_timequant
from hybridwlp.expr import (
    FALSE, TRUE, Add, And, Cmp, Const, Cos, Div, EvalError, Exp, FalsePred, Mul, Neg, Not,
    Or, Pow, Sin, Sub, SymConst, TimeQuant, TimeVar, TruePred, Var, const, eval_pred,
    is_zero_const, negate_cmp, ONE, TIME_NAME, ZERO,
)
from hybridwlp.hwl import _ATOM, _CMP, _FUNCTION_NAMES, _MUL, _OF_NODE, _fmt_rational, format_domain
from hybridwlp.polynorm import (
    P_ONE, P_ZERO, Atom, NormalizeError, _invert_monomial, poly_atom, poly_const,
)
from treewalk import ref_guarded_prefix


def ref_diff(e, wrt):
    if isinstance(e, Const) or isinstance(e, SymConst):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == wrt else ZERO
    if isinstance(e, TimeVar):
        return ONE if wrt == TIME_NAME else ZERO
    if isinstance(e, Neg):
        return Neg(ref_diff(e.arg, wrt))
    if isinstance(e, Add):
        return Add(ref_diff(e.lhs, wrt), ref_diff(e.rhs, wrt))
    if isinstance(e, Sub):
        return Sub(ref_diff(e.lhs, wrt), ref_diff(e.rhs, wrt))
    if isinstance(e, Mul):
        return Add(Mul(ref_diff(e.lhs, wrt), e.rhs), Mul(e.lhs, ref_diff(e.rhs, wrt)))
    if isinstance(e, Div):
        du, dv = ref_diff(e.num, wrt), ref_diff(e.den, wrt)
        if is_zero_const(dv):
            return Div(du, e.den)
        return Div(Sub(Mul(du, e.den), Mul(e.num, dv)), Pow(e.den, 2))
    if isinstance(e, Pow):
        if e.exp == 0:
            return ZERO
        return Mul(const(e.exp), Mul(ref_diff(e.base, wrt), Pow(e.base, e.exp - 1)))
    if isinstance(e, Sin):
        return Mul(ref_diff(e.arg, wrt), Cos(e.arg))
    if isinstance(e, Cos):
        return Neg(Mul(ref_diff(e.arg, wrt), Sin(e.arg)))
    if isinstance(e, Exp):
        return Mul(ref_diff(e.arg, wrt), Exp(e.arg))
    raise TypeError(f"not an Expr node: {e!r}")


def ref_norm(e):
    """fold(e, polynorm._norm): the polynomial of e."""
    if isinstance(e, Const):
        return poly_const(e.value)
    if isinstance(e, SymConst):
        return poly_atom(Atom("const", e.name))
    if isinstance(e, Var):
        return poly_atom(Atom("var", e.name))
    if isinstance(e, TimeVar):
        return poly_atom(Atom("time", TIME_NAME))
    if isinstance(e, Neg):
        return ref_norm(e.arg).neg()
    if isinstance(e, Add):
        return ref_norm(e.lhs).add(ref_norm(e.rhs))
    if isinstance(e, Sub):
        return ref_norm(e.lhs).sub(ref_norm(e.rhs))
    if isinstance(e, Mul):
        return ref_norm(e.lhs).mul(ref_norm(e.rhs))
    if isinstance(e, Pow):
        return ref_norm(e.base).pow(e.exp)
    if isinstance(e, Sin):
        p = ref_norm(e.arg)
        if p.is_zero():
            return P_ZERO
        return poly_atom(Atom("sin", args=(p,)))
    if isinstance(e, Cos):
        p = ref_norm(e.arg)
        if p.is_zero():
            return P_ONE
        return poly_atom(Atom("cos", args=(p,)))
    if isinstance(e, Exp):
        p = ref_norm(e.arg)
        if p.is_zero():
            return P_ONE
        return poly_atom(Atom("exp", args=(p,)))
    if isinstance(e, Div):
        pn = ref_norm(e.num)
        pd = ref_norm(e.den)
        if pd.is_zero():
            raise NormalizeError("denominator normalizes to zero")
        inv = _invert_monomial(pd)
        if inv is not None:
            return pn.mul(inv)
        return poly_atom(Atom("div", args=(pn, pd)))
    raise TypeError(f"not an Expr node: {e!r}")


def ref_nnf(p):
    if isinstance(p, (TruePred, FalsePred, Cmp)):
        return p
    if isinstance(p, And):
        return And(ref_nnf(p.lhs), ref_nnf(p.rhs))
    if isinstance(p, Or):
        return Or(ref_nnf(p.lhs), ref_nnf(p.rhs))
    if isinstance(p, Not):
        q = p.arg
        if isinstance(q, TruePred):
            return FALSE
        if isinstance(q, FalsePred):
            return TRUE
        if isinstance(q, Cmp):
            return negate_cmp(q)
        if isinstance(q, And):
            return Or(ref_nnf(Not(q.lhs)), ref_nnf(Not(q.rhs)))
        if isinstance(q, Or):
            return And(ref_nnf(Not(q.lhs)), ref_nnf(Not(q.rhs)))
        if isinstance(q, Not):
            return ref_nnf(q.arg)
    raise TypeError(f"not a Pred node: {p!r}")


def ref_free_names(node):
    """The names a term or predicate reads; a TimeQuant's binders are not
    free in it."""
    if isinstance(node, (Var, SymConst)):
        return {node.name}
    if isinstance(node, TimeVar):
        return {TIME_NAME}
    if isinstance(node, (Const, TruePred, FalsePred)):
        return set()
    if isinstance(node, (Neg, Sin, Cos, Exp, Not)):
        return ref_free_names(node.arg)
    if isinstance(node, Pow):
        return ref_free_names(node.base)
    if isinstance(node, Div):
        return ref_free_names(node.num) | ref_free_names(node.den)
    if isinstance(node, (Add, Sub, Mul, Cmp, And, Or)):
        return ref_free_names(node.lhs) | ref_free_names(node.rhs)
    if isinstance(node, TimeQuant):
        inner = ref_free_names(node.prefix) | ref_free_names(node.body)
        return inner - {node.t_name, node.tau_name}
    raise TypeError(f"not an Expr or Pred node: {node!r}")


def ref_pred_bound_names(p):
    if isinstance(p, (And, Or)):
        return ref_pred_bound_names(p.lhs) | ref_pred_bound_names(p.rhs)
    if isinstance(p, Not):
        return ref_pred_bound_names(p.arg)
    if isinstance(p, TimeQuant):
        inner = ref_pred_bound_names(p.prefix) | ref_pred_bound_names(p.body)
        return inner | {p.t_name, p.tau_name}
    return set()


def ref_fmt(node, prec):
    """hwl._fmt: node as text where an operator of precedence prec surrounds it."""
    op = _OF_NODE.get(type(node))
    if op is None:
        return _ref_fmt_operand(node, prec)
    if op.node is Pow:
        s = f"{ref_fmt(node.base, _ATOM)}^{node.exp}"
    elif op.node in (Neg, Not):
        s = op.text + ref_fmt(node.arg, op.prec)
    else:
        lhs, rhs = (node.num, node.den) if op.node is Div else (node.lhs, node.rhs)
        text = node.op if op.node is Cmp else op.text
        s = (ref_fmt(lhs, op.prec) + (f" {text} " if op.prec < _MUL else text)
             + ref_fmt(rhs, op.prec if op.prec < _CMP else op.prec + 1))
    return f"({s})" if prec > op.prec else s


def _ref_fmt_operand(node, prec):
    if isinstance(node, Const):
        if node.value < 0:
            return f"(-{_fmt_rational(-node.value)})"
        s = _fmt_rational(node.value)
        return f"({s})" if node.value.denominator != 1 and prec > _MUL else s
    if isinstance(node, (Var, SymConst)):
        return node.name
    if isinstance(node, TimeVar):
        return "t"
    if type(node) in _FUNCTION_NAMES:
        return f"{_FUNCTION_NAMES[type(node)]}({ref_fmt(node.arg, 0)})"
    if isinstance(node, (TruePred, FalsePred)):
        return "true" if isinstance(node, TruePred) else "false"
    if isinstance(node, TimeQuant):
        dom = format_domain(node.dom)
        s = (
            f"forall {node.t_name} in {dom}. "
            f"(forall {node.tau_name} in {dom}, {node.tau_name} <= {node.t_name}. "
            f"{ref_fmt(node.prefix, 0)}) -> ({ref_fmt(node.body, 0)})"
        )
        return f"({s})" if prec > 0 else s
    raise TypeError(f"not a term or predicate node: {node!r}")


def ref_split_goals(hyps, concl, extras=()):
    """discharge._split_goals."""
    if isinstance(concl, TruePred):
        return []
    if isinstance(concl, And):
        left = ref_split_goals(hyps, concl.lhs, extras)
        right = ref_split_goals(hyps, concl.rhs, extras)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(concl, TimeQuant):
        extra, body = _unfold_timequant(concl, (*hyps, *extras))
        return ref_split_goals(hyps, body, (*extras, *extra))
    if isinstance(concl, Not):
        return ref_split_goals(hyps, ref_nnf(concl), extras)
    if isinstance(concl, (Cmp, FalsePred, Or)):
        return [_Goal(extras, concl)]
    return None


def ref_eval_pred_ext(p, valuation, step=0.1, horizon=6.0, eq_tol=0.0):
    """vcgen.eval_pred_ext."""
    if isinstance(p, TimeQuant):
        if p.dom.lo == -inf and not isinstance(p.prefix, TruePred):
            raise EvalError("the down-sets of a domain unbounded below leave the grid")
        ts = p.dom.downset_grid(step, horizon)
        reached = ref_guarded_prefix(ts, ({p.tau_name: t} for t in ts), p.prefix, valuation, eq_tol)
        return all(
            ref_eval_pred_ext(p.body, {**valuation, p.t_name: t}, step, horizon, eq_tol)
            for t, _ in reached
        )
    if isinstance(p, And):
        return (ref_eval_pred_ext(p.lhs, valuation, step, horizon, eq_tol)
                and ref_eval_pred_ext(p.rhs, valuation, step, horizon, eq_tol))
    if isinstance(p, Or):
        return (ref_eval_pred_ext(p.lhs, valuation, step, horizon, eq_tol)
                or ref_eval_pred_ext(p.rhs, valuation, step, horizon, eq_tol))
    if isinstance(p, Not):
        return not ref_eval_pred_ext(p.arg, valuation, step, horizon, eq_tol)
    return eval_pred(p, valuation, eq_tol)


def outcome(f, *args):
    """("value", f(*args)), or ("raise", type, message) of what it raises."""
    try:
        return ("value", f(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raise", type(exc), str(exc))
