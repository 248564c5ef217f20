"""Symbolic terms and predicates over hybrid stores.

Expressions are trees over exact rational constants, named symbolic
constants, store variables and a distinguished time symbol ``t``.
Predicates are boolean trees over comparisons of expressions.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Union

TIME_NAME = "t"

Rational = Union[int, Fraction]


class EvalError(Exception):
    """Raised when an expression cannot be evaluated at a valuation."""

    def __init__(self, message: str, subterm: "Expr | None" = None):
        super().__init__(message)
        self.subterm = subterm


# What evaluate can raise at a valuation: EvalError, OverflowError from a
# float power, ValueError from a math domain error (sin of an infinity).
EVAL_FAILURES = (EvalError, OverflowError, ValueError)


def _as_expr(x) -> "Expr":
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot coerce {x!r} to Expr")


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes. All nodes are immutable."""

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __pow__(self, n: int):
        return Pow(self, n)

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class SymConst(Expr):
    name: str


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class TimeVar(Expr):
    """The distinguished time symbol; evaluates under the name ``t``."""


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr

    def __post_init__(self):
        if isinstance(self.den, Const) and self.den.value == 0:
            raise ValueError("division by the constant zero")


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exp: int

    def __post_init__(self):
        if not isinstance(self.exp, int) or self.exp < 0:
            raise ValueError("Pow exponent must be a natural number")


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(x: Rational) -> Const:
    return Const(Fraction(x))


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Const, SymConst, Var, TimeVar)):
        return ()
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, (Add, Sub, Mul)):
        return (e.lhs, e.rhs)
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Sin, Cos, Exp)):
        return (e.arg,)
    raise TypeError(f"not an Expr node: {e!r}")


def subterms(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children(e):
        yield from subterms(c)


def free_vars(e: Expr) -> set[str]:
    return {s.name for s in subterms(e) if isinstance(s, Var)}


def free_consts(e: Expr) -> set[str]:
    return {s.name for s in subterms(e) if isinstance(s, SymConst)}


def uses_time(e: Expr) -> bool:
    return any(isinstance(s, TimeVar) for s in subterms(e))


def free_names(e: Expr) -> set[str]:
    """All names the expression reads, with the time symbol under ``t``."""
    return set(_names(e))


# Each node caches the frozenset of names it reads in its instance __dict__
# (under its own key for expressions and for predicates), beside its
# compiled closure and outside ==, hash and repr.  A composite node reuses a
# child's set when that child reads every name, so a spine of nodes over one
# subtree holds one set.  Like compiling, computing a set takes one Python
# frame per tree level.

_NAMES, _PRED_NAMES = "_names", "_pred_names"


def _names(e: Expr) -> frozenset:
    try:
        return e.__dict__[_NAMES]
    except (KeyError, AttributeError):
        pass
    if isinstance(e, (Var, SymConst)):
        names = frozenset((e.name,))
    elif isinstance(e, TimeVar):
        names = frozenset((TIME_NAME,))
    else:
        names = frozenset()
        for c in children(e):
            names = _merged(names, _names(c))
    e.__dict__[_NAMES] = names
    return names


def _merged(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing a or b when it holds the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# Each node compiles once into a closure over its children's closures; the
# closure is cached in the node's instance __dict__ (under its own key for
# expressions and for predicates), which is not a dataclass field, so ==,
# hash and repr do not see it.  The closures perform the float
# operations of a left-to-right tree walk, in the same order.  Children are
# compiled through map, so compiling takes one Python frame per tree level,
# as evaluating does.  A child that is not a node compiles to a closure that
# raises TypeError when it is reached.

_EXPR_FN, _PRED_FN = "_expr_fn", "_pred_fn"


def compile_expr(e: Expr) -> Callable[[Mapping[str, float]], float]:
    """f(valuation) -> float for e; unbound names, division by zero and exp
    overflow raise EvalError, a float power may raise OverflowError and a
    math domain error ValueError."""
    try:
        return e.__dict__[_EXPR_FN]
    except (KeyError, AttributeError):
        pass
    build = _EXPR_COMPILERS.get(type(e))
    if build is None:
        return _not_a_node(e, "an Expr")
    fn = build(e, *map(compile_expr, children(e)))
    e.__dict__[_EXPR_FN] = fn
    return fn


def _not_a_node(x, kind: str):
    def fn(*_):
        raise TypeError(f"not {kind} node: {x!r}")
    return fn


def _compile_const(e: Const):
    try:
        value = float(e.value)
    except OverflowError:
        # out of float range: raise when reached, as the tree walk does
        big = e.value
        return lambda v: float(big)
    return lambda v: value


def _compile_name(e: Expr):
    name = e.name

    def fn(v):
        try:
            return float(v[name])
        except KeyError:
            raise EvalError(f"unbound name {name!r}", e) from None
    return fn


def _compile_time(e: TimeVar):
    def fn(v):
        try:
            return float(v[TIME_NAME])
        except KeyError:
            raise EvalError("unbound time symbol 't'", e) from None
    return fn


def _compile_div(e: Div, num, den):
    def fn(v):
        d = den(v)
        if d == 0.0:
            raise EvalError("division by zero", e)
        return num(v) / d
    return fn


def _compile_exp(e: Exp, a):
    exp = math.exp

    def fn(v):
        try:
            return exp(a(v))
        except OverflowError:
            raise EvalError("exp overflow", e) from None
    return fn


def _compile_pow(e: Pow, a):
    n = e.exp
    return lambda v: a(v) ** n


def _compile_unary(f):
    return lambda e, a: lambda v: f(a(v))


_EXPR_COMPILERS = {
    Const: _compile_const,
    SymConst: _compile_name,
    Var: _compile_name,
    TimeVar: _compile_time,
    Neg: lambda e, a: lambda v: -a(v),
    Add: lambda e, a, b: lambda v: a(v) + b(v),
    Sub: lambda e, a, b: lambda v: a(v) - b(v),
    Mul: lambda e, a, b: lambda v: a(v) * b(v),
    Div: _compile_div,
    Pow: _compile_pow,
    Sin: _compile_unary(math.sin),
    Cos: _compile_unary(math.cos),
    Exp: _compile_exp,
}


def evaluate(e: Expr, valuation: Mapping[str, float]) -> float:
    """Evaluate at a valuation through e's compiled closure; unbound names
    and division by zero raise EvalError."""
    return compile_expr(e)(valuation)


# ---------------------------------------------------------------------------
# Straight-line kernels
#
# A KernelWriter generates one Python function that evaluates several
# expressions in turn, for loops that evaluate the same expressions many
# times (hprog's RK4 stepper and flow kernels).  Each node becomes one
# statement, in the order in which its compiled closure computes it:
# children left to right, a division's denominator and zero check before
# its numerator, and each name load a statement of its own with float()
# applied.  So the values are bit-identical to the closures', and a failure
# raises the same exception type, message and subterm at the same point.
# The code is straight-line, so an earlier statement always ran before a
# later one: a node object met again under the same locals, and a name
# loaded again from the same variable or from env, reuse the first value,
# which cannot differ and would have raised first.  One handler maps a
# KeyError on an env load's line to that load's EvalError.  Statements under
# an Exp sit in a try block that turns OverflowError into the Exp's
# EvalError, as the closure's try around its whole argument does; a nested
# Exp ends the outer block and starts its own, so blocks never nest and a
# term of any depth compiles.  Identifiers are synthesized: names,
# dictionary keys, constants, exponents and nodes reach the code only
# through the function's globals.


class KernelWriter:
    """Source of one generated function, built statement by statement."""

    def __init__(self):
        self._globals = {"EvalError": EvalError, "_unbound": _unbound, "_exp": math.exp,
                         "_sin": math.sin, "_cos": math.cos}
        self._lines: list = []  # (Exp handler or None, text, env-load site or None)
        self._loaded: dict = {}  # load key -> identifier of its value
        self._temps = 0

    def bind(self, value) -> str:
        """An identifier for value among the function's globals."""
        name = f"_g{len(self._globals)}"
        self._globals[name] = value
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"_v{self._temps}"

    def line(self, text: str, handler: "str | None" = None, site=None) -> None:
        self._lines.append((handler, text, site))

    def expr(self, e: Expr, local: Mapping[str, str], memo: dict) -> str:
        """Emit the statements that compute e and return the identifier of
        its value.  A name in local loads from the local variable it maps to,
        any other name from the parameter env; memo maps id(node) to the
        value of each node already computed under the same locals."""
        stack = [(self._visit, e, None)]
        while stack:
            step, node, handler = stack.pop()
            step(node, handler, local, memo, stack)
        return memo[id(e)]

    def _visit(self, node, handler, local, memo, stack) -> None:
        if id(node) in memo:
            return
        kind = type(node)
        if kind is Const:
            memo[id(node)] = self._const(node, handler)
        elif kind is Var or kind is SymConst:
            memo[id(node)] = self._load(node, node.name, f"unbound name {node.name!r}",
                                        handler, local)
        elif kind is TimeVar:
            memo[id(node)] = self._load(node, TIME_NAME, "unbound time symbol 't'",
                                        handler, local)
        elif kind is Div:
            stack += [(self._op, node, handler), (self._visit, node.num, handler),
                      (self._zero_check, node, handler), (self._visit, node.den, handler)]
        elif kind in _KERNEL_OPS:
            if kind is Exp:
                handler = (f"raise EvalError({self.bind('exp overflow')}, "
                           f"{self.bind(node)}) from None")
            stack.append((self._op, node, handler))
            stack += [(self._visit, c, handler) for c in reversed(children(node))]
        else:
            v = memo[id(node)] = self.temp()
            self.line(f"{v} = {self.bind(_not_a_node(node, 'an Expr'))}()", handler)

    def _const(self, e: Const, handler) -> str:
        try:
            return self.bind(float(e.value))
        except OverflowError:
            # out of float range: raise when reached, as the closure does
            v = self.temp()
            self.line(f"{v} = float({self.bind(e.value)})", handler)
            return v

    def _load(self, e: Expr, name: str, message: str, handler, local) -> str:
        key = ("local", local[name]) if name in local else ("env", name)
        v = self._loaded.get(key)
        if v is None:
            v = self._loaded[key] = self.temp()
            if name in local:
                self.line(f"{v} = float({local[name]})", handler)
            else:
                self.line(f"{v} = float(env[{self.bind(name)}])", handler, (message, e))
        return v

    def _zero_check(self, e: Div, handler, local, memo, stack) -> None:
        self.line(f"if {memo[id(e.den)]} == 0.0:", handler)
        self.line(f"    raise EvalError({self.bind('division by zero')}, {self.bind(e)})",
                  handler)

    def _op(self, e: Expr, handler, local, memo, stack) -> None:
        args = [memo[id(c)] for c in children(e)]
        if isinstance(e, Pow):
            args.append(self.bind(e.exp))
        v = memo[id(e)] = self.temp()
        self.line(f"{v} = " + _KERNEL_OPS[type(e)].format(*args), handler)

    def function(self, params: str, result: str):
        """The generated function of params that runs the statements so
        far and returns the expression result."""
        sites: dict = {}  # line number -> (message, node) of an env load
        body: list = []
        for handler, group in itertools.groupby(self._lines, key=lambda line: line[0]):
            pad = "" if handler is None else "    "
            if handler is not None:
                body.append("try:")
            for _, text, site in group:
                if site is not None:
                    sites[len(body) + 3] = site  # after the def and try lines
                body.append(pad + text)
            if handler is not None:
                body += ["except OverflowError:", "    " + handler]
        src = [f"def _kernel({params}):"]
        if sites:
            src += ["    try:", *("        " + text for text in body),
                    "    except KeyError as exc:",
                    f"        unbound = _unbound(exc, {self.bind(sites)})",
                    "        if unbound is None:",
                    "            raise",
                    "        raise unbound from None"]
        else:
            src += ["    " + text for text in body]
        src.append(f"    return {result}")
        exec(compile("\n".join(src) + "\n", "<kernel>", "exec"), self._globals)
        # popped, so that the function and its globals form no reference cycle
        return self._globals.pop("_kernel")


def _unbound(exc: KeyError, sites: dict) -> "EvalError | None":
    """The EvalError of the env load on the kernel line where exc arose."""
    site = sites.get(exc.__traceback__.tb_lineno)
    return None if site is None else EvalError(*site)


_KERNEL_OPS = {
    Neg: "-{0}",
    Add: "{0} + {1}",
    Sub: "{0} - {1}",
    Mul: "{0} * {1}",
    Div: "{0} / {1}",
    Pow: "{0} ** {1}",
    Sin: "_sin({0})",
    Cos: "_cos({0})",
    Exp: "_exp({0})",
}


def is_zero_const(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def diff(e: Expr, wrt: str) -> Expr:
    """Symbolic derivative with respect to a variable name or the time symbol."""
    if isinstance(e, Const) or isinstance(e, SymConst):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == wrt else ZERO
    if isinstance(e, TimeVar):
        return ONE if wrt == TIME_NAME else ZERO
    if isinstance(e, Neg):
        return Neg(diff(e.arg, wrt))
    if isinstance(e, Add):
        return Add(diff(e.lhs, wrt), diff(e.rhs, wrt))
    if isinstance(e, Sub):
        return Sub(diff(e.lhs, wrt), diff(e.rhs, wrt))
    if isinstance(e, Mul):
        return Add(Mul(diff(e.lhs, wrt), e.rhs), Mul(e.lhs, diff(e.rhs, wrt)))
    if isinstance(e, Div):
        du, dv = diff(e.num, wrt), diff(e.den, wrt)
        if is_zero_const(dv):
            return Div(du, e.den)
        return Div(Sub(Mul(du, e.den), Mul(e.num, dv)), Pow(e.den, 2))
    if isinstance(e, Pow):
        if e.exp == 0:
            return ZERO
        return Mul(const(e.exp), Mul(diff(e.base, wrt), Pow(e.base, e.exp - 1)))
    if isinstance(e, Sin):
        return Mul(diff(e.arg, wrt), Cos(e.arg))
    if isinstance(e, Cos):
        return Neg(Mul(diff(e.arg, wrt), Sin(e.arg)))
    if isinstance(e, Exp):
        return Mul(diff(e.arg, wrt), Exp(e.arg))
    raise TypeError(f"not an Expr node: {e!r}")


def substitute(e: Expr, binding: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables (and ``t``) by expressions.

    Sharing is kept: a node in which no key of the binding is free comes
    back as itself, only the spine above a replaced name is rebuilt, and a
    node shared within e is substituted once, so its result is shared too.
    """
    return _subst(e, binding, {})


def _subst(e: Expr, binding: Mapping[str, Expr], memo: dict) -> Expr:
    # one Python frame per tree level (no comprehension), so a tree deep
    # enough to reach the recursion limit here would reach it when compiled
    if binding.keys().isdisjoint(_names(e)):
        return e
    if isinstance(e, Var):
        return binding[e.name]
    if isinstance(e, TimeVar):
        return binding[TIME_NAME]
    out = memo.get(id(e))
    if out is not None:
        return out
    kids = children(e)
    new = []
    for c in kids:
        new.append(_subst(c, binding, memo))
    out = e if all(map(operator.is_, new, kids)) else _rebuild(e, new)
    memo[id(e)] = out
    return out


def _rebuild(e: Expr, kids: list) -> Expr:
    """A node of e's type over new children; Div still rejects a constant
    zero denominator."""
    if isinstance(e, Pow):
        return Pow(kids[0], e.exp)
    return type(e)(*kids)


def lie_derivative(mu: Expr, field: Mapping[str, Expr]) -> Expr:
    """Directional derivative of mu along the vector field: sum of d(mu)/dx_i * f_i.

    The function mu must be time independent and may only read field variables
    and symbolic constants.
    """
    if uses_time(mu):
        raise ValueError("lie_derivative: expression mentions the time symbol")
    unknown = free_vars(mu) - set(field)
    if unknown:
        raise ValueError(f"lie_derivative: not field variables: {sorted(unknown)}")
    total: Expr = ZERO
    for name in sorted(field):
        d = diff(mu, name)
        if is_zero_const(d):
            continue
        total = Add(total, Mul(d, field[name]))
    return total


# ---------------------------------------------------------------------------
# Predicates


CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

_NEGATED = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_SWAPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Pred:
    """Base class for predicate nodes."""


@dataclass(frozen=True)
class TruePred(Pred):
    pass


@dataclass(frozen=True)
class FalsePred(Pred):
    pass


@dataclass(frozen=True)
class Cmp(Pred):
    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And(Pred):
    lhs: Pred
    rhs: Pred


@dataclass(frozen=True)
class Or(Pred):
    lhs: Pred
    rhs: Pred


@dataclass(frozen=True)
class Not(Pred):
    arg: Pred


@dataclass(frozen=True)
class TimeQuant(Pred):
    """For all t in dom: (for all tau in dom with tau <= t: prefix) -> body.

    wlp emits one per evolution command.  prefix is a predicate in tau,
    body a predicate in t; both already have the flow substituted for the
    store variables.  dom is an hprog.TimeDomain.
    """

    t_name: str
    tau_name: str
    dom: object
    prefix: Pred
    body: Pred


TRUE = TruePred()
FALSE = FalsePred()


def pred_and(parts: list[Pred]) -> Pred:
    parts = [p for p in parts if not isinstance(p, TruePred)]
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def pred_or(parts: list[Pred]) -> Pred:
    parts = [p for p in parts if not isinstance(p, FalsePred)]
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def implies(p: Pred, q: Pred) -> Pred:
    if isinstance(p, TruePred):
        return q
    return Or(Not(p), q)


def negate_cmp(c: Cmp) -> Cmp:
    return Cmp(_NEGATED[c.op], c.lhs, c.rhs)


def swap_cmp(c: Cmp) -> Cmp:
    return Cmp(_SWAPPED[c.op], c.rhs, c.lhs)


def nnf(p: Pred) -> Pred:
    """Negation normal form: Not is eliminated by flipping comparisons."""
    if isinstance(p, (TruePred, FalsePred, Cmp)):
        return p
    if isinstance(p, And):
        return And(nnf(p.lhs), nnf(p.rhs))
    if isinstance(p, Or):
        return Or(nnf(p.lhs), nnf(p.rhs))
    if isinstance(p, Not):
        q = p.arg
        if isinstance(q, TruePred):
            return FALSE
        if isinstance(q, FalsePred):
            return TRUE
        if isinstance(q, Cmp):
            return negate_cmp(q)
        if isinstance(q, And):
            return Or(nnf(Not(q.lhs)), nnf(Not(q.rhs)))
        if isinstance(q, Or):
            return And(nnf(Not(q.lhs)), nnf(Not(q.rhs)))
        if isinstance(q, Not):
            return nnf(q.arg)
    raise TypeError(f"not a Pred node: {p!r}")


def fresh_time_binders(avoid: set[str], k: int) -> tuple[str, str]:
    """The first pair of the binder sequence t/tau, t2/tau2, ..., from the k-th
    on, whose names are not in avoid."""
    while True:
        pair = ("t", "tau") if k == 1 else (f"t{k}", f"tau{k}")
        if not avoid & set(pair):
            return pair
        k += 1


def substitute_pred(p: Pred, binding: Mapping[str, Expr]) -> Pred:
    """Capture-avoiding simultaneous substitution: a TimeQuant shadows its
    binders, and renames them apart when a substituted term mentions one.
    Sharing is kept as by substitute; a TimeQuant in which no key of the
    binding is free comes back as itself, binders and all."""
    return _subst_pred(p, binding, {})


def _subst_pred(p: Pred, binding: Mapping[str, Expr], memo: dict) -> Pred:
    if binding.keys().isdisjoint(_pred_names(p)):
        return p
    out = memo.get(id(p))
    if out is not None:
        return out
    if isinstance(p, Cmp):
        lhs, rhs = _subst(p.lhs, binding, memo), _subst(p.rhs, binding, memo)
        out = p if lhs is p.lhs and rhs is p.rhs else Cmp(p.op, lhs, rhs)
    elif isinstance(p, TimeQuant):
        bound = {p.t_name, p.tau_name}
        inner = {k: e for k, e in binding.items() if k not in bound}
        used = frozenset().union(*map(_names, inner.values()))
        t_name, tau_name = p.t_name, p.tau_name
        if not used.isdisjoint(bound):
            t_name, tau_name = fresh_time_binders(used | _pred_names(p), 2)
            inner[p.t_name], inner[p.tau_name] = Var(t_name), Var(tau_name)
        inner_memo: dict = {}  # the binding differs under the binders
        prefix = _subst_pred(p.prefix, inner, inner_memo)
        body = _subst_pred(p.body, inner, inner_memo)
        if t_name == p.t_name and prefix is p.prefix and body is p.body:
            out = p
        else:
            out = TimeQuant(t_name, tau_name, p.dom, prefix, body)
    else:
        kids = _subpreds(p)
        new = []
        for c in kids:
            new.append(_subst_pred(c, binding, memo))
        out = p if all(map(operator.is_, new, kids)) else type(p)(*new)
    memo[id(p)] = out
    return out


def _eq(a: float, b: float, eq_tol: float) -> bool:
    return abs(a - b) <= eq_tol * (1.0 + max(abs(a), abs(b)))


# op -> rel(a, b, eq_tol), read by compare and by compiled comparisons
_REL = {
    "=": _eq,
    "!=": lambda a, b, eq_tol: not _eq(a, b, eq_tol),
    "<": lambda a, b, eq_tol: a < b,
    "<=": lambda a, b, eq_tol: a <= b,
    ">": lambda a, b, eq_tol: a > b,
    ">=": lambda a, b, eq_tol: a >= b,
}


def compare(op: str, a: float, b: float, eq_tol: float = 0.0) -> bool:
    if op not in _REL:
        raise ValueError(f"unknown comparison operator {op!r}")
    return _REL[op](a, b, eq_tol)


def compile_pred(p: Pred) -> Callable[[Mapping[str, float], float], bool]:
    """f(valuation, eq_tol) -> bool for p; And and Or short-circuit, and a
    TimeQuant raises TypeError when it is reached."""
    try:
        return p.__dict__[_PRED_FN]
    except (KeyError, AttributeError):
        pass
    build = _PRED_COMPILERS.get(type(p))
    if build is None:
        return _not_a_node(p, "a Pred")
    fn = build(p, *map(compile_pred, _subpreds(p)))
    p.__dict__[_PRED_FN] = fn
    return fn


def _subpreds(p: Pred) -> tuple:
    if isinstance(p, (And, Or)):
        return (p.lhs, p.rhs)
    if isinstance(p, Not):
        return (p.arg,)
    return ()


def _compile_cmp(p: Cmp):
    a, b, rel = compile_expr(p.lhs), compile_expr(p.rhs), _REL[p.op]
    return lambda v, eq_tol: rel(a(v), b(v), eq_tol)


_PRED_COMPILERS = {
    TruePred: lambda p: lambda v, eq_tol: True,
    FalsePred: lambda p: lambda v, eq_tol: False,
    Cmp: _compile_cmp,
    And: lambda p, a, b: lambda v, eq_tol: a(v, eq_tol) and b(v, eq_tol),
    Or: lambda p, a, b: lambda v, eq_tol: a(v, eq_tol) or b(v, eq_tol),
    Not: lambda p, a: lambda v, eq_tol: not a(v, eq_tol),
}


def eval_pred(p: Pred, valuation: Mapping[str, float], eq_tol: float = 0.0) -> bool:
    """Evaluate a predicate; equality is exact unless eq_tol is given."""
    return compile_pred(p)(valuation, eq_tol)


def pred_free_names(p: Pred) -> set[str]:
    return set(_pred_names(p))


def _pred_names(p: Pred) -> frozenset:
    """The free names of p, cached on each node as _names caches them."""
    try:
        return p.__dict__[_PRED_NAMES]
    except (KeyError, AttributeError):
        pass
    if isinstance(p, Cmp):
        names = _merged(_names(p.lhs), _names(p.rhs))
    elif isinstance(p, TimeQuant):
        inner = _merged(_pred_names(p.prefix), _pred_names(p.body))
        names = inner - {p.t_name, p.tau_name}
    elif isinstance(p, (TruePred, FalsePred, And, Or, Not)):
        names = frozenset()
        for c in _subpreds(p):
            names = _merged(names, _pred_names(c))
    else:
        raise TypeError(f"not a Pred node: {p!r}")
    p.__dict__[_PRED_NAMES] = names
    return names


def pred_bound_names(p: Pred) -> set[str]:
    """Every name a TimeQuant binds anywhere inside the predicate."""
    if isinstance(p, (And, Or)):
        return pred_bound_names(p.lhs) | pred_bound_names(p.rhs)
    if isinstance(p, Not):
        return pred_bound_names(p.arg)
    if isinstance(p, TimeQuant):
        inner = pred_bound_names(p.prefix) | pred_bound_names(p.body)
        return inner | {p.t_name, p.tau_name}
    return set()
