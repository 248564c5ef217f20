"""Symbolic terms and predicates over hybrid stores.

Expressions are trees over exact rational constants, named symbolic
constants, store variables and a distinguished time symbol ``t``.
Predicates are boolean trees over comparisons of expressions.  Both are
hash-consed: equal terms are one object (see _file).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

TIME_NAME = "t"


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
        return Const(x)
    raise TypeError(f"cannot coerce {x!r} to Expr")


class _Entry(weakref.ref):
    """An intern table entry: a weak reference to a node, and its key."""

    __slots__ = ("key",)


# A node's intern key is its type and fields, a child field by the node
# itself, a Const's value by its numerator and denominator.  Nodes hash by
# address, so a key hashes in C.  A key holds its children, so none is
# freed, and no address reused, while the key is in the table.  Each node
# class's __new__ builds its key inline and returns the live node filed
# under it, or files a new one (see _file).

# key -> _Entry of the one live node built from those fields
_TABLE: dict = {}


def _drop(entry: _Entry, table: dict = _TABLE) -> None:
    """Remove a dead node's entry, unless a node built since holds its key."""
    held = table.pop(entry.key, entry)
    if held is not entry:
        table[entry.key] = held


def _file(cls, key: tuple, fields: tuple, kids: tuple = ()):
    """A new node of type cls over fields, filed under key, with the names
    it reads (see _names) from its fields: a Var's or SymConst's name, t
    for a TimeVar, else the union of its children's, kids, less a
    TimeQuant's binders."""
    node = object.__new__(cls)
    state = node.__dict__
    state.update(zip(cls.__match_args__, fields))
    if cls is Var or cls is SymConst or cls is TimeVar:  # a TimeVar reads t
        state["_names"] = frozenset(fields or (TIME_NAME,))
    else:
        names = _NO_NAMES
        try:
            for kid in kids:  # names | kid's, reusing either that holds the other
                more = kid._names
                if not more <= names:
                    names = more if names <= more else names | more
        except AttributeError:
            pass  # a child field is not a node: the node has no names
        else:  # a TimeQuant's binders are not free in it
            state["_names"] = names - {fields[0], fields[1]} if cls is TimeQuant else names
    entry = _TABLE[key] = _Entry(node, _drop)
    entry.key = key
    return node


# The constructors of the shapes of node that share one, each the __new__
# of its classes; Const, Pow, Cmp and TimeQuant have their own.

def _nullary(cls):
    key = (cls,)
    entry = _TABLE.get(key)
    if entry is not None and (node := entry()) is not None:
        return node
    return _file(cls, key, ())


def _named(cls, name):
    key = (cls, name)
    entry = _TABLE.get(key)
    if entry is not None and (node := entry()) is not None:
        return node
    return _file(cls, key, (name,))


def _unary(cls, arg):
    key = (cls, arg)
    entry = _TABLE.get(key)
    if entry is not None and (node := entry()) is not None:
        return node
    fields = (arg,)
    return _file(cls, key, fields, fields)


def _binary(cls, lhs, rhs):
    key = (cls, lhs, rhs)
    entry = _TABLE.get(key)
    if entry is not None and (node := entry()) is not None:
        return node
    fields = (lhs, rhs)
    return _file(cls, key, fields, fields)


class _Node:
    """Base of Expr and Pred.  Nodes are immutable and hash-consed: every
    node is built by its class's __new__, which returns the live node over
    equal fields if there is one, so equal nodes are one object and == is
    `is`, and a node hashes by identity.  The intern table holds nodes
    weakly."""

    def __reduce__(self):  # so copy.copy and pickle give the node itself
        return type(self), tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __deepcopy__(self, memo):
        return self


class Expr(_Node):
    """Base class for expression nodes."""

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


@dataclass(frozen=True, eq=False, init=False)
class Const(Expr):
    value: Fraction

    def __new__(cls, value):
        if type(value) is int:  # keyed as the Fraction it becomes, which a hit never builds
            key = (cls, value, 1)
        else:
            if type(value) is not Fraction:
                value = Fraction(value)
            key = (cls, value.numerator, value.denominator)
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        return _file(cls, key, (Fraction(value) if type(value) is int else value,))


@dataclass(frozen=True, eq=False, init=False)
class SymConst(Expr):
    name: str

    __new__ = _named


@dataclass(frozen=True, eq=False, init=False)
class Var(Expr):
    name: str

    __new__ = _named


@dataclass(frozen=True, eq=False, init=False)
class TimeVar(Expr):
    """The distinguished time symbol; evaluates under the name ``t``."""

    __new__ = _nullary


@dataclass(frozen=True, eq=False, init=False)
class Neg(Expr):
    arg: Expr

    __new__ = _unary


@dataclass(frozen=True, eq=False, init=False)
class Add(Expr):
    lhs: Expr
    rhs: Expr

    __new__ = _binary


@dataclass(frozen=True, eq=False, init=False)
class Sub(Expr):
    lhs: Expr
    rhs: Expr

    __new__ = _binary


@dataclass(frozen=True, eq=False, init=False)
class Mul(Expr):
    lhs: Expr
    rhs: Expr

    __new__ = _binary


@dataclass(frozen=True, eq=False, init=False)
class Div(Expr):
    num: Expr
    den: Expr

    def __new__(cls, num, den):
        if den is ZERO:  # the one constant zero
            raise ValueError("division by the constant zero")
        return _binary(cls, num, den)


@dataclass(frozen=True, eq=False, init=False)
class Pow(Expr):
    base: Expr
    exp: int

    def __new__(cls, base, exp):
        if type(exp) is not int:
            if not isinstance(exp, int):
                raise ValueError("Pow exponent must be a natural number")
            exp = int(exp)  # True is 1
        if exp < 0:
            raise ValueError("Pow exponent must be a natural number")
        key = (cls, base, exp)
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        return _file(cls, key, (base, exp), (base,))


@dataclass(frozen=True, eq=False, init=False)
class Sin(Expr):
    arg: Expr

    __new__ = _unary


@dataclass(frozen=True, eq=False, init=False)
class Cos(Expr):
    arg: Expr

    __new__ = _unary


@dataclass(frozen=True, eq=False, init=False)
class Exp(Expr):
    arg: Expr

    __new__ = _unary


def subterms(e: Expr) -> Iterator[Expr]:
    """Every node of e, parent before children, children left to right;
    a worklist, so the depth is not bounded by the recursion limit."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_vars(e: Expr) -> set[str]:
    return {s.name for s in subterms(e) if isinstance(s, Var)}


def free_consts(e: Expr) -> set[str]:
    return {s.name for s in subterms(e) if isinstance(s, SymConst)}


def uses_time(e: Expr) -> bool:
    return any(isinstance(s, TimeVar) for s in subterms(e))


def free_names(e: Expr) -> set[str]:
    """All names the expression reads, with the time symbol under ``t``."""
    return set(_names(e))


# Each node, Expr or Pred, holds the frozenset of names it reads in its
# instance __dict__ under _names, outside ==, hash and repr.  _file sets it
# when it builds the node, from its children's sets, so no walk computes it.
# A composite node reuses a child's set when that child reads every name, so
# a spine of nodes over one subtree holds one set.  A node over a child
# field that is not a node has no set, nor has any node above it.

_NO_NAMES = frozenset()


def _names(node) -> frozenset:
    try:
        return node._names
    except AttributeError:
        list(subterms(node))  # children raises at the first non-node
        raise


_LEAVE = object()


# ---------------------------------------------------------------------------
# Generated kernels
#
# Every float value of a term comes from a generated Python function, a
# kernel, written by a KernelWriter: evaluate and eval_pred run one per term
# and bound names, and hprog's orbits (odecert.rk4_integrate's too),
# sampling's attempt function, one per sampling plan, and odecert's
# flow-certificate checks each run one over several terms.  Names reach a
# kernel only as arguments: the locals given to expr map each bound name to
# the variable that holds its value.  Each node becomes one statement, in the order of a
# left-to-right tree walk: children left to right, a division's denominator
# and zero check before its numerator, and each name load a statement of
# its own with float() applied, or, for a name without a variable, a raise
# of its unbound-name EvalError.  A zero denominator raises EvalError
# "division by zero", an exp overflow EvalError "exp overflow", each naming
# its node as subterm; a float power may raise OverflowError and a math
# domain error ValueError; a constant out of float range raises
# OverflowError and a child that is not a node TypeError, each only where
# the walk reaches it.  The code is straight-line, so an earlier statement
# always ran before a later one: a node object met again under the same
# locals, and a name loaded again from the same variable, reuse the first
# value, which cannot differ and would have raised first.
# Statements under an Exp sit in a try block that turns OverflowError into
# the Exp's EvalError, as a try around the walk of its argument would; a
# nested Exp ends the outer block and starts its own, so blocks never nest
# and a term of any depth compiles.  A guarded region (see guard) wraps its
# statements in one more try block whose EVAL_FAILURES clause runs a given
# statement with the exception bound to _exc, as a caller's try around an
# evaluate call does.  A compound statement (see begin) puts the statements
# that follow in the body of a loop or an if, whose body is straight-line
# on each pass: a value loaded inside the body is reused only inside it,
# and a local variable declared with floats, which holds a float whenever
# it is read, is read in place of a load.  Inside a loop opened at the top
# level, a float +, -, * or unary - of values fixed before the loop is
# computed once, just before it (see invariant): it cannot raise, so no
# failure moves.  Identifiers are synthesized:
# names, dictionary keys, constants, exponents and nodes reach the code
# only through the function's globals.  So every kernel of one shape has
# the same source, and function compiles each distinct source once per
# process: a bounded memo keyed by the source text keeps the code objects,
# and each kernel is the cached code run in fresh globals.  Both come from
# memo_kernel, keyed by the values they are written from: a term equal to an
# earlier one is that term (see _file), so it gets the earlier kernel.

@functools.lru_cache(maxsize=512)
def memo_kernel(write, *args):
    """write(*args), the kernel written from args alone, built once per
    value of write and args while among the 512 last used."""
    return write(*args)


class KernelWriter:
    """Source of one generated function, built statement by statement."""

    def __init__(self):
        self._globals = {"EvalError": EvalError, "_exp": math.exp, "_sin": math.sin,
                         "_cos": math.cos, "_FAIL": EVAL_FAILURES}
        self._lines: list = []  # (indent, guard or None, Exp handler or None, text)
        self._guard = None
        self._indent = "    "  # inside the def
        self._blocks: list = []  # the loads made before each open compound statement
        self._loaded: dict = {}  # load key -> identifier of its value
        self._temps = 0
        self._consts: dict = {}  # Const node -> identifier of its float among the globals
        self._fixed: set = set()  # identifiers and literals that hold one float (see fixed)
        self._values: dict = {}  # code of an operation on fixed values -> its identifier
        self._hoist_at = None  # index of the open top-level loop's header in _lines

    def bind(self, value) -> str:
        """An identifier for value among the function's globals."""
        name = f"_g{len(self._globals)}"
        self._globals[name] = value
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"_v{self._temps}"

    def line(self, text: str, handler: "str | None" = None) -> None:
        self._lines.append((self._indent, self._guard, handler, text))

    def guard(self, on_failure: "str | None") -> None:
        """Put the statements that follow, up to the next call, in a try
        block whose EVAL_FAILURES clause runs on_failure; None ends the
        region, which must not span a begin or an end.  When on_failure
        does not leave the function, a statement after the region may
        reuse its values only where it runs after the region completed."""
        self._guard = on_failure

    def begin(self, header: str) -> None:
        """Emit the compound statement header (a loop or an if) and put the
        statements that follow, up to the matching end, in its body."""
        if self._guard is not None:
            raise ValueError("a compound statement cannot start inside a guarded region")
        if not self._blocks and header.startswith(("for ", "while ")):
            self._hoist_at = len(self._lines)
        self.line(header)
        self._indent += "    "
        self._blocks.append(dict(self._loaded))

    def end(self) -> None:
        self._indent = self._indent[:-4]
        self._loaded = self._blocks.pop()
        if not self._blocks:
            self._hoist_at = None

    def floats(self, *names: str) -> None:
        """Declare local variables that hold a float whenever a load reads
        them, so the load reads the variable itself."""
        for n in names:
            self._loaded[("local", n)] = n

    def fixed(self, *names: str) -> None:
        """Declare identifiers that hold one float for the whole call
        (parameters the code never assigns) and float literals."""
        self._fixed.update(names)

    def invariant(self, form: str, *args: str) -> "str | None":
        """While a loop opened at the top level is open: when every one of
        args is fixed, the identifier of form.format(*args), a float +, -,
        * or unary - (which cannot raise), computed just before that loop,
        in the order first asked for, and shared by every later request for
        the same code; else None, and the caller computes it in place.
        Fixed are the identifiers declared with fixed, the constants and
        the values computed here."""
        if self._hoist_at is None or not all(map(self._fixed.__contains__, args)):
            return None
        code = form.format(*args)
        v = self._values.get(code)
        if v is None:
            v = self._values[code] = self.temp()
            self._fixed.add(v)
            self._lines.insert(self._hoist_at, ("    ", None, None, f"{v} = {code}"))
            self._hoist_at += 1
        return v

    def expr(self, e: Expr, local: Mapping[str, str], memo: dict) -> str:
        """Emit the statements that compute e and return the identifier of
        its value.  A name in local loads from the local variable it maps to,
        any other name raises its unbound-name EvalError; memo maps id(node)
        to the value of each node already computed under the same locals."""
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
        elif kind is Var or kind is SymConst or kind is TimeVar:
            memo[id(node)] = self._load(node, handler, local)
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
            memo[id(node)] = self.temp()  # never assigned: the raise comes first
            self.line(f"raise TypeError({self.bind(f'not an Expr node: {node!r}')})", handler)

    def _const(self, e: Const, handler) -> str:
        try:
            v = self._consts.get(e)
            if v is None:
                v = self._consts[e] = self.bind(float(e.value))
                self._fixed.add(v)
            return v
        except OverflowError:
            # out of float range: raise when reached, as the walk does
            v = self.temp()
            self.line(f"{v} = float({self.bind(e.value)})", handler)
            return v

    def _load(self, e: Expr, handler, local) -> str:
        if type(e) is TimeVar:
            name, message = TIME_NAME, "unbound time symbol 't'"
        else:
            name, message = e.name, f"unbound name {e.name!r}"
        key = ("local", local[name]) if name in local else ("unbound", name)
        v = self._loaded.get(key)
        if v is None:
            v = self._loaded[key] = self.temp()
            if name in local:
                self.line(f"{v} = float({local[name]})", handler)
            else:
                self.line(f"raise EvalError({self.bind(message)}, {self.bind(e)})", handler)
        return v

    def _zero_check(self, e: Div, handler, local, memo, stack) -> None:
        if type(e.den) is Const:
            return  # Div admits no zero constant, so the check would never fire
        self.line(f"if {memo[id(e.den)]} == 0.0:", handler)
        self.line(f"    raise EvalError({self.bind('division by zero')}, {self.bind(e)})",
                  handler)

    def _op(self, e: Expr, handler, local, memo, stack) -> None:
        args = [memo[id(c)] for c in children(e)]
        if type(e) in _FLOAT_OPS:  # cannot raise: a loop computes it once when it can
            v = memo[id(e)] = self.invariant(_KERNEL_OPS[type(e)], *args)
            if v is not None:
                return
        elif isinstance(e, Pow):
            args.append(self.bind(e.exp))
        v = memo[id(e)] = self.temp()
        self.line(f"{v} = " + _KERNEL_OPS[type(e)].format(*args), handler)

    def cmp(self, c: "Cmp", local: Mapping[str, str], memo: dict, tol: str) -> str:
        """Emit the statements that compute the sides of c, as expr does,
        and return the code of its relation, equality at the tolerance held
        by the variable tol."""
        a, b = self.expr(c.lhs, local, memo), self.expr(c.rhs, local, memo)
        return _CMP[c.op].format(a, b, tol)

    def pred(self, p: "Pred", local: Mapping[str, str], tol: str) -> str:
        """Emit the statements that decide p, with names loaded as expr loads
        them and equality at the tolerance held by the variable tol, and
        return the identifier or literal of its truth value.  And and Or
        short-circuit: the right operand is decided under a flag, a variable
        assigned at the top level that holds when the left operand leaves the
        result open, and a comparison under a flag sits in an if block on
        it, so blocks never nest, however deep the And and Or.  The value of
        a subpredicate is set whenever its flag holds.  A TimeQuant or a
        node that is not a Pred raises TypeError where it is reached."""
        values: list = []  # the values of the subpredicates decided last
        todo: list = [(self._decide, p, None)]
        while todo:
            step, *args = todo.pop()
            step(*args, local, tol, values, todo)
        return values.pop()

    def _decide(self, p, flag, local, tol, values, todo) -> None:
        kind = type(p)
        if kind is TruePred or kind is FalsePred:
            values.append(str(kind is TruePred))
        elif kind is And or kind is Or or kind is Not:
            todo.append((self._after_left, p, flag))
            todo.append((self._decide, p.arg if kind is Not else p.lhs, flag))
        else:
            if flag is not None:
                self.begin(f"if {flag}:")
            v = self.temp()
            if kind is Cmp:
                self.line(f"{v} = {self.cmp(p, local, {}, tol)}")
            else:  # v is never assigned: the raise comes first
                self.line(f"raise TypeError({self.bind(f'not a Pred node: {p!r}')})")
            if flag is not None:
                self.end()
            values.append(v)

    def _after_left(self, p, flag, local, tol, values, todo) -> None:
        a, v = values.pop(), self.temp()
        on = "" if flag is None else f"{flag} and "
        if type(p) is Not:
            self.line(f"{v} = {on}not {a}")
            values.append(v)
        else:  # v flags the right operand: reached where a leaves p open
            self.line(f"{v} = {on}{'' if type(p) is And else 'not '}{a}")
            todo += [(self._after_right, p, flag, a), (self._decide, p.rhs, v)]

    def _after_right(self, p, flag, a, local, tol, values, todo) -> None:
        b, v = values.pop(), self.temp()
        on = "" if flag is None else f"{flag} and "
        self.line(f"{v} = {on}({a} {'and' if type(p) is And else 'or'} {b})")
        values.append(v)

    def function(self, params: str, result: str):
        """The generated function of params that runs the statements so
        far and returns the expression result."""
        src = [f"def _kernel({params}):"]
        for (indent, guard), region in itertools.groupby(self._lines, key=lambda line: line[:2]):
            outer = indent if guard is None else indent + "    "
            if guard is not None:
                src.append(indent + "try:")
            for handler, group in itertools.groupby(region, key=lambda line: line[2]):
                pad = outer if handler is None else outer + "    "
                if handler is not None:
                    src.append(outer + "try:")
                src += [pad + text for *_, text in group]
                if handler is not None:
                    src += [outer + "except OverflowError:", outer + "    " + handler]
            if guard is not None:
                src += [indent + "except _FAIL as _exc:", indent + "    " + guard]
        src.append(f"    return {result}")
        exec(memo_kernel(compile, "\n".join(src) + "\n", "<kernel>", "exec"), self._globals)
        # popped, so that the function and its globals form no reference cycle
        return self._globals.pop("_kernel")


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
# the operations that cannot raise on floats, which invariant may move
_FLOAT_OPS = frozenset((Neg, Add, Sub, Mul))


def is_zero_const(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def fold(root, leave):
    """The value at root of leave(node, values), where values lists the
    values at the node's children: children first, left to right, and a
    shared subterm once per occurrence, as a tree walk, but on an explicit
    stack, so the depth of a term is not bounded by the recursion limit."""
    values, stack, leaving = [], [root], []  # _LEAVE on stack: the top of leaving has its values
    while stack:
        node = stack.pop()
        if node is _LEAVE:
            node, n = leaving.pop()
            args = values[-n:]
            del values[-n:]
            values.append(leave(node, args))
        else:
            kids = _KIDS.get(type(node), _not_a_node)(node)  # children(node), without a call
            if kids:
                leaving.append((node, len(kids)))
                stack.append(_LEAVE)
                stack += reversed(kids)
            else:
                values.append(leave(node, ()))
    return values[0]


def diff(e: Expr, wrt: str) -> Expr:
    """Symbolic derivative with respect to a variable name or the time symbol."""

    def leave(e: Expr, d: list) -> Expr:  # d: the derivatives of e's children
        kind = type(e)
        if kind is Const or kind is SymConst:
            return ZERO
        if kind is Var:
            return ONE if e.name == wrt else ZERO
        if kind is TimeVar:
            return ONE if wrt == TIME_NAME else ZERO
        if kind is Neg or kind is Add or kind is Sub:
            return kind(*d)
        if kind is Mul:
            return Add(Mul(d[0], e.rhs), Mul(e.lhs, d[1]))
        if kind is Div:
            du, dv = d
            if is_zero_const(dv):
                return Div(du, e.den)
            return Div(Sub(Mul(du, e.den), Mul(e.num, dv)), Pow(e.den, 2))
        if kind is Pow:
            if e.exp == 0:
                return ZERO
            return Mul(const(e.exp), Mul(d[0], Pow(e.base, e.exp - 1)))
        if kind is Sin:
            return Mul(d[0], Cos(e.arg))
        if kind is Cos:
            return Neg(Mul(d[0], Sin(e.arg)))
        if kind is Exp:
            return Mul(d[0], Exp(e.arg))
        raise TypeError(f"not an Expr node: {e!r}")

    return fold(e, leave)


def substitute(e: Expr, binding: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables (and ``t``) by expressions.

    Sharing is kept: a node in which no key of the binding is free comes
    back as itself, only the spine above a replaced name is rebuilt, and
    equal subterms of e are substituted once, so their result is shared.
    """
    return _subst(e, binding, {})


def _subst(root, binding: Mapping[str, Expr], memo: dict):
    """root, an Expr or a Pred, under binding, as substitute_pred describes:
    one loop over an explicit stack, children left to right.  memo maps the
    nodes substituted under binding to their results; a TimeQuant keeps the
    outer binding and memo on the stack while a binding and a memo of its
    own serve its prefix and body.

    A child is resolved where the loop meets it when it reads no key of
    the binding, is a Var or the TimeVar, or has a memo entry; only a child
    that must be rebuilt takes a turn of the loop, and None stands for its
    result until the node's _LEAVE takes it from done.  A node pushed twice
    before its first result is filed is rebuilt twice, to the same node."""
    keys = binding.keys()
    if keys.isdisjoint(_names(root)):
        return root
    kind = type(root)
    if kind is Var:
        return binding[root.name]
    if kind is TimeVar:
        return binding[TIME_NAME]
    if (out := memo.get(root)) is not None:
        return out
    done, stack, leaving = [], [root], []  # _LEAVE on stack: the top of leaving has its results
    while stack:
        node = stack.pop()
        if node is _LEAVE:  # the results left None are on done
            node, kind, a, b, scope = leaving.pop()
            if b is None:
                b = done.pop()
            if a is None:
                a = done.pop()
        else:  # node reads a key, is no Var or TimeVar, and has no memo entry
            kind, scope = type(node), None
            kids = _KIDS[kind](node)
            if not kids:  # a SymConst: constants are not substituted
                done.append(node)
                continue
            if kind is TimeQuant:  # its binders shadow keys of the binding
                t_name, tau_name = node.t_name, node.tau_name
                inner = {k: e for k, e in binding.items() if k != t_name and k != tau_name}
                # only a term that lands under the binders can be captured
                free = node._names
                used = frozenset().union(*(_names(e) for k, e in inner.items() if k in free))
                if t_name in used or tau_name in used:
                    t_name, tau_name = fresh_time_binders(used | free, 2)
                    inner[node.t_name], inner[node.tau_name] = Var(t_name), Var(tau_name)
                scope = (binding, memo, t_name, tau_name)
                binding, memo, keys = inner, {}, inner.keys()
            kid = kids[0]
            if keys.isdisjoint(kid._names):  # set, as root's is
                a = kid
            elif (k := type(kid)) is Var:
                a = binding[kid.name]
            elif k is TimeVar:
                a = binding[TIME_NAME]
            else:
                a = memo.get(kid)
            if len(kids) == 1:  # b is _LEAVE: no second child (no node has a third)
                b = _LEAVE
            elif keys.isdisjoint((kid := kids[1])._names):
                b = kid
            elif (k := type(kid)) is Var:
                b = binding[kid.name]
            elif k is TimeVar:
                b = binding[TIME_NAME]
            else:
                b = memo.get(kid)
            if a is None or b is None:
                leaving.append((node, kind, a, b, scope))
                stack.append(_LEAVE)
                if b is None:
                    stack.append(kid)
                if a is None:
                    stack.append(kids[0])
                continue
        if scope is not None:
            binding, memo, t_name, tau_name = scope
            keys = binding.keys()
            out = TimeQuant(t_name, tau_name, node.dom, a, b)
        elif b is _LEAVE:
            out = Pow(a, node.exp) if kind is Pow else kind(a)
        elif kind is Cmp:
            out = Cmp(node.op, a, b)
        else:  # a Div still rejects a constant zero denominator
            out = kind(a, b)
        memo[node] = out
        done.append(out)
    return done[0]


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


class Pred(_Node):
    """Base class for predicate nodes."""


@dataclass(frozen=True, eq=False, init=False)
class TruePred(Pred):
    __new__ = _nullary


@dataclass(frozen=True, eq=False, init=False)
class FalsePred(Pred):
    __new__ = _nullary


@dataclass(frozen=True, eq=False, init=False)
class Cmp(Pred):
    op: str
    lhs: Expr
    rhs: Expr

    def __new__(cls, op, lhs, rhs):
        if op not in CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        key = (cls, op, lhs, rhs)
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        return _file(cls, key, (op, lhs, rhs), (lhs, rhs))


@dataclass(frozen=True, eq=False, init=False)
class And(Pred):
    lhs: Pred
    rhs: Pred

    __new__ = _binary


@dataclass(frozen=True, eq=False, init=False)
class Or(Pred):
    lhs: Pred
    rhs: Pred

    __new__ = _binary


@dataclass(frozen=True, eq=False, init=False)
class Not(Pred):
    arg: Pred

    __new__ = _unary


@dataclass(frozen=True, eq=False, init=False)
class TimeQuant(Pred):
    """For all t in dom: (for all tau in dom with tau <= t: prefix) -> body.

    The paper's box of a guarded evolution, where the inner quantifier
    ranges over the down-set of t in dom.  wlp emits one per evolution
    command.  prefix is a predicate in tau, body a predicate in t; both
    already have the flow substituted for the store variables.  dom is an
    hprog.TimeDomain, a closed interval [lo, hi] with exact bounds.
    """

    t_name: str
    tau_name: str
    dom: object
    prefix: Pred
    body: Pred

    def __new__(cls, t_name, tau_name, dom, prefix, body):
        key = (cls, t_name, tau_name, dom, prefix, body)
        entry = _TABLE.get(key)
        if entry is not None and (node := entry()) is not None:
            return node
        return _file(cls, key, (t_name, tau_name, dom, prefix, body), (prefix, body))


# node type -> the tuple of its children, left to right: the one table every
# walk over terms and predicates reads
_KIDS = {
    **dict.fromkeys((Const, SymConst, Var, TimeVar, TruePred, FalsePred), lambda node: ()),
    **dict.fromkeys((Neg, Sin, Cos, Exp, Not), lambda node: (node.arg,)),
    Pow: lambda node: (node.base,),
    **dict.fromkeys((Add, Sub, Mul, Cmp, And, Or), operator.attrgetter("lhs", "rhs")),
    Div: operator.attrgetter("num", "den"),
    TimeQuant: operator.attrgetter("prefix", "body"),
}

ZERO = Const(0)
ONE = Const(1)
const = Const  # the constant of a rational
TRUE = TruePred()
FALSE = FalsePred()


def children(node) -> tuple:
    """The children of an Expr or Pred node, left to right."""
    return _KIDS.get(type(node), _not_a_node)(node)


def _not_a_node(node):
    raise TypeError(f"not an Expr or Pred node: {node!r}")


def pred_and(parts: list[Pred]) -> Pred:
    """The conjunction of parts, left to right, with every true left out,
    as a balanced tree: substituting into one conjunct rebuilds only the
    short spine above it."""
    parts = [p for p in parts if not isinstance(p, TruePred)]
    while len(parts) > 1:
        parts = [And(*parts[k:k + 2]) if k + 1 < len(parts) else parts[k]
                 for k in range(0, len(parts), 2)]
    return parts[0] if parts else TRUE


def flatten_conj(preds) -> list[Pred]:
    """The conjuncts of preds, left to right, with every And split and every
    true dropped."""
    out, stack = [], list(preds)[::-1]
    while stack:
        p = stack.pop()
        if isinstance(p, And):
            stack += (p.rhs, p.lhs)
        elif not isinstance(p, TruePred):
            out.append(p)
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
    # (node, whether an odd number of Not is above it), or (And or Or, None)
    # to join the last two results
    done, todo = [], [(p, False)]
    while todo:
        q, negated = todo.pop()
        kind = type(q)
        if q is And or q is Or:
            b = done.pop()
            done[-1] = q(done[-1], b)
        elif kind is Not:
            todo.append((q.arg, not negated))
        elif kind is And or kind is Or:
            joint = (Or if kind is And else And) if negated else kind
            todo += [(joint, None), (q.rhs, negated), (q.lhs, negated)]
        elif kind is Cmp:
            done.append(negate_cmp(q) if negated else q)
        elif kind is TruePred or kind is FalsePred:
            done.append((FALSE if kind is TruePred else TRUE) if negated else q)
        else:
            raise TypeError(f"not a Pred node: {Not(q) if negated else q!r}")
    return done[0]


def fresh_time_binders(avoid: set[str], k: int) -> tuple[str, str]:
    """The first pair of the binder sequence t/tau, t2/tau2, ..., from the k-th
    on, whose names are not in avoid."""
    while True:
        pair = ("t", "tau") if k == 1 else (f"t{k}", f"tau{k}")
        if not avoid & set(pair):
            return pair
        k += 1


def substitute_pred(p: Pred, binding: Mapping[str, Expr], memo: "dict | None" = None) -> Pred:
    """Capture-avoiding simultaneous substitution: a TimeQuant shadows its
    binders, and renames them apart when a term substituted for one of its
    free names mentions one.
    Sharing is kept as by substitute; a TimeQuant in which no key of the
    binding is free comes back as itself, binders and all.  memo, if given,
    maps nodes substituted under binding before to their results."""
    return _subst(p, binding, {} if memo is None else memo)


def pred_free_names(p: Pred) -> set[str]:
    if not isinstance(p, Pred):
        raise TypeError(f"not a Pred node: {p!r}")
    return set(_names(p))


def pred_bound_names(p: Pred) -> set[str]:
    """Every name a TimeQuant binds anywhere inside the predicate."""
    names, todo = set(), [p]
    while todo:
        q = todo.pop()
        kind = type(q)
        if kind is TimeQuant:
            names.update((q.t_name, q.tau_name))
        if kind is And or kind is Or or kind is Not or kind is TimeQuant:
            todo += _KIDS[kind](q)
    return names


# ---------------------------------------------------------------------------
# Evaluation at a valuation, through the generated kernels

# op -> its relation of a, b and the tolerance eq_tol, as code over {0},
# {1} and {2}; equality is relative: |a - b| <= eq_tol * (1 + max(|a|, |b|))
_CMP = {
    "=": "abs({0} - {1}) <= {2} * (1.0 + max(abs({0}), abs({1})))",
    "!=": "not abs({0} - {1}) <= {2} * (1.0 + max(abs({0}), abs({1})))",
    "<": "{0} < {1}",
    "<=": "{0} <= {1}",
    ">": "{0} > {1}",
    ">=": "{0} >= {1}",
}


def bound_names(term, binds) -> tuple:
    """The names the term (an Expr or a Pred) reads that binds holds, a
    mapping or a set, in the order of the term's name set; every name of
    binds when the term holds a non-node, which raises where it is reached."""
    try:
        names = _names(term)
    except TypeError:
        names = binds
    return tuple(filter(binds.__contains__, names))


def expr_kernel(e: Expr, *bounds: tuple):
    """f(*valuations) -> the value of e, with the names of each of the
    disjoint bounds read from the valuation in its place and any other name
    unbound."""
    w = KernelWriter()
    params, local = _reads(w, bounds)
    return w.function(params, w.expr(e, local, {}))


def pred_kernel(p: Pred, *bounds: tuple):
    """f(*valuations, eq_tol) -> the truth of p, equality at eq_tol, with
    the names read as expr_kernel reads them."""
    w = KernelWriter()
    params, local = _reads(w, bounds)
    return w.function(params + ", eq_tol", w.pred(p, local, "eq_tol"))


def _reads(w: KernelWriter, bounds: tuple) -> tuple[str, dict]:
    """The parameters v0, v1, ..., one per bound, and the locals that read
    each name of a bound from its parameter."""
    params = [f"v{i}" for i in range(len(bounds))]
    return ", ".join(params), {n: f"{v}[{w.bind(n)}]" for v, bound in zip(params, bounds)
                               for n in bound}


def evaluate(e: Expr, valuation: Mapping[str, float]) -> float:
    """The value of e at a valuation, as a left-to-right tree walk computes
    it; unbound names, division by zero and exp overflow raise EvalError
    (see KernelWriter)."""
    return memo_kernel(expr_kernel, e, bound_names(e, valuation))(valuation)


def eval_pred(p: Pred, valuation: Mapping[str, float], eq_tol: float = 0.0) -> bool:
    """Evaluate a predicate; equality is exact unless eq_tol is given, and
    And and Or short-circuit."""
    return memo_kernel(pred_kernel, p, bound_names(p, valuation))(valuation, eq_tol)
