"""Hybrid stores, hybrid-program ASTs and an executable sampling semantics.

The sampler approximates the state-transformer semantics on a time grid:
run_sampled gives the stores reachable within the loop fuel, find_violation
searches runs depth first, on one explicit stack, for a counterexample.  It
checks guards only at grid points, so it can falsify but never prove; the
sound path goes through wlp generation and discharge.  An evolution
command's orbit, from its flow when the flow solves its field exactly or
it has no field, from RK4 on its field otherwise, is the longest prefix
of grid points whose states evaluate, are finite and satisfy the guard;
each orbit runs as one generated function (orbit_kernel), and so does the
numeric oracle odecert.rk4_integrate, as RK4's orbit under the guard true.
An orbit that ends find_violation's run decides the post in its function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import count, repeat, takewhile
from math import inf, isfinite
from operator import ge, itemgetter, mul
from typing import Iterator, Mapping, Optional, Union

from .expr import (
    EVAL_FAILURES, TIME_NAME, ZERO, Expr, KernelWriter, Pred, Sub, Var, bound_names, children,
    diff, eval_pred, expr_kernel, free_names, free_vars, memo_kernel, pred_kernel, substitute,
    uses_time,
)
from .polynorm import NormalizeError, normalize

Store = dict[str, float]

@dataclass(frozen=True)
class VectorField:
    """Autonomous field: one time-free expression per variable."""

    components: Mapping[str, Expr]

    def __post_init__(self):
        object.__setattr__(self, "components", dict(self.components))
        declared = set(self.components)
        for name, e in self.components.items():
            if uses_time(e):
                raise ValueError(f"field component {name!r} mentions the time symbol")
            extra = free_vars(e) - declared
            if extra:
                raise ValueError(
                    f"field component {name!r} reads undeclared variables {sorted(extra)}"
                )

    @cached_property
    def component_items(self) -> tuple:
        """The component items in order: the field's value, which fixes the
        order of its orbits' statements."""
        return tuple(self.components.items())

    def __eq__(self, other):
        if type(other) is not VectorField:
            return NotImplemented
        return self.component_items == other.component_items

    def __hash__(self):
        return hash(self.component_items)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.components))

    @cached_property
    def reads(self) -> tuple[str, ...]:
        """The sorted names the components read besides the variables."""
        return tuple(sorted(set().union(*map(free_names, self.components.values()))
                            - self.components.keys()))


def emit_rk4_step(
    w: KernelWriter, components: tuple, base: Mapping[str, str], local: Mapping[str, str]
) -> list[str]:
    """Emit the four stages of one classical RK4 step of a field's component
    items and return, per component in order, the expression of its new
    value b + sixth * (k1 + 2 * k2 + 2 * k3 + k4), with b its identifier in base.
    The first stage reads the field's variables from base, the others from
    the intermediate states b + half * k1, b + half * k2 and b + h * k3;
    other names load through local.  The generated code must bind h,
    half = 0.5 * h and sixth = h / 6.0 as parameters it never assigns (h a
    number whose product with a float is a float).  An intermediate value
    of a variable that no component reads is not computed, and one equal
    to an earlier one of the step is reused.  A product, sum or negation of
    values fixed before the step loop is computed once, before it (see
    KernelWriter.invariant), such as each stage of a component on literals
    alone, and a k3 that is k2 is doubled once.  Any other node whose
    names a stage loads from the same identifiers as an earlier stage has
    that stage's value: the later stage takes the earlier identifier, whose
    statements raise first.  So a node that reads no name of base is
    computed in the first stage alone, and one that reads only variables
    whose stage-2 and stage-3 states are one value, in stage 2 alone."""
    w.fixed("h", "half", "sixth", "2.0")

    def value(form: str, *args: str) -> str:
        """form at args: a fixed value's identifier, else the code in place."""
        v = w.invariant(form, *args)
        return f"({form.format(*args)})" if v is None else v

    read = [x for x, _ in components if any(x in free_names(e) for _, e in components)]
    state, stages = base, []
    made: dict = {}  # (variable, coefficient, stage value) -> intermediate value
    earlier: list = []  # per stage so far, (the identifiers its names load from, its memo)
    for coef in ("half", "half", "h", None):
        at, memo = {**local, **state}, {}
        for loads, values in earlier:
            moved = {n for n in loads.keys() | at.keys() if loads.get(n) != at.get(n)}
            for node, v in _unmoved(components, moved, values).items():
                memo.setdefault(node, v)
        ks = [w.expr(e, at, memo) for _, e in components]
        earlier.append((at, memo))
        stages.append(ks)
        if coef is not None:
            state = {}
            for (x, _), k in zip(components, ks):
                if x in read:
                    y = made.get((x, coef, k))
                    if y is None:  # k repeats only when loaded or computed once for the step
                        y = made[x, coef, k] = w.temp()
                        w.floats(y)
                        w.line(f"{y} = {base[x]} + {value('{0} * {1}', coef, k)}")
                    state[x] = y
    # 2.0 * k is the product 2 * k, without converting the int on each step
    out = []
    for (x, _), k1, k2, k3, k4 in zip(components, *stages):
        two = w.invariant("2.0 * {0}", k2)
        if two is None and k3 == k2:
            two = w.temp()
            w.line(f"{two} = 2.0 * {k2}")
        two = two or f"(2.0 * {k2})"
        total = value("{0} + {1}", value("{0} + {1}", k1, two),
                      two if k3 == k2 else value("2.0 * {0}", k3))
        out.append(f"{base[x]} + {value('sixth * {0}', value('{0} + {1}', total, k4))}")
    return out


def _unmoved(components: tuple, names: set, memo: dict) -> dict:
    """The entries of memo for the outermost nodes of the components that
    read none of names and have one; a walk that meets one reads its value
    from memo and never goes below it.  A node without an entry lies below
    a node the stage of memo took from an earlier one.  Each node is
    visited once, however shared."""
    out: dict = {}
    seen: set = set()
    todo = [e for _, e in components]
    while todo:
        e = todo.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if id(e) in memo and free_names(e).isdisjoint(names):
            out[id(e)] = memo[id(e)]
        else:
            todo += children(e)
    return out


@dataclass(frozen=True)
class TimeDomain:
    """Closed interval [lo, hi] of times containing 0.  A finite bound is
    an exact Fraction; lo may be -inf and hi inf."""

    lo: Union[Fraction, float] = -inf
    hi: Union[Fraction, float] = inf

    def __post_init__(self):
        for name in ("lo", "hi"):
            x = getattr(self, name)
            if x not in (-inf, inf):
                object.__setattr__(self, name, Fraction(x))
        if not self.lo <= 0 <= self.hi:
            raise ValueError("time domain must satisfy lo <= 0 <= hi")

    def contains_domain(self, other: "TimeDomain") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def includes_negative(self) -> bool:
        return self.lo < 0

    def grid(self, h: float, horizon: float) -> list[float]:
        """Forward grid {0, h, 2h, ...} clipped to the domain and the horizon."""
        return list(self.times(h, horizon))

    def times(self, h: float, horizon: float) -> Iterator[float]:
        """The points k * h of grid(h, horizon), each computed when asked
        for; a step that is not positive or an infinite top raises here."""
        if h <= 0:
            raise ValueError("grid step must be positive")
        top = min(horizon, self.hi)
        if not isfinite(top):
            raise ValueError("grid needs a finite horizon or upper bound")
        return takewhile(partial(ge, top + 1e-12), map(mul, count(), repeat(h)))

    def downset_grid(self, h: float, horizon: float) -> list[float]:
        """The grid in ascending order: the points -k*h down to lo (to
        -horizon when lo = -inf), then grid(h, horizon).  The down-set of a
        point within the grid is the points before it."""
        forward = self.grid(h, horizon)  # raises unless h > 0
        lo = -horizon if self.lo == -inf else self.lo
        if not isfinite(lo):
            raise ValueError("grid needs a finite horizon or lower bound")
        neg = []
        k = 1
        while -k * h >= lo - 1e-12:
            neg.append(-k * h)
            k += 1
        return neg[::-1] + forward


REALS = TimeDomain()
NONNEG = TimeDomain(0)


@dataclass(frozen=True)
class Flow:
    """Claimed solution family: per-variable expressions in state and time.
    A store variable the flow does not name keeps its value."""

    components: Mapping[str, Expr]
    domain: TimeDomain = REALS

    def __post_init__(self):
        object.__setattr__(self, "components", dict(self.components))

    @cached_property
    def component_items(self) -> tuple:
        """The component items in order, which fix the order of the keys of
        its orbits' states; with the domain, the flow's value."""
        return tuple(self.components.items())

    def __eq__(self, other):
        if type(other) is not Flow:
            return NotImplemented
        return (self.component_items, self.domain) == (other.component_items, other.domain)

    def __hash__(self):
        return hash((self.component_items, self.domain))

    @cached_property
    def reads(self) -> tuple[str, ...]:
        """The sorted names other than t that the components read."""
        return tuple(sorted(set().union(*map(free_names, self.components.values()))
                            - {TIME_NAME}))


def emit_flow(w: KernelWriter, components: tuple, local: Mapping[str, str]) -> dict:
    """Emit a flow's component items under local, in order, and return each
    variable's value identifier."""
    memo: dict = {}
    return {x: w.expr(e, local, memo) for x, e in components}


def flow_identities(field: dict, flow: dict) -> list:
    """(check, variable, lhs, rhs) of the identities a flow's components meet
    if it solves the field's, per variable in sorted order: each `derivative`
    (its time derivative is the field along it), then each `initial` (at
    time zero it is the identity)."""
    names = sorted(field)
    along = {v: flow[v] for v in names}
    return ([("derivative", v, diff(flow[v], TIME_NAME), substitute(field[v], along)) for v in names]
            + [("initial", v, substitute(flow[v], {TIME_NAME: ZERO}), Var(v)) for v in names])


def _solves_exactly(field: tuple, flow: tuple) -> bool:
    """Whether the flow items solve the field items: every identity of
    flow_identities normalizes to zero (ValueError: a denominator is zero)."""
    field, flow = dict(field), dict(flow)
    try:
        return field.keys() == flow.keys() and all(
            normalize(Sub(lhs, rhs)).is_zero() for _, _, lhs, rhs in flow_identities(field, flow))
    except (NormalizeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# Program AST


@dataclass(frozen=True)
class HybridProgram:
    pass


@dataclass(frozen=True)
class Skip(HybridProgram):
    pass


@dataclass(frozen=True)
class Abort(HybridProgram):
    pass


@dataclass(frozen=True)
class Assign(HybridProgram):
    var: str
    expr: Expr


@dataclass(frozen=True)
class Test(HybridProgram):
    __test__ = False  # keep pytest collection away from the AST node

    cond: Pred


@dataclass(frozen=True)
class Seq(HybridProgram):
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class Choice(HybridProgram):
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class IfThenElse(HybridProgram):
    cond: Pred
    then: HybridProgram
    els: HybridProgram


@dataclass(frozen=True)
class Loop(HybridProgram):
    body: HybridProgram
    inv: Pred


@dataclass(frozen=True)
class Evolve(HybridProgram):
    """ODE evolution under a guard, with at most one designated proof strategy.

    Without a vector field (`evol` in the input language) the command
    follows its flow and carries no side conditions.
    """

    field: Optional[VectorField]
    guard: Pred
    dom: TimeDomain
    flow: Optional[Flow] = None
    dinv: Optional[Pred] = None

    def __post_init__(self):
        if self.field is None and self.flow is None:
            raise ValueError("evolution command needs a vector field or a flow")
        if self.flow is not None and self.dinv is not None:
            raise ValueError("evolution command cannot carry both a flow and a dinv")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, computed once: find_violation looks each
        evolution command's orbit up by value."""
        return hash((self.field, self.guard, self.dom, self.flow, self.dinv))


# ---------------------------------------------------------------------------
# Executable semantics

EQ_TOL = 1e-6  # relative tolerance for = atoms along sampled runs
MAX_STATES = 4000  # run_sampled keeps the first of a larger set of stores


def store_update(s: Store, var: str, e: Expr, consts: Mapping[str, float] = {}) -> Store:
    """Rebind one variable to the value of e in the current store."""
    if var not in s:
        raise KeyError(f"unknown variable {var!r}")
    out = dict(s)
    out[var] = _reading(expr_kernel, e, s, consts)(s, consts)
    return out


def _reading(write, term, s: Store, consts: Mapping[str, float]):
    """write's kernel of term (expr_kernel or pred_kernel) that reads the
    names s binds from s and the others from consts, so that the store wins
    as in {**consts, **s}: f(s, consts) or f(s, consts, eq_tol)."""
    return memo_kernel(write, term, bound_names(term, s),
                       tuple(n for n in bound_names(term, consts) if n not in s))


def orbit_kernel(source: tuple, keys: tuple, in_consts: tuple, guard: Pred,
                 post: Optional[Pred] = None, tail: tuple = ()):
    """run(out, times, s, consts, eq_tol, h, half, sixth), which appends to
    the list out the (t, state) pairs of the orbit rule for t in times: the
    longest prefix of the points whose states evaluate, are finite and
    satisfy the guard, equality at eq_tol.  The guard reads a name of the
    state from the state and any other name from consts, which holds
    in_consts; the source reads a name from the store s, whose keys are
    keys, else from consts.  The source is one of
      ("flow", items): the state at time t of the flow with the component
        items, then the identity on the other store variables;
      ("rk4", items): s at the first time; after a point is kept, when a
        next time exists, one classical RK4 step of size h of the field
        with the component items (half = 0.5 * h, sixth = h / 6.0), the
        other store variables passing through;
      ("time", tau): {tau: t}.
    An evaluation failure, or the KeyError of a field variable that is no
    key of s, raises from run with the points kept so far in out.
    With a post, run follows each point it keeps, inline and in point
    order, through the tail and then decides the post there, names read
    as the guard reads them and equality at eq_tol, in place of appending
    the point; it builds no state.  The tail is a straight-line program
    (see _straight_line) in run order, None marking a loop end with no
    iterations left, and out holds the reached-key sets of those loop
    ends, in order.  A failed test, an abort or a loop end at a store whose
    key (see _emit_tail) its set holds or an earlier point added leaves
    the point for the next one.  run returns False at the first point
    where the post is false, adding nothing to the sets, and True when the
    orbit ends, after adding each loop end's new keys to its set."""
    kind, items = source
    w = KernelWriter()
    store = {k: w.temp() for k in keys}
    if store:
        w.line(", ".join(store.values()) + ", = s.values()")
    consts = {n: w.temp() for n in in_consts}
    for n, c in consts.items():
        w.line(f"{c} = consts[{w.bind(n)}]")
    local = {**consts, **store}
    # per loop end of the tail, its reached set and the keys this call adds
    ends = [(w.temp(), w.temp()) for node in tail if node is None]
    if ends:
        w.line(", ".join(r for r, _ in ends) + ", = out")
        for _, new in ends:
            w.line(f"{new} = set()")
    if post is None:
        w.line("append = out.append")
    stepping = kind == "rk4" and items
    if stepping:
        w.line("kept = False")
    w.begin("for t in times:")
    if kind == "flow":
        named = dict(items)
        rest = tuple(k for k in keys if k not in named)
        at = {**local, TIME_NAME: "t"}
        state = emit_flow(w, items, at)
        state.update((x, w.expr(Var(x), at, {})) for x in rest)
        w.floats(*state.values())
    elif kind == "rk4":
        state = store
        if stepping:
            w.begin("if kept:")  # the last point was kept: step from it
            base = dict(store)
            for x, _ in items:
                if x not in base:  # no key of s: raises KeyError
                    base[x] = w.temp()
                    w.line(f"{base[x]} = s[{w.bind(x)}]")
            new = emit_rk4_step(w, items, base, local)
            w.line(", ".join(base[x] for x, _ in items) + ", = " + ", ".join(new) + ",")
            w.end()
    else:
        state = {items: "t"}
    if state:
        finite = w.bind(isfinite)
        w.line("if not (%s):" % " and ".join(f"{finite}({v})" for v in state.values()))
        w.line("    break")
    w.line(f"if not {w.pred(guard, {**consts, **state}, 'eq_tol')}:")
    w.line("    break")
    if stepping:
        w.line("kept = True")  # before the tail, whose dead ends leave the pass
    if post is None:
        w.line("append((t, {%s}))" % ", ".join(f"{w.bind(x)}: {v}" for x, v in state.items()))
    else:
        at = _emit_tail(w, tail, {**consts, **state}, sorted(keys), iter(ends))
        if at is not None:
            w.line(f"if not {w.pred(post, at, 'eq_tol')}:")
            w.line("    return False")
    w.end()
    for reached, new in ends:
        w.line(f"{reached} |= {new}")
    return w.function("out, times, s, consts, eq_tol, h, half, sixth",
                      "None" if post is None else "True")


def _emit_tail(w: KernelWriter, tail, local: dict, names: list, ends: Iterator) -> Optional[dict]:
    """Emit the straight-line nodes of tail in run order inside the orbit's
    loop, names loading through local, and return the locals at its end,
    or None where no path reaches it.  A dead end leaves the pass with
    continue.  An assignment maps its variable to its value's identifier
    and writes no identifier of the state, an if joins each variable
    either branch assigns into a new identifier, and a loop end (None)
    builds the store's key as find_violation does, its values in the
    order of names, the bare value for one name, () for none, and takes
    the next (reached, new) identifier pair from ends."""
    todo = list(reversed(tail))
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Seq:
            todo += reversed(node.items)
        elif kind is Assign:
            value = w.expr(node.expr, local, {})
            w.floats(value)
            local = {**local, node.var: value}
        elif kind is Test:
            w.line(f"if not {w.pred(node.cond, local, 'eq_tol')}:")
            w.line("    continue")
        elif kind is IfThenElse:
            cond = w.pred(node.cond, local, "eq_tol")
            joins = {x: w.temp() for x in sorted({
                n.var for n, _ in _tail_nodes((node.then, node.els)) if type(n) is Assign})}
            live = False
            for header, branch in ((f"if {cond}:", node.then), ("else:", node.els)):
                w.begin(header)
                if not joins and all(type(n) in (Seq, Skip) for n, _ in _tail_nodes((branch,))):
                    w.line("pass")  # the branch emits no statement
                out = _emit_tail(w, (branch,), local, names, ends)
                if out is not None:
                    live = True
                    for x, j in joins.items():
                        w.line(f"{j} = {out[x]}")
                w.end()
            if not live:
                return None
            local = {**local, **joins}
        elif kind is Abort:
            w.line("continue")
            return None
        elif node is None:
            reached, new = next(ends)
            values = [local[n] for n in names]
            if len(values) == 1:
                k = values[0]
            else:
                k = w.temp()
                w.line(f"{k} = ({''.join(v + ', ' for v in values)})")
            w.line(f"if {k} in {reached} or {k} in {new}:")
            w.line("    continue")
            w.line(f"{new}.add({k})")
    return local


def _tail_nodes(nodes) -> Iterator[tuple[HybridProgram, int]]:
    """Each node of the program nodes (loop ends, None, aside), of the
    sequences and of both branches of the ifs among them, with the number
    of ifs it lies in."""
    todo = [(node, 0) for node in nodes if node is not None]
    while todo:
        node, depth = todo.pop()
        yield node, depth
        if type(node) is Seq:
            todo += [(item, depth) for item in node.items]
        elif type(node) is IfThenElse:
            todo += [(node.then, depth + 1), (node.els, depth + 1)]


def _orbit_run(source: tuple, reads: tuple, guard: Pred, s: Store, consts: Mapping[str, float],
               post: Optional[Pred] = None, tail: tuple = ()):
    """The memo's orbit_kernel of the source, whose terms read the names
    reads, under the guard, for runs from stores with the keys of s; with
    a post, the kernel that runs the tail and decides the post at each
    point."""
    terms = [guard] if post is None else [guard, post, *(
        n.expr if type(n) is Assign else n.cond for n, _ in _tail_nodes(tail)
        if type(n) is Assign or type(n) is Test or type(n) is IfThenElse)]
    names = dict.fromkeys((*reads, *(n for p in terms for n in bound_names(p, consts))))
    in_consts = tuple(n for n in names if n in consts and n not in s)
    return memo_kernel(orbit_kernel, source, tuple(s), in_consts, guard, post, tail)



def _orbit(source: tuple, reads: tuple, guard: Pred, times, s: Store,
           consts: Mapping[str, float], eq_tol: float, h: float = 0.0) -> list[tuple[float, Store]]:
    """The guarded orbit of the source (see orbit_kernel) from the store s,
    as a list of (t, state) pairs, ended by an evaluation failure."""
    run = _orbit_run(source, reads, guard, s, consts)
    out: list[tuple[float, Store]] = []
    try:
        run(out, times, s, consts, eq_tol, h, 0.5 * h, h / 6.0)
    except EVAL_FAILURES:
        pass
    return out


def guarded_orbit_flow(
    flow: Flow,
    guard: Pred,
    dom: TimeDomain,
    s: Store,
    h: float,
    consts: Mapping[str, float] = {},
    horizon: float = 10.0,
    eq_tol: float = 0.0,
) -> list[tuple[float, Store]]:
    """Grid sample of the guarded orbit of a flow from s (see orbit_kernel)."""
    times = dom.times(h, horizon)
    return _orbit(("flow", flow.component_items), flow.reads, guard, times, s, consts, eq_tol)


def guarded_orbit_field(
    field: VectorField,
    guard: Pred,
    dom: TimeDomain,
    s: Store,
    h: float,
    consts: Mapping[str, float] = {},
    horizon: float = 10.0,
    eq_tol: float = 0.0,
) -> list[tuple[float, Store]]:
    """Same orbit rule as guarded_orbit_flow, integrating the field with RK4."""
    times = dom.times(h, horizon)
    return _orbit(("rk4", field.component_items), field.reads, guard, times, s, consts, eq_tol, h)


@dataclass(frozen=True)
class RunConfig:
    fuel: int = 12
    step: float = 0.1
    horizon: float = 6.0
    consts: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # checked here, so that find_violation reads every ValueError from a
        # run as an evaluation failure; the budgets check their grids here too
        for name, value in (("step", self.step), ("horizon", self.horizon)):
            if not 0 < value < inf:  # also false for NaN
                raise ValueError(f"grid {name} must be positive and finite, got {value}")


@dataclass
class RunResult:
    states: list[Store]
    complete: bool

    def as_keys(self) -> frozenset:
        return frozenset(_key(s) for s in self.states)


def _key(s: Store) -> tuple:
    return tuple(sorted(s.items()))


def _orbit_source(node: Evolve) -> tuple[tuple, tuple]:
    """(source, reads) of an evolution command's orbit (see orbit_kernel):
    its flow if it has no field or the flow is exact (_solves_exactly,
    memoized by value), else RK4 on its field.  The one place that picks
    the orbit provider, for _steps and find_violation alike."""
    flow, field = node.flow, node.field
    if flow is not None and (field is None or memo_kernel(
            _solves_exactly, field.component_items, flow.component_items)):
        return ("flow", flow.component_items), flow.reads
    return ("rk4", field.component_items), field.reads


def _steps(node: HybridProgram, s: Store, cfg: RunConfig) -> list[tuple[object, Store]]:
    """(label, store) successors of a leaf node from s, for run_sampled; the
    label None marks a step that keeps the store (skip, a passed test),
    which a run does not record, and an orbit point's label is its time t,
    which a run shows as "evolve t=..."."""
    kind = type(node)
    if kind is Evolve:
        return _orbit(*_orbit_source(node), node.guard, node.dom.times(cfg.step, cfg.horizon), s,
                      cfg.consts, EQ_TOL, cfg.step)
    if kind is Assign:
        return [(f"{node.var} := ...", store_update(s, node.var, node.expr, cfg.consts))]
    if kind is Test:
        return [(None, s)] if _reading(pred_kernel, node.cond, s, cfg.consts)(
            s, cfg.consts, EQ_TOL) else []
    if kind is Skip:
        return [(None, s)]
    if kind is Abort:
        return []
    raise TypeError(f"not a HybridProgram node: {node!r}")


def run_sampled(p: HybridProgram, s: Store, cfg: RunConfig) -> RunResult:
    """Set of reachable end stores at grid resolution; evolution commands
    contribute every orbit point, loops unroll up to the fuel bound."""
    complete = True

    def go(node: HybridProgram, keys: frozenset) -> frozenset:
        nonlocal complete
        if len(keys) > MAX_STATES:
            complete = False
            keys = frozenset(sorted(keys)[:MAX_STATES])
        if isinstance(node, Seq):
            for item in node.items:
                keys = go(item, keys)
            return keys
        if isinstance(node, Choice):
            out = frozenset()
            for item in node.items:
                out |= go(item, keys)
            return out
        if isinstance(node, IfThenElse):
            taken = frozenset(
                k
                for k in keys
                if eval_pred(node.cond, {**cfg.consts, **dict(k)}, EQ_TOL)
            )
            other = keys - taken
            return go(node.then, taken) | go(node.els, other)
        if isinstance(node, Loop):
            reached = frozenset(keys)
            frontier = frozenset(keys)
            for _ in range(cfg.fuel):
                frontier = go(node.body, frontier) - reached
                if not frontier:
                    break
                reached |= frontier
            else:
                if frontier:
                    complete = False
            return reached
        return frozenset(
            _key(nxt) for k in keys for _, nxt in _steps(node, dict(k), cfg)
        )

    final = go(p, frozenset([_key(s)]))
    return RunResult([dict(k) for k in sorted(final)], complete)


def _orbit_step(node: Evolve, s: Store, cfg: RunConfig, post: Optional[Pred] = None,
                tail: tuple = ()):
    """(run, grid): the kernel of node's orbit (see orbit_kernel) for runs
    from stores with the keys of s, running the tail and deciding the post
    if one is given, and its grid of times as a list."""
    run = _orbit_run(*_orbit_source(node), node.guard, s, cfg.consts, post, tail)
    return run, node.dom.grid(cfg.step, cfg.horizon)


# the nodes of a straight-line tail (see _straight_line), besides loop ends
_STRAIGHT = frozenset((Assign, Test, Skip, Abort, Seq, IfThenElse))
_TAIL_DEPTH = 16  # the most ifs an orbit kernel nests, well inside Python's block limits


def _straight_line(tail: tuple, keys: tuple) -> bool:
    """Whether an orbit kernel runs the tail (see orbit_kernel) from
    stores with the keys: its nodes are assignments to keys, tests, skip,
    abort, sequences and ifs, in at most _TAIL_DEPTH ifs, and loop ends
    (None)."""
    return all(type(n) in _STRAIGHT and depth <= _TAIL_DEPTH
               and (type(n) is not Assign or n.var in keys) for n, depth in _tail_nodes(tail))


def find_violation(
    p: HybridProgram, s: Store, post: Pred, cfg: RunConfig, kernels: Optional[dict] = None
) -> Optional[tuple[list[tuple[str, Store]], Optional[str]]]:
    """Depth-first search for a run whose end store violates the postcondition.

    A run is a path of (step label, store) pairs.  Returns (path, None) for
    the first violating run, or (path, message) for the first run that
    reaches a store where the post, a test, a branch condition or an
    assignment cannot be evaluated; None when neither occurs.  A loop runs
    its rest before its next iteration, at most cfg.fuel times, and a run
    whose iteration ends at a store the loop has reached is cut.

    One stack holds (run, todo) entries: run is its last step linked to the
    run before it, (step, run) down to None, and todo the nodes left, as
    (node, todo) pairs down to None, so no Python recursion limit applies;
    a loop body's iteration ends at the plain tuple (body, reached, fuel),
    the keys of the stores the loop reached and the iterations left.
    A popped entry's run is followed in place through every step with one
    successor; a branch point pushes its other successors, the first on top.
    The stores of a run share the keys of s (a VerifySpec's program writes
    only declared variables), so one kernel per predicate, assigned term
    and evolution command serves the search, fetched into the table
    kernels the first time it is reached, and a loop keys the stores it
    reached by their values in sorted-name order.

    An orbit whose points each run straight to the run's end, through a
    tail of assignments, tests, skips, aborts, sequences, ifs over those
    and loop ends with no iterations left (see _straight_line), runs that
    tail and decides the post in its kernel first, point by point, with
    the keys its loop ends add kept aside.  When no point's run violates
    the post or fails, the kernel adds those keys to their loops' sets,
    and no point needs a run of its own: the runs the search would follow
    end the same way.  Otherwise nothing is added, the orbit's points are
    pushed as usual, and the search meets the first point whose run
    violates the post or fails in the same order, with the same path.

    kernels is that table, filled in place: each predicate and assigned
    term -> its kernel, each (evolution command, store keys in order) -> its
    orbit step and each (command, keys, post, tail) -> its step that runs
    the tail, the tail's nodes in order with None for each loop end, or
    False where no kernel runs that tail (see _orbit_step); the keys'
    order counts, since an orbit of a flow that names the variables in
    another order gives its states that order.
    The entries depend only on their keys, the names that s and cfg.consts
    bind, and cfg's step and horizon, so searches that agree on those may
    share one table, as falsify's trials do; by default each search fills
    a new one.
    """
    consts = cfg.consts
    names = sorted(s)
    key = itemgetter(*names) if names else tuple  # tuple({}) == ()
    h, half, sixth = cfg.step, 0.5 * cfg.step, cfg.step / 6.0
    if kernels is None:
        kernels = {}
    stack = [((("init", dict(s)), None), (p, None))]
    message = None
    while stack:
        run, todo = stack.pop()
        store = run[0][1]
        try:
            while todo is not None:  # a break ends the run at a dead end
                node, todo = todo
                kind = type(node)
                if kind is Seq:
                    for item in reversed(node.items):
                        todo = item, todo
                elif kind is Assign:
                    if node.var not in store:
                        raise KeyError(f"unknown variable {node.var!r}")
                    kernel = kernels.get(node.expr)
                    if kernel is None:
                        kernel = kernels[node.expr] = _reading(expr_kernel, node.expr, store, consts)
                    store = {**store, node.var: kernel(store, consts)}
                    run = (f"{node.var} := ...", store), run
                elif kind is IfThenElse or kind is Test:
                    kernel = kernels.get(node.cond)
                    if kernel is None:
                        kernel = kernels[node.cond] = _reading(pred_kernel, node.cond, store, consts)
                    if kind is IfThenElse:
                        todo = (node.then if kernel(store, consts, EQ_TOL) else node.els), todo
                    elif not kernel(store, consts, EQ_TOL):
                        break
                elif kind is Evolve:
                    # an orbit kernel unpacks the store in its key order, which
                    # a flow's orbit may change: one kernel per order
                    keys = tuple(store)
                    # the nodes left, when each point runs them straight to
                    # the run's end: the kernel runs them and decides the post
                    tail, ends, rest = [], [], todo
                    while rest is not None:
                        item, rest = rest
                        if type(item) is tuple:  # a loop end
                            if item[2]:
                                break  # iterations are left: the run branches
                            tail.append(None)
                            ends.append(item[1])
                        elif type(item) in _STRAIGHT:
                            tail.append(item)
                        else:
                            break
                    else:
                        tail = tuple(tail)
                        decide = kernels.get((node, keys, post, tail))
                        if decide is None:
                            decide = kernels[node, keys, post, tail] = (
                                sorted(keys) == names and _straight_line(tail, keys)
                                and _orbit_step(node, store, cfg, post, tail))
                        if decide:
                            try:
                                if decide[0](ends, decide[1], store, consts, EQ_TOL, h, half, sixth):
                                    break  # no point's run violates the post: none is left
                            except EVAL_FAILURES:
                                pass  # the points below meet the failure in order
                    step = kernels.get((node, keys))
                    if step is None:
                        step = kernels[node, keys] = _orbit_step(node, store, cfg)
                    points: list = []
                    try:
                        step[0](points, step[1], store, consts, EQ_TOL, h, half, sixth)
                    except EVAL_FAILURES:
                        pass  # the orbit ends at the failure
                    if len(points) != 1:
                        if not points:
                            break
                        stack += [((point, run), todo) for point in points[:0:-1]]
                    run, store = (points[0], run), points[0][1]
                elif kind is Choice:
                    if not node.items:
                        break
                    stack += [(run, (item, todo)) for item in node.items[:0:-1]]
                    todo = node.items[0], todo
                elif kind is Loop:
                    todo = (node.body, set(), cfg.fuel), todo
                elif kind is tuple:  # a loop body's iteration ends
                    body, reached, fuel = node
                    k = key(store)
                    if k in reached:
                        break
                    reached.add(k)
                    if fuel > 0:
                        stack.append((run, (body, ((body, reached, fuel - 1), todo))))
                elif kind is Abort:
                    break
                elif kind is not Skip:
                    raise TypeError(f"not a HybridProgram node: {node!r}")
            else:  # the run ends: a break here leaves the search
                kernel = kernels.get(post)
                if kernel is None:
                    kernel = kernels[post] = _reading(pred_kernel, post, store, consts)
                if not kernel(store, consts, EQ_TOL):
                    break
        except EVAL_FAILURES as exc:
            message = str(exc)
            break
    else:
        return None
    path = []
    while run is not None:
        (label, store), run = run
        path.append((label if type(label) is str else f"evolve t={label:.4g}", store))
    return path[::-1], message
