"""Hybrid stores, hybrid-program ASTs and an executable sampling semantics.

The sampler approximates the state-transformer semantics on a time grid.
It checks guards only at grid points, so it can falsify specifications but
never prove them; the sound path goes through wlp generation and discharge.
An evolution command's orbit, from a flow or from RK4 on its field, is the
longest prefix of grid points whose states evaluate, are finite and satisfy
the guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
from math import isfinite
from typing import Iterable, Iterator, Mapping, Optional

from .expr import (
    EVAL_FAILURES, TIME_NAME, Expr, KernelWriter, Pred, Var, compile_pred, evaluate,
    eval_pred, free_vars, uses_time,
)

Store = dict[str, float]

# instance __dict__ keys of the generated kernels
_RK4_STEP, _FLOW_KERNELS = "_rk4_step", "_flow_kernels"


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

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.components))

    def rk4_step(self):
        """step(state, env, h, half, sixth) -> the store one classical RK4
        step of size h after state (half = 0.5 * h, sixth = h / 6.0), with
        the field's variables read from state and other names from env.
        One generated function (see expr.KernelWriter), cached on the field
        outside ==, hash and repr."""
        try:
            return self.__dict__[_RK4_STEP]
        except KeyError:
            pass
        w = KernelWriter()
        keys = [w.bind(x) for x in self.components]
        base = [w.temp() for _ in keys]
        for b, key in zip(base, keys):
            w.line(f"{b} = state[{key}]")
        local = dict(zip(self.components, base))
        stages = []
        for coef in ("half", "half", "h", None):
            memo: dict = {}
            ks = [w.expr(e, local, memo) for e in self.components.values()]
            stages.append(ks)
            if coef is not None:
                nxt = [w.temp() for _ in keys]
                for y, b, k in zip(nxt, base, ks):
                    w.line(f"{y} = {b} + {coef} * {k}")
                local = dict(zip(self.components, nxt))
        new = [f"{key}: {b} + sixth * ({k1} + 2 * {k2} + 2 * {k3} + {k4})"
               for key, b, k1, k2, k3, k4 in zip(keys, base, *stages)]
        step = w.function("state, env, h, half, sixth", "{**state, %s}" % ", ".join(new))
        self.__dict__[_RK4_STEP] = step
        return step


@dataclass(frozen=True)
class TimeDomain:
    """Interval of times containing 0."""

    kind: str  # "reals" | "nonneg" | "interval"
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("reals", "nonneg", "interval"):
            raise ValueError(f"unknown time-domain kind {self.kind!r}")
        if self.kind == "interval":
            if self.lo is None or self.hi is None or not (self.lo <= 0.0 <= self.hi):
                raise ValueError("interval domain must satisfy lo <= 0 <= hi")

    def contains_domain(self, other: "TimeDomain") -> bool:
        if self.kind == "reals":
            return True
        if self.kind == "nonneg":
            return other.kind == "nonneg" or (
                other.kind == "interval" and other.lo >= 0.0
            )
        if other.kind != "interval":
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def includes_negative(self) -> bool:
        if self.kind == "reals":
            return True
        if self.kind == "nonneg":
            return False
        return self.lo < 0.0

    def grid(self, h: float, horizon: float) -> list[float]:
        """Forward grid {0, h, 2h, ...} clipped to the domain and the horizon."""
        if h <= 0:
            raise ValueError("grid step must be positive")
        top = horizon if self.kind != "interval" else min(horizon, self.hi)
        out = []
        k = 0
        while k * h <= top + 1e-12:
            out.append(k * h)
            k += 1
        return out


REALS = TimeDomain("reals")
NONNEG = TimeDomain("nonneg")


@dataclass(frozen=True)
class Flow:
    """Claimed solution family: per-variable expressions in state and time.
    A store variable the flow does not name keeps its value."""

    components: Mapping[str, Expr]
    domain: TimeDomain = REALS

    def __post_init__(self):
        object.__setattr__(self, "components", dict(self.components))

    def kernel(self, s: Store):
        """f(t, env) -> the state at time t, with the names other than t read
        from env: the components, then the identity on the store variables
        of s that the flow does not name.  One generated function (see
        expr.KernelWriter) per tuple of those variables, cached on the flow
        outside ==, hash and repr."""
        rest = tuple(filterfalse(self.components.__contains__, s))
        kernels = self.__dict__.setdefault(_FLOW_KERNELS, {})
        f = kernels.get(rest)
        if f is None:
            w = KernelWriter()
            items = [*self.components.items(), *((x, Var(x)) for x in rest)]
            local, memo = {TIME_NAME: "t"}, {}
            values = [w.expr(e, local, memo) for _, e in items]
            state = ", ".join(f"{w.bind(x)}: {v}" for (x, _), v in zip(items, values))
            f = kernels[rest] = w.function("t, env", "{%s}" % state)
        return f

    def at(self, t: float, s: Store, consts: Mapping[str, float]) -> Store:
        return self.kernel(s)(t, {**consts, **s})

    def states(
        self, times: Iterable[float], s: Store, consts: Mapping[str, float]
    ) -> Iterator[Store]:
        """The states at(t, s, consts) for t in times, each computed when
        asked for, over one environment."""
        f = self.kernel(s)
        env = {**consts, **s}
        for t in times:
            yield f(t, env)


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


# ---------------------------------------------------------------------------
# Executable semantics

EQ_TOL = 1e-6  # relative tolerance for = atoms along sampled runs
MAX_STATES = 4000  # run_sampled keeps the first of a larger set of stores


def store_update(s: Store, var: str, e: Expr, consts: Mapping[str, float] = {}) -> Store:
    """Rebind one variable to the value of e in the current store."""
    if var not in s:
        raise KeyError(f"unknown variable {var!r}")
    out = dict(s)
    out[var] = evaluate(e, {**consts, **s})
    return out


def _guarded_prefix(grid, states, guard: Pred, consts, eq_tol: float) -> list[tuple[float, Store]]:
    """The orbit rule: the longest prefix of grid points whose states
    evaluate, are finite and satisfy the guard."""
    holds = compile_pred(guard)
    env = dict(consts)  # the states of one orbit share their keys
    out: list[tuple[float, Store]] = []
    try:
        for t, state in zip(grid, states):
            finite = all(map(isfinite, state.values()))
            env.update(state)
            if not (finite and holds(env, eq_tol)):
                break
            out.append((t, state))
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
    """Grid sample of the guarded orbit of a flow from s (see _guarded_prefix)."""
    grid = dom.grid(h, horizon)
    return _guarded_prefix(grid, flow.states(grid, s, consts), guard, consts, eq_tol)


def rk4_states(
    field: VectorField, s: Store, h: float, consts: Mapping[str, float] = {}
) -> Iterator[Store]:
    """Classical fixed-step RK4 states at times 0, h, 2h, ... without end;
    each step is taken only when its state is asked for, by the field's
    generated stepper; other store variables pass through."""
    step = field.rk4_step()
    half, sixth = 0.5 * h, h / 6.0
    env = {**consts, **s}
    state = dict(s)
    while True:
        yield state
        state = step(state, env, h, half, sixth)


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
    grid = dom.grid(h, horizon)
    return _guarded_prefix(grid, rk4_states(field, s, h, consts), guard, consts, eq_tol)


@dataclass(frozen=True)
class RunConfig:
    fuel: int = 12
    step: float = 0.1
    horizon: float = 6.0
    consts: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # checked here, so that find_violation reads every ValueError from a
        # run as an evaluation failure
        if self.step <= 0:
            raise ValueError("grid step must be positive")


@dataclass
class RunResult:
    states: list[Store]
    complete: bool

    def as_keys(self) -> frozenset:
        return frozenset(_key(s) for s in self.states)


def _key(s: Store) -> tuple:
    return tuple(sorted(s.items()))


def _from_key(k: tuple) -> Store:
    return dict(k)


def _steps(node: HybridProgram, s: Store, cfg: RunConfig) -> list[tuple[Optional[str], Store]]:
    """(label, store) successors of a leaf node from s; the label None marks
    a step that keeps the store (skip, a passed test), which a run does not
    record.  The one place that picks an evolution command's orbit provider."""
    if isinstance(node, Skip):
        return [(None, s)]
    if isinstance(node, Abort):
        return []
    if isinstance(node, Assign):
        return [(f"{node.var} := ...", store_update(s, node.var, node.expr, cfg.consts))]
    if isinstance(node, Test):
        return [(None, s)] if eval_pred(node.cond, {**cfg.consts, **s}, EQ_TOL) else []
    if isinstance(node, Evolve):
        if node.flow is not None:
            orbit = guarded_orbit_flow(node.flow, node.guard, node.dom, s, cfg.step,
                                       cfg.consts, cfg.horizon, EQ_TOL)
        else:
            orbit = guarded_orbit_field(node.field, node.guard, node.dom, s, cfg.step,
                                        cfg.consts, cfg.horizon, EQ_TOL)
        return [(f"evolve t={t:.4g}", state) for t, state in orbit]
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
                if eval_pred(node.cond, {**cfg.consts, **_from_key(k)}, EQ_TOL)
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
            _key(nxt) for k in keys for _, nxt in _steps(node, _from_key(k), cfg)
        )

    final = go(p, frozenset([_key(s)]))
    return RunResult([_from_key(k) for k in sorted(final)], complete)


class _Undefined(Exception):
    """Carries (path, message) of a run stopped by an evaluation failure."""


def find_violation(
    p: HybridProgram, s: Store, post: Pred, cfg: RunConfig
) -> Optional[tuple[list[tuple[str, Store]], Optional[str]]]:
    """Depth-first search for a run whose end store violates the postcondition.

    A run is a path of (step label, store) pairs.  Returns (path, None) for
    the first violating run, or (path, message) for the first run that
    reaches a store where the post, a test, a branch condition or an
    assignment cannot be evaluated; None when neither occurs.
    """

    def runs(node: HybridProgram, path) -> Iterator[list]:
        try:
            if isinstance(node, Seq):
                def chain(items, pth):
                    if not items:
                        yield pth
                        return
                    for pth2 in runs(items[0], pth):
                        yield from chain(items[1:], pth2)

                yield from chain(list(node.items), path)
            elif isinstance(node, Choice):
                for item in node.items:
                    yield from runs(item, path)
            elif isinstance(node, IfThenElse):
                taken = eval_pred(node.cond, {**cfg.consts, **path[-1][1]}, EQ_TOL)
                yield from runs(node.then if taken else node.els, path)
            elif isinstance(node, Loop):
                yield path
                seen = {_key(path[-1][1])}

                def unroll(pth, fuel):
                    if fuel <= 0:
                        return
                    for pth2 in runs(node.body, pth):
                        k = _key(pth2[-1][1])
                        if k in seen:
                            continue
                        seen.add(k)
                        yield pth2
                        yield from unroll(pth2, fuel - 1)

                yield from unroll(path, cfg.fuel)
            else:
                for step in _steps(node, path[-1][1], cfg):
                    yield path if step[0] is None else path + [step]
        except EVAL_FAILURES as exc:
            # a failure from a nested run arrives here as _Undefined already
            raise _Undefined(path, str(exc)) from None

    try:
        for path in runs(p, [("init", dict(s))]):
            try:
                if not eval_pred(post, {**cfg.consts, **path[-1][1]}, EQ_TOL):
                    return path, None
            except EVAL_FAILURES as exc:
                return path, str(exc)
    except _Undefined as exc:
        return exc.args
    return None
