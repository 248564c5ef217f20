"""Hybrid stores, hybrid-program ASTs and an executable sampling semantics.

The sampler approximates the state-transformer semantics on a time grid.
It checks guards only at grid points, so it can falsify specifications but
never prove them; the sound path goes through wlp generation and discharge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .expr import Expr, Pred, evaluate, eval_pred, free_vars, uses_time

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

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.components))


@dataclass(frozen=True)
class TimeDomain:
    """Interval of times containing 0, with an optional query sub-domain."""

    kind: str  # "reals" | "nonneg" | "interval"
    lo: Optional[float] = None
    hi: Optional[float] = None
    query: Optional["TimeDomain"] = None

    def __post_init__(self):
        if self.kind not in ("reals", "nonneg", "interval"):
            raise ValueError(f"unknown time-domain kind {self.kind!r}")
        if self.kind == "interval":
            if self.lo is None or self.hi is None or not (self.lo <= 0.0 <= self.hi):
                raise ValueError("interval domain must satisfy lo <= 0 <= hi")
        if self.query is not None and not self.contains_domain(self.query):
            raise ValueError("query sub-domain not contained in the domain")

    def contains(self, t: float) -> bool:
        if self.kind == "reals":
            return True
        if self.kind == "nonneg":
            return t >= 0.0
        return self.lo <= t <= self.hi

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

    def effective_query(self) -> "TimeDomain":
        return self.query if self.query is not None else self

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
    """Claimed solution family: per-variable expressions in state and time."""

    components: Mapping[str, Expr]
    domain: TimeDomain = REALS

    def __post_init__(self):
        object.__setattr__(self, "components", dict(self.components))

    def at(self, t: float, s: Store, consts: Mapping[str, float]) -> Store:
        env = {**consts, **s, "t": t}
        return {x: evaluate(e, env) for x, e in self.components.items()}


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
    """ODE evolution under a guard, with at most one designated proof strategy."""

    field: VectorField
    guard: Pred
    dom: TimeDomain
    flow: Optional[Flow] = None
    dinv: Optional[Pred] = None

    def __post_init__(self):
        if self.flow is not None and self.dinv is not None:
            raise ValueError("evolution command cannot carry both a flow and a dinv")


@dataclass(frozen=True)
class EvolFlow(HybridProgram):
    """Flow-based evolution command: no vector field, no side conditions."""

    flow: Flow
    guard: Pred
    dom: TimeDomain


# ---------------------------------------------------------------------------
# Executable semantics


def store_update(s: Store, var: str, e: Expr, consts: Mapping[str, float] = {}) -> Store:
    """Rebind one variable to the value of e in the current store."""
    if var not in s:
        raise KeyError(f"unknown variable {var!r}")
    out = dict(s)
    out[var] = evaluate(e, {**consts, **s})
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
    """Grid sample of the guarded orbit: the longest prefix of grid points
    whose every point satisfies the guard."""
    out: list[tuple[float, Store]] = []
    for t in dom.effective_query().grid(h, horizon):
        try:
            state = flow.at(t, s, consts)
            ok = eval_pred(guard, {**consts, **state}, eq_tol)
        except Exception as exc:
            raise RuntimeError(f"orbit evaluation failed at t={t}: {exc}") from exc
        if not ok:
            break
        out.append((t, state))
    return out


def _rk4_step(field: VectorField, s: Store, h: float, consts: Mapping[str, float]) -> Store:
    names = list(field.components)

    def deriv(state: Store) -> dict[str, float]:
        env = {**consts, **state}
        return {x: evaluate(field.components[x], env) for x in names}

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
    """Same prefix semantics as guarded_orbit_flow, integrating with RK4."""
    out: list[tuple[float, Store]] = []
    state = dict(s)
    for t in dom.effective_query().grid(h, horizon):
        if not all(math.isfinite(v) for v in state.values()):
            break
        if not eval_pred(guard, {**consts, **state}, eq_tol):
            break
        out.append((t, dict(state)))
        state = _rk4_step(field, state, h, consts)
    return out


@dataclass(frozen=True)
class RunConfig:
    fuel: int = 12
    step: float = 0.1
    horizon: float = 6.0
    max_states: int = 4000
    eq_tol: float = 1e-6  # relative tolerance for = atoms along sampled runs
    consts: Mapping[str, float] = field(default_factory=dict)


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


def run_sampled(p: HybridProgram, s: Store, cfg: RunConfig) -> RunResult:
    """Set of reachable end stores at grid resolution; evolution commands
    contribute every orbit point, loops unroll up to the fuel bound."""
    complete = True

    def go(node: HybridProgram, keys: frozenset) -> frozenset:
        nonlocal complete
        if len(keys) > cfg.max_states:
            complete = False
            keys = frozenset(sorted(keys)[: cfg.max_states])
        if isinstance(node, Skip):
            return keys
        if isinstance(node, Abort):
            return frozenset()
        if isinstance(node, Assign):
            return frozenset(
                _key(store_update(_from_key(k), node.var, node.expr, cfg.consts))
                for k in keys
            )
        if isinstance(node, Test):
            return frozenset(
                k
                for k in keys
                if eval_pred(node.cond, {**cfg.consts, **_from_key(k)}, cfg.eq_tol)
            )
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
                if eval_pred(node.cond, {**cfg.consts, **_from_key(k)}, cfg.eq_tol)
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
        if isinstance(node, Evolve):
            out = set()
            for k in keys:
                store = _from_key(k)
                if node.flow is not None:
                    orbit = guarded_orbit_flow(
                        node.flow, node.guard, node.dom, store, cfg.step,
                        cfg.consts, cfg.horizon, cfg.eq_tol,
                    )
                else:
                    orbit = guarded_orbit_field(
                        node.field, node.guard, node.dom, store, cfg.step,
                        cfg.consts, cfg.horizon, cfg.eq_tol,
                    )
                for _, state in orbit:
                    out.add(_key(state))
            return frozenset(out)
        if isinstance(node, EvolFlow):
            out = set()
            for k in keys:
                store = _from_key(k)
                orbit = guarded_orbit_flow(
                    node.flow, node.guard, node.dom, store, cfg.step,
                    cfg.consts, cfg.horizon, cfg.eq_tol,
                )
                for _, state in orbit:
                    out.add(_key(state))
            return frozenset(out)
        raise TypeError(f"not a HybridProgram node: {node!r}")

    final = go(p, frozenset([_key(s)]))
    return RunResult([_from_key(k) for k in sorted(final)], complete)


def find_violation(
    p: HybridProgram, s: Store, post: Pred, cfg: RunConfig
) -> Optional[list[tuple[str, Store]]]:
    """Depth-first search for a run whose end store violates the postcondition.

    Returns the witness path as (step label, store) pairs, or None.
    """

    def ok(state: Store) -> bool:
        return eval_pred(post, {**cfg.consts, **state}, cfg.eq_tol)

    def runs(node: HybridProgram, state: Store, path) -> Iterator[list]:
        if isinstance(node, Skip):
            yield path
        elif isinstance(node, Abort):
            return
        elif isinstance(node, Assign):
            nxt = store_update(state, node.var, node.expr, cfg.consts)
            yield path + [(f"{node.var} := ...", nxt)]
        elif isinstance(node, Test):
            if eval_pred(node.cond, {**cfg.consts, **state}, cfg.eq_tol):
                yield path
        elif isinstance(node, Seq):
            def chain(items, st, pth):
                if not items:
                    yield pth
                    return
                for pth2 in runs(items[0], st, pth):
                    st2 = pth2[-1][1] if pth2 else st
                    yield from chain(items[1:], st2, pth2)

            yield from chain(list(node.items), state, path)
        elif isinstance(node, Choice):
            for item in node.items:
                yield from runs(item, state, path)
        elif isinstance(node, IfThenElse):
            taken = eval_pred(node.cond, {**cfg.consts, **state}, cfg.eq_tol)
            branch = node.then if taken else node.els
            yield from runs(branch, state, path)
        elif isinstance(node, Loop):
            yield path
            seen = {_key(state)}

            def unroll(st, pth, fuel):
                if fuel <= 0:
                    return
                for pth2 in runs(node.body, st, pth):
                    st2 = pth2[-1][1] if pth2 else st
                    k = _key(st2)
                    if k in seen:
                        continue
                    seen.add(k)
                    yield pth2
                    yield from unroll(st2, pth2, fuel - 1)

            yield from unroll(state, path, cfg.fuel)
        elif isinstance(node, (Evolve, EvolFlow)):
            if isinstance(node, EvolFlow) or node.flow is not None:
                flow = node.flow
                orbit = guarded_orbit_flow(
                    flow, node.guard, node.dom, state, cfg.step, cfg.consts,
                    cfg.horizon, cfg.eq_tol,
                )
            else:
                orbit = guarded_orbit_field(
                    node.field, node.guard, node.dom, state, cfg.step,
                    cfg.consts, cfg.horizon, cfg.eq_tol,
                )
            for t, st2 in orbit:
                yield path + [(f"evolve t={t:.4g}", st2)]
        else:
            raise TypeError(f"not a HybridProgram node: {node!r}")

    for path in runs(p, s, [("init", dict(s))]):
        end = path[-1][1]
        if not ok(end):
            return path
    return None

