"""Weakest-liberal-precondition generation over hybrid-program ASTs.

wlp returns a symbolic precondition plus side obligations.  Evolution
commands with a certified flow produce a two-level quantified predicate
(for all end times, if the guard held along the prefix then the
postcondition holds at the end time), represented by expr.TimeQuant;
annotated commands return their invariant and defer the premises as
obligations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from .expr import (
    TIME_NAME,
    And,
    Expr,
    Not,
    Or,
    Pred,
    TimeQuant,
    TimeVar,
    TRUE,
    Var,
    eval_pred,
    free_consts,
    free_names,
    free_vars,
    fresh_time_binders,
    implies,
    pred_and,
    pred_bound_names,
    pred_free_names,
    substitute,
    substitute_pred,
    uses_time,
)
from .hprog import (
    Abort,
    Assign,
    Choice,
    Evolve,
    Flow,
    HybridProgram,
    IfThenElse,
    Loop,
    Seq,
    Skip,
    Test,
    TimeDomain,
)


@dataclass(frozen=True)
class Obligation:
    """Universally quantified implication with provenance.

    kind selects the discharge route: "arith" goes to the arithmetic
    discharger, "flow_cert" and "diff_inv" to the ODE certifier, "opaque"
    is reported Unknown as-is.  payload carries the Evolve data the
    certifier needs.
    """

    id: str
    forall: tuple
    hyps: tuple
    concl: Pred
    provenance: str
    kind: str = "arith"
    payload: object = None

    def to_json(self) -> dict:
        from .hwl import format_pred

        return {
            "id": self.id,
            "forall": list(self.forall),
            "hyps": [format_pred(h) for h in self.hyps],
            "concl": format_pred(self.concl),
            "provenance": self.provenance,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class VerifySpec:
    """Partial-correctness problem: assumptions and pre imply post after program."""

    name: str
    vars: tuple
    consts: tuple = ()
    assumptions: tuple = ()
    pre: Pred = TRUE
    post: Pred = TRUE
    program: HybridProgram = Skip()
    const_ranges: Mapping[str, tuple] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "consts", tuple(self.consts))
        object.__setattr__(self, "assumptions", tuple(self.assumptions))
        declared = set(self.vars) | set(self.consts)
        if TIME_NAME in declared:
            raise ValueError(f"{TIME_NAME!r} is reserved for the time symbol")
        for label, pred in (("pre", self.pre), ("post", self.post)):
            extra = pred_free_names(pred) - declared
            if extra:
                raise ValueError(f"{label} reads undeclared names {sorted(extra)}")


# ---------------------------------------------------------------------------
# Grid evaluation


def eval_pred_ext(
    p: Pred,
    valuation: Mapping[str, float],
    step: float = 0.1,
    horizon: float = 6.0,
    eq_tol: float = 0.0,
) -> bool:
    """Grid evaluation of extended predicates; TimeQuant quantifiers range
    over the grid of their time domain."""
    if isinstance(p, TimeQuant):
        ts = p.dom.grid(step, horizon)
        if p.dom.includes_negative():
            lo = -horizon if p.dom.kind == "reals" else p.dom.lo
            k = 1
            neg = []
            while -k * step >= lo - 1e-12:
                neg.append(-k * step)
                k += 1
            ts = ts + neg
        prefix_ok = True
        for t in ts:
            if t >= 0:
                # forward times share an incrementally extended prefix
                v = {**valuation, p.tau_name: t}
                prefix_ok = prefix_ok and eval_pred_ext(p.prefix, v, step, horizon, eq_tol)
                holds = prefix_ok
            else:
                holds = all(
                    eval_pred_ext(
                        p.prefix, {**valuation, p.tau_name: tau}, step, horizon, eq_tol
                    )
                    for tau in ts
                    if tau <= t
                )
            if holds and not eval_pred_ext(
                p.body, {**valuation, p.t_name: t}, step, horizon, eq_tol
            ):
                return False
        return True
    if isinstance(p, And):
        return eval_pred_ext(p.lhs, valuation, step, horizon, eq_tol) and eval_pred_ext(
            p.rhs, valuation, step, horizon, eq_tol
        )
    if isinstance(p, Or):
        return eval_pred_ext(p.lhs, valuation, step, horizon, eq_tol) or eval_pred_ext(
            p.rhs, valuation, step, horizon, eq_tol
        )
    if isinstance(p, Not):
        return not eval_pred_ext(p.arg, valuation, step, horizon, eq_tol)
    return eval_pred(p, valuation, eq_tol)


# ---------------------------------------------------------------------------
# The predicate transformer


@dataclass
class _ProtoObligation:
    hyps: tuple
    concl: Pred
    provenance: str
    kind: str = "arith"
    payload: object = None


class _WlpPass:
    def __init__(self, reserved=frozenset()):
        self.protos: list[_ProtoObligation] = []
        self.time_counter = 0
        # declared names, which binders never take even where q does not read them
        self.reserved = frozenset(reserved)

    def fresh_times(self, avoid: set) -> tuple[str, str]:
        """Next pair of t/tau, t2/tau2, ... whose names are not in avoid."""
        t_name, tau_name = fresh_time_binders(avoid, self.time_counter + 1)
        self.time_counter = int(t_name[1:] or 1)
        return t_name, tau_name

    def emit(self, hyps, concl, provenance, kind="arith", payload=None):
        self.protos.append(_ProtoObligation(tuple(hyps), concl, provenance, kind, payload))

    def wlp(self, p: HybridProgram, q: Pred, path: str) -> Pred:
        if isinstance(p, Skip):
            return q
        if isinstance(p, Abort):
            return TRUE
        if isinstance(p, Assign):
            return substitute_pred(q, {p.var: p.expr})
        if isinstance(p, Test):
            return implies(p.cond, q)
        if isinstance(p, Seq):
            for i in reversed(range(len(p.items))):
                q = self.wlp(p.items[i], q, f"{path}.{i}")
            return q
        if isinstance(p, Choice):
            return pred_and(
                [self.wlp(item, q, f"{path}.{i}") for i, item in enumerate(p.items)]
            )
        if isinstance(p, IfThenElse):
            wt = self.wlp(p.then, q, f"{path}.then")
            we = self.wlp(p.els, q, f"{path}.else")
            return And(implies(p.cond, wt), implies(Not(p.cond), we))
        if isinstance(p, Loop):
            body_pre = self.wlp(p.body, p.inv, f"{path}.body")
            self.emit([p.inv], body_pre, f"loop-preserve@{path}")
            self.emit([p.inv], q, f"loop-post@{path}")
            return p.inv
        if isinstance(p, Evolve):
            if p.flow is not None:
                if p.field is not None:
                    self.emit(
                        (), TRUE, f"flow-cert@{path}", kind="flow_cert", payload=p
                    )
                return self.flow_wlp(p.flow, p.guard, p.dom, q)
            if p.dinv is not None:
                self.emit(
                    (), TRUE, f"dinv-invariance@{path}", kind="diff_inv", payload=p
                )
                self.emit([p.dinv, p.guard], q, f"dinv-post@{path}")
                return p.dinv
            self.emit((), TRUE, f"no-certificate@{path}", kind="opaque", payload=p)
            return TRUE
        raise TypeError(f"not a HybridProgram node: {p!r}")

    def flow_wlp(self, flow: Flow, guard: Pred, dom: TimeDomain, q: Pred) -> Pred:
        # the flow's time symbol is substituted away, so it need not be avoided
        avoid = self.reserved | pred_free_names(q) | pred_free_names(guard)
        avoid |= set(flow.components)
        for e in flow.components.values():
            avoid |= free_vars(e) | free_consts(e)
        t_name, tau_name = self.fresh_times(avoid)
        u = dom.effective_query()
        at_t = {
            x: substitute(e, {"t": Var(t_name)}) for x, e in flow.components.items()
        }
        at_tau = {
            x: substitute(e, {"t": Var(tau_name)}) for x, e in flow.components.items()
        }
        return TimeQuant(
            t_name=t_name,
            tau_name=tau_name,
            dom=u,
            prefix=substitute_pred(guard, at_tau),
            body=substitute_pred(q, at_t),
        )


def wlp(p: HybridProgram, q: Pred) -> tuple[Pred, list[Obligation]]:
    """Weakest liberal precondition of q under p, plus side obligations."""
    return _run_wlp(_WlpPass(), p, q)


def _run_wlp(run: _WlpPass, p: HybridProgram, q: Pred) -> tuple[Pred, list[Obligation]]:
    pred = run.wlp(p, q, "program")
    obligations = [
        Obligation(
            id=f"ob{i+1}",
            forall=(),
            hyps=proto.hyps,
            concl=proto.concl,
            provenance=proto.provenance,
            kind=proto.kind,
            payload=proto.payload,
        )
        for i, proto in enumerate(run.protos)
    ]
    return pred, obligations


def _with_context(ob: Obligation, spec: VerifySpec, ident: str) -> Obligation:
    hyps = tuple(spec.assumptions) + ob.hyps
    time_names = set().union(*(pred_bound_names(h) for h in hyps + (ob.concl,)))
    quantified = list(spec.vars) + sorted(time_names)
    return replace(ob, id=ident, hyps=hyps, forall=tuple(quantified))


def verify(spec: VerifySpec) -> list[Obligation]:
    """Generate all proof obligations; no discharge is attempted here."""
    run = _WlpPass(set(spec.vars) | set(spec.consts))
    pred, side = _run_wlp(run, spec.program, spec.post)
    main = Obligation(
        id="ob0",
        forall=(),
        hyps=(spec.pre,),
        concl=pred,
        provenance="pre-implies-wlp@program",
    )
    out = [main] + side
    return [_with_context(ob, spec, f"ob{i}") for i, ob in enumerate(out)]


# ---------------------------------------------------------------------------
# Semantic variants of differential dynamic logic rules


def _find_evolves(p: HybridProgram, path: str = "program"):
    """(path, node) of every evolution command that has a vector field."""
    if isinstance(p, Evolve):
        if p.field is not None:
            yield path, p
    elif isinstance(p, Seq):
        for i, item in enumerate(p.items):
            yield from _find_evolves(item, f"{path}.{i}")
    elif isinstance(p, Choice):
        for i, item in enumerate(p.items):
            yield from _find_evolves(item, f"{path}.{i}")
    elif isinstance(p, IfThenElse):
        yield from _find_evolves(p.then, f"{path}.then")
        yield from _find_evolves(p.els, f"{path}.else")
    elif isinstance(p, Loop):
        yield from _find_evolves(p.body, f"{path}.body")


def _replace_at(p: HybridProgram, path: str, new: HybridProgram, here="program"):
    if here == path:
        return new
    if isinstance(p, Seq):
        return Seq(
            tuple(_replace_at(item, path, new, f"{here}.{i}") for i, item in enumerate(p.items))
        )
    if isinstance(p, Choice):
        return Choice(
            tuple(_replace_at(item, path, new, f"{here}.{i}") for i, item in enumerate(p.items))
        )
    if isinstance(p, IfThenElse):
        return IfThenElse(
            p.cond,
            _replace_at(p.then, path, new, f"{here}.then"),
            _replace_at(p.els, path, new, f"{here}.else"),
        )
    if isinstance(p, Loop):
        return Loop(_replace_at(p.body, path, new, f"{here}.body"), p.inv)
    return p


def dc_split(spec: VerifySpec, cut: Pred, path: Optional[str] = None):
    """Differential cut: strengthen an Evolve guard by a provable invariant.

    Returns the transformed spec plus the left-premise obligations: the cut
    must be a differential invariant implied by the precondition.
    """
    evolves = list(_find_evolves(spec.program))
    if not evolves:
        raise ValueError("dc_split: program has no evolution command")
    if path is None:
        path = evolves[0][0]
    target = dict(evolves).get(path)
    if target is None:
        raise ValueError(f"dc_split: no evolution command at {path!r}")
    new_evolve = replace(target, guard=And(target.guard, cut))
    new_program = _replace_at(spec.program, path, new_evolve)
    obligations = [
        Obligation(
            id="dc1",
            forall=tuple(spec.vars),
            hyps=tuple(spec.assumptions),
            concl=TRUE,
            provenance=f"dc-invariance@{path}",
            kind="diff_inv",
            payload=replace(target, dinv=cut, flow=None),
        ),
        Obligation(
            id="dc2",
            forall=tuple(spec.vars),
            hyps=tuple(spec.assumptions) + (spec.pre,),
            concl=cut,
            provenance=f"dc-pre-implies-cut@{path}",
        ),
    ]
    return replace(spec, program=new_program), obligations


def dw_check(evolve: Evolve, q: Pred) -> Obligation:
    """Differential weakening: the guard alone implies the postcondition."""
    if not isinstance(evolve, Evolve):
        raise TypeError("dw_check expects an evolution command")
    return Obligation(
        id="dw1",
        forall=(),
        hyps=(evolve.guard,),
        concl=q,
        provenance="dw-guard-implies-post",
    )


def ds_closed_form(
    components: Mapping[str, Expr], guard: Pred, post: Pred, dom: TimeDomain = None
) -> TimeQuant:
    """Closed-form wlp for a constant vector field: the flow is x + c*t."""
    from .hprog import NONNEG

    if dom is None:
        dom = NONNEG
    for name, c in components.items():
        if free_names(c) & set(components) or uses_time(c):
            raise ValueError(f"ds_closed_form: component {name!r} is not constant")
    flow = Flow({x: Var(x) + c * TimeVar() for x, c in components.items()}, dom)
    run = _WlpPass()
    return run.flow_wlp(flow, guard, dom, post)
