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
from itertools import groupby
from math import inf
from typing import Mapping, Optional

from .expr import (
    TIME_NAME,
    And,
    EvalError,
    Expr,
    Not,
    Or,
    Pred,
    TimeQuant,
    TimeVar,
    TRUE,
    TruePred,
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
    NONNEG,
    Seq,
    Skip,
    Test,
    TimeDomain,
    _orbit,
)


@dataclass(frozen=True)
class Obligation:
    """Universally quantified implication with provenance.

    kind selects the discharge route: "arith" goes to the arithmetic
    discharger, "flow_cert" and "diff_inv" to the ODE certifier, "opaque"
    is reported Unknown as-is.  payload carries the Evolve data the
    certifier needs, or an opaque obligation's reason.
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
class Lemma:
    """A declared arithmetic fact hyps => concl.  Establishing it returns a
    copy with its status; the declared value stays unvalidated."""

    name: str
    hyps: tuple
    concl: Pred
    status: str = "unvalidated"  # unvalidated | proved | accepted | rejected | inconclusive
    trials: int = 0
    witness: Optional[dict] = None
    proof: str = ""  # the methods of an exact proof, joined by "+"

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.proof:
            out["proof"] = self.proof
        out["trials"] = self.trials
        return out


# the keys a problem's config may set, in .hwl and through the API alike
CONFIG_KEYS = {"seed", "step", "horizon", "trials", "fuel", "lemma_trials"}
# the input language's keywords: no variable or constant may take one
KEYWORDS = {
    "problem", "vars", "consts", "assume", "pre", "post", "program", "lemma",
    "config", "skip", "abort", "if", "then", "else", "loop", "inv", "evolve",
    "evol", "flow", "dinv", "on", "in", "R", "true", "false", "sin", "cos",
    "exp", "inf",
}


@dataclass(frozen=True)
class VerifySpec:
    """Partial-correctness problem: assumptions and pre imply post after
    program.  The parser returns one, with the file's lemmas and config."""

    name: str
    vars: tuple
    consts: tuple = ()
    assumptions: tuple = ()
    pre: Pred = TRUE
    post: Pred = TRUE
    program: HybridProgram = Skip()
    const_ranges: Mapping[str, tuple] = field(default_factory=dict)
    lemmas: tuple = ()
    config: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        object.__setattr__(self, "consts", tuple(self.consts))
        object.__setattr__(self, "assumptions", tuple(self.assumptions))
        object.__setattr__(self, "lemmas", tuple(self.lemmas))
        # the parser's header rules; it never reads a keyword as a name
        declared = set()
        for what, names in (("variable", self.vars), ("constant", self.consts)):
            for name in names:
                if name == TIME_NAME or name in KEYWORDS or name in declared:
                    raise ValueError(f"bad {what} name {name!r}")
                declared.add(name)
        for label, pred in (("pre", self.pre), ("post", self.post)):
            extra = pred_free_names(pred) - declared
            if extra:
                raise ValueError(f"{label} reads undeclared names {sorted(extra)}")
        _check_program_names(self.program, set(self.vars), declared)
        for c, (lo, hi) in self.const_ranges.items():
            if c not in self.consts:
                raise ValueError(f"range for undeclared constant {c!r}")
            if lo > hi:
                raise ValueError(f"empty range for constant {c!r}: [{lo}, {hi}]")
        names = set()
        for lemma in self.lemmas:
            if lemma.name in names:
                raise ValueError(f"repeated lemma name {lemma.name!r}")
            names.add(lemma.name)
        for key in self.config:
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")

    def to_verify_spec(self) -> VerifySpec:
        # the benchmark's search op (perfbench/run.py) still calls this
        return self


def _check_program_names(program: HybridProgram, vars: set, declared: set) -> None:
    """Raise ValueError unless every variable the program writes (an
    assignment's target, a field's or a flow's) is in vars and every name
    it reads, besides the time symbol, is declared.  The first offence in
    program order names the error; an explicit stack, not recursion."""
    allowed = declared | {TIME_NAME}
    todo = [program]
    while todo:
        p = todo.pop()
        todo += [sub for _, sub in reversed(_subprograms(p))]
        kind = type(p)
        # (what reads the term, the variable it writes or None, the term)
        if kind is Assign:
            parts = [("assignment to", p.var, p.expr)]
        elif kind is Test:
            parts = [("test", None, p.cond)]
        elif kind is IfThenElse:
            parts = [("branch condition", None, p.cond)]
        elif kind is Loop:
            parts = [("loop invariant", None, p.inv)]
        elif kind is Evolve:
            parts = [("guard", None, p.guard)]
            if p.dinv is not None:
                parts.append(("dinv", None, p.dinv))
            for what, comps in (("field of", p.field), ("flow of", p.flow)):
                if comps is not None:
                    parts += [(what, x, e) for x, e in comps.components.items()]
        else:
            continue
        for what, x, term in parts:
            if x is not None and x not in vars:
                raise ValueError(f"{what} undeclared variable {x!r}")
            names = free_names(term) if isinstance(term, Expr) else pred_free_names(term)
            if not names <= allowed:
                where = what if x is None else f"{what} {x!r}"
                raise ValueError(f"{where} reads undeclared names {sorted(names - allowed)}")


# ---------------------------------------------------------------------------
# Grid evaluation


def eval_pred_ext(
    p: Pred,
    valuation: Mapping[str, float],
    step: float = 0.1,
    horizon: float = 6.0,
    eq_tol: float = 0.0,
) -> bool:
    """Grid evaluation of extended predicates.  A TimeQuant follows the
    orbit rule (hprog.orbit_kernel) over its domain's down-set grid: the
    end times t reached are the grid points up to the first one where the
    prefix fails or cannot be evaluated, and the body must hold at each.
    A domain unbounded below has down-sets reaching past the grid, where a
    prefix other than true may fail, so such a TimeQuant raises EvalError."""
    # (step, node, valuation) on one stack, step None to decide the node; And,
    # Or and the end times short-circuit left to right
    value, todo = None, [(None, p, valuation)]
    while todo:
        after, q, val = todo.pop()
        if after is None:
            kind = type(q)
            if kind is And or kind is Or:
                todo += [(kind, q.rhs, val), (None, q.lhs, val)]
            elif kind is Not:
                todo += [(Not, q, val), (None, q.arg, val)]
            elif kind is TimeQuant:
                if q.dom.lo == -inf and not isinstance(q.prefix, TruePred):
                    raise EvalError("the down-sets of a domain unbounded below leave the grid")
                ts = q.dom.downset_grid(step, horizon)
                reached = _orbit(("time", q.tau_name), (), q.prefix, ts, {}, val, eq_tol)
                value = True
                todo.append((iter(reached), q, val))
            else:
                value = eval_pred(q, val, eq_tol)
        elif after is And or after is Or:  # the left operand leaves p open: the right decides
            if value == (after is And):
                todo.append((None, q, val))
        elif after is Not:
            value = not value
        elif value:  # the reached end times of a TimeQuant not yet read
            for t, _ in after:
                todo += [(after, q, val), (None, q.body, {**val, q.t_name: t})]
                break
    return value


# ---------------------------------------------------------------------------
# The predicate transformer


class _WlpPass:
    def __init__(self, reserved=frozenset()):
        self.obligations: list[Obligation] = []
        self.time_counter = 0
        # declared names, which binders never take even where q does not read them
        self.reserved = frozenset(reserved)

    def fresh_times(self, avoid: set) -> tuple[str, str]:
        """Next pair of t/tau, t2/tau2, ... whose names are not in avoid."""
        t_name, tau_name = fresh_time_binders(avoid, self.time_counter + 1)
        self.time_counter = int(t_name[1:] or 1)
        return t_name, tau_name

    def emit(self, hyps, concl, provenance, kind="arith", payload=None):
        ident = f"ob{len(self.obligations) + 1}"
        self.obligations.append(
            Obligation(ident, (), tuple(hyps), concl, provenance, kind, payload)
        )

    def wlp(self, p: HybridProgram, q: Pred, path: str) -> Pred:
        if isinstance(p, Skip):
            return q
        if isinstance(p, Abort):
            return TRUE
        if isinstance(p, Assign):
            return self.assign_run((p,), q, path)
        if isinstance(p, Test):
            return implies(p.cond, q)
        if isinstance(p, Seq):
            # a maximal run of assignments is one substitution
            groups = groupby(enumerate(p.items), key=lambda item: isinstance(item[1], Assign))
            for is_run, group in reversed([(k, list(g)) for k, g in groups]):
                if is_run:
                    q = self.assign_run([a for _, a in group], q, f"{path}.{group[0][0]}")
                else:
                    for i, item in reversed(group):
                        q = self.wlp(item, q, f"{path}.{i}")
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
            self.emit((), TRUE, f"no-certificate@{path}", kind="opaque",
                      payload="evolution command carries no flow or invariant")
            return TRUE
        raise TypeError(f"not a HybridProgram node: {p!r}")

    def assign_run(self, run, q: Pred, path: str) -> Pred:
        """wlp of x1 := e1; ...; xk := ek, starting at path, as one
        simultaneous substitution q[sigma], sigma built forward: each ei
        reads the store the assignments before it left, so sigma[xi] =
        ei[sigma].  Where a denominator becomes the constant zero, true,
        with an opaque obligation that names the undefined division, as
        for an evolution command without a certificate."""
        sigma: dict = {}
        try:
            for a in run:
                sigma[a.var] = substitute(a.expr, sigma)
            return substitute_pred(q, sigma)
        except ValueError as exc:  # only Div rejects a rebuilt node
            self.emit((), TRUE, f"undefined-division@{path}", kind="opaque",
                      payload=f"wlp undefined: {exc}")
            return TRUE

    def flow_wlp(self, flow: Flow, guard: Pred, dom: TimeDomain, q: Pred) -> Pred:
        # the flow's time symbol is substituted away, so it need not be avoided
        avoid = self.reserved | pred_free_names(q) | pred_free_names(guard)
        avoid |= set(flow.components)
        for e in flow.components.values():
            avoid |= free_vars(e) | free_consts(e)
        t_name, tau_name = self.fresh_times(avoid)
        at_t = {
            x: substitute(e, {"t": Var(t_name)}) for x, e in flow.components.items()
        }
        at_tau = {
            x: substitute(e, {"t": Var(tau_name)}) for x, e in flow.components.items()
        }
        return TimeQuant(
            t_name=t_name,
            tau_name=tau_name,
            dom=dom,
            prefix=substitute_pred(guard, at_tau),
            body=substitute_pred(q, at_t),
        )


def wlp(p: HybridProgram, q: Pred) -> tuple[Pred, list[Obligation]]:
    """Weakest liberal precondition of q under p, plus side obligations."""
    run = _WlpPass()
    return run.wlp(p, q, "program"), run.obligations


def _with_context(ob: Obligation, spec: VerifySpec) -> Obligation:
    hyps = tuple(spec.assumptions) + ob.hyps
    time_names = set().union(*(pred_bound_names(h) for h in hyps + (ob.concl,)))
    quantified = list(spec.vars) + sorted(time_names)
    return replace(ob, hyps=hyps, forall=tuple(quantified))


def verify(spec: VerifySpec) -> list[Obligation]:
    """Generate all proof obligations; no discharge is attempted here."""
    run = _WlpPass(set(spec.vars) | set(spec.consts))
    pred = run.wlp(spec.program, spec.post, "program")
    main = Obligation("ob0", (), (spec.pre,), pred, "pre-implies-wlp@program")
    return [_with_context(ob, spec) for ob in [main] + run.obligations]


# ---------------------------------------------------------------------------
# Semantic variants of differential dynamic logic rules


def _subprograms(p: HybridProgram) -> list[tuple[str, HybridProgram]]:
    """(path step, child) of each direct subprogram of p.  A path names a
    node from the root "program" by its steps: ".i" for the i-th item of a
    sequence or choice, ".then"/".else" for a conditional's branches and
    ".body" for a loop's body."""
    if isinstance(p, (Seq, Choice)):
        return [(str(i), item) for i, item in enumerate(p.items)]
    if isinstance(p, IfThenElse):
        return [("then", p.then), ("else", p.els)]
    if isinstance(p, Loop):
        return [("body", p.body)]
    return []


def _find_evolves(p: HybridProgram, path: str = "program"):
    """(path, node) of every evolution command that has a vector field."""
    if isinstance(p, Evolve) and p.field is not None:
        yield path, p
    for step, sub in _subprograms(p):
        yield from _find_evolves(sub, f"{path}.{step}")


def _replace_at(p: HybridProgram, path: str, new: HybridProgram, here="program"):
    if here == path:
        return new
    subs = [_replace_at(sub, path, new, f"{here}.{step}") for step, sub in _subprograms(p)]
    if isinstance(p, (Seq, Choice)):
        return replace(p, items=subs)
    if isinstance(p, IfThenElse):
        return replace(p, then=subs[0], els=subs[1])
    if isinstance(p, Loop):
        return replace(p, body=subs[0])
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
        Obligation("dc1", (), (), TRUE, f"dc-invariance@{path}", "diff_inv",
                   replace(target, dinv=cut, flow=None)),
        Obligation("dc2", (), (spec.pre,), cut, f"dc-pre-implies-cut@{path}"),
    ]
    return replace(spec, program=new_program), [_with_context(ob, spec) for ob in obligations]


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
    components: Mapping[str, Expr], guard: Pred, post: Pred, dom: TimeDomain = NONNEG
) -> TimeQuant:
    """Closed-form wlp for a constant vector field: the flow is x + c*t."""
    for name, c in components.items():
        if free_names(c) & set(components) or uses_time(c):
            raise ValueError(f"ds_closed_form: component {name!r} is not constant")
    flow = Flow({x: Var(x) + c * TimeVar() for x, c in components.items()}, dom)
    run = _WlpPass()
    return run.flow_wlp(flow, guard, dom, post)
