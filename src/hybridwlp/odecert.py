"""Side-condition certification for evolution commands.

Flow certificates check, symbolically, that a user-supplied flow solves
the vector field and starts at the identity, then cross-check numerically
(monoid action, RK4 agreement) as defense in depth.  Differential
invariants are checked by the Lie-derivative rules, recursing through
conjunction and disjunction.  A fixed-step RK4 integrator serves as the
numeric oracle, and a sampling falsifier searches for specification
violations.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .expr import (
    EVAL_FAILURES,
    And,
    Cmp,
    Expr,
    FalsePred,
    Or,
    Pred,
    Sub,
    TruePred,
    Var,
    const,
    diff,
    evaluate,
    free_consts,
    free_vars,
    lie_derivative,
    nnf,
    pred_free_names,
    substitute,
)
from .hprog import (
    Flow,
    RunConfig,
    Store,
    TimeDomain,
    VectorField,
    find_violation,
    rk4_states,
)
from .polynorm import NormalizeError, expr_eq, normalize
from .sampling import sample_valuation
from .vcgen import Obligation, VerifySpec
from .discharge import DischargeBudget, LemmaDB, Verdict, discharge

SUP_TOL_RK4 = 1e-6
SUP_TOL_MONOID = 1e-9
MONOID_SAMPLES = 200
RK4_STEP = 1e-3


# ---------------------------------------------------------------------------
# Numeric oracle


def rk4_integrate(
    field: VectorField,
    s0: Store,
    h: float,
    n: int,
    consts: Mapping[str, float] = {},
) -> tuple[list, bool]:
    """Classical fixed-step RK4 trajectory [(t, store)] of n steps; the flag
    reports divergence (non-finite values truncate the trajectory)."""
    if h <= 0:
        raise ValueError("step must be positive")
    out = []
    for k, state in zip(range(n + 1), rk4_states(field, s0, h, consts)):
        if not all(map(math.isfinite, state.values())):
            return out, True
        out.append((k * h, state))
    return out, False


# ---------------------------------------------------------------------------
# Lipschitz estimation


@dataclass(frozen=True)
class LipschitzEstimate:
    ell: float
    method: str  # "exact-affine" | "sampled"


def _affine_jacobian(field: VectorField) -> Optional[dict]:
    """Rational Jacobian rows when every component is affine in the
    variables with rational coefficients; None otherwise."""
    rows: dict[str, dict[str, Fraction]] = {}
    for comp, e in field.components.items():
        try:
            poly = normalize(e).poly
        except NormalizeError:
            return None
        row: dict[str, Fraction] = {}
        for mono, c in poly.terms.items():
            var_atoms = [(a, k) for a, k in mono if a.kind == "var"]
            other = [(a, k) for a, k in mono if a.kind != "var"]
            if any(a.kind in ("sin", "cos", "exp", "div") for a, _ in mono):
                return None
            if not var_atoms:
                continue  # constant offset, any symbolic factors allowed
            if len(var_atoms) != 1 or var_atoms[0][1] != 1 or other:
                return None
            row[var_atoms[0][0].name] = row.get(var_atoms[0][0].name, Fraction(0)) + c
        rows[comp] = row
    return rows


def lipschitz_estimate(
    field: VectorField,
    region: Mapping[str, tuple] = None,
    samples: int = 200,
    seed: int = 0,
    consts: Mapping[str, float] = {},
) -> LipschitzEstimate:
    """Exact max-row-sum bound for affine fields; otherwise a sampled
    lower-bound estimate of the Lipschitz constant (sup norms)."""
    if region is None:
        region = {v: (-2.0, 2.0) for v in field.variables}
    for lo, hi in region.values():
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
            raise ValueError("region must be a box of positive volume")
    jac = _affine_jacobian(field)
    if jac is not None:
        ell = max(
            (sum(abs(c) for c in row.values()) for row in jac.values()),
            default=Fraction(0),
        )
        return LipschitzEstimate(float(ell), "exact-affine")
    if samples < 2:
        raise ValueError("sampled estimation needs at least 2 samples")
    rng = random.Random(seed)
    names = field.variables

    def sample_point() -> Store:
        return {v: rng.uniform(*region[v]) for v in names}

    def apply(s: Store) -> dict:
        env = {**consts, **s}
        return {v: evaluate(field.components[v], env) for v in names}

    best = 0.0
    for _ in range(samples):
        s1, s2 = sample_point(), sample_point()
        dx = max(abs(s1[v] - s2[v]) for v in names)
        if dx < 1e-12:
            continue
        df = 0.0
        try:
            f1, f2 = apply(s1), apply(s2)
            df = max(abs(f1[v] - f2[v]) for v in names)
        except EVAL_FAILURES:
            continue
        best = max(best, df / dx)
    return LipschitzEstimate(best, "sampled")


# ---------------------------------------------------------------------------
# Flow certification


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str = ""
    residual: Optional[float] = None

    def to_json(self) -> dict:
        out = {"pass": self.passed, "detail": self.detail}
        if self.residual is not None:
            out["residual"] = self.residual
        return out


@dataclass(frozen=True)
class FlowCertificate:
    field: VectorField
    flow: Flow
    domain: TimeDomain
    checks: Mapping[str, CheckResult]
    lipschitz: Optional[LipschitzEstimate] = None
    issued: bool = False
    refusal: str = ""
    refusal_witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "issued": self.issued,
            "checks": {k: v.to_json() for k, v in self.checks.items()},
        }
        if self.lipschitz is not None:
            out["lipschitz"] = {"ell": self.lipschitz.ell, "method": self.lipschitz.method}
        if self.refusal:
            out["refusal"] = self.refusal
        return out


def default_const_valuations(names: Sequence[str], seed: int = 0, k: int = 3) -> list:
    """Generic nonzero samples for symbolic constants, for numeric checks."""
    rng = random.Random(seed)
    out = []
    for _ in range(max(1, k)):
        v = {}
        for n in sorted(names):
            mag = rng.uniform(0.5, 2.0)
            v[n] = mag if rng.random() < 0.5 else -mag
        out.append(v)
    return out


def certify_flow(
    field: VectorField,
    flow: Flow,
    dom: TimeDomain,
    const_valuations: Optional[Sequence[Mapping[str, float]]] = None,
    seed: int = 0,
) -> FlowCertificate:
    """Certify a flow against a vector field.

    Symbolic checks: the time derivative of each flow component equals the
    field composed with the flow, and the flow at time zero is the
    identity.  Numeric checks: monoid action residual and RK4 agreement.
    The certificate is refused when any symbolic check fails.
    """
    if set(field.components) != set(flow.components):
        raise ValueError("field and flow must share the variable set")
    names = sorted(field.components)
    checks: dict[str, CheckResult] = {}
    refusal = ""
    refusal_witness: Optional[dict] = None

    flow_binding = {v: flow.components[v] for v in names}
    for v in names:
        lhs = diff(flow.components[v], "t")
        rhs = substitute(field.components[v], flow_binding)
        res = expr_eq(lhs, rhs, seed=seed)
        if res.is_equal:
            checks[f"derivative[{v}]"] = CheckResult(True, "symbolic identity")
        else:
            detail = "counterexample " + str(res.witness) if res.kind == "not-equal" else res.note
            checks[f"derivative[{v}]"] = CheckResult(False, detail)
            if not refusal:
                refusal = f"derivative check failed for {v!r}: {detail}"
                if res.kind == "not-equal":
                    refusal_witness = dict(res.witness)

    for v in names:
        at0 = substitute(flow.components[v], {"t": const(0)})
        try:
            ok = normalize(Sub(at0, Var(v))).is_zero()
        except NormalizeError:
            ok = False
        checks[f"initial[{v}]"] = CheckResult(ok, "flow at time zero is the identity" if ok else "flow(0) != id")
        if not ok:
            refusal = refusal or f"initial-value check failed for {v!r}"

    dom_ok = flow.domain.contains_domain(dom)
    checks["domain"] = CheckResult(dom_ok, "query domain within interval of existence" if dom_ok else "query domain exceeds the flow's interval of existence")
    if not dom_ok:
        refusal = refusal or "domain check failed"

    sym_names = sorted(
        set().union(*(free_consts(e) for e in flow.components.values()))
        | set().union(*(free_consts(e) for e in field.components.values()))
    ) if names else []
    if const_valuations is None:
        const_valuations = default_const_valuations(sym_names, seed=seed) if sym_names else [{}]

    rng = random.Random(seed)
    if not refusal:
        residual = 0.0
        for _ in range(MONOID_SAMPLES):
            cv = const_valuations[rng.randrange(len(const_valuations))]
            s = {v: rng.uniform(-2.0, 2.0) for v in names}
            if dom.includes_negative():
                t1, t2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            else:
                t1, t2 = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
            try:
                one_shot = flow.at(t1 + t2, s, cv)
                two_step = flow.at(t1, flow.at(t2, s, cv), cv)
            except EVAL_FAILURES as exc:
                checks["monoid"] = CheckResult(False, f"evaluation failed: {exc}")
                refusal = refusal or "monoid-action check failed"
                break
            residual = max(residual, max(abs(one_shot[v] - two_step[v]) for v in names))
        else:
            ok = residual <= SUP_TOL_MONOID
            checks["monoid"] = CheckResult(ok, f"max residual {residual:.3e}", residual)
            if not ok:
                refusal = refusal or "monoid-action residual too large"

    if not refusal:
        worst = 0.0
        horizon = 1.0
        if dom.kind == "interval":
            horizon = min(horizon, dom.hi)
        steps = max(1, int(round(horizon / RK4_STEP)))
        for cv in const_valuations:
            s = {v: rng.uniform(-1.5, 1.5) for v in names}
            try:
                traj, divergent = rk4_integrate(field, s, RK4_STEP, steps, cv)
                if not divergent:
                    targets = flow.states([t for t, _ in traj], s, cv)
                    for (_, st), target in zip(traj, targets):
                        # max(|target[v] - st[v]| for v in names), compared in that order
                        dev = max(map(abs, map(operator.sub, map(target.__getitem__, names),
                                               map(st.__getitem__, names))))
                        if dev > worst:
                            worst = dev
            except EVAL_FAILURES as exc:
                checks["rk4"] = CheckResult(False, f"evaluation failed: {exc}")
                refusal = "rk4 cross-check failed"
                break
            if divergent:
                checks["rk4"] = CheckResult(False, "integrator diverged")
                refusal = "rk4 cross-check failed"
                break
        else:
            ok = worst <= SUP_TOL_RK4
            checks["rk4"] = CheckResult(ok, f"max deviation {worst:.3e} on [0,{horizon}]", worst)
            if not ok:
                refusal = "rk4 cross-check failed"

    lip = None
    try:
        lip = lipschitz_estimate(field, consts=const_valuations[0] if const_valuations else {})
        checks["lipschitz"] = CheckResult(True, f"ell={lip.ell} ({lip.method})")
    except ValueError as exc:
        checks["lipschitz"] = CheckResult(False, str(exc))

    return FlowCertificate(
        field=field,
        flow=flow,
        domain=dom,
        checks=checks,
        lipschitz=lip,
        issued=not refusal,
        refusal=refusal,
        refusal_witness=refusal_witness,
    )


# ---------------------------------------------------------------------------
# Differential invariants


@dataclass(frozen=True)
class AtomRuling:
    pred: Pred
    rule: str
    verdict: Verdict

    def to_json(self) -> dict:
        from .hwl import format_pred

        return {
            "atom": format_pred(self.pred),
            "rule": self.rule,
            "verdict": self.verdict.to_json(),
        }


@dataclass(frozen=True)
class DiffInvariantReport:
    invariant: Pred
    rulings: tuple
    overall: Verdict

    def to_json(self) -> dict:
        from .hwl import format_pred

        return {
            "invariant": format_pred(self.invariant),
            "rulings": [r.to_json() for r in self.rulings],
            "verdict": self.overall.to_json(),
        }


def _lie_obligation(
    lhs: Expr, op: str, rhs: Expr, field: VectorField, assumptions: tuple
) -> Obligation:
    names = tuple(sorted(free_vars(lhs) | free_vars(rhs) | set(field.variables)))
    return Obligation(
        id="lie",
        forall=names,
        hyps=assumptions,
        concl=Cmp(op, lhs, rhs),
        provenance="diff-invariant-atom",
    )


def check_diff_invariant(
    inv: Pred,
    field: VectorField,
    dom: TimeDomain = None,
    assumptions: tuple = (),
    db: Optional[LemmaDB] = None,
    budget: DischargeBudget = DischargeBudget(),
) -> DiffInvariantReport:
    """Differential-invariance check by structural recursion over the
    negation normal form, with Lie-derivative obligations at the atoms.

    A Proved report justifies keeping the predicate across the evolution
    under any guard; failed atoms yield Unknown, never Refuted, since the
    atom rules are sufficient conditions only.
    """
    if dom is None:
        from .hprog import REALS

        dom = REALS
    inv_n = nnf(inv)
    for name in pred_free_names(inv_n):
        if name == "t":
            raise ValueError("invariant mentions the time symbol")
    rulings: list[AtomRuling] = []

    def lie(e: Expr) -> Expr:
        return lie_derivative(e, field.components)

    def discharge_atom(concl_op: str, lhs: Expr, rhs: Expr) -> Verdict:
        ob = _lie_obligation(lhs, concl_op, rhs, field, tuple(assumptions))
        return discharge(ob, db, budget)

    def go(p: Pred) -> bool:
        if isinstance(p, TruePred):
            rulings.append(AtomRuling(p, "trivial", Verdict("proved", method="trivial")))
            return True
        if isinstance(p, FalsePred):
            rulings.append(AtomRuling(p, "trivial", Verdict("proved", method="empty-set")))
            return True
        if isinstance(p, And):
            a = go(p.lhs)
            b = go(p.rhs)
            return a and b
        if isinstance(p, Or):
            a = go(p.lhs)
            b = go(p.rhs)
            return a and b
        if isinstance(p, Cmp):
            return atom(p)
        raise ValueError(f"unsupported invariant shape: {type(p).__name__}")

    def atom(c: Cmp) -> bool:
        try:
            lmu, lnu = lie(c.lhs), lie(c.rhs)
        except ValueError as exc:
            rulings.append(
                AtomRuling(c, "unsupported", Verdict("unknown", reason=str(exc)))
            )
            return False
        if c.op == "=":
            res = expr_eq(lmu, lnu)
            if res.is_equal:
                rulings.append(
                    AtomRuling(c, "eq-rule", Verdict("proved", method="lie-normalize"))
                )
                return True
            vd = discharge_atom("=", lmu, lnu)
            if vd.proved:
                rulings.append(AtomRuling(c, "eq-rule", replace(vd, method="lie-" + vd.method)))
                return True
            rulings.append(
                AtomRuling(
                    c, "eq-rule",
                    Verdict("unknown", reason="lie derivatives not provably equal"),
                )
            )
            return False
        if c.op in ("<", "<=", ">", ">="):
            if c.op in (">", ">="):
                mu, nu = c.rhs, c.lhs
                lmu, lnu = lnu, lmu
            # forward time: L(mu) <= L(nu); negative times also need the reverse
            directions = [("<=", lmu, lnu)]
            if dom.includes_negative():
                directions.append(("<=", lnu, lmu))
            ok = True
            methods = []
            for op, a, b in directions:
                if expr_eq(a, b).is_equal:
                    methods.append("lie-normalize")
                    continue
                vd = discharge_atom(op, a, b)
                if vd.proved:
                    methods.append("lie-" + vd.method)
                else:
                    ok = False
                    break
            rule = "lt-rule" if c.op in ("<", ">") else "le-rule"
            if ok:
                rulings.append(
                    AtomRuling(c, rule, Verdict("proved", method="+".join(methods)))
                )
                return True
            rulings.append(
                AtomRuling(
                    c, rule,
                    Verdict("unknown", reason="lie-derivative inequality not proved"),
                )
            )
            return False
        if c.op == "!=":
            a = atom(Cmp("<", c.lhs, c.rhs))
            b = atom(Cmp("<", c.rhs, c.lhs))
            ok = a and b
            rulings.append(
                AtomRuling(
                    c, "neq-rule",
                    Verdict("proved", method="both-strict-directions")
                    if ok
                    else Verdict("unknown", reason="a strict direction failed"),
                )
            )
            return ok
        raise ValueError(f"unknown comparison {c.op!r}")

    ok = go(inv_n)
    overall = (
        Verdict("proved", method="diff-invariant")
        if ok
        else Verdict("unknown", reason="some atom ruling failed")
    )
    return DiffInvariantReport(inv_n, tuple(rulings), overall)


# ---------------------------------------------------------------------------
# Falsification


@dataclass(frozen=True)
class FalsifyBudget:
    trials: int = 200
    horizon: float = 6.0
    step: float = 0.05
    fuel: int = 12
    seed: int = 0


@dataclass
class CounterexampleTrace:
    """A run from a sampled start.  undefined holds the evaluation error
    when the run stops at a store where it cannot evaluate the post, a
    test, a branch condition or an assignment; the run is then undecided
    rather than violating."""

    consts: dict
    initial: Store
    steps: list
    violating: Store
    undefined: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "consts": self.consts,
            "initial": self.initial,
            "steps": [{"label": lbl, "store": st} for lbl, st in self.steps],
            "violating": self.violating,
        }
        if self.undefined is not None:
            out["undefined"] = self.undefined
        return out


def falsify(spec: VerifySpec, budget: FalsifyBudget = FalsifyBudget()) -> Optional[CounterexampleTrace]:
    """Search for an assumption-and-precondition-satisfying start whose
    sampled run violates the postcondition, or reaches a store where it is
    undefined (see CounterexampleTrace); None within budget otherwise."""
    rng = random.Random(budget.seed)
    names = list(spec.consts) + list(spec.vars)
    hyps = tuple(spec.assumptions) + (spec.pre,)
    for _ in range(budget.trials):
        v = sample_valuation(names, hyps, rng, ranges=dict(spec.const_ranges), attempts=12)
        if v is None:
            continue
        consts = {c: v[c] for c in spec.consts}
        store = {x: v[x] for x in spec.vars}
        cfg = RunConfig(
            fuel=budget.fuel,
            step=budget.step,
            horizon=budget.horizon,
            consts=consts,
        )
        found = find_violation(spec.program, store, spec.post, cfg)
        if found is not None:
            trace, undefined = found
            return CounterexampleTrace(consts, store, trace, trace[-1][1], undefined)
    return None
