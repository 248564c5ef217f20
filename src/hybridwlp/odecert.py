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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .expr import (
    EVAL_FAILURES,
    TIME_NAME,
    TRUE,
    And,
    Cmp,
    Div,
    Expr,
    FalsePred,
    KernelWriter,
    Or,
    Pred,
    Sub,
    TruePred,
    evaluate,
    free_consts,
    free_names,
    free_vars,
    lie_derivative,
    memo_kernel,
    nnf,
    pred_free_names,
    subterms,
)
from .hprog import (
    Flow,
    REALS,
    RunConfig,
    Store,
    TimeDomain,
    VectorField,
    emit_flow,
    emit_rk4_step,
    find_violation,
    flow_identities,
    _orbit_run,
)
from .polynorm import NormalizeError, expr_eq, normalize
from .sampling import sample_valuation
from .vcgen import Obligation, VerifySpec
from .discharge import DischargeBudget, Verdict, discharge

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
    """Classical fixed-step RK4 trajectory [(k * h, store)] for k = 0..n, the
    orbit of the field under the guard true (see hprog.orbit_kernel); the
    flag reports divergence (non-finite values truncate the trajectory).
    An evaluation failure raises."""
    if h <= 0:
        raise ValueError("step must be positive")
    run = _orbit_run(("rk4", tuple(field.components.items())), field.reads, TRUE, s0, consts)
    out: list = []
    run(out, [k * h for k in range(n + 1)], s0, consts, 0.0, h, 0.5 * h, h / 6.0)
    return out, len(out) < n + 1


# ---------------------------------------------------------------------------
# Lipschitz estimation


@dataclass(frozen=True)
class LipschitzEstimate:
    ell: float
    method: str  # "exact-affine" | "sampled" (then ell is a numeric lower bound)


def _affine_jacobian(field: VectorField) -> Optional[dict]:
    """Rational Jacobian rows when every component is affine in the
    variables with rational coefficients; None otherwise, and None for a
    component that divides by a term with a name in it, which normalize may
    cancel (c/c is 1) although the field is undefined where it vanishes."""
    rows: dict[str, dict[str, Fraction]] = {}
    for comp, e in field.components.items():
        if any(isinstance(s, Div) and free_names(s.den) for s in subterms(e)):
            return None
        try:
            poly = normalize(e)
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
    lower-bound estimate of the Lipschitz constant (sup norms), which raises
    ValueError when the field evaluates at no sampled pair of points."""
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

    best, evaluated = 0.0, False
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
        evaluated = True
        best = max(best, df / dx)
    if not evaluated:
        raise ValueError("the field evaluates at no sampled pair of points")
    return LipschitzEstimate(best, "sampled")


# ---------------------------------------------------------------------------
# Flow certification


@dataclass(frozen=True)
class CheckResult:
    passed: Optional[bool]  # None: the check could not decide
    detail: str = ""
    residual: Optional[float] = None

    def to_json(self) -> dict:
        out = {"pass": self.passed, "detail": self.detail}
        if self.residual is not None:
            # strict JSON has no NaN or infinity: "nan" and "inf" stand in
            res = self.residual
            out["residual"] = res if math.isfinite(res) else repr(res)
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


# ---------------------------------------------------------------------------
# The flow certificate's numeric cross-checks, as generated kernels (see
# expr.KernelWriter), one per value of the field, the flow, the names and
# the bound constants (see expr.memo_kernel).  The start values are floats;
# a constant loads with float() where a left-to-right tree walk would
# first read it, and a name that is neither a variable nor bound raises the
# walk's unbound-name EvalError there.  So every value and failure, and
# their order, is the one of the orbit writer's kernels (hprog.orbit_kernel):
# of rk4_integrate for the field and of a flow's orbit for the flow.  A NaN
# deviation is the largest: it sticks to the running maximum, which then
# fails its check.  A float +, -, * or unary - of values fixed before a
# check's loop is computed once, before it (see KernelWriter.invariant):
# such an operation cannot raise, so no failure moves, and it gives the
# same float wherever it is computed.


def _sup_deviation(w: KernelWriter, a: Sequence[str], b: Sequence[str]) -> str:
    """Emit max(abs(x - y) for x, y in zip(a, b)), compared in that order
    as max compares except that a NaN deviation wins and stays, and return
    the identifier of its value."""
    dev, d = w.temp(), w.temp()
    w.line(f"{dev} = abs({a[0]} - {b[0]})")
    for x, y in zip(a[1:], b[1:]):
        w.line(f"{d} = abs({x} - {y})")
        w.line(f"if {d} > {dev} or {d} != {d}:")
        w.line(f"    {dev} = {d}")
    return dev


def _monoid_kernel(flow: tuple, names: tuple, bounds: tuple):
    """check(randrange, uniform, lo, values, samples) -> the largest residual
    of the monoid action over that many draws, each as _monoid_check
    describes it: the index i of a valuation (randrange), a start value per
    name in order in [-2, 2] and t1, t2 in [lo, 1] (uniform), then the
    deviation over names, in order, between flow(t1 + t2) and flow(t1)
    after flow(t2) from the start, with the constants bounds[i] bound to
    values[i].  Valuations that bind the same names share one branch of the
    loop body.  The first failure of a draw raises; flow holds the flow's
    component items."""
    w = KernelWriter()
    start = {x: w.temp() for x in names}
    w.floats("t1", "t2", "t12", *start.values())
    groups = tuple(dict.fromkeys(bounds))  # the bound names of each branch
    w.line("residual = 0.0")
    w.begin("for _ in range(samples):")
    w.line(f"i = randrange({len(bounds)})")
    for s in start.values():
        w.line(f"{s} = uniform(-2.0, 2.0)")
    w.line("t1 = uniform(lo, 1.0)")
    w.line("t2 = uniform(lo, 1.0)")
    w.line("t12 = t1 + t2")
    branches = len(groups) > 1
    if branches:
        w.line(f"group = {w.bind(tuple(map(groups.index, bounds)))}[i]")
    for j, bound in enumerate(groups):
        if branches:
            w.begin(f"{'el' if j else ''}if group == {j}:")
        consts = {c: w.temp() for c in bound}
        if consts:
            w.line(f"{', '.join(consts.values())}, = values[i]")
        one = emit_flow(w, flow, {**consts, **start, TIME_NAME: "t12"})
        inner = emit_flow(w, flow, {**consts, **start, TIME_NAME: "t2"})
        w.floats(*inner.values())
        two = emit_flow(w, flow, {**consts, **inner, TIME_NAME: "t1"})
        dev = _sup_deviation(w, [one[x] for x in names], [two[x] for x in names])
        w.line(f"if {dev} > residual or {dev} != {dev}:")  # max, but NaN sticks
        w.line(f"    residual = {dev}")
        if branches:
            w.end()
    w.end()
    return w.function("randrange, uniform, lo, values, samples", "residual")


def _rk4_check_kernel(field: tuple, flow: tuple, names: tuple, bound: tuple):
    """check(*start, *consts, steps, h, half, sixth, worst) -> the largest of
    worst and, at each t = k * h for k = 0..steps, the deviation over names,
    in order, between the flow at t from the start and the t-th RK4 state
    (rk4_integrate's); None at the first state that is not finite.  A field
    failure at any step raises, then the flow's first EVAL_FAILURES in
    time, as when the whole orbit is integrated before the flow is read.
    The constants the field reads load before the step loop, so each stage
    term on constants alone, its products with h and half and its share
    of the step's increment are computed once there (see emit_rk4_step).
    field and flow hold the component items."""
    w = KernelWriter()
    start = {x: w.temp() for x in names}
    consts = {c: w.temp() for c in bound}
    state = {x: w.temp() for x in names}
    w.floats("t", *start.values(), *state.values())
    finite = w.bind(math.isfinite)

    def check_state():
        w.line("if not (%s):" % " and ".join(f"{finite}({state[x]})" for x in names))
        w.line("    return None")

    def compare_flow():
        w.guard("ferr = _exc")
        w.line("t = k * h")
        at = emit_flow(w, flow, {**consts, **start, TIME_NAME: "t"})
        dev = _sup_deviation(w, [at[x] for x in names], [state[x] for x in names])
        w.line(f"if {dev} > worst or {dev} != {dev}:")
        w.line(f"    worst = {dev}")
        w.guard(None)

    for x in names:
        w.line(f"{state[x]} = {start[x]}")
    check_state()
    # the first stage of the first step, for its failures and so that each
    # constant it reads loads here, where every step then reuses it, with
    # its operations on constants alone
    memo: dict = {}
    for _, e in field:
        w.expr(e, {**consts, **start}, memo)
    w.line("ferr = None")
    w.line("k = 0")
    compare_flow()  # the flow's constants load here, reused while ferr is None
    w.begin("for k in range(1, steps + 1):")
    # one assignment: a stage value may be a state variable itself
    new = emit_rk4_step(w, field, state, consts)
    w.line(f"{', '.join(state[x] for x, _ in field)} = {', '.join(new)}")
    check_state()
    w.begin("if ferr is None:")
    compare_flow()
    w.end()
    w.end()
    w.line("if ferr is not None:")
    w.line("    raise ferr")
    params = [*start.values(), *consts.values(), "steps", "h", "half", "sixth", "worst"]
    return w.function(", ".join(params), "worst")


def _monoid_check(flow: Flow, names: Sequence[str], valuations, rng: random.Random,
                  negative: bool) -> CheckResult:
    """The monoid action's largest residual over MONOID_SAMPLES draws of a
    valuation, a start in [-2, 2] per name and two times in [0, 1] (in
    [-1, 1] when negative), all made and checked in one generated loop
    (_monoid_kernel): a NaN residual is the largest, and the first
    evaluation failure fails the check.  valuations must not be empty
    (certify_flow checks), or the draw of an index would fail as one."""
    bounds = tuple(tuple(filter(cv.__contains__, flow.reads)) for cv in valuations)
    kernel = memo_kernel(_monoid_kernel, flow.component_items, tuple(names), bounds)
    values = [tuple(map(cv.__getitem__, bound)) for cv, bound in zip(valuations, bounds)]
    try:
        residual = kernel(rng.randrange, rng.uniform, -1.0 if negative else 0.0, values,
                          MONOID_SAMPLES)
    except EVAL_FAILURES as exc:
        return CheckResult(False, f"evaluation failed: {exc}")
    return CheckResult(residual <= SUP_TOL_MONOID, f"max residual {residual:.3e}", residual)


def _rk4_check(field: VectorField, flow: Flow, names: Sequence[str], valuations,
               rng: random.Random, horizon: float) -> CheckResult:
    """The largest deviation between the flow and RK4 at step RK4_STEP on
    [0, horizon], from a start in [-1.5, 1.5] per name for each valuation."""
    reads = sorted({*field.reads, *flow.reads})
    steps = max(1, int(round(horizon / RK4_STEP)))
    h = RK4_STEP
    worst = 0.0
    items = tuple(field.components.items()), tuple(flow.components.items())
    for cv in valuations:
        bound = tuple(filter(cv.__contains__, reads))
        kernel = memo_kernel(_rk4_check_kernel, *items, tuple(names), bound)
        s = [rng.uniform(-1.5, 1.5) for _ in names]
        try:
            worst = kernel(*s, *map(cv.__getitem__, bound), steps, h, 0.5 * h, h / 6.0, worst)
        except EVAL_FAILURES as exc:
            return CheckResult(False, f"evaluation failed: {exc}")
        if worst is None:
            return CheckResult(False, "integrator diverged")
    return CheckResult(worst <= SUP_TOL_RK4, f"max deviation {worst:.3e} on [0,{horizon}]", worst)


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
    identity; each one holds, fails with a counterexample, or is undecided
    (`passed` None) when normalization cannot settle it and sampling finds
    no counterexample.  Numeric checks: monoid action residual and RK4
    agreement.  The certificate is refused unless every symbolic check
    holds.
    """
    if set(field.components) != set(flow.components):
        raise ValueError("field and flow must share the variable set")
    if not field.components:
        raise ValueError("field and flow must name at least one variable")
    if const_valuations is not None and not const_valuations:
        raise ValueError("const_valuations must hold at least one valuation")
    names = sorted(field.components)
    checks: dict[str, CheckResult] = {}
    refusal = ""
    refusal_witness: Optional[dict] = None

    for check, v, lhs, rhs in flow_identities(field.components, flow.components):
        res, name, derivative = expr_eq(lhs, rhs, seed=seed), f"{check}[{v}]", check == "derivative"
        what = "derivative" if derivative else "initial-value"
        if res.is_equal:
            checks[name] = CheckResult(True, "symbolic identity" if derivative
                                       else "flow at time zero is the identity")
        elif res.kind == "not-equal":
            detail = f"counterexample {res.witness}" if derivative else "flow(0) != id"
            checks[name] = CheckResult(False, detail)
            if not refusal:
                refusal = f"{what} check failed for {v!r}" + (f": {detail}" if derivative else "")
                refusal_witness = dict(res.witness) if derivative else None
        else:
            checks[name] = CheckResult(None, f"undecided: {res.note}")
            refusal = refusal or f"{what} check undecided for {v!r}"

    dom_ok = flow.domain.contains_domain(dom)
    checks["domain"] = CheckResult(dom_ok, "query domain within interval of existence" if dom_ok else "query domain exceeds the flow's interval of existence")
    if not dom_ok:
        refusal = refusal or "domain check failed"

    sym_names = sorted(
        set().union(*(free_consts(e) for e in flow.components.values()))
        | set().union(*(free_consts(e) for e in field.components.values()))
    )
    if const_valuations is None:
        const_valuations = default_const_valuations(sym_names, seed=seed) if sym_names else [{}]

    rng = random.Random(seed)
    if not refusal:
        checks["monoid"] = monoid = _monoid_check(flow, names, const_valuations, rng,
                                                  dom.includes_negative())
        if not monoid.passed:
            refusal = ("monoid-action check failed" if monoid.residual is None
                       else "monoid-action residual too large")

    if not refusal:
        horizon = float(min(1.0, dom.hi))
        checks["rk4"] = rk4 = _rk4_check(field, flow, names, const_valuations, rng, horizon)
        if not rk4.passed:
            refusal = "rk4 cross-check failed"

    lip = None
    try:
        lip = lipschitz_estimate(field, consts=const_valuations[0])
        checks["lipschitz"] = (
            CheckResult(True, f"ell={lip.ell} (exact-affine)") if lip.method == "exact-affine"
            else CheckResult(None, f"ell>={lip.ell} (sampled: a numeric lower bound)"))
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


# atom operator -> (rule, comparison of the Lie derivatives, sides swapped,
# reason when a comparison is not proved)
_LIE_RULES = {
    "=": ("eq-rule", "=", False, "lie derivatives not provably equal"),
    "<": ("lt-rule", "<=", False, "lie-derivative inequality not proved"),
    "<=": ("le-rule", "<=", False, "lie-derivative inequality not proved"),
    ">": ("lt-rule", "<=", True, "lie-derivative inequality not proved"),
    ">=": ("le-rule", "<=", True, "lie-derivative inequality not proved"),
}


def check_diff_invariant(
    inv: Pred,
    field: VectorField,
    dom: TimeDomain = REALS,
    assumptions: tuple = (),
    lemmas: tuple = (),
    budget: DischargeBudget = DischargeBudget(),
) -> DiffInvariantReport:
    """Differential-invariance check by a walk over the negation normal
    form, with Lie-derivative obligations at the atoms.

    A Proved report justifies keeping the predicate across the evolution
    under any guard; failed atoms yield Unknown, never Refuted, since the
    atom rules are sufficient conditions only.
    """
    inv_n = nnf(inv)
    for name in pred_free_names(inv_n):
        if name == "t":
            raise ValueError("invariant mentions the time symbol")
    rulings: list[AtomRuling] = []

    def lie(e: Expr) -> Expr:
        return lie_derivative(e, field.components)

    def atom(c: Cmp) -> bool:
        try:
            la, lb = lie(c.lhs), lie(c.rhs)
        except ValueError as exc:
            rulings.append(
                AtomRuling(c, "unsupported", Verdict("unknown", reason=str(exc)))
            )
            return False
        if c.op != "!=":
            return lie_rule(c, la, lb)
        # both strict directions are ruled, each with its own ruling first
        ok = lie_rule(Cmp("<", c.lhs, c.rhs), la, lb) & lie_rule(Cmp("<", c.rhs, c.lhs), lb, la)
        verdict = (Verdict("proved", method="both-strict-directions") if ok
                   else Verdict("unknown", reason="a strict direction failed"))
        rulings.append(AtomRuling(c, "neq-rule", verdict))
        return ok

    def lie_rule(c: Cmp, la: Expr, lb: Expr) -> bool:
        """The ruling of c, not !=, from the Lie derivatives of its sides."""
        rule, op, swap, failure = _LIE_RULES[c.op]
        if swap:
            la, lb = lb, la
        # forward time needs L(a) op L(b); negative times also the reverse of <=
        directions = [(la, lb)]
        if op == "<=" and dom.includes_negative():
            directions.append((lb, la))
        methods = []
        for a, b in directions:
            try:  # expr_eq's exact half; its sampled verdict would go unread
                same = normalize(Sub(a, b)).is_zero()
            except NormalizeError:
                same = False
            if same:
                methods.append("lie-normalize")
                continue
            vd = discharge(_lie_obligation(a, op, b, field, tuple(assumptions)), lemmas, budget)
            if not vd.proved:
                rulings.append(AtomRuling(c, rule, Verdict("unknown", reason=failure)))
                return False
            methods.append("lie-" + vd.method)
        rulings.append(AtomRuling(c, rule, Verdict("proved", method="+".join(methods))))
        return True

    ok, todo = True, [inv_n]  # each side of an And or Or must be invariant on its own
    while todo:
        p = todo.pop()
        if isinstance(p, (And, Or)):
            todo += [p.rhs, p.lhs]
        elif isinstance(p, (TruePred, FalsePred)):
            method = "trivial" if isinstance(p, TruePred) else "empty-set"
            rulings.append(AtomRuling(p, "trivial", Verdict("proved", method=method)))
        elif isinstance(p, Cmp):
            ok = atom(p) and ok
        else:
            raise ValueError(f"unsupported invariant shape: {type(p).__name__}")
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

    def __post_init__(self):
        RunConfig(step=self.step, horizon=self.horizon)  # rejects a grid it cannot run


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
    ranges = dict(spec.const_ranges)
    searched = set()  # the exact bits of each start searched, so -0.0 is not 0.0
    # every trial searches the same program and post from stores and
    # constants with the same keys, on the same grid: one table serves all
    kernels: dict = {}
    for _ in range(budget.trials):
        v = sample_valuation(names, hyps, rng, ranges=ranges, attempts=12)
        # the search is deterministic and a hit ends the run, so a repeated
        # start can only find nothing again; it still draws its sample
        if v is None or (key := tuple(float.hex(v[n]) for n in names)) in searched:
            continue
        searched.add(key)
        consts = {c: v[c] for c in spec.consts}
        store = {x: v[x] for x in spec.vars}
        cfg = RunConfig(
            fuel=budget.fuel,
            step=budget.step,
            horizon=budget.horizon,
            consts=consts,
        )
        found = find_violation(spec.program, store, spec.post, cfg, kernels)
        if found is not None:
            trace, undefined = found
            return CounterexampleTrace(consts, store, trace, trace[-1][1], undefined)
    return None
