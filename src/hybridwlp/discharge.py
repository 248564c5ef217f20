"""Lightweight discharger for universally quantified arithmetic obligations.

The pipeline, in order: syntactic match, equality-hypothesis substitution,
polynomial-identity reduction (conclusion difference as an exact rational
combination of hypothesis differences), Fourier-Motzkin elimination on the
linear fragment, a square-nonnegativity rule with positive multipliers,
lemma lookup, then randomized refutation.  Every method reads a comparison
through `polynorm.atom_form`.  Unknown is an acceptable verdict; Proved and
Refuted are both re-checkable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .expr import (
    EVAL_FAILURES,
    And,
    Cmp,
    FalsePred,
    Not,
    Or,
    Pred,
    TimeQuant,
    TruePred,
    Var,
    const as econst,
    eval_pred,
    fresh_time_binders,
    negate_cmp,
    nnf,
    pred_free_names,
    substitute,
    substitute_pred,
)
from .polynorm import (
    P_ONE,
    Mono,
    mono_key,
    Poly,
    atom_form,
    poly_to_expr,
    rational_combination,
    solve_linear_system,
)
from .sampling import check_valuation, flatten_conj, sample_valuation
from .vcgen import Obligation, eval_pred_ext


@dataclass(frozen=True)
class Verdict:
    kind: str  # "proved" | "refuted" | "unknown"
    method: str = ""
    witness: Mapping[str, float] = field(default_factory=dict)
    reason: str = ""

    @property
    def proved(self) -> bool:
        return self.kind == "proved"

    def to_json(self) -> dict:
        out = {"status": self.kind}
        if self.method:
            out["method"] = self.method
        if self.witness:
            out["witness"] = dict(self.witness)
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class DischargeBudget:
    refute_trials: int = 60
    seed: int = 0
    grid_step: float = 0.25
    grid_horizon: float = 8.0


FM_MAX_ELIMINATIONS = 6
FM_MAX_ATOMS = 400
# refutation treats = atoms with this relative tolerance, so float
# noise along sampled trajectories cannot masquerade as a violation
REFUTE_EQ_TOL = 1e-6


# ---------------------------------------------------------------------------
# Lemma database


@dataclass
class Lemma:
    name: str
    hyps: tuple
    concl: Pred
    status: str = "unvalidated"  # unvalidated | accepted | rejected | inconclusive
    trials: int = 0
    witness: Optional[dict] = None


@dataclass
class LemmaDB:
    lemmas: list = field(default_factory=list)

    def add(self, lemma: Lemma):
        self.lemmas.append(lemma)

    def usable(self) -> list:
        return [l for l in self.lemmas if l.status == "accepted"]


def validate_lemma(lemma: Lemma, trials: int = 2000, seed: int = 0) -> Lemma:
    """Randomized validation: sample hypothesis-satisfying valuations and
    look for a conclusion violation.  Only valuations at which the
    conclusion evaluates count as trials; with none the lemma stays
    inconclusive."""
    rng = random.Random(seed)
    names: set = set(pred_free_names(lemma.concl))
    for h in lemma.hyps:
        names |= pred_free_names(h)
    ordered = sorted(names)
    found = 0
    for _ in range(trials):
        v = sample_valuation(ordered, lemma.hyps, rng, attempts=20)
        if v is None:
            continue
        try:
            holds = eval_pred(lemma.concl, v, eq_tol=1e-7)
        except EVAL_FAILURES:
            continue
        found += 1
        if not holds:
            return _set_status(lemma, "rejected", found, v)
    if found == 0:
        return _set_status(lemma, "inconclusive", 0, None)
    return _set_status(lemma, "accepted", found, None)


def _set_status(lemma: Lemma, status: str, trials: int, witness) -> Lemma:
    lemma.status = status
    lemma.trials = trials
    lemma.witness = witness
    return lemma


# ---------------------------------------------------------------------------
# Canonical comparison forms


def canonical_cmp(c: Cmp) -> Optional[tuple]:
    """Key of a comparison's atom form, with (in)equations sign-normalized.

    Relations: ">=0", ">0", "=0", "!=0".  Returns None when normalization
    fails.
    """
    form = atom_form(c)
    if form is None:
        return None
    p, rel = form
    if rel in ("=", "!=") and p.terms:
        first = min(p.terms.items(), key=lambda it: mono_key(it[0]))
        if first[1] < 0:
            p = p.neg()
    return (p.key(), rel + "0")


# ---------------------------------------------------------------------------
# Linear forms and Fourier-Motzkin elimination


@dataclass(frozen=True)
class LinIneq:
    """sum(coeffs[n] * n) + const  >= 0, or > 0 when strict."""

    coeffs: tuple
    const: Fraction
    strict: bool

    def names(self) -> set:
        return {n for n, _ in self.coeffs}

    def coeff_of(self, name: str) -> Fraction:
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)


def _lin_from_poly(p: Poly, strict: bool) -> Optional[LinIneq]:
    coeffs: dict[str, Fraction] = {}
    constant = Fraction(0)
    for mono, c in p.terms.items():
        if not mono:
            constant += c
            continue
        if len(mono) != 1:
            return None
        atom, k = mono[0]
        if k != 1 or atom.kind not in ("var", "const", "time"):
            return None
        coeffs[atom.name] = coeffs.get(atom.name, Fraction(0)) + c
    return LinIneq(tuple(sorted(coeffs.items())), constant, strict)


def linearize(c: Cmp) -> Optional[list]:
    """Comparison as a list of LinIneq constraints, or None if non-linear.

    Equalities become two inequalities; disequalities have no linear form.
    """
    form = atom_form(c)
    if form is None or form[1] == "!=":
        return None
    p, rel = form
    sides = [p, p.neg()] if rel == "=" else [p]
    lins = [_lin_from_poly(q, strict=(rel == ">")) for q in sides]
    return None if any(l is None for l in lins) else lins


@dataclass(frozen=True)
class FMResult:
    kind: str  # "feasible" | "infeasible" | "too-large"
    witness: Mapping[str, Fraction] = field(default_factory=dict)


def fourier_motzkin(atoms: Sequence[LinIneq], eliminate: Sequence[str]) -> FMResult:
    """Exact feasibility of a linear system by eliminating the given names.

    The caller interprets the result: an infeasible hypothesis-and-negated-
    conclusion system means the implication is valid.
    """
    if len(eliminate) > FM_MAX_ELIMINATIONS:
        return FMResult("too-large")
    system = list(dict.fromkeys(atoms))
    order = sorted(
        eliminate, key=lambda n: sum(1 for a in system if a.coeff_of(n) != 0)
    )
    bound_stack: list[tuple[str, list, list]] = []
    for name in order:
        lowers, uppers, rest = [], [], []
        for a in system:
            c = a.coeff_of(name)
            if c == 0:
                rest.append(a)
            elif c > 0:
                lowers.append(a)  # name >= -(rest)/c
            else:
                uppers.append(a)
        bound_stack.append((name, lowers, uppers))
        new = rest
        for lo, up in itertools.product(lowers, uppers):
            cl, cu = lo.coeff_of(name), up.coeff_of(name)
            coeffs: dict[str, Fraction] = {}
            for n, c in lo.coeffs:
                if n != name:
                    coeffs[n] = coeffs.get(n, Fraction(0)) + c * (-cu)
            for n, c in up.coeffs:
                if n != name:
                    coeffs[n] = coeffs.get(n, Fraction(0)) + c * cl
            const = lo.const * (-cu) + up.const * cl
            combined = LinIneq(
                tuple(sorted((n, c) for n, c in coeffs.items() if c != 0)),
                const,
                lo.strict or up.strict,
            )
            new.append(combined)
        system = list(dict.fromkeys(new))
        if len(system) > FM_MAX_ATOMS:
            return FMResult("too-large")
    # variable-free residue plus any names we were not asked to eliminate
    residual_names = set()
    for a in system:
        residual_names |= a.names()
    if residual_names:
        # ground remaining names at zero and check; if that fails, fall back
        # to recursive elimination of the leftovers
        if all(_holds_at(a, {}) for a in system):
            witness_tail = {n: Fraction(0) for n in residual_names}
        else:
            inner = fourier_motzkin(system, sorted(residual_names))
            if inner.kind != "feasible":
                return inner
            witness_tail = dict(inner.witness)
    else:
        for a in system:
            if a.const < 0 or (a.strict and a.const == 0):
                return FMResult("infeasible")
        witness_tail = {}
    # back-substitute a witness through the elimination stack
    witness = witness_tail
    for name, lowers, uppers in reversed(bound_stack):
        lo_vals = [(_bound_value(a, name, witness), a.strict) for a in lowers]
        up_vals = [(_bound_value(a, name, witness), a.strict) for a in uppers]
        value = _pick_between(lo_vals, up_vals)
        if value is None:
            return FMResult("infeasible")
        witness = {**witness, name: value}
    return FMResult("feasible", witness)


def _holds_at(a: LinIneq, witness: Mapping[str, Fraction]) -> bool:
    total = a.const + sum(c * witness.get(n, Fraction(0)) for n, c in a.coeffs)
    return total > 0 if a.strict else total >= 0


def _bound_value(a: LinIneq, name: str, witness: Mapping[str, Fraction]) -> Fraction:
    c = a.coeff_of(name)
    rest = a.const + sum(
        k * witness.get(n, Fraction(0)) for n, k in a.coeffs if n != name
    )
    return -rest / c


def _pick_between(lo_vals, up_vals) -> Optional[Fraction]:
    lo = max(lo_vals, key=lambda p: p[0], default=None)
    up = min(up_vals, key=lambda p: p[0], default=None)
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return up[0] - 1
    if up is None:
        return lo[0] + 1
    if lo[0] > up[0]:
        return None
    if lo[0] == up[0]:
        if lo[1] or up[1]:
            return None
        return lo[0]
    return (lo[0] + up[0]) / 2


def _fm_feasibility(cmps: Sequence[Cmp]) -> Optional[FMResult]:
    """Fourier-Motzkin on the linear forms of the atoms, eliminating every
    name; `!=` atoms are dropped (sound for hypotheses).  None when an atom
    is non-linear."""
    atoms: list[LinIneq] = []
    for c in cmps:
        if c.op == "!=":
            continue
        lin = linearize(c)
        if lin is None:
            return None
        atoms.extend(lin)
    names = set().union(*(a.names() for a in atoms))
    return fourier_motzkin(atoms, sorted(names))


def fm_implication(hyps: Sequence[Cmp], concl: Cmp) -> tuple[str, dict]:
    """Validity of (and hyps) -> concl over the reals, linear fragment only.

    Returns ("valid"|"invalid"|"too-large"|"non-linear", witness).
    """
    if concl.op == "=":
        for side in (Cmp("<=", concl.lhs, concl.rhs), Cmp(">=", concl.lhs, concl.rhs)):
            status, wit = fm_implication(hyps, side)
            if status != "valid":
                return (status, wit)
        return ("valid", {})
    res = _fm_feasibility([*hyps, negate_cmp(concl)])
    if res is None:
        return ("non-linear", {})
    if res.kind == "infeasible":
        return ("valid", {})
    if res.kind == "feasible":
        # names whose coefficients cancelled are unconstrained; ground them
        # so the witness evaluates every original atom
        all_names = pred_free_names(concl)
        for hcmp in hyps:
            all_names |= pred_free_names(hcmp)
        witness = {n: 0.0 for n in all_names}
        witness.update({n: float(v) for n, v in res.witness.items()})
        return ("invalid", witness)
    return ("too-large", {})


# ---------------------------------------------------------------------------
# Square-nonnegativity rule


def _odd_even_split(p: Poly) -> tuple[dict, dict]:
    odd, even = {}, {}
    for mono, c in p.terms.items():
        if all(k % 2 == 0 for _, k in mono):
            even[mono] = c
        else:
            odd[mono] = c
    return odd, even


def square_nonneg(p: Poly) -> bool:
    """True when every monomial has even powers and a nonnegative coefficient."""
    odd, even = _odd_even_split(p)
    return not odd and all(c >= 0 for c in even.values())


def _reduce_to_even(q: Poly, eq_polys: Sequence[Poly]) -> Optional[Poly]:
    """q - sum(lam_i * h_i) with all odd monomials cancelled, if solvable."""
    odd_monos: set[Mono] = set()
    for mono, _ in q.terms.items():
        if any(k % 2 for _, k in mono):
            odd_monos.add(mono)
    for h in eq_polys:
        for mono in h.terms:
            if any(k % 2 for _, k in mono):
                odd_monos.add(mono)
    ordered = sorted(odd_monos, key=mono_key)
    if not eq_polys:
        return q if not ordered or all(q.terms.get(m, 0) == 0 for m in ordered) else None
    rows = [[h.terms.get(m, Fraction(0)) for h in eq_polys] for m in ordered]
    rhs = [q.terms.get(m, Fraction(0)) for m in ordered]
    lams = solve_linear_system(rows, rhs)
    if lams is None:
        return None
    out = q
    for lam, h in zip(lams, eq_polys):
        if lam:
            out = out.sub(h.scale(lam))
    odd, _ = _odd_even_split(out)
    return out if not odd else None


def square_rule(goal: Cmp, hyps: Sequence[Cmp]) -> bool:
    """Prove a nonstrict inequality via sums of even monomials, optionally
    multiplying by a hypothesis of known positive sign."""
    form = atom_form(goal)
    if form is None or form[1] != ">=":
        return False
    p = form[0]  # want p >= 0
    forms = [f for f in map(atom_form, hyps) if f is not None]
    eq_polys = [hp for hp, rel in forms if rel == "=" and not hp.is_zero()]
    # multipliers: 1 and every single monomial that a hypothesis makes positive
    mults = [P_ONE] + [hp for hp, rel in forms if rel == ">" and len(hp.terms) == 1]
    for mult in mults:
        reduced = _reduce_to_even(p.mul(mult), eq_polys)
        if reduced is not None and all(c >= 0 for c in reduced.terms.values()):
            return True
    return False


# ---------------------------------------------------------------------------
# Sequent decomposition and the proving pipeline


@dataclass
class _Goal:
    hyps: list
    concl: Pred


def _unfold_timequant(tq: TimeQuant, hyps: list) -> _Goal:
    # the bound end time becomes a free name, so it must not clash with
    # one the hypotheses already read
    taken = set().union(*(pred_free_names(h) for h in hyps))
    t = tq.t_name
    body = tq.body
    if t in taken:
        t, _ = fresh_time_binders(taken | pred_free_names(tq), 2)
        body = substitute_pred(body, {tq.t_name: Var(t)})
    dom = tq.dom
    # one hypothesis per finite (exact) bound of the domain
    extra: list[Pred] = [
        Cmp(op, Var(t), econst(bound))
        for op, bound in ((">=", dom.lo), ("<=", dom.hi))
        if isinstance(bound, Fraction)
    ]
    # sound instances of the prefix hypothesis: the guard at the endpoint,
    # and at time zero when the domain is forward-only
    at_end = {tq.t_name: Var(t), tq.tau_name: Var(t)}
    extra.append(substitute_pred(tq.prefix, at_end))
    if not dom.includes_negative():
        extra.append(substitute_pred(tq.prefix, {**at_end, tq.tau_name: econst(0)}))
    return _Goal(hyps + extra, body)


def _split_goals(hyps: list, concl: Pred) -> Optional[list]:
    """Reduce to atomic goals; None signals an unsupported shape."""
    if isinstance(concl, TruePred):
        return []
    if isinstance(concl, And):
        left = _split_goals(hyps, concl.lhs)
        right = _split_goals(hyps, concl.rhs)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(concl, TimeQuant):
        g = _unfold_timequant(concl, hyps)
        return _split_goals(g.hyps, g.concl)
    if isinstance(concl, Not):
        return _split_goals(hyps, nnf(concl))
    if isinstance(concl, (Cmp, FalsePred, Or)):
        return [_Goal(list(hyps), concl)]
    return None


class _Prover:
    def __init__(self, db: LemmaDB):
        self.db = db
        self.methods: list[str] = []
        self.failure: str = ""
        # id-tuple of a hypothesis list -> (the list, solved hyps, substitution)
        self.solved: dict = {}

    def prove(self, hyps: list, concl: Pred, depth: int = 0) -> bool:
        goals = _split_goals(hyps, concl)
        if goals is None:
            self.failure = "unsupported conclusion shape"
            return False
        return all(self.prove_goal(g, depth) for g in goals)

    def prove_goal(self, goal: _Goal, depth: int) -> bool:
        hyps = flatten_conj(goal.hyps)
        if any(isinstance(h, FalsePred) for h in hyps):
            self.methods.append("vacuous")
            return True
        concl = goal.concl
        if isinstance(concl, Or):
            if depth > 6:
                self.failure = "disjunction nesting too deep"
                return False
            save = list(self.methods)
            for first, second in ((concl.lhs, concl.rhs), (concl.rhs, concl.lhs)):
                self.methods = list(save)
                try:
                    extra = nnf(Not(first))
                except TypeError:
                    continue
                if self.prove(hyps + [extra], second, depth + 1):
                    return True
            self.methods = save
            self.failure = self.failure or "no disjunct provable"
            return False
        if isinstance(concl, FalsePred):
            return self.prove_contradiction(hyps)
        if isinstance(concl, Cmp):
            return self.prove_atomic(hyps, concl)
        self.failure = f"unsupported goal {type(concl).__name__}"
        return False

    # -- hypothesis preparation ------------------------------------------

    def _substituted(self, hyps: list, concl: Cmp):
        """Apply the equality hypotheses' composed solutions to the
        remaining hypotheses and the conclusion.  The bindings depend on
        the hypotheses only, so each list is solved once per prover; its
        entry holds the hypotheses, so no id in the key is reused."""
        key = tuple(map(id, hyps))
        if key not in self.solved:
            self.solved[key] = (tuple(hyps), *_solve_equalities(hyps))
        _, hyps, sigma = self.solved[key]
        return hyps, substitute_pred(concl, sigma)

    def prove_contradiction(self, hyps: list) -> bool:
        res = _fm_feasibility([h for h in hyps if isinstance(h, Cmp)])
        if res is None:
            self.failure = "non-linear hypotheses for contradiction goal"
            return False
        if res.kind == "infeasible":
            self.methods.append("fourier-motzkin")
            return True
        self.failure = "hypotheses not refutable by the linear route"
        return False

    def prove_atomic(self, hyps: list, concl: Cmp) -> bool:
        hyps, concl = self._substituted(hyps, concl)
        atoms = [h for h in hyps if isinstance(h, Cmp)]

        # contradictory hypotheses prove anything
        for h in atoms:
            v = _constant_truth(h)
            if v is False:
                self.methods.append("vacuous")
                return True

        v = _constant_truth(concl)
        if v is True:
            self.methods.append("trivial")
            return True

        key = canonical_cmp(concl)
        if key is not None:
            for h in atoms:
                if canonical_cmp(h) == key:
                    self.methods.append("hypothesis-match")
                    return True
            # weakening: a strict hypothesis implies its nonstrict form
            if key[1] == ">=0":
                for h in atoms:
                    hk = canonical_cmp(h)
                    if hk is not None and hk == (key[0], ">0"):
                        self.methods.append("hypothesis-match")
                        return True

        if concl.op == "=" and self._poly_identity(atoms, concl):
            self.methods.append("poly-identity")
            return True

        status, _ = fm_implication(atoms, concl)
        if status == "valid":
            self.methods.append("fourier-motzkin")
            return True

        if square_rule(concl, atoms):
            self.methods.append("square-rule")
            return True

        lemma = self._lemma_match(atoms, concl)
        if lemma is not None:
            self.methods.append(f"lemma:{lemma}")
            return True

        self.failure = "no proof method applies"
        return False

    def _poly_identity(self, atoms: list, concl: Cmp) -> bool:
        form = atom_form(concl)
        if form is None:
            return False
        target = form[0]
        if target.is_zero():
            return True
        forms = [f for f in map(atom_form, atoms) if f is not None]
        basis = [p for p, rel in forms if rel == "=" and not p.is_zero()]
        if not basis:
            return False
        return rational_combination(target, basis) is not None

    def _lemma_match(self, atoms: list, concl: Cmp) -> Optional[str]:
        key = canonical_cmp(concl)
        if key is None:
            return None
        hyp_keys = {canonical_cmp(h) for h in atoms}
        hyp_keys.discard(None)
        for lemma in self.db.usable():
            if not isinstance(lemma.concl, Cmp):
                continue
            if canonical_cmp(lemma.concl) != key:
                continue
            ok = True
            for lh in lemma.hyps:
                if not (isinstance(lh, Cmp) and canonical_cmp(lh) in hyp_keys):
                    ok = False
                    break
            if ok:
                return lemma.name
        return None


def _solve_equalities(hyps: list) -> tuple[list, dict]:
    """Iteratively solve equality hypotheses (the first solvable one in
    order; the lexicographically last name with a lone rational-coefficient
    occurrence wins), substituting each solution into the equalities left.
    Substitution keeps a hypothesis's kind and operator, so only the
    equalities take part.  Returns the remaining hypotheses in their order,
    with every solution applied, and the solutions composed into one
    simultaneous substitution."""
    eqs = {i: h for i, h in enumerate(hyps) if isinstance(h, Cmp) and h.op == "="}
    bindings = []
    while True:
        for i, h in eqs.items():
            form = atom_form(h)
            solved = None if form is None else _solve_poly_for_name(form[0])
            if solved is not None:
                break
        else:
            break
        name, rest = solved
        expr = poly_to_expr(rest)
        del eqs[i]
        eqs = {j: substitute_pred(h, {name: expr}) for j, h in eqs.items()}
        bindings.append((i, name, expr))
    # h[n1 := e1]...[nk := ek] = h[sigma], sigma[ni] = ei[sigma over n(i+1)..nk]
    sigma: dict = {}
    for _, name, expr in reversed(bindings):
        sigma[name] = substitute(expr, sigma)
    solved_at = {i for i, _, _ in bindings}
    rest = [
        eqs[i] if i in eqs else substitute_pred(h, sigma)
        for i, h in enumerate(hyps)
        if i not in solved_at
    ]
    return rest, sigma


def _solve_poly_for_name(p: Poly) -> Optional[tuple[str, Poly]]:
    """Pick the last variable (or the time symbol) whose occurrences are
    exactly one linear monomial with a rational coefficient; return (name,
    solved right-hand side).  A symbolic constant is never picked, because
    substitution does not replace it."""
    occurrences: dict[str, list] = {}
    for mono, c in p.terms.items():
        for atom, k in mono:
            if atom.kind in ("var", "time"):
                occurrences.setdefault(atom.name, []).append((mono, k, c))
            else:
                for arg in atom.args:
                    for a in arg.atoms():
                        occurrences.setdefault(a.name, []).append((mono, 99, c))
    for name in sorted(occurrences, reverse=True):
        occ = occurrences[name]
        if len(occ) != 1:
            continue
        mono, k, coeff = occ[0]
        if k != 1 or len(mono) != 1:
            continue
        rest = Poly({m: c for m, c in p.terms.items() if m != mono})
        return name, rest.scale(Fraction(-1) / coeff)
    return None


def _constant_truth(c: Cmp) -> Optional[bool]:
    form = atom_form(c)
    val = None if form is None else form[0].constant_value()
    if val is None:
        return None
    return {"=": val == 0, "!=": val != 0, ">": val > 0, ">=": val >= 0}[form[1]]


# ---------------------------------------------------------------------------
# Refutation and the public entry point


def _refute(
    ob: Obligation, budget: DischargeBudget, ranges: Mapping[str, tuple] = {}
) -> Optional[dict]:
    names = sorted(
        set().union(*(pred_free_names(h) for h in ob.hyps + (ob.concl,)))
    )
    rng = random.Random(budget.seed)

    def concl_false(v) -> bool:
        try:
            return not eval_pred_ext(
                ob.concl, v, step=budget.grid_step, horizon=budget.grid_horizon,
                eq_tol=REFUTE_EQ_TOL,
            )
        except EVAL_FAILURES:
            return False

    flat_hyps = flatten_conj(ob.hyps)
    for _ in range(budget.refute_trials):
        v = sample_valuation(names, flat_hyps, rng, ranges=ranges, attempts=12)
        if v is None:
            continue
        if not concl_false(v):
            continue
        # re-check the witness before returning it
        if check_valuation(flat_hyps, v) and concl_false(v):
            return v
    return None


def discharge(
    ob: Obligation,
    db: Optional[LemmaDB] = None,
    budget: DischargeBudget = DischargeBudget(),
    ranges: Mapping[str, tuple] = {},
) -> Verdict:
    """Prove or refute an arithmetic obligation; Unknown is a valid outcome."""
    if ob.kind != "arith":
        raise ValueError(f"discharge expects arithmetic obligations, got {ob.kind!r}")
    db = db or LemmaDB()
    prover = _Prover(db)
    if prover.prove(list(ob.hyps), ob.concl):
        seen = list(dict.fromkeys(prover.methods)) or ["trivial"]
        return Verdict("proved", method="+".join(seen))
    witness = _refute(ob, budget, ranges)
    if witness is not None:
        return Verdict("refuted", witness=witness)
    return Verdict("unknown", reason=prover.failure or "no method applies")
