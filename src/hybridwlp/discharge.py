"""Lightweight discharger for universally quantified arithmetic obligations.

An obligation's conclusion splits into atomic goals, comparisons or
`false`, each under a hypothesis list.  The prover reads each list into
a context: the equalities solved into one composed substitution, and the
atom form (`polynorm.atom_form`) and canonical key of every remaining
comparison.  Nested implications make the lists share prefixes, and a
list's context extends the context of its prefix, so each hypothesis is
read once per prefix, not once per goal.  A goal then normalizes only its own
conclusion and tries, in order: a false hypothesis (vacuous), a constant
conclusion (trivial), hypothesis match, polynomial identity (the
conclusion difference as an exact rational combination of equation
hypotheses), an exact simplex on the linear fragment (any number of
names), a square-nonnegativity rule with positive multipliers, and
lemma lookup.  It returns the methods used or declines with a reason; it
also declines a goal or hypothesis that a solved equality leaves
dividing by zero, since that is undefined there.  Randomized refutation
runs only after a decline.  A lemma is a theorem when the same prover
proves it from the lemmas proved before it; only a lemma it declines is
validated by sampling.  Unknown is an acceptable verdict; Proved and
Refuted are both re-checkable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    flatten_conj,
    fresh_time_binders,
    nnf,
    pred_free_names,
    substitute,
    substitute_pred,
)
from .polynorm import (
    P_ONE,
    mono_key,
    Poly,
    atom_form,
    poly_to_expr,
    rational_combination,
    solve_linear_system,
)
from .hprog import EQ_TOL, RunConfig
from .sampling import EQ_CHECK_TOL, sample_valuation
from .vcgen import Lemma, Obligation, eval_pred_ext


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

    def __post_init__(self):
        RunConfig(step=self.grid_step, horizon=self.grid_horizon)  # rejects a grid it cannot run


# ---------------------------------------------------------------------------
# Lemmas


def establish_lemma(lemma: Lemma, lemmas: tuple = (), trials: int = 2000, seed: int = 0) -> Lemma:
    """A copy of the lemma, proved exactly from those of `lemmas` that are
    proved (the caller passes only lemmas declared before this one); when
    the prover declines, validated by sampling instead."""
    earlier = tuple(l for l in lemmas if l.status == "proved")
    try:
        methods = _Prover(earlier).prove(list(lemma.hyps), lemma.concl)
    except _Declined:
        return validate_lemma(lemma, trials=trials, seed=seed)
    return replace(lemma, status="proved", trials=0, witness=None, proof=_method_name(methods))


def validate_lemma(lemma: Lemma, trials: int = 2000, seed: int = 0) -> Lemma:
    """A copy of the lemma with the status of a randomized validation: sample
    hypothesis-satisfying valuations and look for a conclusion violation.
    Only valuations at which the conclusion evaluates count as trials; with
    none the lemma is inconclusive."""
    rng = random.Random(seed)
    ordered = sorted(set().union(*map(pred_free_names, (lemma.concl, *lemma.hyps))))
    found = 0
    for _ in range(trials):
        v = sample_valuation(ordered, lemma.hyps, rng, attempts=20)
        if v is None:
            continue
        try:
            holds = eval_pred(lemma.concl, v, eq_tol=EQ_CHECK_TOL)
        except EVAL_FAILURES:
            continue
        found += 1
        if not holds:
            return replace(lemma, status="rejected", trials=found, witness=v)
    if found == 0:
        return replace(lemma, status="inconclusive", trials=0, witness=None)
    return replace(lemma, status="accepted", trials=found, witness=None)


# ---------------------------------------------------------------------------
# Canonical comparison forms


def canonical_cmp(c: Cmp) -> Optional[tuple]:
    """Key of a comparison's atom form, with (in)equations sign-normalized.

    Relations: ">=0", ">0", "=0", "!=0".  Returns None when normalization
    fails.
    """
    form = atom_form(c)
    return None if form is None else _key(form)


def _key(form: tuple) -> tuple:
    p, rel = form
    return (p.sign_key() if rel in ("=", "!=") else p.key(), rel + "0")


def _constant_truth(form: tuple) -> Optional[bool]:
    val = form[0].constant_value()
    if val is None:
        return None
    return {"=": val == 0, "!=": val != 0, ">": val > 0, ">=": val >= 0}[form[1]]


# ---------------------------------------------------------------------------
# Linear forms and the simplex


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
    return _linear(atom_form(c))


def _linear(form: Optional[tuple]) -> Optional[list]:
    if form is None or form[1] == "!=":
        return None
    p, rel = form
    sides = [p, p.neg()] if rel == "=" else [p]
    lins = [_lin_from_poly(q, strict=(rel == ">")) for q in sides]
    return None if any(l is None for l in lins) else lins


def simplex(rows: Sequence[LinIneq]) -> Optional[dict]:
    """An exact rational model of the rows, or None when they are infeasible.

    The general simplex of Dutertre and de Moura (CAV 2006), run from
    scratch: each row is a slack, the sum of its coefficients times names,
    bounded below by -const, or by -const + δ when strict.  Values are
    δ-rationals (c, k) for c + kδ, compared as tuples.  Columns are the
    names, then the slacks; every name starts nonbasic at 0.  While a basic
    slack is below its bound, the first such one pivots with the first
    nonbasic column that can raise it (Bland's rule, so the loop ends); when
    no column can, the rows are infeasible.  The model takes δ small enough
    to keep every bound."""
    names = sorted(set().union(*(r.names() for r in rows)))
    column = {n: j for j, n in enumerate(names)}
    tableau, lower = {}, {}  # basic column -> {nonbasic column: coefficient}
    for s, r in enumerate(dict.fromkeys(rows), len(names)):
        tableau[s] = {column[n]: c for n, c in r.coeffs if c}
        lower[s] = (-r.const, Fraction(r.strict))
    value = dict.fromkeys(range(len(names) + len(lower)), (Fraction(0), Fraction(0)))
    while True:
        b = min((b for b in tableau if b in lower and value[b] < lower[b]), default=None)
        if b is None:
            break
        row = tableau.pop(b)
        # a nonbasic slack sits at its bound, so it can only go up
        j = min((j for j, a in row.items() if a > 0 or j not in lower), default=None)
        if j is None:
            return None
        # move j so that b meets its bound, then solve b's row for j
        a = row.pop(j)
        theta = ((lower[b][0] - value[b][0]) / a, (lower[b][1] - value[b][1]) / a)
        value[b] = lower[b]
        value[j] = _plus(value[j], 1, theta)
        pivot = {k: -c / a for k, c in row.items()}
        pivot[b] = 1 / a
        for other, orow in tableau.items():
            c = orow.pop(j, 0)
            if c:
                value[other] = _plus(value[other], c, theta)
                for k, d in pivot.items():
                    e = orow.pop(k, 0) + c * d
                    if e:
                        orow[k] = e
        tableau[j] = pivot
    # a slack c + kδ above its bound with k < 0 has c > 0, so it stays
    # above for every δ up to c / -k
    gaps = [(value[s][0] - lo[0], value[s][1] - lo[1]) for s, lo in lower.items()]
    delta = min([Fraction(1)] + [c / -k for c, k in gaps if k < 0])
    return {n: value[j][0] + value[j][1] * delta for n, j in column.items()}


def _plus(u: tuple, c: Fraction, w: tuple) -> tuple:
    """The δ-rational u + c * w."""
    return (u[0] + c * w[0], u[1] + c * w[1])


# the benchmark times the linear method under this name (discharge.fm_s)
fourier_motzkin = simplex


def _hyp_lins(cmps: Sequence[tuple]) -> Optional[list]:
    """The LinIneq constraints of (comparison, atom form) hypotheses: a
    `!=` is dropped (sound for hypotheses); None when another one has no
    linear form."""
    atoms: list[LinIneq] = []
    for c, form in cmps:
        if c.op == "!=":
            continue
        lin = _linear(form)
        if lin is None:
            return None
        atoms.extend(lin)
    return atoms


def _negation_cases(form: Optional[tuple]) -> list:
    """The negation of the conclusion `form` as atom forms, two strict
    inequalities for an equation; the conclusion follows when each one is
    infeasible with the hypotheses.  [None] when there is no form."""
    if form is None:
        return [None]
    p, rel = form
    if rel == "=":
        return [(p, ">"), (p.neg(), ">")]
    return [{">=": (p.neg(), ">"), ">": (p.neg(), ">="), "!=": (p, "=")}[rel]]


def _negation_rows(form: Optional[tuple]) -> Optional[list]:
    """The rows of each negation case of the conclusion `form`, or None
    when one has no linear form."""
    cases = [_linear(case) for case in _negation_cases(form)]
    return None if None in cases else cases


def _counter_model(hyp_lins: list, cases: list) -> Optional[dict]:
    """A model of the hypotheses' rows with the first feasible negation
    case, or None when every case is infeasible, so the conclusion follows."""
    for rows in cases:
        model = simplex(hyp_lins + rows)
        if model is not None:
            return model
    return None


def fm_implication(hyps: Sequence[Cmp], concl: Cmp) -> tuple[str, dict]:
    """Validity of (and hyps) -> concl over the reals, linear fragment only.

    Returns ("valid"|"invalid"|"non-linear", witness).
    """
    hyp_lins = _hyp_lins([(h, atom_form(h)) for h in hyps])
    cases = _negation_rows(atom_form(concl))
    if hyp_lins is None or cases is None:
        return ("non-linear", {})
    model = _counter_model(hyp_lins, cases)
    if model is None:
        return ("valid", {})
    # names whose coefficients cancelled are unconstrained; ground them
    # so the witness evaluates every original atom
    all_names = pred_free_names(concl)
    for hcmp in hyps:
        all_names |= pred_free_names(hcmp)
    witness = {n: 0.0 for n in all_names}
    witness.update({n: float(v) for n, v in model.items()})
    return ("invalid", witness)


# ---------------------------------------------------------------------------
# Square-nonnegativity rule


def _odd(mono: tuple) -> bool:
    return any(k % 2 for _, k in mono)


def _reduce_to_even(q: Poly, eq_polys: Sequence[Poly]) -> Optional[Poly]:
    """q - sum(lam_i * h_i) with all odd monomials cancelled, if solvable."""
    ordered = sorted({m for h in (q, *eq_polys) for m in h.terms if _odd(m)}, key=mono_key)
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
    return None if any(map(_odd, out.terms)) else out


def square_rule(goal: tuple, hyps: Sequence[tuple]) -> bool:
    """Prove the atom form `goal`, when it reads p >= 0, from the atom forms
    `hyps` via sums of even monomials, optionally multiplying by a
    hypothesis of known positive sign."""
    p, rel = goal  # want p >= 0
    if rel != ">=":
        return False
    eq_polys = [hp for hp, hrel in hyps if hrel == "=" and not hp.is_zero()]
    # multipliers: 1 and every single monomial that a hypothesis makes positive
    mults = [P_ONE] + [hp for hp, hrel in hyps if hrel == ">" and len(hp.terms) == 1]
    for mult in mults:
        reduced = _reduce_to_even(p.mul(mult), eq_polys)
        if reduced is not None and all(c >= 0 for c in reduced.terms.values()):
            return True
    return False


def _poly_identity(target: Poly, hyps: Sequence[tuple]) -> bool:
    """target = 0 as an exact rational combination of the equation
    hypotheses among the atom forms `hyps`."""
    if target.is_zero():
        return True
    basis = [p for p, rel in hyps if rel == "=" and not p.is_zero()]
    return bool(basis) and rational_combination(target, basis) is not None


# ---------------------------------------------------------------------------
# Sequent decomposition and the proving pipeline


@dataclass
class _Goal:
    extras: tuple  # hypotheses the goal appends to its base list, not yet flattened
    concl: Pred


def _unfold_timequant(tq: TimeQuant, hyps: Sequence) -> tuple[list, Pred]:
    """The hypotheses that unfolding `tq` under `hyps` appends, and its
    body."""
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
        extra.append(_under(tq.prefix, {**at_end, tq.tau_name: econst(0)}, "hypothesis"))
    return extra, body


def _split_goals(hyps: tuple, concl: Pred) -> Optional[list]:
    """Reduce to atomic goals under the list `hyps`, each with the
    hypotheses it appends to them, left to right; None signals an
    unsupported shape."""
    goals, todo, supported = [], [(concl, ())], True
    while todo:
        concl, extras = todo.pop()
        if isinstance(concl, And):
            todo += [(concl.rhs, extras), (concl.lhs, extras)]
        elif isinstance(concl, TimeQuant):
            extra, body = _unfold_timequant(concl, (*hyps, *extras))
            todo.append((body, (*extras, *extra)))
        elif isinstance(concl, Not):
            todo.append((nnf(concl), extras))
        elif isinstance(concl, (Cmp, FalsePred, Or)):
            goals.append(_Goal(extras, concl))
        elif not isinstance(concl, TruePred):
            supported = False
    return goals if supported else None


def _method_name(methods: list) -> str:
    """The distinct methods of a proof, in order, joined by "+"."""
    return "+".join(dict.fromkeys(methods)) or "trivial"


class _Declined(Exception):
    """The prover cannot establish a goal; the message is the reason."""


class _Context:
    """What one flat hypothesis list `hyps` gives every goal proved under
    it: the equality hypotheses solved into one composed substitution
    `sigma`, the remaining comparisons with their atom forms (`cmps`;
    `forms` keeps the forms that exist), the canonical keys of those
    forms, and whether one of them is a false constant (`false`).  When a
    hypothesis is `false` itself (`absurd`), every goal is vacuous, so
    nothing of the list is read.  Every read and goal under sigma shares
    one substitution `memo`.

    Contexts form a prefix tree: `_Context()` is the context of the empty
    list and `extend` gives the context of a longer one, so a goal's list
    is read once per prefix, not once per goal."""

    def __init__(self):
        self.hyps = ()
        self.eqs = {}  # index -> (equality, form) of each unsolved one, read under sigma
        self.bindings = []  # (index, name, term) of each solved equality, in order
        self.sigma, self.memo = {}, {}  # memo: node -> the node under sigma
        self.base = None  # the context whose `cmps` ours extend
        self.read = []  # the comparisons read beyond base's `cmps`
        self.cmps = self.forms = []
        self.keys = frozenset()
        self.false = self.absurd = False

    def extend(self, extras: list) -> "_Context":
        """The context of this list followed by the flat list `extras`.

        Equalities are solved one at a time: the first solvable one in
        index order, for the lexicographically last name with a lone
        rational-coefficient occurrence, is substituted into the equalities
        left (one that the substitution leaves as it was keeps its form).
        The loop resumes on this list's unsolved equalities followed by the
        appended ones, each read under this sigma.  This list's were tried
        under it already, so the picks, and the sigma, comparisons and
        forms that follow, are those of a solve of the whole list from
        scratch.  Only the appended comparisons are read, unless a new
        equality is solved: then every comparison is read again under the
        new sigma.  Substitution keeps a hypothesis's kind and operator, and
        no method reads a hypothesis that is not a comparison, so those are
        left out.  A list whose prefix is already false is false, so
        nothing appended to it is read."""
        start = len(self.hyps)
        ctx = _Context()
        ctx.hyps = self.hyps + tuple(extras)
        ctx.absurd = self.absurd or any(isinstance(h, FalsePred) for h in extras)
        ctx.false = self.false
        if ctx.absurd or ctx.false:
            return ctx
        eqs = dict(self.eqs)
        for i, h in enumerate(extras, start):
            if isinstance(h, Cmp) and h.op == "=":
                # with nothing solved yet there is nothing to substitute
                eqs[i] = _read(h, self.sigma, self.memo) if self.sigma else (h, atom_form(h))
        bindings = list(self.bindings)
        tried = start  # this list's unsolved equalities were tried under sigma
        while True:
            for i, (h, form) in eqs.items():
                solved = None if i < tried or form is None else _solve_poly_for_name(form[0])
                if solved is not None:
                    break
            else:
                break
            name, rest = solved
            term = poly_to_expr(rest)
            del eqs[i]
            step, memo = {name: term}, {}
            eqs = {j: _read(h, step, memo, (h, form)) for j, (h, form) in eqs.items()}
            bindings.append((i, name, term))
            tried = 0
        if len(bindings) == len(self.bindings):
            base, sigma, memo = self, self.sigma, self.memo
        else:
            # h[n1 := e1]...[nk := ek] = h[sigma], sigma[ni] = ei[sigma over n(i+1)..nk]
            base, sigma, memo = _Context(), {}, {}
            for _, name, term in reversed(bindings):
                sigma[name] = substitute(term, sigma)
        solved_at = {i for i, _, _ in bindings}
        first = len(base.hyps)
        read = [
            eqs[i] if i in eqs else _read(h, sigma, memo)
            for i, h in enumerate(ctx.hyps[first:], first)
            if isinstance(h, Cmp) and i not in solved_at
        ]
        forms = [form for _, form in read if form is not None]
        ctx.eqs, ctx.bindings, ctx.sigma, ctx.memo = eqs, bindings, sigma, memo
        ctx.base, ctx.read = base, read
        ctx.cmps = base.cmps + read
        ctx.forms = base.forms + forms
        ctx.keys = base.keys.union(map(_key, forms))
        ctx.false = base.false or any(_constant_truth(form) is False for form in forms)
        return ctx

    @cached_property
    def lins(self) -> Optional[list]:
        own = _hyp_lins(self.read)
        if self.base is None or own is None:
            return own
        base = self.base.lins
        return None if base is None else base + own


class _Prover:
    """Proves goals under hypothesis lists.  `prove`, `prove_goal` and
    `prove_atomic` return the methods used, in order, or raise _Declined
    with the reason."""

    def __init__(self, lemmas: tuple = ()):
        self.lemmas = lemmas
        # hypothesis tuple -> its context, built once per value per prover
        self.contexts: dict = {}

    def context(self, base: _Context, extras: list) -> _Context:
        """The context of base's list followed by the flat list `extras`."""
        if not extras:
            return base
        key = base.hyps + tuple(extras)
        ctx = self.contexts.get(key)
        if ctx is None:
            ctx = self.contexts[key] = base.extend(extras)
        return ctx

    def prove(self, hyps: list, concl: Pred) -> list:
        return self.prove_in(_Context(), flatten_conj(hyps), concl, 0)

    def prove_in(self, ctx: _Context, extras: list, concl: Pred, depth: int) -> list:
        """concl under ctx's list followed by the flat list `extras`."""
        goals = _split_goals((*ctx.hyps, *extras), concl)
        if goals is None:
            raise _Declined("unsupported conclusion shape")
        if goals:  # the list every goal extends, read only when one needs it
            ctx = self.context(ctx, extras)
        return [m for g in goals for m in self.prove_goal(ctx, g, depth)]

    def prove_goal(self, base: _Context, goal: _Goal, depth: int) -> list:
        ctx = self.context(base, flatten_conj(goal.extras))
        if ctx.absurd:
            return ["vacuous"]
        concl = goal.concl
        if not isinstance(concl, Or):
            return self.prove_atomic(ctx, concl)
        if depth > 6:
            raise _Declined("disjunction nesting too deep")
        reason = "no disjunct provable"
        for first, second in ((concl.lhs, concl.rhs), (concl.rhs, concl.lhs)):
            try:
                extra = nnf(Not(first))
            except TypeError:
                continue
            try:
                return self.prove_in(ctx, flatten_conj([extra]), second, depth + 1)
            except _Declined as exc:
                reason = str(exc)
        raise _Declined(reason)

    def prove_atomic(self, ctx: _Context, concl: Pred) -> list:
        """A comparison, or `false`, under ctx's hypotheses by the first
        method that applies."""
        # contradictory hypotheses prove anything
        if ctx.false:
            return ["vacuous"]
        if isinstance(concl, FalsePred):
            if ctx.lins is None:
                raise _Declined("non-linear hypotheses for contradiction goal")
            if simplex(ctx.lins) is not None:
                raise _Declined("hypotheses not refutable by the linear route")
            return ["simplex"]
        form = atom_form(_under(concl, ctx.sigma, "conclusion", ctx.memo))
        if form is None:
            raise _Declined("no proof method applies")
        if _constant_truth(form):
            return ["trivial"]
        key = _key(form)
        # weakening: a strict hypothesis implies its nonstrict form
        if key in ctx.keys or (key[1] == ">=0" and (key[0], ">0") in ctx.keys):
            return ["hypothesis-match"]
        if form[1] == "=" and _poly_identity(form[0], ctx.forms):
            return ["poly-identity"]
        cases = _negation_rows(form)
        if ctx.lins is not None and cases is not None and _counter_model(ctx.lins, cases) is None:
            return ["simplex"]
        if square_rule(form, ctx.forms):
            return ["square-rule"]
        for name, lemma_key, hyp_keys in self.lemma_keys:
            if lemma_key == key and all(k in ctx.keys for k in hyp_keys):
                return [f"lemma:{name}"]
        raise _Declined("no proof method applies")

    @cached_property
    def lemma_keys(self) -> list:
        """(name, conclusion key, hypothesis keys) of each proved or
        accepted lemma whose conclusion is a comparison; a non-comparison
        hypothesis has key None, which matches nothing."""
        return [
            (lemma.name, canonical_cmp(lemma.concl),
             [canonical_cmp(h) if isinstance(h, Cmp) else None for h in lemma.hyps])
            for lemma in self.lemmas
            if lemma.status in ("proved", "accepted") and isinstance(lemma.concl, Cmp)
        ]


def _read(c: Cmp, binding: dict, memo: dict, known: Optional[tuple] = None) -> tuple:
    """c under binding and its memo, paired with its atom form; `known`, the
    pair read for c before, is kept when the binding leaves c as it was."""
    d = _under(c, binding, "hypothesis", memo)
    return known if known and d is c else (d, atom_form(d))


def _under(p: Pred, binding: dict, role: str, memo: Optional[dict] = None) -> Pred:
    """p under binding, through its substitution memo if given; declines
    when the binding makes a denominator the constant zero, so p, the
    `role` of a goal, is undefined there."""
    try:
        return substitute_pred(p, binding, memo)
    except ValueError:
        raise _Declined(f"{role} undefined at a solved point") from None


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
                eq_tol=EQ_TOL,
            )
        except EVAL_FAILURES:
            return False

    flat_hyps = flatten_conj(ob.hyps)
    for _ in range(budget.refute_trials):
        v = sample_valuation(names, flat_hyps, rng, ranges=ranges, attempts=12)
        if v is not None and concl_false(v):
            return v
    return None


def discharge(
    ob: Obligation,
    lemmas: tuple = (),
    budget: DischargeBudget = DischargeBudget(),
    ranges: Mapping[str, tuple] = {},
) -> Verdict:
    """Prove or refute an arithmetic obligation; Unknown is a valid outcome."""
    if ob.kind != "arith":
        raise ValueError(f"discharge expects arithmetic obligations, got {ob.kind!r}")
    try:
        methods = _Prover(lemmas).prove(list(ob.hyps), ob.concl)
    except _Declined as exc:
        reason = str(exc)
    else:
        return Verdict("proved", method=_method_name(methods))
    witness = _refute(ob, budget, ranges)
    if witness is not None:
        return Verdict("refuted", witness=witness)
    return Verdict("unknown", reason=reason)
