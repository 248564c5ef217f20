"""Finite models of Kleene algebra with modal operators, plus a law harness.

Two concrete models over the state set {0..n-1}: binary relations (pair
sets) and state transformers (successor arrays, composed Kleisli-style).
The law harness checks the axioms either exhaustively over small carriers
or on seeded random samples, reporting a counterexample on failure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

# ---------------------------------------------------------------------------
# Relations


@dataclass(frozen=True)
class FiniteRel:
    """Binary relation on {0..n-1}, stored as a set of pairs."""

    n: int
    pairs: frozenset

    def __post_init__(self):
        for x, y in self.pairs:
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise ValueError(f"pair {(x, y)} outside 0..{self.n - 1}")

    @property
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(
            tuple((x, y) in self.pairs for y in range(self.n)) for x in range(self.n)
        )


def rel(n: int, pairs: Iterable[tuple[int, int]]) -> FiniteRel:
    return FiniteRel(n, frozenset(pairs))


def rel_id(n: int) -> FiniteRel:
    return rel(n, ((x, x) for x in range(n)))


def rel_zero(n: int) -> FiniteRel:
    return rel(n, ())


def rel_union(r: FiniteRel, s: FiniteRel) -> FiniteRel:
    _same_n(r, s)
    return FiniteRel(r.n, r.pairs | s.pairs)


def rel_compose(r: FiniteRel, s: FiniteRel) -> FiniteRel:
    """(x,z) in result iff some y links x to z through r then s."""
    _same_n(r, s)
    by_first: dict[int, set[int]] = {}
    for y, z in s.pairs:
        by_first.setdefault(y, set()).add(z)
    out = set()
    for x, y in r.pairs:
        for z in by_first.get(y, ()):
            out.add((x, z))
    return FiniteRel(r.n, frozenset(out))


def rel_star(r: FiniteRel) -> FiniteRel:
    """Least fixpoint of Id + r;X, by iteration on the finite lattice."""
    acc = rel_id(r.n)
    while True:
        nxt = rel_union(rel_id(r.n), rel_compose(r, acc))
        if nxt.pairs == acc.pairs:
            return acc
        acc = nxt


def rel_converse(r: FiniteRel) -> FiniteRel:
    return FiniteRel(r.n, frozenset((y, x) for x, y in r.pairs))


def rel_antidomain(r: FiniteRel) -> FiniteRel:
    has_succ = {x for x, _ in r.pairs}
    return rel(r.n, ((x, x) for x in range(r.n) if x not in has_succ))


def rel_antirange(r: FiniteRel) -> FiniteRel:
    return rel_antidomain(rel_converse(r))


def rel_domain(r: FiniteRel) -> FiniteRel:
    return rel_antidomain(rel_antidomain(r))


def rel_leq(r: FiniteRel, s: FiniteRel) -> bool:
    _same_n(r, s)
    return r.pairs <= s.pairs


def _same_n(r, s):
    if r.n != s.n:
        raise ValueError(f"state-count mismatch: {r.n} vs {s.n}")


# ---------------------------------------------------------------------------
# Predicates on the finite carrier


@dataclass(frozen=True)
class FinitePred:
    n: int
    members: frozenset

    def __post_init__(self):
        if not all(0 <= x < self.n for x in self.members):
            raise ValueError("members outside the carrier")


def fpred(n: int, members: Iterable[int]) -> FinitePred:
    return FinitePred(n, frozenset(members))


def pred_complement(p: FinitePred) -> FinitePred:
    return fpred(p.n, set(range(p.n)) - p.members)


def pred_to_rel(p: FinitePred) -> FiniteRel:
    return rel(p.n, ((x, x) for x in p.members))


def rel_to_pred(r: FiniteRel) -> FinitePred:
    """Read a subidentity back as a predicate; off-diagonal pairs rejected."""
    if any(x != y for x, y in r.pairs):
        raise ValueError("relation is not a subidentity")
    return fpred(r.n, (x for x, _ in r.pairs))


def rel_fbox(r: FiniteRel, p: FinitePred) -> FinitePred:
    """States from which every r-successor lands in p."""
    if r.n != p.n:
        raise ValueError("state-count mismatch")
    succs: dict[int, set[int]] = {}
    for x, y in r.pairs:
        succs.setdefault(x, set()).add(y)
    return fpred(r.n, (x for x in range(r.n) if succs.get(x, set()) <= p.members))


def rel_fdia(r: FiniteRel, p: FinitePred) -> FinitePred:
    if r.n != p.n:
        raise ValueError("state-count mismatch")
    return fpred(r.n, (x for x, y in r.pairs if y in p.members))


def rel_bdia(r: FiniteRel, p: FinitePred) -> FinitePred:
    return rel_fdia(rel_converse(r), p)


def rel_bbox(r: FiniteRel, p: FinitePred) -> FinitePred:
    return rel_fbox(rel_converse(r), p)


# ---------------------------------------------------------------------------
# State transformers (Kleisli arrows of the powerset monad)


@dataclass(frozen=True)
class FiniteSta:
    """State transformer on {0..n-1}: one successor set per state."""

    n: int
    successors: tuple

    def __post_init__(self):
        if len(self.successors) != self.n:
            raise ValueError("successors must have exactly n entries")
        for s in self.successors:
            if not all(0 <= y < self.n for y in s):
                raise ValueError("successor outside the carrier")


def sta(n: int, successors: Iterable[Iterable[int]]) -> FiniteSta:
    return FiniteSta(n, tuple(frozenset(s) for s in successors))


def sta_eta(n: int) -> FiniteSta:
    return sta(n, ([x] for x in range(n)))


def sta_zero(n: int) -> FiniteSta:
    return sta(n, ([] for _ in range(n)))


def sta_union(f: FiniteSta, g: FiniteSta) -> FiniteSta:
    _same_n(f, g)
    return sta(f.n, (f.successors[x] | g.successors[x] for x in range(f.n)))


def sta_kleisli(f: FiniteSta, g: FiniteSta) -> FiniteSta:
    """Kleisli composition: (f ; g) x is the union of g over f x."""
    _same_n(f, g)
    return sta(
        f.n,
        (
            frozenset().union(*(g.successors[y] for y in f.successors[x]))
            if f.successors[x]
            else frozenset()
            for x in range(f.n)
        ),
    )


def sta_star(f: FiniteSta) -> FiniteSta:
    """Reflexive-transitive closure, pointwise reachability."""
    out = []
    for x in range(f.n):
        seen = {x}
        frontier = {x}
        while frontier:
            nxt = set()
            for y in frontier:
                nxt |= f.successors[y]
            frontier = nxt - seen
            seen |= frontier
        out.append(seen)
    return sta(f.n, out)


def sta_antidomain(f: FiniteSta) -> FiniteSta:
    return sta(f.n, ([x] if not f.successors[x] else [] for x in range(f.n)))


def sta_op(f: FiniteSta) -> FiniteSta:
    """Opposite transformer, via the converse relation."""
    return sta_of_rel(rel_converse(rel_of_sta(f)))


def sta_leq(f: FiniteSta, g: FiniteSta) -> bool:
    _same_n(f, g)
    return all(f.successors[x] <= g.successors[x] for x in range(f.n))


def sta_fbox(f: FiniteSta, p: FinitePred) -> FinitePred:
    if f.n != p.n:
        raise ValueError("state-count mismatch")
    return fpred(f.n, (x for x in range(f.n) if f.successors[x] <= p.members))


def sta_fdia(f: FiniteSta, p: FinitePred) -> FinitePred:
    if f.n != p.n:
        raise ValueError("state-count mismatch")
    return fpred(f.n, (x for x in range(f.n) if f.successors[x] & p.members))


def sta_bdia(f: FiniteSta, p: FinitePred) -> FinitePred:
    if f.n != p.n:
        raise ValueError("state-count mismatch")
    out = set()
    for x in p.members:
        out |= f.successors[x]
    return fpred(f.n, out)


def sta_bbox(f: FiniteSta, p: FinitePred) -> FinitePred:
    return sta_fbox(sta_op(f), p)


def pred_to_sta(p: FinitePred) -> FiniteSta:
    return sta(p.n, ([x] if x in p.members else [] for x in range(p.n)))


def sta_to_pred(f: FiniteSta) -> FinitePred:
    members = set()
    for x in range(f.n):
        if f.successors[x] == frozenset([x]):
            members.add(x)
        elif f.successors[x]:
            raise ValueError("transformer is not a subidentity")
    return fpred(f.n, members)


# The bijections between the two models.


def sta_of_rel(r: FiniteRel) -> FiniteSta:
    succs = [set() for _ in range(r.n)]
    for x, y in r.pairs:
        succs[x].add(y)
    return sta(r.n, succs)


def rel_of_sta(f: FiniteSta) -> FiniteRel:
    return rel(f.n, ((x, y) for x in range(f.n) for y in f.successors[x]))


# ---------------------------------------------------------------------------
# Model adapters: one law text, two models


@dataclass(frozen=True)
class Model:
    name: str
    zero: Callable
    unit: Callable
    union: Callable
    compose: Callable
    star: Callable
    antidomain: Callable
    fbox: Callable
    fdia: Callable
    bbox: Callable
    bdia: Callable
    leq: Callable
    eq: Callable
    from_pred: Callable
    to_pred: Callable
    all_elements: Callable
    random_element: Callable


def _rel_random(n: int, rng: random.Random) -> FiniteRel:
    density = rng.choice((0.15, 0.3, 0.5, 0.75))
    return rel(
        n,
        (
            (x, y)
            for x in range(n)
            for y in range(n)
            if rng.random() < density
        ),
    )


def _rel_all(n: int):
    cells = [(x, y) for x in range(n) for y in range(n)]
    for bits in itertools.product((False, True), repeat=len(cells)):
        yield rel(n, (c for c, b in zip(cells, bits) if b))


def _sta_random(n: int, rng: random.Random) -> FiniteSta:
    return sta_of_rel(_rel_random(n, rng))


def _sta_all(n: int):
    for r in _rel_all(n):
        yield sta_of_rel(r)


REL_MODEL = Model(
    name="rel",
    zero=rel_zero,
    unit=rel_id,
    union=rel_union,
    compose=rel_compose,
    star=rel_star,
    antidomain=rel_antidomain,
    fbox=rel_fbox,
    fdia=rel_fdia,
    bbox=rel_bbox,
    bdia=rel_bdia,
    leq=rel_leq,
    eq=lambda a, b: a.pairs == b.pairs,
    from_pred=pred_to_rel,
    to_pred=rel_to_pred,
    all_elements=_rel_all,
    random_element=_rel_random,
)

STA_MODEL = Model(
    name="sta",
    zero=sta_zero,
    unit=sta_eta,
    union=sta_union,
    compose=sta_kleisli,
    star=sta_star,
    antidomain=sta_antidomain,
    fbox=sta_fbox,
    fdia=sta_fdia,
    bbox=sta_bbox,
    bdia=sta_bdia,
    leq=sta_leq,
    eq=lambda a, b: a.successors == b.successors,
    from_pred=pred_to_sta,
    to_pred=sta_to_pred,
    all_elements=_sta_all,
    random_element=_sta_random,
)

MODELS = {"rel": REL_MODEL, "sta": STA_MODEL}


# ---------------------------------------------------------------------------
# Law database

# Each law: (operand signature, checker). Signature chars: 'a' = algebra
# element, 'p' = predicate. The checker gets (model, *operands) and returns
# True on success.


def _all_preds(n: int):
    for bits in itertools.product((False, True), repeat=n):
        yield fpred(n, (x for x, b in enumerate(bits) if b))


def _random_pred(n: int, rng: random.Random) -> FinitePred:
    return fpred(n, (x for x in range(n) if rng.random() < 0.5))


def _pred_eq(p: FinitePred, q: FinitePred) -> bool:
    return p.members == q.members


def _law_union_assoc(m, a, b, c):
    return m.eq(m.union(m.union(a, b), c), m.union(a, m.union(b, c)))


def _law_union_comm(m, a, b):
    return m.eq(m.union(a, b), m.union(b, a))


def _law_union_idem(m, a):
    return m.eq(m.union(a, a), a)


def _law_union_zero(m, a):
    return m.eq(m.union(a, m.zero(_n(a))), a)


def _law_compose_assoc(m, a, b, c):
    return m.eq(m.compose(m.compose(a, b), c), m.compose(a, m.compose(b, c)))


def _law_compose_unit_left(m, a):
    return m.eq(m.compose(m.unit(_n(a)), a), a)


def _law_compose_unit_right(m, a):
    return m.eq(m.compose(a, m.unit(_n(a))), a)


def _law_compose_zero_left(m, a):
    return m.eq(m.compose(m.zero(_n(a)), a), m.zero(_n(a)))


def _law_compose_zero_right(m, a):
    return m.eq(m.compose(a, m.zero(_n(a))), m.zero(_n(a)))


def _law_distrib_left(m, a, b, c):
    return m.eq(m.compose(a, m.union(b, c)), m.union(m.compose(a, b), m.compose(a, c)))


def _law_distrib_right(m, a, b, c):
    return m.eq(m.compose(m.union(a, b), c), m.union(m.compose(a, c), m.compose(b, c)))


def _law_compose_comm(m, a, b):
    # Deliberately false in general; kept so the harness can be seen refuting.
    return m.eq(m.compose(a, b), m.compose(b, a))


def _law_star_unfold_left(m, a):
    s = m.star(a)
    return m.leq(m.union(m.unit(_n(a)), m.compose(a, s)), s)


def _law_star_unfold_right(m, a):
    s = m.star(a)
    return m.leq(m.union(m.unit(_n(a)), m.compose(s, a)), s)


def _law_star_induction_left(m, a, b, c):
    # c + a;b <= b  implies  a*;c <= b
    if m.leq(m.union(c, m.compose(a, b)), b):
        return m.leq(m.compose(m.star(a), c), b)
    return True


def _law_star_induction_right(m, a, b, c):
    if m.leq(m.union(c, m.compose(b, a)), b):
        return m.leq(m.compose(c, m.star(a)), b)
    return True


def _law_ad_compose_zero(m, a):
    return m.eq(m.compose(m.antidomain(a), a), m.zero(_n(a)))


def _law_ad_complement(m, a):
    ad = m.antidomain
    return m.eq(m.union(ad(a), ad(ad(a))), m.unit(_n(a)))


def _law_ad_local(m, a, b):
    ad = m.antidomain
    return m.leq(ad(m.compose(a, b)), ad(m.compose(a, ad(ad(b)))))


def _law_ad_subid(m, a):
    return m.leq(m.antidomain(a), m.unit(_n(a)))


def _law_domain_retraction(m, a):
    ad = m.antidomain
    d = lambda x: ad(ad(x))
    if not m.eq(d(d(a)), d(a)):
        return False
    # d fixes subidentities
    p = d(a)
    return m.eq(d(p), p)


def _law_box_def_agree(m, a, p):
    # |a]p computed directly equals the antidomain formula ad(a ; ad(p)).
    direct = m.fbox(a, p)
    via_ad = m.to_pred(m.antidomain(m.compose(a, m.antidomain(m.from_pred(p)))))
    return _pred_eq(direct, via_ad)


def _law_box_demorgan(m, a, p):
    lhs = m.fdia(a, p)
    rhs = pred_complement(m.fbox(a, pred_complement(p)))
    return _pred_eq(lhs, rhs)


def _law_box_seq(m, a, b, p):
    return _pred_eq(m.fbox(m.compose(a, b), p), m.fbox(a, m.fbox(b, p)))


def _law_box_cond(m, a, b, p, q):
    # |if p then a else b] q = p.|a]q + ~p.|b]q
    n = _n(a)
    tp, tn = m.from_pred(p), m.from_pred(pred_complement(p))
    cond = m.union(m.compose(tp, a), m.compose(tn, b))
    lhs = m.fbox(cond, q)
    rhs = (p.members & m.fbox(a, q).members) | (
        pred_complement(p).members & m.fbox(b, q).members
    )
    return lhs.members == rhs


def _law_box_star_induction(m, a, p):
    if p.members <= m.fbox(a, p).members:
        return p.members <= m.fbox(m.star(a), p).members
    return True


def _law_adjunction(m, a, p, q):
    # |a>p <= q  iff  p <= [a|q
    lhs = m.fdia(a, p).members <= q.members
    rhs = p.members <= m.bbox(a, q).members
    return lhs == rhs


def _law_invariant_meet_join(m, a, p, q):
    # invariants are closed under union and intersection
    if p.members <= m.fbox(a, p).members and q.members <= m.fbox(a, q).members:
        meet = fpred(p.n, p.members & q.members)
        join = fpred(p.n, p.members | q.members)
        return (
            meet.members <= m.fbox(a, meet).members
            and join.members <= m.fbox(a, join).members
        )
    return True


def _law_iso_roundtrip(m, a):
    if isinstance(a, FiniteRel):
        return rel_of_sta(sta_of_rel(a)).pairs == a.pairs
    return sta_of_rel(rel_of_sta(a)).successors == a.successors


def _law_iso_union(m, a, b):
    r, s = _as_rels(a, b)
    return sta_of_rel(rel_union(r, s)).successors == sta_union(
        sta_of_rel(r), sta_of_rel(s)
    ).successors


def _law_iso_compose(m, a, b):
    r, s = _as_rels(a, b)
    return sta_of_rel(rel_compose(r, s)).successors == sta_kleisli(
        sta_of_rel(r), sta_of_rel(s)
    ).successors


def _law_iso_star(m, a):
    (r,) = _as_rels(a)
    return sta_of_rel(rel_star(r)).successors == sta_star(sta_of_rel(r)).successors


def _law_iso_antidomain(m, a):
    (r,) = _as_rels(a)
    return sta_of_rel(rel_antidomain(r)).successors == sta_antidomain(
        sta_of_rel(r)
    ).successors


def _law_iso_box(m, a, p):
    (r,) = _as_rels(a)
    return rel_fbox(r, p).members == sta_fbox(sta_of_rel(r), p).members


def _as_rels(*xs):
    return tuple(x if isinstance(x, FiniteRel) else rel_of_sta(x) for x in xs)


def _n(x):
    return x.n


LawChecker = Callable


@dataclass(frozen=True)
class Law:
    name: str
    group: str
    signature: str  # 'a' per algebra operand, 'p' per predicate operand
    check: LawChecker


LAWS: dict[str, Law] = {}


def _register(name: str, group: str, signature: str, check: LawChecker):
    LAWS[name] = Law(name, group, signature, check)


_register("union-assoc", "dioid", "aaa", _law_union_assoc)
_register("union-comm", "dioid", "aa", _law_union_comm)
_register("union-idem", "dioid", "a", _law_union_idem)
_register("union-zero", "dioid", "a", _law_union_zero)
_register("compose-assoc", "dioid", "aaa", _law_compose_assoc)
_register("compose-unit-left", "dioid", "a", _law_compose_unit_left)
_register("compose-unit-right", "dioid", "a", _law_compose_unit_right)
_register("compose-zero-left", "dioid", "a", _law_compose_zero_left)
_register("compose-zero-right", "dioid", "a", _law_compose_zero_right)
_register("distrib-left", "dioid", "aaa", _law_distrib_left)
_register("distrib-right", "dioid", "aaa", _law_distrib_right)
_register("star-unfold-left", "star", "a", _law_star_unfold_left)
_register("star-unfold-right", "star", "a", _law_star_unfold_right)
_register("star-induction-left", "star", "aaa", _law_star_induction_left)
_register("star-induction-right", "star", "aaa", _law_star_induction_right)
_register("ad-compose-zero", "antidomain", "a", _law_ad_compose_zero)
_register("ad-complement", "antidomain", "a", _law_ad_complement)
_register("ad-local", "antidomain", "aa", _law_ad_local)
_register("ad-subid", "antidomain", "a", _law_ad_subid)
_register("domain-retraction", "antidomain", "a", _law_domain_retraction)
_register("box-def-agree", "box", "ap", _law_box_def_agree)
_register("box-demorgan", "box", "ap", _law_box_demorgan)
_register("box-seq", "box", "aap", _law_box_seq)
_register("box-cond", "box", "aapp", _law_box_cond)
_register("box-star-induction", "box", "ap", _law_box_star_induction)
_register("dia-box-adjunction", "adjunction", "app", _law_adjunction)
_register("invariant-meet-join", "invariants", "app", _law_invariant_meet_join)
_register("iso-roundtrip", "functor", "a", _law_iso_roundtrip)
_register("iso-union", "functor", "aa", _law_iso_union)
_register("iso-compose", "functor", "aa", _law_iso_compose)
_register("iso-star", "functor", "a", _law_iso_star)
_register("iso-antidomain", "functor", "a", _law_iso_antidomain)
_register("iso-box", "functor", "ap", _law_iso_box)
_register("compose-comm", "sanity", "aa", _law_compose_comm)

DEFAULT_GROUPS = ("dioid", "star", "antidomain", "box", "adjunction", "invariants")

# Exhaustive runs are gated by the size of the full operand space.
EXHAUSTIVE_MAX_N = 3
EXHAUSTIVE_MAX_COMBINATIONS = 1 << 17


def laws_in_groups(groups: Iterable[str]) -> list[str]:
    wanted = set(groups)
    return [name for name, law in LAWS.items() if law.group in wanted]


@dataclass
class LawReport:
    law: str
    model: str
    n: int
    mode: str
    passed: bool
    checked: int
    counterexample: Optional[str] = None

    def to_json(self) -> dict:
        out = {
            "law": self.law,
            "model": self.model,
            "n": self.n,
            "mode": self.mode,
            "pass": self.passed,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _describe(operand) -> str:
    if isinstance(operand, FiniteRel):
        return f"rel{sorted(operand.pairs)}"
    if isinstance(operand, FiniteSta):
        return f"sta{[sorted(s) for s in operand.successors]}"
    if isinstance(operand, FinitePred):
        return f"pred{sorted(operand.members)}"
    return repr(operand)


def _space_size(signature: str, n: int) -> int:
    size = 1
    for ch in signature:
        size *= (1 << (n * n)) if ch == "a" else (1 << n)
    return size


def check_law(
    model_name: str,
    n: int,
    law_name: str,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = 1000,
) -> LawReport:
    if law_name not in LAWS:
        raise KeyError(f"unknown law identifier {law_name!r}")
    law = LAWS[law_name]
    model = MODELS[model_name]
    checked = 0
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_N or _space_size(law.signature, n) > EXHAUSTIVE_MAX_COMBINATIONS:
            raise ValueError(
                f"exhaustive mode too large for law {law_name!r} at n={n}"
            )
        pools = [
            list(model.all_elements(n)) if ch == "a" else list(_all_preds(n))
            for ch in law.signature
        ]
        for operands in itertools.product(*pools):
            checked += 1
            if not law.check(model, *operands):
                return LawReport(
                    law_name, model_name, n, mode, False, checked,
                    "; ".join(_describe(o) for o in operands),
                )
        return LawReport(law_name, model_name, n, mode, True, checked)
    if mode == "random":
        rng = random.Random(seed)
        for _ in range(trials):
            operands = [
                model.random_element(n, rng) if ch == "a" else _random_pred(n, rng)
                for ch in law.signature
            ]
            checked += 1
            if not law.check(model, *operands):
                return LawReport(
                    law_name, model_name, n, mode, False, checked,
                    "; ".join(_describe(o) for o in operands),
                )
        return LawReport(law_name, model_name, n, mode, True, checked)
    raise ValueError(f"unknown mode {mode!r}")


def check_laws(
    model_name: str,
    n: int,
    law_names: Optional[Iterable[str]] = None,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = 1000,
) -> list[LawReport]:
    """Run a batch of laws; the report lists pass/fail plus counterexamples."""
    if law_names is None:
        law_names = laws_in_groups(DEFAULT_GROUPS)
    return [
        check_law(model_name, n, name, mode=mode, seed=seed, trials=trials)
        for name in law_names
    ]
