"""Finite models of Kleene algebra with modal operators, plus a law harness.

Two concrete models over the state set {0..n-1}, both encoded as machine
integers: binary relations as one n*n-bit int (bit x*n+y for the pair
(x, y)) and state transformers (Kleisli arrows of the powerset monad) as a
tuple of n successor row masks; a predicate is an n-bit mask.  Operations
are bit arithmetic over at most n rows and build in-range masks, so only
the builders rel, sta and fpred validate.  sta_of_rel and rel_of_sta split
and join rows.  The law harness checks the axioms either exhaustively over
small carriers or on seeded random samples, reporting a counterexample;
an exhaustive check reads the model's operations from tables filled on
first use, one set per model and carrier size.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

# ---------------------------------------------------------------------------
# Bit helpers.  Row x of a relation's bits is bits >> x*n & (1 << n) - 1.


def _elements(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _mask(n: int, members: frozenset, message: str) -> int:
    if not all(0 <= x < n for x in members):
        raise ValueError(message)
    return sum(1 << x for x in members)


def _spaced(n: int, width: int) -> int:
    """Bit x*width for every x < n: a width-bit row times it fills n rows."""
    return ((1 << n * width) - 1) // ((1 << width) - 1) if n else 0


def _meeting(n: int, bits: int, mask: int) -> int:
    """The mask of the rows of a relation's bits that meet mask."""
    out = 0
    for x in range(n):
        if bits >> x * n & mask:
            out |= 1 << x
    return out


def _rows_meeting(rows: tuple[int, ...], mask: int) -> int:
    """The mask of the rows that meet mask."""
    out = 0
    for x, row in enumerate(rows):
        if row & mask:
            out |= 1 << x
    return out


def _split(n: int, bits: int) -> tuple[int, ...]:
    full, rows = (1 << n) - 1, []
    for _ in range(n):
        rows.append(bits & full)
        bits >>= n
    return tuple(rows)


def _join(n: int, rows: Iterable[int]) -> int:
    return sum([row << x * n for x, row in enumerate(rows)])


def _images(rows: tuple[int, ...], masks: Iterable[int]) -> tuple[int, ...]:
    """For each mask, the union of the rows that it selects."""
    out = []
    for mask in masks:
        acc = y = 0
        while mask:
            if mask & 1:
                acc |= rows[y]
            mask >>= 1
            y += 1
        out.append(acc)
    return tuple(out)


def _transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([_rows_meeting(rows, 1 << y) for y in range(len(rows))])


def _same_n(r, s):
    if r.n != s.n:
        raise ValueError(f"state-count mismatch: {r.n} vs {s.n}")


# ---------------------------------------------------------------------------
# Relations.  The carrier classes are value objects: never mutate a field.


@dataclass(slots=True, unsafe_hash=True)
class FiniteRel:
    """Binary relation on {0..n-1}: bit x*n+y of bits is the pair (x, y)."""

    n: int
    bits: int

    @property
    def pairs(self) -> frozenset:
        return frozenset(divmod(i, self.n) for i in _elements(self.bits))

    @property
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        rows = _split(self.n, self.bits)
        return tuple(tuple(bool(row >> y & 1) for y in range(self.n)) for row in rows)


def rel(n: int, pairs: Iterable[tuple[int, int]]) -> FiniteRel:
    bits = 0
    for x, y in frozenset(pairs):
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair {(x, y)} outside 0..{n - 1}")
        bits |= 1 << x * n + y
    return FiniteRel(n, bits)


def rel_id(n: int) -> FiniteRel:
    return FiniteRel(n, _spaced(n, n + 1))


def rel_zero(n: int) -> FiniteRel:
    return FiniteRel(n, 0)


def rel_union(r: FiniteRel, s: FiniteRel) -> FiniteRel:
    _same_n(r, s)
    return FiniteRel(r.n, r.bits | s.bits)


def rel_compose(r: FiniteRel, s: FiniteRel) -> FiniteRel:
    """(x,z) in result iff some y links x to z through r then s: column y
    of r, moved to bit x*n of each row x, times row y of s."""
    _same_n(r, s)
    n = r.n
    full, column = (1 << n) - 1, _spaced(n, n)
    out = 0
    for y in range(n):
        out |= (r.bits >> y & column) * (s.bits >> y * n & full)
    return FiniteRel(n, out)


def rel_star(r: FiniteRel) -> FiniteRel:
    """Least fixpoint of Id + r;X, by iteration on the finite lattice."""
    unit = acc = _spaced(r.n, r.n + 1)
    while (nxt := unit | rel_compose(r, FiniteRel(r.n, acc)).bits) != acc:
        acc = nxt
    return FiniteRel(r.n, acc)


def rel_converse(r: FiniteRel) -> FiniteRel:
    return FiniteRel(r.n, _join(r.n, _transpose(_split(r.n, r.bits))))


def rel_antidomain(r: FiniteRel) -> FiniteRel:
    full = (1 << r.n) - 1
    return pred_to_rel(FinitePred(r.n, ~_meeting(r.n, r.bits, full) & full))


def rel_antirange(r: FiniteRel) -> FiniteRel:
    return rel_antidomain(rel_converse(r))


def rel_domain(r: FiniteRel) -> FiniteRel:
    return rel_antidomain(rel_antidomain(r))


def rel_leq(r: FiniteRel, s: FiniteRel) -> bool:
    _same_n(r, s)
    return not r.bits & ~s.bits


# ---------------------------------------------------------------------------
# Predicates on the finite carrier


@dataclass(slots=True, unsafe_hash=True)
class FinitePred:
    """Predicate on {0..n-1}: bit x of bits is state x."""

    n: int
    bits: int

    @property
    def members(self) -> frozenset:
        return frozenset(_elements(self.bits))


def fpred(n: int, members: Iterable[int]) -> FinitePred:
    return FinitePred(n, _mask(n, frozenset(members), "members outside the carrier"))


def pred_complement(p: FinitePred) -> FinitePred:
    return FinitePred(p.n, ~p.bits & (1 << p.n) - 1)


def pred_to_rel(p: FinitePred) -> FiniteRel:
    """Row x of p's bits times every row is p; keep the diagonal."""
    return FiniteRel(p.n, p.bits * _spaced(p.n, p.n) & _spaced(p.n, p.n + 1))


def rel_to_pred(r: FiniteRel) -> FinitePred:
    """Read a subidentity back as a predicate; off-diagonal pairs rejected."""
    if r.bits & ~_spaced(r.n, r.n + 1):
        raise ValueError("relation is not a subidentity")
    return FinitePred(r.n, _meeting(r.n, r.bits, (1 << r.n) - 1))


def rel_fbox(r: FiniteRel, p: FinitePred) -> FinitePred:
    """States from which every r-successor lands in p."""
    _same_n(r, p)
    full = (1 << r.n) - 1
    return FinitePred(r.n, ~_meeting(r.n, r.bits, ~p.bits & full) & full)


def rel_fdia(r: FiniteRel, p: FinitePred) -> FinitePred:
    _same_n(r, p)
    return FinitePred(r.n, _meeting(r.n, r.bits, p.bits))


def rel_bdia(r: FiniteRel, p: FinitePred) -> FinitePred:
    return rel_fdia(rel_converse(r), p)


def rel_bbox(r: FiniteRel, p: FinitePred) -> FinitePred:
    return rel_fbox(rel_converse(r), p)


# ---------------------------------------------------------------------------
# State transformers (Kleisli arrows of the powerset monad)


@dataclass(slots=True, unsafe_hash=True)
class FiniteSta:
    """State transformer on {0..n-1}: rows[x] masks the successors of x."""

    n: int
    rows: tuple

    @property
    def successors(self) -> tuple:
        return tuple(frozenset(_elements(row)) for row in self.rows)


def sta(n: int, successors: Iterable[Iterable[int]]) -> FiniteSta:
    sets = tuple(frozenset(s) for s in successors)
    if len(sets) != n:
        raise ValueError("successors must have exactly n entries")
    return FiniteSta(n, tuple(_mask(n, s, "successor outside the carrier") for s in sets))


def sta_eta(n: int) -> FiniteSta:
    return FiniteSta(n, tuple([1 << x for x in range(n)]))


def sta_zero(n: int) -> FiniteSta:
    return FiniteSta(n, (0,) * n)


def sta_union(f: FiniteSta, g: FiniteSta) -> FiniteSta:
    _same_n(f, g)
    return FiniteSta(f.n, tuple(map(operator.or_, f.rows, g.rows)))


def sta_kleisli(f: FiniteSta, g: FiniteSta) -> FiniteSta:
    """Kleisli composition: (f ; g) x is the union of g over f x."""
    _same_n(f, g)
    return FiniteSta(f.n, _images(g.rows, f.rows))


def sta_star(f: FiniteSta) -> FiniteSta:
    """Reflexive-transitive closure, pointwise reachability (Warshall)."""
    rows = [row | 1 << x for x, row in enumerate(f.rows)]
    for k in range(f.n):
        through = rows[k]
        for x, row in enumerate(rows):
            if row >> k & 1:
                rows[x] = row | through
    return FiniteSta(f.n, tuple(rows))


def sta_antidomain(f: FiniteSta) -> FiniteSta:
    return FiniteSta(f.n, tuple([0 if row else 1 << x for x, row in enumerate(f.rows)]))


def sta_op(f: FiniteSta) -> FiniteSta:
    """Opposite transformer: the rows of the converse relation."""
    return FiniteSta(f.n, _transpose(f.rows))


def sta_leq(f: FiniteSta, g: FiniteSta) -> bool:
    _same_n(f, g)
    return not any(map(operator.and_, f.rows, map(operator.invert, g.rows)))


def sta_fbox(f: FiniteSta, p: FinitePred) -> FinitePred:
    _same_n(f, p)
    return FinitePred(f.n, ~_rows_meeting(f.rows, ~p.bits) & (1 << f.n) - 1)


def sta_fdia(f: FiniteSta, p: FinitePred) -> FinitePred:
    _same_n(f, p)
    return FinitePred(f.n, _rows_meeting(f.rows, p.bits))


def sta_bdia(f: FiniteSta, p: FinitePred) -> FinitePred:
    _same_n(f, p)
    return FinitePred(f.n, _images(f.rows, (p.bits,))[0])


def sta_bbox(f: FiniteSta, p: FinitePred) -> FinitePred:
    return sta_fbox(sta_op(f), p)


def pred_to_sta(p: FinitePred) -> FiniteSta:
    return FiniteSta(p.n, tuple([p.bits & 1 << x for x in range(p.n)]))


def sta_to_pred(f: FiniteSta) -> FinitePred:
    bits = 0
    for x, row in enumerate(f.rows):
        if row == 1 << x:
            bits |= row
        elif row:
            raise ValueError("transformer is not a subidentity")
    return FinitePred(f.n, bits)


# The bijections between the two models.


def sta_of_rel(r: FiniteRel) -> FiniteSta:
    return FiniteSta(r.n, _split(r.n, r.bits))


def rel_of_sta(f: FiniteSta) -> FiniteRel:
    return FiniteRel(f.n, _join(f.n, f.rows))


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
    """One draw per cell, x-major, at a density drawn first."""
    density = rng.choice((0.15, 0.3, 0.5, 0.75))
    draw, bits = rng.random, 0
    for i in range(n * n):
        if draw() < density:
            bits |= 1 << i
    return FiniteRel(n, bits)


def _masks(width: int):
    """Every width-bit mask, bit i from the i-th factor of a product."""
    for bits in itertools.product((0, 1), repeat=width):
        yield sum(b << i for i, b in enumerate(bits))


def _rel_all(n: int):
    return (FiniteRel(n, bits) for bits in _masks(n * n))


REL_MODEL = Model(
    name="rel", zero=rel_zero, unit=rel_id, union=rel_union, compose=rel_compose,
    star=rel_star, antidomain=rel_antidomain, fbox=rel_fbox, fdia=rel_fdia,
    bbox=rel_bbox, bdia=rel_bdia, leq=rel_leq, eq=lambda a, b: a.bits == b.bits,
    from_pred=pred_to_rel, to_pred=rel_to_pred,
    all_elements=_rel_all, random_element=_rel_random,
)

# Transformers enumerate and draw as the relations they are the image of.
STA_MODEL = Model(
    name="sta", zero=sta_zero, unit=sta_eta, union=sta_union, compose=sta_kleisli,
    star=sta_star, antidomain=sta_antidomain, fbox=sta_fbox, fdia=sta_fdia,
    bbox=sta_bbox, bdia=sta_bdia, leq=sta_leq, eq=lambda a, b: a.rows == b.rows,
    from_pred=pred_to_sta, to_pred=sta_to_pred,
    all_elements=lambda n: map(sta_of_rel, _rel_all(n)),
    random_element=lambda n, rng: sta_of_rel(_rel_random(n, rng)),
)

MODELS = {"rel": REL_MODEL, "sta": STA_MODEL}


# ---------------------------------------------------------------------------
# Law database

# Each law: (operand signature, checker). Signature chars: 'a' = algebra
# element, 'p' = predicate. The checker gets (model, *operands) and returns
# True on success.


def _all_preds(n: int):
    return (FinitePred(n, bits) for bits in _masks(n))


def _random_pred(n: int, rng: random.Random) -> FinitePred:
    draw = rng.random
    return FinitePred(n, sum([1 << x for x in range(n) if draw() < 0.5]))


def _within(p: FinitePred, q: FinitePred) -> bool:
    return not p.bits & ~q.bits


def _law_union_assoc(m, a, b, c):
    return m.eq(m.union(m.union(a, b), c), m.union(a, m.union(b, c)))


def _law_union_comm(m, a, b):
    return m.eq(m.union(a, b), m.union(b, a))


def _law_union_idem(m, a):
    return m.eq(m.union(a, a), a)


def _law_union_zero(m, a):
    return m.eq(m.union(a, m.zero(a.n)), a)


def _law_compose_assoc(m, a, b, c):
    return m.eq(m.compose(m.compose(a, b), c), m.compose(a, m.compose(b, c)))


def _law_compose_unit_left(m, a):
    return m.eq(m.compose(m.unit(a.n), a), a)


def _law_compose_unit_right(m, a):
    return m.eq(m.compose(a, m.unit(a.n)), a)


def _law_compose_zero_left(m, a):
    return m.eq(m.compose(m.zero(a.n), a), m.zero(a.n))


def _law_compose_zero_right(m, a):
    return m.eq(m.compose(a, m.zero(a.n)), m.zero(a.n))


def _law_distrib_left(m, a, b, c):
    return m.eq(m.compose(a, m.union(b, c)), m.union(m.compose(a, b), m.compose(a, c)))


def _law_distrib_right(m, a, b, c):
    return m.eq(m.compose(m.union(a, b), c), m.union(m.compose(a, c), m.compose(b, c)))


def _law_compose_comm(m, a, b):
    # Deliberately false in general; kept so the harness can be seen refuting.
    return m.eq(m.compose(a, b), m.compose(b, a))


def _law_star_unfold_left(m, a):
    s = m.star(a)
    return m.leq(m.union(m.unit(a.n), m.compose(a, s)), s)


def _law_star_unfold_right(m, a):
    s = m.star(a)
    return m.leq(m.union(m.unit(a.n), m.compose(s, a)), s)


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
    return m.eq(m.compose(m.antidomain(a), a), m.zero(a.n))


def _law_ad_complement(m, a):
    ad = m.antidomain
    return m.eq(m.union(ad(a), ad(ad(a))), m.unit(a.n))


def _law_ad_local(m, a, b):
    ad = m.antidomain
    return m.leq(ad(m.compose(a, b)), ad(m.compose(a, ad(ad(b)))))


def _law_ad_subid(m, a):
    return m.leq(m.antidomain(a), m.unit(a.n))


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
    return direct.bits == via_ad.bits


def _law_box_demorgan(m, a, p):
    return m.fdia(a, p).bits == pred_complement(m.fbox(a, pred_complement(p))).bits


def _law_box_seq(m, a, b, p):
    return m.fbox(m.compose(a, b), p).bits == m.fbox(a, m.fbox(b, p)).bits


def _law_box_cond(m, a, b, p, q):
    # |if p then a else b] q = p.|a]q + ~p.|b]q
    tp, tn = m.from_pred(p), m.from_pred(pred_complement(p))
    cond = m.union(m.compose(tp, a), m.compose(tn, b))
    rhs = (p.bits & m.fbox(a, q).bits) | (~p.bits & m.fbox(b, q).bits)
    return m.fbox(cond, q).bits == rhs


def _law_box_star_induction(m, a, p):
    if _within(p, m.fbox(a, p)):
        return _within(p, m.fbox(m.star(a), p))
    return True


def _law_adjunction(m, a, p, q):
    # |a>p <= q  iff  p <= [a|q
    return _within(m.fdia(a, p), q) == _within(p, m.bbox(a, q))


def _law_bdia_adjunction(m, a, p, q):
    # <a|p <= q  iff  p <= |a]q
    return _within(m.bdia(a, p), q) == _within(p, m.fbox(a, q))


def _law_invariant_meet_join(m, a, p, q):
    # invariants are closed under union and intersection
    def invariant(r):
        return _within(r, m.fbox(a, r))

    if invariant(p) and invariant(q):
        return invariant(FinitePred(p.n, p.bits & q.bits)) and invariant(
            FinitePred(p.n, p.bits | q.bits)
        )
    return True


def _law_iso_roundtrip(m, a):
    if isinstance(a, FiniteRel):
        return rel_of_sta(sta_of_rel(a)).bits == a.bits
    return sta_of_rel(rel_of_sta(a)).rows == a.rows


def _law_iso_union(m, a, b):
    r, s = _as_rels(a, b)
    return sta_of_rel(rel_union(r, s)).rows == sta_union(sta_of_rel(r), sta_of_rel(s)).rows


def _law_iso_compose(m, a, b):
    r, s = _as_rels(a, b)
    return sta_of_rel(rel_compose(r, s)).rows == sta_kleisli(sta_of_rel(r), sta_of_rel(s)).rows


def _law_iso_star(m, a):
    (r,) = _as_rels(a)
    return sta_of_rel(rel_star(r)).rows == sta_star(sta_of_rel(r)).rows


def _law_iso_antidomain(m, a):
    (r,) = _as_rels(a)
    return sta_of_rel(rel_antidomain(r)).rows == sta_antidomain(sta_of_rel(r)).rows


def _law_iso_box(m, a, p):
    (r,) = _as_rels(a)
    return rel_fbox(r, p).bits == sta_fbox(sta_of_rel(r), p).bits


def _as_rels(*xs):
    return tuple(x if isinstance(x, FiniteRel) else rel_of_sta(x) for x in xs)


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
_register("bdia-fbox-adjunction", "backward", "app", _law_bdia_adjunction)
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


# ---------------------------------------------------------------------------
# Operation tables.  An exhaustive check meets each operand tuple many times
# (at n = 2 a three-element law has 4,096 cases over 256 element pairs), so
# it reads each operation the law checkers call, bar eq, leq and to_pred,
# from a table keyed by the operands' encodings.  The model's own functions
# fill a table on first use, so it holds no tuple that no check reached.

# The field that encodes an element of each model; a predicate's is bits.
_ENCODINGS = {"rel": "bits", "sta": "rows"}


def _table(op: Callable, *fields: str) -> Callable:
    """op read from a table keyed by the given field of each operand, or by
    the operand itself where the field is empty.  The function is generated
    so that a hit costs attribute loads and one dict lookup; a key built
    through operator.attrgetter makes an exhaustive pass about a fifth
    slower."""
    params = ", ".join(f"x{i}" for i in range(len(fields)))
    key = ", ".join(f"x{i}.{f}" if f else f"x{i}" for i, f in enumerate(fields))
    scope = {"op": op, "table": {}}
    exec(
        f"def tabled({params}):\n"
        f"    k = {key}\n"
        f"    try:\n"
        f"        return table[k]\n"
        f"    except KeyError:\n"
        f"        out = table[k] = op({params})\n"
        f"        return out\n",
        scope,
    )
    return scope["tabled"]


@functools.lru_cache(maxsize=len(_ENCODINGS) * (EXHAUSTIVE_MAX_N + 1))
def _tabled_model(model_name: str, n: int) -> Model:
    """MODELS[model_name] reading its operations from tables, one set per
    model and n, shared by every exhaustive check in the process.  zero
    and unit are keyed by n, so each is computed once."""
    model, elem = MODELS[model_name], _ENCODINGS[model_name]
    return replace(
        model,
        zero=_table(model.zero, ""),
        unit=_table(model.unit, ""),
        union=_table(model.union, elem, elem),
        compose=_table(model.compose, elem, elem),
        star=_table(model.star, elem),
        antidomain=_table(model.antidomain, elem),
        fbox=_table(model.fbox, elem, "bits"),
        fdia=_table(model.fdia, elem, "bits"),
        bbox=_table(model.bbox, elem, "bits"),
        bdia=_table(model.bdia, elem, "bits"),
        from_pred=_table(model.from_pred, "bits"),
    )


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
    if model_name not in MODELS:
        raise KeyError(f"unknown model {model_name!r}")
    model = MODELS[model_name]
    if not isinstance(n, int):
        raise TypeError(f"state count n must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"state count n must be non-negative, got {n}")
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_N or _space_size(law.signature, n) > EXHAUSTIVE_MAX_COMBINATIONS:
            raise ValueError(
                f"exhaustive mode too large for law {law_name!r} at n={n}"
            )
        model = _tabled_model(model_name, n)
        pools = [
            list(model.all_elements(n)) if ch == "a" else list(_all_preds(n))
            for ch in law.signature
        ]
        cases = itertools.product(*pools)
    elif mode == "random":
        if trials < 1:
            raise ValueError(f"random mode needs trials >= 1, got {trials}")
        rng = random.Random(seed)
        cases = (
            [model.random_element(n, rng) if ch == "a" else _random_pred(n, rng)
             for ch in law.signature]
            for _ in range(trials)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    check = law.check
    for checked, operands in enumerate(cases, 1):
        if not check(model, *operands):
            return LawReport(
                law_name, model_name, n, mode, False, checked,
                "; ".join(_describe(o) for o in operands),
            )
    return LawReport(law_name, model_name, n, mode, True, checked)


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
