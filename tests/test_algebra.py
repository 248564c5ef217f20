import collections
import itertools
import operator
import random
from dataclasses import dataclass, replace
from types import SimpleNamespace

import pytest

from hybridwlp import algebra
from hybridwlp.algebra import (
    DEFAULT_GROUPS,
    EXHAUSTIVE_MAX_COMBINATIONS,
    EXHAUSTIVE_MAX_N,
    LAWS,
    LawReport,
    check_law,
    check_laws,
    fpred,
    laws_in_groups,
    rel,
    rel_antidomain,
    rel_antirange,
    rel_compose,
    rel_converse,
    rel_domain,
    rel_fbox,
    rel_fdia,
    rel_id,
    rel_leq,
    rel_of_sta,
    rel_star,
    rel_union,
    rel_zero,
    sta,
    sta_antidomain,
    sta_eta,
    sta_fbox,
    sta_kleisli,
    sta_of_rel,
    sta_star,
    sta_union,
    sta_zero,
    _rel_all,
    _rel_random,
)


class TestRelOps:
    def test_compose_example(self):
        r = rel(3, [(0, 1), (1, 2)])
        s = rel(3, [(1, 2), (2, 0)])
        assert rel_compose(r, s).pairs == frozenset({(0, 2), (1, 0)})

    def test_compose_unit_and_zero(self):
        r = rel(3, [(0, 1), (2, 2)])
        assert rel_compose(rel_id(3), r).pairs == r.pairs
        assert rel_compose(r, rel_zero(3)).pairs == frozenset()

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rel_compose(rel_id(2), rel_id(3))

    def test_star_examples(self):
        assert rel_star(rel_zero(3)).pairs == rel_id(3).pairs
        assert rel_star(rel_id(3)).pairs == rel_id(3).pairs
        chain = rel(3, [(0, 1), (1, 2)])
        assert rel_star(chain).pairs == rel_id(3).pairs | {(0, 1), (1, 2), (0, 2)}

    def test_antidomain_examples(self):
        assert rel_antidomain(rel_zero(2)).pairs == rel_id(2).pairs
        assert rel_antidomain(rel_id(2)).pairs == frozenset()
        assert rel_antidomain(rel(2, [(0, 1)])).pairs == frozenset({(1, 1)})

    def test_antidomain_axioms_hold(self):
        for r in _rel_all(2):
            ad = rel_antidomain(r)
            assert rel_compose(ad, r).pairs == frozenset()
            assert rel_union(ad, rel_antidomain(ad)).pairs == rel_id(2).pairs

    def test_antirange_is_antidomain_of_converse(self):
        r = rel(3, [(0, 1), (1, 2)])
        assert rel_antirange(r).pairs == rel_antidomain(rel_converse(r)).pairs

    def test_fbox_examples(self):
        p = fpred(2, [0])
        assert rel_fbox(rel_id(2), p).members == p.members
        assert rel_fbox(rel_zero(2), p).members == {0, 1}
        r = rel(2, [(0, 0), (0, 1)])
        assert rel_fbox(r, p).members == {1}

    def test_matrix_view(self):
        r = rel(2, [(0, 1)])
        assert r.matrix == ((False, True), (False, False))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rel(2, [(0, 2)])


class TestStaOps:
    def test_eta_unit(self):
        f = sta(3, [{1}, {0, 2}, set()])
        assert sta_kleisli(sta_eta(3), f).successors == f.successors
        assert sta_kleisli(f, sta_eta(3)).successors == f.successors

    def test_fbox_empty_transformer(self):
        f = sta_zero(3)
        assert sta_fbox(f, fpred(3, [1])).members == {0, 1, 2}

    def test_fbox_composition_law_randomized(self):
        rng = random.Random(9)
        for _ in range(200):
            f = sta_of_rel(_rel_random(3, rng))
            g = sta_of_rel(_rel_random(3, rng))
            p = fpred(3, [i for i in range(3) if rng.random() < 0.5])
            lhs = sta_fbox(sta_kleisli(f, g), p)
            rhs = sta_fbox(f, sta_fbox(g, p))
            assert lhs.members == rhs.members

    def test_wrong_successor_count(self):
        with pytest.raises(ValueError):
            sta(3, [{0}, {1}])


class TestIsomorphism:
    def test_roundtrip_all_16(self):
        for r in _rel_all(2):
            assert rel_of_sta(sta_of_rel(r)).pairs == r.pairs

    def test_eta_is_identity_image(self):
        assert sta_of_rel(rel_id(3)).successors == sta_eta(3).successors

    def test_operations_commute_randomized(self):
        rng = random.Random(21)
        for _ in range(100):
            r = _rel_random(4, rng)
            s = _rel_random(4, rng)
            assert sta_of_rel(rel_compose(r, s)).successors == sta_kleisli(
                sta_of_rel(r), sta_of_rel(s)
            ).successors
            assert sta_of_rel(rel_union(r, s)).successors == sta_union(
                sta_of_rel(r), sta_of_rel(s)
            ).successors
            assert sta_of_rel(rel_star(r)).successors == sta_star(sta_of_rel(r)).successors
            assert sta_of_rel(rel_antidomain(r)).successors == sta_antidomain(
                sta_of_rel(r)
            ).successors


class TestDioidInvariants:
    def test_exhaustive_n2(self):
        for r in _rel_all(2):
            for s in _rel_all(2):
                assert rel_compose(rel_id(2), r).pairs == r.pairs
                assert rel_compose(r, rel_id(2)).pairs == r.pairs
                u = rel_union(r, s)
                assert rel_leq(r, u) and rel_leq(s, u)

    def test_distributivity_randomized_n5(self):
        rng = random.Random(2)
        for _ in range(150):
            r, s, w = (_rel_random(5, rng) for _ in range(3))
            lhs = rel_compose(rel_union(r, s), w)
            rhs = rel_union(rel_compose(r, w), rel_compose(s, w))
            assert lhs.pairs == rhs.pairs
            lhs2 = rel_compose(r, rel_compose(s, w))
            rhs2 = rel_compose(rel_compose(r, s), w)
            assert lhs2.pairs == rhs2.pairs

    def test_star_axioms_randomized(self):
        rng = random.Random(3)
        for _ in range(150):
            r, s, w = (_rel_random(4, rng) for _ in range(3))
            star = rel_star(r)
            assert rel_leq(rel_union(rel_id(4), rel_compose(r, star)), star)
            if rel_leq(rel_union(w, rel_compose(r, s)), s):
                assert rel_leq(rel_compose(star, w), s)

    def test_box_equals_antidomain_formula(self):
        from hybridwlp.algebra import pred_to_rel, rel_to_pred

        for r in _rel_all(2):
            for bits in range(4):
                p = fpred(2, [i for i in range(2) if bits >> i & 1])
                direct = rel_fbox(r, p)
                via = rel_to_pred(
                    rel_antidomain(rel_compose(r, rel_antidomain(pred_to_rel(p))))
                )
                assert direct.members == via.members

    def test_domain_retracts_onto_subidentities(self):
        for r in _rel_all(2):
            d = rel_domain(r)
            assert rel_leq(d, rel_id(2))
            assert rel_domain(d).pairs == d.pairs


class TestInvariantClosure:
    def test_enumerated_n3(self):
        # meet and join of invariants are invariants, full enumeration
        rng = random.Random(4)
        count = 0
        for _ in range(400):
            r = _rel_random(3, rng)
            for pb in range(8):
                for qb in range(8):
                    p = fpred(3, [i for i in range(3) if pb >> i & 1])
                    q = fpred(3, [i for i in range(3) if qb >> i & 1])
                    if (
                        p.members <= rel_fbox(r, p).members
                        and q.members <= rel_fbox(r, q).members
                    ):
                        meet = fpred(3, p.members & q.members)
                        join = fpred(3, p.members | q.members)
                        assert meet.members <= rel_fbox(r, meet).members
                        assert join.members <= rel_fbox(r, join).members
                        count += 1
        assert count > 100


class TestLawHarness:
    def test_dioid_exhaustive_n2_passes(self):
        reports = check_laws("rel", 2, laws_in_groups(["dioid"]), mode="exhaustive")
        assert all(r.passed for r in reports)

    def test_star_induction_randomized_n3(self):
        report = check_law(
            "rel", 3, "star-induction-left", mode="random", seed=0, trials=10000
        )
        assert report.passed and report.checked == 10000

    def test_wrong_law_found_with_counterexample(self):
        report = check_law("rel", 2, "compose-comm", mode="exhaustive")
        assert not report.passed
        assert report.counterexample

    def test_unknown_law_rejected(self):
        with pytest.raises(KeyError):
            check_law("rel", 2, "no-such-law")

    def test_exhaustive_gate(self):
        with pytest.raises(ValueError):
            check_law("rel", 3, "compose-assoc", mode="exhaustive")
        with pytest.raises(ValueError):
            check_law("rel", 4, "union-idem", mode="exhaustive")

    def test_deterministic_given_seed(self):
        a = check_law("sta", 3, "box-seq", mode="random", seed=5, trials=200)
        b = check_law("sta", 3, "box-seq", mode="random", seed=5, trials=200)
        assert a.to_json() == b.to_json()

    def test_default_groups_cover_registry(self):
        names = laws_in_groups(DEFAULT_GROUPS)
        assert "compose-comm" not in names
        assert set(names) <= set(LAWS)

    def test_sta_model_mirrors_rel(self):
        for name in laws_in_groups(["antidomain", "box"]):
            assert check_law("sta", 2, name, mode="exhaustive").passed


class TestDiamondImageSemantics:
    def test_forward_diamond_is_preimage(self):
        r = rel(3, [(0, 1), (1, 2)])
        assert rel_fdia(r, fpred(3, [2])).members == {1}

    def test_backward_diamond_is_image(self):
        from hybridwlp.algebra import rel_bdia, sta_bdia

        r = rel(3, [(0, 1), (1, 2)])
        assert rel_bdia(r, fpred(3, [0, 1])).members == {1, 2}
        assert sta_bdia(sta_of_rel(r), fpred(3, [0, 1])).members == {1, 2}

    def test_backward_box(self):
        from hybridwlp.algebra import rel_bbox

        r = rel(3, [(0, 1), (2, 1)])
        # states reachable only from inside p
        assert rel_bbox(r, fpred(3, [0])).members == {0, 2}


class TestCarrierEncoding:
    def test_bit_layout(self):
        assert rel(3, [(0, 1), (2, 0)]).bits == 1 << 1 | 1 << 6
        assert sta(3, [{1}, set(), {0, 2}]).rows == (0b010, 0, 0b101)
        assert fpred(4, [0, 3]).bits == 0b1001

    def test_views_are_read_only(self):
        r = rel(2, [(0, 1)])
        with pytest.raises(AttributeError):
            r.pairs = frozenset()
        assert isinstance(r.pairs, frozenset)
        assert isinstance(sta_of_rel(r).successors, tuple)

    def test_value_equality_and_hash(self):
        assert rel(2, [(0, 1)]) == rel(2, [(0, 1)])
        assert hash(rel(2, [(0, 1)])) == hash(rel(2, [(0, 1)]))
        assert rel(2, [(0, 1)]) != rel(3, [(0, 1)])
        assert algebra.FinitePred(2, 1) != algebra.FiniteRel(2, 1)

    @pytest.mark.parametrize("build, message", [
        (lambda: rel(2, [(0, 1), (2, 0)]), r"pair \(2, 0\) outside 0..1"),
        (lambda: rel(2, [(-1, 0)]), r"pair \(-1, 0\) outside 0..1"),
        (lambda: sta(2, [{0}]), "successors must have exactly n entries"),
        (lambda: sta(2, [{0}, {2}]), "successor outside the carrier"),
        (lambda: fpred(2, [0, 5]), "members outside the carrier"),
    ])
    def test_builders_validate(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


class TestCheckLawArguments:
    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_negative_n_rejected(self, mode):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            check_law("rel", -1, "union-idem", mode=mode)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_random_mode_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match=f"trials >= 1, got {trials}"):
            check_law("sta", 2, "box-seq", mode="random", trials=trials)

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    def test_unknown_model_rejected(self, mode):
        with pytest.raises(KeyError, match="unknown model 'foo'"):
            check_law("foo", 2, "union-idem", mode=mode)

    @pytest.mark.parametrize("mode", ["exhaustive", "random"])
    @pytest.mark.parametrize("n", [2.0, "2", None])
    def test_non_integer_n_rejected(self, mode, n):
        with pytest.raises(TypeError, match=f"state count n must be an int, got {n!r}"):
            check_law("rel", n, "union-idem", mode=mode)

    def test_empty_carrier_is_checked(self):
        assert check_law("rel", 0, "box-cond").to_json() == {
            "law": "box-cond", "model": "rel", "n": 0, "mode": "exhaustive",
            "pass": True, "checked": 1,
        }


# ---------------------------------------------------------------------------
# Reference models: the frozenset implementation that the bit-mask encoding
# replaced, with its law checkers and harness.  Every public operation and
# every LawReport must equal the reference's, counterexample text included.


@dataclass(frozen=True)
class RefRel:
    n: int
    pairs: frozenset


@dataclass(frozen=True)
class RefPred:
    n: int
    members: frozenset


@dataclass(frozen=True)
class RefSta:
    n: int
    successors: tuple


def ref_rel_id(n):
    return RefRel(n, frozenset((x, x) for x in range(n)))


def ref_rel_zero(n):
    return RefRel(n, frozenset())


def ref_rel_union(r, s):
    return RefRel(r.n, r.pairs | s.pairs)


def ref_rel_compose(r, s):
    by_first = {}
    for y, z in s.pairs:
        by_first.setdefault(y, set()).add(z)
    return RefRel(r.n, frozenset((x, z) for x, y in r.pairs for z in by_first.get(y, ())))


def ref_rel_star(r):
    acc = ref_rel_id(r.n)
    while True:
        nxt = ref_rel_union(ref_rel_id(r.n), ref_rel_compose(r, acc))
        if nxt.pairs == acc.pairs:
            return acc
        acc = nxt


def ref_rel_converse(r):
    return RefRel(r.n, frozenset((y, x) for x, y in r.pairs))


def ref_rel_antidomain(r):
    has_succ = {x for x, _ in r.pairs}
    return RefRel(r.n, frozenset((x, x) for x in range(r.n) if x not in has_succ))


def ref_rel_leq(r, s):
    return r.pairs <= s.pairs


def ref_pred_complement(p):
    return RefPred(p.n, frozenset(range(p.n)) - p.members)


def ref_pred_to_rel(p):
    return RefRel(p.n, frozenset((x, x) for x in p.members))


def ref_rel_to_pred(r):
    if any(x != y for x, y in r.pairs):
        raise ValueError("relation is not a subidentity")
    return RefPred(r.n, frozenset(x for x, _ in r.pairs))


def ref_rel_fbox(r, p):
    succs = {}
    for x, y in r.pairs:
        succs.setdefault(x, set()).add(y)
    return RefPred(r.n, frozenset(x for x in range(r.n) if succs.get(x, set()) <= p.members))


def ref_rel_fdia(r, p):
    return RefPred(r.n, frozenset(x for x, y in r.pairs if y in p.members))


def ref_rel_bdia(r, p):
    return ref_rel_fdia(ref_rel_converse(r), p)


def ref_rel_bbox(r, p):
    return ref_rel_fbox(ref_rel_converse(r), p)


def ref_sta(n, successors):
    return RefSta(n, tuple(frozenset(s) for s in successors))


def ref_sta_eta(n):
    return ref_sta(n, ([x] for x in range(n)))


def ref_sta_zero(n):
    return ref_sta(n, ([] for _ in range(n)))


def ref_sta_union(f, g):
    return ref_sta(f.n, (f.successors[x] | g.successors[x] for x in range(f.n)))


def ref_sta_kleisli(f, g):
    return ref_sta(f.n, (frozenset().union(*(g.successors[y] for y in f.successors[x]))
                         for x in range(f.n)))


def ref_sta_star(f):
    out = []
    for x in range(f.n):
        seen = frontier = {x}
        while frontier:
            nxt = set().union(*(f.successors[y] for y in frontier))
            frontier = nxt - seen
            seen = seen | frontier
        out.append(seen)
    return ref_sta(f.n, out)


def ref_sta_antidomain(f):
    return ref_sta(f.n, ([x] if not f.successors[x] else [] for x in range(f.n)))


def ref_sta_op(f):
    return ref_sta_of_rel(ref_rel_converse(ref_rel_of_sta(f)))


def ref_sta_leq(f, g):
    return all(f.successors[x] <= g.successors[x] for x in range(f.n))


def ref_sta_fbox(f, p):
    return RefPred(f.n, frozenset(x for x in range(f.n) if f.successors[x] <= p.members))


def ref_sta_fdia(f, p):
    return RefPred(f.n, frozenset(x for x in range(f.n) if f.successors[x] & p.members))


def ref_sta_bdia(f, p):
    return RefPred(f.n, frozenset().union(*(f.successors[x] for x in p.members)))


def ref_sta_bbox(f, p):
    return ref_sta_fbox(ref_sta_op(f), p)


def ref_pred_to_sta(p):
    return ref_sta(p.n, ([x] if x in p.members else [] for x in range(p.n)))


def ref_sta_to_pred(f):
    members = set()
    for x in range(f.n):
        if f.successors[x] == frozenset([x]):
            members.add(x)
        elif f.successors[x]:
            raise ValueError("transformer is not a subidentity")
    return RefPred(f.n, frozenset(members))


def ref_sta_of_rel(r):
    succs = [set() for _ in range(r.n)]
    for x, y in r.pairs:
        succs[x].add(y)
    return ref_sta(r.n, succs)


def ref_rel_of_sta(f):
    return RefRel(f.n, frozenset((x, y) for x in range(f.n) for y in f.successors[x]))


def ref_rel_random(n, rng):
    density = rng.choice((0.15, 0.3, 0.5, 0.75))
    return RefRel(n, frozenset(
        (x, y) for x in range(n) for y in range(n) if rng.random() < density))


def ref_rel_all(n):
    cells = [(x, y) for x in range(n) for y in range(n)]
    for bits in itertools.product((False, True), repeat=len(cells)):
        yield RefRel(n, frozenset(c for c, b in zip(cells, bits) if b))


def ref_all_preds(n):
    for bits in itertools.product((False, True), repeat=n):
        yield RefPred(n, frozenset(x for x, b in enumerate(bits) if b))


def ref_random_pred(n, rng):
    return RefPred(n, frozenset(x for x in range(n) if rng.random() < 0.5))


REF_MODELS = {
    "rel": SimpleNamespace(
        zero=ref_rel_zero, unit=ref_rel_id, union=ref_rel_union, compose=ref_rel_compose,
        star=ref_rel_star, antidomain=ref_rel_antidomain, fbox=ref_rel_fbox,
        fdia=ref_rel_fdia, bbox=ref_rel_bbox, bdia=ref_rel_bdia, leq=ref_rel_leq,
        eq=lambda a, b: a.pairs == b.pairs, from_pred=ref_pred_to_rel,
        to_pred=ref_rel_to_pred, all_elements=ref_rel_all, random_element=ref_rel_random),
    "sta": SimpleNamespace(
        zero=ref_sta_zero, unit=ref_sta_eta, union=ref_sta_union, compose=ref_sta_kleisli,
        star=ref_sta_star, antidomain=ref_sta_antidomain, fbox=ref_sta_fbox,
        fdia=ref_sta_fdia, bbox=ref_sta_bbox, bdia=ref_sta_bdia, leq=ref_sta_leq,
        eq=lambda a, b: a.successors == b.successors, from_pred=ref_pred_to_sta,
        to_pred=ref_sta_to_pred, all_elements=lambda n: map(ref_sta_of_rel, ref_rel_all(n)),
        random_element=lambda n, rng: ref_sta_of_rel(ref_rel_random(n, rng))),
}


def _ref_as_rels(*xs):
    return tuple(x if isinstance(x, RefRel) else ref_rel_of_sta(x) for x in xs)


def _ref_box_cond(m, a, b, p, q):
    tp, tn = m.from_pred(p), m.from_pred(ref_pred_complement(p))
    lhs = m.fbox(m.union(m.compose(tp, a), m.compose(tn, b)), q)
    rhs = (p.members & m.fbox(a, q).members) | (
        ref_pred_complement(p).members & m.fbox(b, q).members)
    return lhs.members == rhs


def _ref_invariant_meet_join(m, a, p, q):
    if p.members <= m.fbox(a, p).members and q.members <= m.fbox(a, q).members:
        meet = RefPred(p.n, p.members & q.members)
        join = RefPred(p.n, p.members | q.members)
        return (meet.members <= m.fbox(a, meet).members
                and join.members <= m.fbox(a, join).members)
    return True


def _ref_iso(rel_side, sta_side, view):
    def check(m, *xs):
        rels = _ref_as_rels(*[x for x in xs if not isinstance(x, RefPred)])
        preds = [x for x in xs if isinstance(x, RefPred)]
        got = rel_side(*rels, *preds)
        want = sta_side(*map(ref_sta_of_rel, rels), *preds)
        if isinstance(got, RefRel):
            got = ref_sta_of_rel(got)
        return view(got) == view(want)
    return check


def _ref_roundtrip(m, a):
    if isinstance(a, RefRel):
        return ref_rel_of_sta(ref_sta_of_rel(a)).pairs == a.pairs
    return ref_sta_of_rel(ref_rel_of_sta(a)).successors == a.successors


def _ref_star_induction(left):
    def check(m, a, b, c):
        step = m.compose(a, b) if left else m.compose(b, a)
        if m.leq(m.union(c, step), b):
            return m.leq(m.compose(m.star(a), c) if left else m.compose(c, m.star(a)), b)
        return True
    return check


def _ref_domain_retraction(m, a):
    d = lambda x: m.antidomain(m.antidomain(x))  # noqa: E731
    if not m.eq(d(d(a)), d(a)):
        return False
    p = d(a)
    return m.eq(d(p), p)


_succ = operator.attrgetter("successors")
_mem = operator.attrgetter("members")

REF_LAWS = {
    "union-assoc": lambda m, a, b, c: m.eq(m.union(m.union(a, b), c), m.union(a, m.union(b, c))),
    "union-comm": lambda m, a, b: m.eq(m.union(a, b), m.union(b, a)),
    "union-idem": lambda m, a: m.eq(m.union(a, a), a),
    "union-zero": lambda m, a: m.eq(m.union(a, m.zero(a.n)), a),
    "compose-assoc": lambda m, a, b, c: m.eq(m.compose(m.compose(a, b), c),
                                             m.compose(a, m.compose(b, c))),
    "compose-unit-left": lambda m, a: m.eq(m.compose(m.unit(a.n), a), a),
    "compose-unit-right": lambda m, a: m.eq(m.compose(a, m.unit(a.n)), a),
    "compose-zero-left": lambda m, a: m.eq(m.compose(m.zero(a.n), a), m.zero(a.n)),
    "compose-zero-right": lambda m, a: m.eq(m.compose(a, m.zero(a.n)), m.zero(a.n)),
    "distrib-left": lambda m, a, b, c: m.eq(m.compose(a, m.union(b, c)),
                                            m.union(m.compose(a, b), m.compose(a, c))),
    "distrib-right": lambda m, a, b, c: m.eq(m.compose(m.union(a, b), c),
                                             m.union(m.compose(a, c), m.compose(b, c))),
    "star-unfold-left": lambda m, a: m.leq(m.union(m.unit(a.n), m.compose(a, m.star(a))),
                                           m.star(a)),
    "star-unfold-right": lambda m, a: m.leq(m.union(m.unit(a.n), m.compose(m.star(a), a)),
                                            m.star(a)),
    "star-induction-left": _ref_star_induction(True),
    "star-induction-right": _ref_star_induction(False),
    "ad-compose-zero": lambda m, a: m.eq(m.compose(m.antidomain(a), a), m.zero(a.n)),
    "ad-complement": lambda m, a: m.eq(m.union(m.antidomain(a), m.antidomain(m.antidomain(a))),
                                       m.unit(a.n)),
    "ad-local": lambda m, a, b: m.leq(
        m.antidomain(m.compose(a, b)),
        m.antidomain(m.compose(a, m.antidomain(m.antidomain(b))))),
    "ad-subid": lambda m, a: m.leq(m.antidomain(a), m.unit(a.n)),
    "domain-retraction": _ref_domain_retraction,
    "box-def-agree": lambda m, a, p: m.fbox(a, p).members == m.to_pred(
        m.antidomain(m.compose(a, m.antidomain(m.from_pred(p))))).members,
    "box-demorgan": lambda m, a, p: m.fdia(a, p).members == ref_pred_complement(
        m.fbox(a, ref_pred_complement(p))).members,
    "box-seq": lambda m, a, b, p: m.fbox(m.compose(a, b), p).members
    == m.fbox(a, m.fbox(b, p)).members,
    "box-cond": _ref_box_cond,
    "box-star-induction": lambda m, a, p: (
        not p.members <= m.fbox(a, p).members or p.members <= m.fbox(m.star(a), p).members),
    "dia-box-adjunction": lambda m, a, p, q: (
        (m.fdia(a, p).members <= q.members) == (p.members <= m.bbox(a, q).members)),
    "bdia-fbox-adjunction": lambda m, a, p, q: (
        (m.bdia(a, p).members <= q.members) == (p.members <= m.fbox(a, q).members)),
    "invariant-meet-join": _ref_invariant_meet_join,
    "iso-roundtrip": _ref_roundtrip,
    "iso-union": _ref_iso(ref_rel_union, ref_sta_union, _succ),
    "iso-compose": _ref_iso(ref_rel_compose, ref_sta_kleisli, _succ),
    "iso-star": _ref_iso(ref_rel_star, ref_sta_star, _succ),
    "iso-antidomain": _ref_iso(ref_rel_antidomain, ref_sta_antidomain, _succ),
    "iso-box": _ref_iso(ref_rel_fbox, ref_sta_fbox, _mem),
    "compose-comm": lambda m, a, b: m.eq(m.compose(a, b), m.compose(b, a)),
}


def ref_describe(operand):
    if isinstance(operand, RefRel):
        return f"rel{sorted(operand.pairs)}"
    if isinstance(operand, RefSta):
        return f"sta{[sorted(s) for s in operand.successors]}"
    return f"pred{sorted(operand.members)}"


def _admitted(law, n):
    """Whether the exhaustive gate admits law at n."""
    size = 1
    for ch in LAWS[law].signature:
        size *= (1 << (n * n)) if ch == "a" else (1 << n)
    return n <= EXHAUSTIVE_MAX_N and size <= EXHAUSTIVE_MAX_COMBINATIONS


def ref_check_law(model_name, n, law_name, mode="exhaustive", seed=0, trials=1000):
    signature, check = LAWS[law_name].signature, REF_LAWS[law_name]
    model = REF_MODELS[model_name]
    if mode == "exhaustive":
        assert _admitted(law_name, n)
        pools = [list(model.all_elements(n)) if ch == "a" else list(ref_all_preds(n))
                 for ch in signature]
        cases = itertools.product(*pools)
    else:
        rng = random.Random(seed)
        cases = ([model.random_element(n, rng) if ch == "a" else ref_random_pred(n, rng)
                  for ch in signature] for _ in range(trials))
    checked = 0
    for operands in cases:
        checked += 1
        if not check(model, *operands):
            return LawReport(law_name, model_name, n, mode, False, checked,
                             "; ".join(ref_describe(o) for o in operands))
    return LawReport(law_name, model_name, n, mode, True, checked)


def test_reference_covers_every_law():
    assert set(REF_LAWS) == set(LAWS)


# One public operation: (operand signature, operation, reference, view of
# the result).  'r' = relation, 's' = transformer, 'p' = predicate;
# sub-identity operands ('d' relation, 't' transformer) feed the readbacks.
_pairs = operator.attrgetter("pairs")
OPS = [
    ("", algebra.rel_id, ref_rel_id, _pairs),
    ("", algebra.rel_zero, ref_rel_zero, _pairs),
    ("rr", algebra.rel_union, ref_rel_union, _pairs),
    ("rr", algebra.rel_compose, ref_rel_compose, _pairs),
    ("r", algebra.rel_star, ref_rel_star, _pairs),
    ("r", algebra.rel_antidomain, ref_rel_antidomain, _pairs),
    ("r", algebra.rel_antirange,
     lambda r: ref_rel_antidomain(ref_rel_converse(r)), _pairs),
    ("r", algebra.rel_domain, lambda r: ref_rel_antidomain(ref_rel_antidomain(r)), _pairs),
    ("r", algebra.rel_converse, ref_rel_converse, _pairs),
    ("rr", algebra.rel_leq, ref_rel_leq, bool),
    ("rp", algebra.rel_fbox, ref_rel_fbox, _mem),
    ("rp", algebra.rel_fdia, ref_rel_fdia, _mem),
    ("rp", algebra.rel_bbox, ref_rel_bbox, _mem),
    ("rp", algebra.rel_bdia, ref_rel_bdia, _mem),
    ("p", algebra.pred_complement, ref_pred_complement, _mem),
    ("p", algebra.pred_to_rel, ref_pred_to_rel, _pairs),
    ("d", algebra.rel_to_pred, ref_rel_to_pred, _mem),
    ("", algebra.sta_eta, ref_sta_eta, _succ),
    ("", algebra.sta_zero, ref_sta_zero, _succ),
    ("ss", algebra.sta_union, ref_sta_union, _succ),
    ("ss", algebra.sta_kleisli, ref_sta_kleisli, _succ),
    ("s", algebra.sta_star, ref_sta_star, _succ),
    ("s", algebra.sta_antidomain, ref_sta_antidomain, _succ),
    ("s", algebra.sta_op, ref_sta_op, _succ),
    ("ss", algebra.sta_leq, ref_sta_leq, bool),
    ("sp", algebra.sta_fbox, ref_sta_fbox, _mem),
    ("sp", algebra.sta_fdia, ref_sta_fdia, _mem),
    ("sp", algebra.sta_bbox, ref_sta_bbox, _mem),
    ("sp", algebra.sta_bdia, ref_sta_bdia, _mem),
    ("p", algebra.pred_to_sta, ref_pred_to_sta, _succ),
    ("t", algebra.sta_to_pred, ref_sta_to_pred, _mem),
    ("r", algebra.sta_of_rel, ref_sta_of_rel, _succ),
    ("s", algebra.rel_of_sta, ref_rel_of_sta, _pairs),
]


def _operand_pair(ch, n, rng):
    """A random operand of kind ch, built once through the public builder
    and once as its reference."""
    if ch == "p":
        members = [x for x in range(n) if rng.random() < 0.5]
        return fpred(n, members), RefPred(n, frozenset(members))
    if ch in "dt":
        cells = [(x, x) for x in range(n) if rng.random() < 0.5]
    else:
        density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        cells = [(x, y) for x in range(n) for y in range(n) if rng.random() < density]
    r, ref = rel(n, cells), RefRel(n, frozenset(cells))
    if ch in "st":
        succs = [{y for x2, y in cells if x2 == x} for x in range(n)]
        return sta(n, succs), ref_sta(n, succs)
    return r, ref


@pytest.mark.parametrize("signature, op, ref_op, view", OPS, ids=[o[1].__name__ for o in OPS])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operation_matches_reference(signature, op, ref_op, view, n):
    name = op.__name__
    rng = random.Random(f"{name}-{n}")
    for _ in range(60):
        pairs = [_operand_pair(ch, n, rng) for ch in signature]
        operands = [p for p, _ in pairs] or [n]
        refs = [q for _, q in pairs] or [n]
        assert view(op(*operands)) == view(ref_op(*refs)), (name, [ref_describe(q) for q in refs])


def test_readbacks_reject_what_the_reference_rejects():
    off_diagonal = [(0, 1)]
    with pytest.raises(ValueError, match="not a subidentity"):
        algebra.rel_to_pred(rel(2, off_diagonal))
    with pytest.raises(ValueError, match="not a subidentity"):
        ref_rel_to_pred(RefRel(2, frozenset(off_diagonal)))
    with pytest.raises(ValueError, match="not a subidentity"):
        algebra.sta_to_pred(sta(2, [{0, 1}, set()]))


EXHAUSTIVE_CASES = [(law, n) for n in range(EXHAUSTIVE_MAX_N + 1) for law in sorted(LAWS)
                    if _admitted(law, n)]


@pytest.mark.parametrize("model", ["rel", "sta"])
@pytest.mark.parametrize("law, n", EXHAUSTIVE_CASES)
def test_exhaustive_report_matches_reference(model, law, n):
    assert check_law(model, n, law) == ref_check_law(model, n, law)


# The operations that an exhaustive check reads from its tables.
TABLED = ("zero", "unit", "union", "compose", "star", "antidomain",
          "fbox", "fdia", "bbox", "bdia", "from_pred")


def test_each_operation_runs_once_per_operand_tuple(monkeypatch):
    """Every model operation an exhaustive check tables runs at most once
    per (model, operation, operand tuple) in a process, across laws, n and
    repeated batches, which report the same."""
    calls = collections.Counter()

    def counted(model_name, op_name, op):
        def run(*args):
            calls[model_name, op_name, args] += 1
            return op(*args)
        return run

    for name, model in algebra.MODELS.items():
        monkeypatch.setitem(algebra.MODELS, name, replace(
            model, **{op: counted(name, op, getattr(model, op)) for op in TABLED}))
    algebra._tabled_model.cache_clear()
    cases = [(model, n, law) for model in ("rel", "sta") for law, n in EXHAUSTIVE_CASES
             if n < 3 or LAWS[law].signature in ("a", "ap")]
    try:
        first = [check_law(*case) for case in cases]
        assert [check_law(*case) for case in cases] == first
    finally:
        algebra._tabled_model.cache_clear()
    assert {op for _, op, _ in calls} == set(TABLED)
    assert max(calls.values()) == 1
    # random mode reads no table: a law's operations run on every draw
    calls.clear()
    check_law("rel", 2, "union-idem", mode="random", trials=50)
    assert sum(calls.values()) == 50


@pytest.mark.parametrize("model, n", [("rel", 3), ("sta", 4)])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_random_reports_match_reference(model, n, law):
    for seed in (0, 1, 7):
        got = check_law(model, n, law, mode="random", seed=seed, trials=60)
        assert got == ref_check_law(model, n, law, mode="random", seed=seed, trials=60)
