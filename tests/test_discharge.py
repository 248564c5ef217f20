import itertools
import random

import pytest

from hybridwlp.expr import (
    And,
    Cmp,
    Cos,
    Exp,
    Or,
    Not,
    Sin,
    SymConst,
    TimeVar,
    Var,
    const,
    eval_pred,
)
from hybridwlp.discharge import (
    DischargeBudget,
    Lemma,
    LemmaDB,
    canonical_cmp,
    discharge,
    fm_implication,
    fourier_motzkin,
    linearize,
    square_nonneg,
    square_rule,
    validate_lemma,
)
from hybridwlp.polynorm import normalize
from hybridwlp.vcgen import Obligation

x, y, z, v = Var("x"), Var("y"), Var("z"), Var("v")
t = TimeVar()
g, h, r = SymConst("g"), SymConst("h"), SymConst("r")


def arith(hyps, concl, forall=("x", "y", "z", "v")):
    return Obligation(
        id="ob", forall=tuple(forall), hyps=tuple(hyps), concl=concl,
        provenance="test",
    )


class TestFourierMotzkin:
    def test_infeasible_hypotheses(self):
        atoms = linearize(Cmp(">=", x, const(0))) + linearize(Cmp("<=", x, const(-1)))
        assert fourier_motzkin(atoms, ["x"]).kind == "infeasible"

    def test_feasible_with_witness(self):
        atoms = linearize(Cmp(">=", x, const(0))) + linearize(Cmp("<=", x, const(5)))
        res = fourier_motzkin(atoms, ["x"])
        assert res.kind == "feasible"
        assert 0 <= res.witness["x"] <= 5

    def test_transitivity_valid(self):
        status, _ = fm_implication(
            [Cmp("<=", x, y), Cmp("<=", y, z)], Cmp("<=", x, z)
        )
        assert status == "valid"

    def test_halving_valid(self):
        status, _ = fm_implication(
            [Cmp("<=", x + y, const(2)), Cmp("<=", x - y, const(0))],
            Cmp("<=", x, const(1)),
        )
        assert status == "valid"

    def test_invalid_produces_checked_witness(self):
        status, wit = fm_implication([Cmp(">=", x, const(0))], Cmp(">=", x, const(1)))
        assert status == "invalid"
        assert wit["x"] >= 0 and wit["x"] < 1

    def test_strict_boundary(self):
        status, _ = fm_implication([Cmp(">", x, const(0))], Cmp(">=", x, const(0)))
        assert status == "valid"
        status2, wit = fm_implication([Cmp(">=", x, const(0))], Cmp(">", x, const(0)))
        assert status2 == "invalid" and wit["x"] == 0

    def test_equality_conclusion(self):
        status, _ = fm_implication(
            [Cmp("<=", x, y), Cmp("<=", y, x)], Cmp("=", x, y)
        )
        assert status == "valid"

    def test_nonlinear_reports(self):
        status, _ = fm_implication([Cmp(">=", x * x, const(0))], Cmp(">=", x, const(0)))
        assert status == "non-linear"

    def test_too_large_gate(self):
        names = [Var(f"a{i}") for i in range(8)]
        hyps = [Cmp("<=", names[i], names[i + 1]) for i in range(7)]
        status, _ = fm_implication(hyps, Cmp("<=", names[0], names[7]))
        assert status == "too-large"

    def test_agrees_with_grid_search(self):
        # dual-route check: real-valued FM vs exhaustive integer grid
        rng = random.Random(77)
        names = ["x", "y"]
        for _ in range(120):
            def lin():
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                c = rng.randint(-3, 3)
                op = rng.choice(["<=", ">="])
                return Cmp(op, const(a) * x + const(b) * y, const(c))

            hyps = [lin() for _ in range(rng.randint(1, 3))]
            concl = lin()
            status, wit = fm_implication(hyps, concl)
            grid_cex = None
            for xv, yv in itertools.product(range(-3, 4), repeat=2):
                valuation = {"x": float(xv), "y": float(yv)}
                if all(eval_pred(p, valuation) for p in hyps) and not eval_pred(
                    concl, valuation
                ):
                    grid_cex = valuation
                    break
            if grid_cex is not None:
                assert status == "invalid"
            if status == "valid":
                assert grid_cex is None
            if status == "invalid":
                assert all(eval_pred(p, wit) for p in hyps)
                assert not eval_pred(concl, wit)


class TestSquareRule:
    def test_plain_square(self):
        assert square_nonneg(normalize(x * x + const(2) * y ** 4).poly)
        assert not square_nonneg(normalize(x * x - y ** 2).poly)
        assert not square_nonneg(normalize(x * y).poly)

    def test_energy_height_bound(self):
        hyps = [
            Cmp(">", const(0), g),
            Cmp("=", const(2) * g * x - const(2) * g * h, v * v),
        ]
        assert square_rule(Cmp("<=", x, h), hyps)

    def test_needs_strict_sign(self):
        hyps = [
            Cmp(">=", const(0), g),  # nonstrict sign is not enough
            Cmp("=", const(2) * g * x - const(2) * g * h, v * v),
        ]
        assert not square_rule(Cmp("<=", x, h), hyps)


class TestDischarge:
    def test_energy_bound_proved(self):
        ob = arith(
            [Cmp(">", const(0), g), Cmp("=", const(2) * g * x - const(2) * g * h, v * v)],
            Cmp("<=", x, h),
            forall=("x", "v"),
        )
        vd = discharge(ob)
        assert vd.proved and "square-rule" in vd.method

    def test_rotation_identity_proved(self):
        concl = Cmp(
            "=",
            (x * Cos(Var("tt")) + y * Sin(Var("tt"))) ** 2
            + (y * Cos(Var("tt")) - x * Sin(Var("tt"))) ** 2,
            r * r,
        )
        ob = arith([Cmp("=", x * x + y * y, r * r)], concl, forall=("x", "y", "tt"))
        vd = discharge(ob)
        assert vd.proved

    def test_refuted_with_witness(self):
        ob = arith([Cmp(">=", x, const(0))], Cmp(">=", x, const(1)), forall=("x",))
        vd = discharge(ob)
        assert vd.kind == "refuted"
        assert vd.witness["x"] >= 0 and vd.witness["x"] < 1

    def test_witness_respects_equality_hypotheses(self):
        ob = arith(
            [Cmp("=", x * x + y * y, r * r)],
            Cmp("=", x * x + y * y, r * r + 1),
            forall=("x", "y"),
        )
        vd = discharge(ob)
        assert vd.kind == "refuted"
        wit = vd.witness
        lhs = wit["x"] ** 2 + wit["y"] ** 2
        assert abs(lhs - wit["r"] ** 2) <= 1e-6 * (1 + abs(lhs))

    def test_unknown_is_a_valid_outcome(self):
        # outside every method: nonlinear, not refutable (it is true)
        quartic = x * x * x * x + const(1)
        ob = arith([], Cmp(">=", quartic, const(0)), forall=("x",))
        vd = discharge(ob)
        assert vd.kind in ("proved", "unknown")

    def test_implication_chain_through_branches(self):
        concl = And(
            Or(Not(Cmp("=", x, const(0))), Cmp("=", y, const(1))),
            Or(Cmp("=", x, const(0)), Cmp("=", y, y)),
        )
        ob = arith([Cmp("=", y, const(1))], concl, forall=("x", "y"))
        assert discharge(ob).proved

    def test_vacuous_on_contradictory_hypotheses(self):
        ob = arith(
            [Cmp("<", x, const(0)), Cmp(">", x, const(1))],
            Cmp("=", y, const(5)),
            forall=("x", "y"),
        )
        vd = discharge(ob)
        assert vd.proved

    def test_deterministic(self):
        ob = arith([Cmp(">=", x, const(0))], Cmp(">=", x, const(1)), forall=("x",))
        a = discharge(ob, budget=DischargeBudget(seed=9))
        b = discharge(ob, budget=DischargeBudget(seed=9))
        assert a == b

    def test_never_proves_an_obligation_and_its_negation(self):
        from hybridwlp.expr import negate_cmp

        regression = [
            arith([Cmp(">=", x, const(0))], Cmp(">=", x + const(1), const(1)), forall=("x",)),
            arith([Cmp("=", x, y)], Cmp("=", x * x, y * y), forall=("x", "y")),
            arith(
                [Cmp(">", const(0), g), Cmp("=", const(2) * g * x - const(2) * g * h, v * v)],
                Cmp("<=", x, h),
                forall=("x", "v"),
            ),
            arith([], Cmp(">=", x * x, const(0)), forall=("x",)),
        ]
        for ob in regression:
            vd = discharge(ob)
            neg = Obligation(
                id="neg", forall=ob.forall, hyps=ob.hyps,
                concl=negate_cmp(ob.concl), provenance="neg",
            )
            vd_neg = discharge(neg)
            assert not (vd.proved and vd_neg.proved)

    def test_rejects_non_arith(self):
        ob = Obligation(
            id="o", forall=(), hyps=(), concl=Cmp("=", x, x),
            provenance="p", kind="flow_cert",
        )
        with pytest.raises(ValueError):
            discharge(ob)

    def test_lemma_route(self):
        lemma = validate_lemma(
            Lemma(
                "bound",
                (Cmp(">", const(0), g), Cmp("=", const(2) * g * x - const(2) * g * h, v * v)),
                Cmp("<=", x, h),
            ),
            trials=300,
            seed=1,
        )
        assert lemma.status == "accepted"
        db = LemmaDB([lemma])
        # a matching sequent with extra hypotheses still matches
        ob = arith(
            [
                Cmp(">", const(0), g),
                Cmp("=", const(2) * g * x - const(2) * g * h, v * v),
                Cmp(">=", h, const(0)),
            ],
            Cmp("<=", x, h),
            forall=("x", "v"),
        )
        vd = discharge(ob, db)
        assert vd.proved


class TestValidateLemma:
    def test_trivially_true(self):
        assert validate_lemma(Lemma("z", (), Cmp("=", const(0), const(0))), 10).status == "accepted"

    def test_square_accepted_many_trials(self):
        lem = validate_lemma(Lemma("sq", (), Cmp(">=", x * x, const(0))), trials=10000)
        assert lem.status == "accepted"
        assert lem.trials == 10000

    def test_cube_rejected_with_witness(self):
        lem = validate_lemma(Lemma("cube", (), Cmp(">=", x ** 3, const(0))), trials=500)
        assert lem.status == "rejected"
        assert lem.witness["x"] < 0

    def test_unsatisfiable_hypotheses_inconclusive(self):
        lem = validate_lemma(
            Lemma("void", (Cmp("<", x, const(0)), Cmp(">", x, const(1))), Cmp("=", x, x)),
            trials=50,
        )
        assert lem.status == "inconclusive"

    def test_unaccepted_lemmas_not_usable(self):
        db = LemmaDB()
        db.add(Lemma("raw", (), Cmp("=", const(0), const(0))))
        assert db.usable() == []

    def test_unevaluable_conclusion_is_not_accepted(self):
        # exp(exp(exp(x) + 10)) overflows at every sample, and exp is
        # positive anyway: no trial may count in the lemma's favour
        concl = Cmp("<=", Exp(Exp(Exp(x) + 10)), const(0))
        lem = validate_lemma(Lemma("bad", (Cmp(">=", x, const(0)),), concl), trials=200)
        assert (lem.status, lem.trials) == ("inconclusive", 0)
        db = LemmaDB([lem])
        vd = discharge(arith([Cmp(">=", x, const(0))], concl, forall=("x",)), db)
        assert vd.kind == "unknown"

    def test_non_arithmetic_error_propagates(self, monkeypatch):
        import hybridwlp.discharge as dmod

        def broken(*args, **kwargs):
            raise TypeError("not an evaluation failure")

        monkeypatch.setattr(dmod, "eval_pred", broken)
        with pytest.raises(TypeError):
            validate_lemma(Lemma("sq", (), Cmp(">=", x * x, const(0))), trials=5)


def test_package_attribute_is_the_submodule():
    import types

    import hybridwlp
    import hybridwlp.discharge as m

    assert isinstance(m, types.ModuleType) and hybridwlp.discharge is m
    assert m.discharge is discharge


class TestCanonicalCmp:
    def test_orientation(self):
        assert canonical_cmp(Cmp("<=", x, h)) == canonical_cmp(Cmp(">=", h, x))
        assert canonical_cmp(Cmp("=", x, h)) == canonical_cmp(Cmp("=", h, x))

    def test_distinct_relations_do_not_collide(self):
        assert canonical_cmp(Cmp("<", x, h)) != canonical_cmp(Cmp("<=", x, h))


class TestProvedSoundness:
    def test_poly_identity_verdicts_hold_numerically(self):
        # re-evaluate proved identities at valuations satisfying the
        # hypotheses: no violations allowed
        from hybridwlp.sampling import sample_valuation

        rng = random.Random(99)
        proved = [
            arith(
                [Cmp("=", x * x + y * y, r * r)],
                Cmp(
                    "=",
                    (x * Cos(Var("tt")) + y * Sin(Var("tt"))) ** 2
                    + (y * Cos(Var("tt")) - x * Sin(Var("tt"))) ** 2,
                    r * r,
                ),
                forall=("x", "y", "tt"),
            ),
            arith(
                [Cmp("=", const(2) * g * x - const(2) * g * h, v * v)],
                Cmp(
                    "=",
                    const(2) * g * (x + v) - const(2) * g * h,
                    v * v + const(2) * g * v,
                ),
                forall=("x", "v"),
            ),
        ]
        for ob in proved:
            assert discharge(ob).proved
            names = sorted(set(ob.forall) | {"g", "h", "r", "tt"})
            checked = 0
            while checked < 1000:
                valuation = sample_valuation(names, ob.hyps, rng, attempts=20)
                if valuation is None:
                    continue
                checked += 1
                assert all(eval_pred(hh, valuation, eq_tol=1e-7) for hh in ob.hyps)
                assert eval_pred(ob.concl, valuation, eq_tol=1e-6)
