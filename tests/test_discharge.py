import importlib.util
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hybridwlp.expr import (
    And,
    Cmp,
    Cos,
    Exp,
    FALSE,
    Or,
    Not,
    Sin,
    SymConst,
    TimeQuant,
    TimeVar,
    TRUE,
    Var,
    const,
    eval_pred,
    flatten_conj,
    free_names,
    pred_and,
    substitute_pred,
)
from hybridwlp.discharge import (
    DischargeBudget,
    Lemma,
    canonical_cmp,
    discharge,
    establish_lemma,
    LinIneq,
    fm_implication,
    linearize,
    simplex,
    square_rule,
    validate_lemma,
)
import hybridwlp.discharge as dmod
from hybridwlp.cli import run_verify
from hybridwlp.hprog import NONNEG, Assign, IfThenElse, Seq
from hybridwlp.hwl import parse_spec
from hybridwlp.polynorm import atom_form, mono_key, normalize
from hybridwlp.vcgen import Obligation, VerifySpec, verify
from test_hwl_reference import rand_expr, rand_pred
from treepasses import outcome as call_outcome, ref_split_goals

x, y, z, v = Var("x"), Var("y"), Var("z"), Var("v")
t = TimeVar()
g, h, r = SymConst("g"), SymConst("h"), SymConst("r")


def arith(hyps, concl, forall=("x", "y", "z", "v")):
    return Obligation(
        id="ob", forall=tuple(forall), hyps=tuple(hyps), concl=concl,
        provenance="test",
    )


# Reference: the Fourier-Motzkin elimination the simplex replaced, kept to
# cross-check its feasibility answers on small systems.


def reference_fourier_motzkin(atoms, eliminate):
    """A model of the LinIneq rows found by eliminating the given names one
    at a time, or None when they are infeasible."""
    system = list(dict.fromkeys(atoms))
    order = sorted(eliminate, key=lambda n: sum(1 for a in system if a.coeff_of(n) != 0))
    bound_stack = []
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
            coeffs = {}
            for n, c in lo.coeffs:
                if n != name:
                    coeffs[n] = coeffs.get(n, Fraction(0)) + c * (-cu)
            for n, c in up.coeffs:
                if n != name:
                    coeffs[n] = coeffs.get(n, Fraction(0)) + c * cl
            new.append(LinIneq(tuple(sorted((n, c) for n, c in coeffs.items() if c != 0)),
                               lo.const * (-cu) + up.const * cl, lo.strict or up.strict))
        system = list(dict.fromkeys(new))
    residual_names = set().union(*(a.names() for a in system))
    if residual_names:
        # ground the remaining names at zero; if that fails, eliminate them too
        if all(_holds_at(a, {}) for a in system):
            witness = {n: Fraction(0) for n in residual_names}
        else:
            witness = reference_fourier_motzkin(system, sorted(residual_names))
            if witness is None:
                return None
    elif not all(_holds_at(a, {}) for a in system):
        return None
    else:
        witness = {}
    # back-substitute a witness through the elimination stack
    for name, lowers, uppers in reversed(bound_stack):
        value = _pick_between([(_bound_value(a, name, witness), a.strict) for a in lowers],
                              [(_bound_value(a, name, witness), a.strict) for a in uppers])
        if value is None:
            return None
        witness = {**witness, name: value}
    return witness


def _holds_at(a, witness):
    total = a.const + sum(c * witness.get(n, Fraction(0)) for n, c in a.coeffs)
    return total > 0 if a.strict else total >= 0


def _bound_value(a, name, witness):
    rest = a.const + sum(k * witness.get(n, Fraction(0)) for n, k in a.coeffs if n != name)
    return -rest / a.coeff_of(name)


def _pick_between(lo_vals, up_vals):
    lo = max(lo_vals, key=lambda p: p[0], default=None)
    up = min(up_vals, key=lambda p: p[0], default=None)
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return up[0] - 1
    if up is None:
        return lo[0] + 1
    if lo[0] > up[0] or (lo[0] == up[0] and (lo[1] or up[1])):
        return None
    return (lo[0] + up[0]) / 2


def random_rows(rng, names):
    """Up to eight strict or non-strict rows over `names`, with small
    integer coefficients; some rows come with their negation, so the
    system holds equations and degenerate vertices."""
    rows = []
    for _ in range(rng.randint(1, 8)):
        coeffs = tuple((n, Fraction(c)) for n in names if (c := rng.choice([-2, -1, 0, 0, 1, 3])))
        row = LinIneq(coeffs, Fraction(rng.randint(-4, 4)), rng.random() < 0.4)
        rows.append(row)
        if rng.random() < 0.2:
            rows.append(LinIneq(tuple((n, -c) for n, c in coeffs), -row.const, False))
    return rows[:8]


class TestSimplex:
    def test_infeasible_hypotheses(self):
        atoms = linearize(Cmp(">=", x, const(0))) + linearize(Cmp("<=", x, const(-1)))
        assert simplex(atoms) is None

    def test_feasible_with_witness(self):
        atoms = linearize(Cmp(">=", x, const(0))) + linearize(Cmp("<=", x, const(5)))
        model = simplex(atoms)
        assert 0 <= model["x"] <= 5

    def test_strict_rows_get_a_small_enough_delta(self):
        # x > 0, y > x, y < 1/1000: the model must fit between all three
        atoms = [row for c in (Cmp(">", x, const(0)), Cmp(">", y, x),
                               Cmp("<", y, const(Fraction(1, 1000))))
                 for row in linearize(c)]
        model = simplex(atoms)
        assert 0 < model["x"] < model["y"] < Fraction(1, 1000)

    def test_agrees_with_reference_fourier_motzkin(self):
        rng = random.Random(2006)
        infeasible = 0
        for _ in range(1500):
            rows = random_rows(rng, ["a", "b", "c", "d", "e"][:rng.randint(1, 5)])
            names = sorted(set().union(*(r.names() for r in rows)))
            model = simplex(rows)
            reference = reference_fourier_motzkin(rows, names)
            assert (model is None) == (reference is None), rows
            if model is None:
                infeasible += 1
                continue
            assert all(isinstance(v, Fraction) for v in model.values())
            assert all(_holds_at(r, model) for r in rows), (rows, model)
            assert all(_holds_at(r, reference) for r in rows), (rows, reference)
        assert 300 < infeasible < 1200  # both outcomes are well exercised

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

    def test_no_size_gate(self):
        names = [Var(f"a{i}") for i in range(8)]
        hyps = [Cmp("<=", names[i], names[i + 1]) for i in range(7)]
        status, _ = fm_implication(hyps, Cmp("<=", names[0], names[7]))
        assert status == "valid"

    def test_agrees_with_grid_search(self):
        # dual-route check: real-valued simplex vs exhaustive integer grid
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


def square(goal, hyps=()):
    """square_rule on the atom forms of Cmp inputs."""
    return square_rule(atom_form(goal), [atom_form(c) for c in hyps])


class TestSquareRule:
    def test_plain_square(self):
        assert square(Cmp(">=", x * x + const(2) * y ** 4, const(0)))
        assert not square(Cmp(">=", x * x - y ** 2, const(0)))
        assert not square(Cmp(">=", x * y, const(0)))

    def test_energy_height_bound(self):
        hyps = [
            Cmp(">", const(0), g),
            Cmp("=", const(2) * g * x - const(2) * g * h, v * v),
        ]
        assert square(Cmp("<=", x, h), hyps)

    def test_needs_strict_sign(self):
        hyps = [
            Cmp(">=", const(0), g),  # nonstrict sign is not enough
            Cmp("=", const(2) * g * x - const(2) * g * h, v * v),
        ]
        assert not square(Cmp("<=", x, h), hyps)


class TestDischarge:
    @pytest.mark.parametrize("setting", [{"grid_horizon": math.inf}, {"grid_step": 0.0},
                                         {"grid_step": math.nan}])
    def test_grid_that_is_not_positive_and_finite_is_rejected(self, setting):
        with pytest.raises(ValueError, match="must be positive and finite"):
            DischargeBudget(**setting)

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
        lemmas = (lemma,)
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
        vd = discharge(ob, lemmas)
        assert vd.proved


def nested_or(depth):
    """A disjunction whose both disjuncts nest `depth - 1` levels more."""
    if depth == 0:
        return Cmp(">=", x, const(0))
    sub = nested_or(depth - 1)
    return Or(sub, sub)


class TestUnknownReasons:
    """Each reason the prover declines with, as `discharge` reports it
    when refutation samples nothing."""

    @pytest.mark.parametrize("hyps, concl, reason", [
        ([Cmp(">=", x, const(0))], Cmp(">=", x, const(1)), "no proof method applies"),
        ([], nested_or(8), "disjunction nesting too deep"),
        ([Cmp(">=", x * x, const(1))], FALSE, "non-linear hypotheses for contradiction goal"),
        ([Cmp(">=", x, const(0))], FALSE, "hypotheses not refutable by the linear route"),
        ([], Or(TimeQuant("t", "tau", NONNEG, TRUE, Cmp(">=", x, t)),
                TimeQuant("t", "tau", NONNEG, TRUE, Cmp("<=", x, t))),
         "no disjunct provable"),
    ])
    def test_reason(self, hyps, concl, reason):
        vd = discharge(arith(hyps, concl), budget=DischargeBudget(refute_trials=0))
        assert (vd.kind, vd.reason) == ("unknown", reason)

    def test_contradiction_goal_proved_by_simplex(self):
        ob = arith([Cmp(">=", x, const(1)), Cmp("<=", x + y, const(0)), Cmp(">=", y, const(0))],
                   FALSE)
        assert discharge(ob) == dmod.Verdict("proved", method="simplex")


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
        assert dmod._Prover((Lemma("raw", (), Cmp("=", const(0), const(0))),)).lemma_keys == []

    def test_unevaluable_conclusion_is_not_accepted(self):
        # exp(exp(exp(x) + 10)) overflows at every sample, and exp is
        # positive anyway: no trial may count in the lemma's favour
        concl = Cmp("<=", Exp(Exp(Exp(x) + 10)), const(0))
        lem = validate_lemma(Lemma("bad", (Cmp(">=", x, const(0)),), concl), trials=200)
        assert (lem.status, lem.trials) == ("inconclusive", 0)
        vd = discharge(arith([Cmp(">=", x, const(0))], concl, forall=("x",)), (lem,))
        assert vd.kind == "unknown"

    def test_non_arithmetic_error_propagates(self, monkeypatch):
        import hybridwlp.discharge as dmod

        def broken(*args, **kwargs):
            raise TypeError("not an evaluation failure")

        monkeypatch.setattr(dmod, "eval_pred", broken)
        with pytest.raises(TypeError):
            validate_lemma(Lemma("sq", (), Cmp(">=", x * x, const(0))), trials=5)


ROOT = Path(__file__).resolve().parents[1]


def _perfbench_gen():
    """perfbench/gen.py, the benchmark's input generator, as a module."""
    name = "perfbench_gen"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "gen.py")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def _lemma_cases():
    """The shipped lemmas, the lemmas the tests declare, and the energy
    lemmas of the benchmark's k-ball products for k = 1..3."""
    texts = [(p.stem, p.read_text()) for p in sorted((ROOT / "problems").glob("*.hwl"))]
    texts += [(f"ball_flow_k{k}", _perfbench_gen().ball(1, k, "flow").text) for k in (1, 2, 3)]
    head = "problem lemmas\nvars x\nconsts a, c\npre true\npost true\nprogram skip\n"
    texts.append(("tests", head + (
        "lemma cube: a >= 0 => a*a*a >= 0\n"
        "lemma bad: x >= 0 => exp(exp(exp(x) + 10)) <= 0\n"
        "lemma l1: x = 0 & c > 0 => c*x = 0\n"
        "lemma l2: x*x >= 0\n")))
    for source, text in texts:
        for lemma in parse_spec(text).lemmas:
            yield f"{source}:{lemma.name}", lemma
    yield "bound", Lemma("bound", (Cmp(">", const(0), g),
                                   Cmp("=", const(2) * g * x - const(2) * g * h, v * v)),
                         Cmp("<=", x, h))
    yield "z", Lemma("z", (), Cmp("=", const(0), const(0)))
    yield "sq", Lemma("sq", (), Cmp(">=", x * x, const(0)))
    yield "cube_x", Lemma("cube_x", (), Cmp(">=", x ** 3, const(0)))


LEMMA_CASES = dict(_lemma_cases())

# x >= 0 & y >= x => y >= 0 with a non-linear hypothesis: the simplex
# reads no hypothesis list with one, so only a lemma on the two names can
# prove it
WIDE = "x >= 0 & y >= x & z1*z2 >= 0 => y >= 0"


def _lemma_outcomes(*lemmas):
    """(name, status, proof) of each lemma as `verify` establishes them."""
    text = ("problem order\nvars x y z1 z2\npre true\npost true\n"
            "program skip\n" + "".join(f"lemma {n}: {body}\n" for n, body in lemmas))
    return [(l["name"], l["status"], l.get("proof"))
            for l in run_verify(parse_spec(text))["lemmas"]]


class TestEstablishLemma:
    @pytest.mark.parametrize("case", sorted(LEMMA_CASES))
    def test_exact_proof_is_confirmed_by_sampling(self, case):
        lemma = establish_lemma(LEMMA_CASES[case])
        sampled = validate_lemma(LEMMA_CASES[case], trials=2000)
        if lemma.status == "proved":
            assert (lemma.trials, lemma.witness) == (0, None) and lemma.proof
            assert (sampled.status, sampled.trials) == ("accepted", 2000)
        else:
            # declined: the fallback is validate_lemma itself
            assert lemma.proof == ""
            assert (lemma.status, lemma.trials) == (sampled.status, sampled.trials)

    def test_which_lemmas_are_proved(self):
        proved = {case: establish_lemma(lemma).proof
                  for case, lemma in LEMMA_CASES.items()}
        assert {c: p for c, p in proved.items() if c.startswith(("ball", "bouncing"))} == {
            "ball_flow_k1:energy_height_bound_1": "square-rule",
            "ball_flow_k2:energy_height_bound_1": "square-rule",
            "ball_flow_k2:energy_height_bound_2": "square-rule",
            "ball_flow_k3:energy_height_bound_1": "square-rule",
            "ball_flow_k3:energy_height_bound_2": "square-rule",
            "ball_flow_k3:energy_height_bound_3": "square-rule",
            "bouncing_ball:energy_height_bound": "square-rule",
            "bouncing_ball_dinv:energy_height_bound": "square-rule",
        }
        assert [c for c, p in proved.items() if not p] == ["tests:cube", "tests:bad", "cube_x"]

    def test_unsatisfiable_hypotheses_proved_though_sampling_is_inconclusive(self):
        void = Lemma("void", (Cmp("<", x, const(0)), Cmp(">", x, const(1))), Cmp("=", x, x))
        lemma = establish_lemma(void)
        assert (lemma.status, lemma.proof, lemma.trials) == ("proved", "trivial", 0)
        assert validate_lemma(void, trials=50).status == "inconclusive"

    def test_earlier_proved_lemma_is_used(self):
        assert _lemma_outcomes(("narrow", "x >= 0 & y >= x => y >= 0"), ("wide", WIDE)) == [
            ("narrow", "proved", "simplex"), ("wide", "proved", "lemma:narrow")]

    def test_no_lemma_uses_itself_or_a_later_one(self):
        assert _lemma_outcomes(("wide", WIDE), ("narrow", "x >= 0 & y >= x => y >= 0")) == [
            ("wide", "accepted", None), ("narrow", "proved", "simplex")]

    def test_a_sampled_lemma_proves_no_later_lemma(self):
        assert _lemma_outcomes(("wide", WIDE), ("wide_again", WIDE)) == [
            ("wide", "accepted", None), ("wide_again", "accepted", None)]

    def test_sampled_lemmas_stay_usable(self):
        lemmas = tuple(Lemma(s, (), Cmp("=", x, x), status=s) for s in
                       ("unvalidated", "proved", "accepted", "rejected", "inconclusive"))
        assert [name for name, _, _ in dmod._Prover(lemmas).lemma_keys] == ["proved", "accepted"]


def test_package_attribute_is_the_submodule():
    import types

    import hybridwlp
    import hybridwlp.discharge as m

    assert isinstance(m, types.ModuleType) and hybridwlp.discharge is m
    assert m.discharge is discharge


# ---------------------------------------------------------------------------
# Solved-hypothesis memo


def per_goal_substituted(hyps, concl):
    """Reference: solve and substitute the equality hypotheses afresh for
    every goal."""
    hyps = list(hyps)
    for _ in range(len(hyps) + 2):
        binding = None
        for i, hyp in enumerate(hyps):
            if not (isinstance(hyp, Cmp) and hyp.op == "="):
                continue
            form = dmod.atom_form(hyp)
            if form is None:
                continue
            solved = dmod._solve_poly_for_name(form[0])
            if solved is not None:
                binding = (i, *solved)
                break
        if binding is None:
            break
        i, name, rest = binding
        expr = dmod.poly_to_expr(rest)
        del hyps[i]
        hyps = [substitute_pred(hyp, {name: expr}) for hyp in hyps]
        concl = substitute_pred(concl, {name: expr})
    return hyps, concl


def discrete_obligation(n: int, n_ifs: int, off_by_one: bool = False, seed: int = 0):
    """pre pins x1..x4, n assignments (n_ifs of them `if`s whose condition
    holds, so the then-branch runs), post states a bound per variable and
    the one final store; returns the main obligation, whose conclusion
    splits into 8 goals per combination of `if` branches."""
    rng = random.Random(seed)
    names = ["x1", "x2", "x3", "x4"]
    store = {nm: Fraction(rng.randint(-5, 5)) for nm in names}
    init = dict(store)

    def step():
        nm, c = rng.choice(names), rng.randint(1, 3)
        e, val = [
            (Var(nm) + const(c), store[nm] + c),
            (const(2) * Var(nm), 2 * store[nm]),
            (const(c) - Var(nm), c - store[nm]),
        ][rng.randrange(3)]
        return Assign(nm, e), nm, val

    if_at = {(i + 1) * n // (n_ifs + 1) for i in range(n_ifs)}
    stmts = []
    for i in range(n):
        if i in if_at:
            nm = rng.choice(names)
            cond = Cmp(">", Var(nm), const(store[nm] - 1))
            then, tgt, val = step()
            els, _, _ = step()
            store[tgt] = val
            stmts.append(IfThenElse(cond, then, els))
        else:
            stmt, tgt, val = step()
            store[tgt] = val
            stmts.append(stmt)
    final = dict(store)
    if off_by_one:
        final["x4"] += 1
    # the prover stops at the first goal it cannot prove, so the one that
    # fails when off_by_one comes last
    post = [Cmp(">=", Var(nm), const(final[nm] - 1)) for nm in names]
    post += [Cmp("=", Var(nm), const(final[nm])) for nm in names]
    spec = VerifySpec(
        "discrete", tuple(names),
        pre=pred_and([Cmp("=", Var(nm), const(init[nm])) for nm in names]),
        post=pred_and(post), program=Seq(tuple(stmts)),
    )
    return verify(spec)[0]


def count_solves(fn):
    """(fn(), number of _solve_poly_for_name calls it made)."""
    calls = []
    solve = dmod._solve_poly_for_name
    dmod._solve_poly_for_name = lambda p: calls.append(p) or solve(p)
    try:
        return fn(), len(calls)
    finally:
        dmod._solve_poly_for_name = solve


def outcome(prover, hyps, concl):
    """The methods a prover returns, or the reason it declines with."""
    try:
        return prover.prove(hyps, concl)
    except dmod._Declined as exc:
        return str(exc)


PROVE_ATOMIC = dmod._Prover.prove_atomic


def per_goal_atomic(self, ctx, concl):
    """Reference for `_Prover.prove_atomic`: solve the equality hypotheses
    of the goal's list afresh, then prove it under the solved list."""
    rest, concl = per_goal_substituted(ctx.hyps, concl)
    return PROVE_ATOMIC(dmod._Prover(self.lemmas), dmod._Context().extend(rest), concl)


class TestSolvedHypothesisMemo:
    @pytest.mark.parametrize("n_ifs", [0, 3])
    @pytest.mark.parametrize("off_by_one", [False, True])
    def test_once_per_distinct_list_same_outcome(self, n_ifs, off_by_one):
        ob = discrete_obligation(50, n_ifs, off_by_one)
        lists = []

        class PerGoal(dmod._Prover):
            """Records each goal's hypothesis list, the key of its context,
            and proves it by the reference."""
            def prove_atomic(self, ctx, concl):
                lists.append(ctx.hyps)
                return per_goal_atomic(self, ctx, concl)

        ref, ref_calls = count_solves(
            lambda: outcome(PerGoal(), list(ob.hyps), ob.concl))
        memo = dmod._Prover()
        got, calls = count_solves(lambda: outcome(memo, list(ob.hyps), ob.concl))
        assert got == ref
        assert isinstance(got, list) == (not off_by_one)
        distinct = set(lists)  # equal lists share one context
        assert distinct <= set(memo.contexts) and len(lists) >= 8
        # one context per node of the prefix tree, rooted at the pre list.
        # Proved: each `if` doubles the leaf lists, and every inner node
        # is the list of both branches' `Or`s.  Refuted: the prover stops at
        # the last goal under the then-branches, then each `Or` on the way
        # up tries its other disjunct under one more list, with one leaf.
        if off_by_one:
            assert (len(distinct), len(memo.contexts)) == (n_ifs + 1, 2 * n_ifs + 1)
        else:
            assert (len(distinct), len(memo.contexts)) == (2 ** n_ifs, 2 ** (n_ifs + 1) - 1)
        # the pre list is solved once, and no `if` guard is an equality
        once = count_solves(lambda: per_goal_substituted(flatten_conj(ob.hyps), TRUE))[1]
        assert 0 < calls == once < ref_calls

    def test_or_branch_list_gets_its_own_entry(self):
        base = [Cmp("=", x, const(1)), Cmp("=", y, const(2))]
        branch = Or(Not(Cmp(">", x, const(0))), Cmp("=", y * x, const(2)))
        concl = And(Cmp(">=", x + y, const(3)), And(branch, Cmp("<=", x, y)))
        prover = dmod._Prover()
        assert outcome(prover, list(base), concl) == ["trivial"] * 3
        lists = sorted(prover.contexts, key=len)  # keyed by the hypothesis tuple
        # the two plain goals share the base list; the disjunct is proved
        # under the base list extended by the negated other disjunct
        assert len(lists) == 2 and list(lists[0]) == base
        assert all(map(operator.is_, lists[1][:2], lists[0]))
        assert lists[1][2] == Cmp(">", x, const(0))

    def test_equal_lists_share_one_context(self):
        first = [Cmp("=", x, const(1)), Cmp(">=", y, x)]
        second = [Cmp("=", Var("x"), const(1)), Cmp(">=", Var("y"), Var("x"))]
        prover = dmod._Prover()
        assert outcome(prover, first, Cmp(">=", y, const(1))) == ["hypothesis-match"]
        assert outcome(prover, second, Cmp(">=", y, const(0))) == ["simplex"]
        assert list(prover.contexts) == [tuple(first)]

    @pytest.mark.parametrize("off_by_one", [False, True])
    def test_verdict_matches_per_goal_reference(self, monkeypatch, off_by_one):
        ob = discrete_obligation(50, 3, off_by_one)
        want = discharge(ob)
        monkeypatch.setattr(dmod._Prover, "prove_atomic", per_goal_atomic)
        assert discharge(ob) == want
        assert want.kind == ("refuted" if off_by_one else "proved")

    def test_each_comparison_read_once_per_list(self, monkeypatch):
        hyps = [Cmp(">=", x, const(0)), Cmp(">=", y, x), Cmp("=", z, x + y),
                Cmp("<=", y, const(4))]
        goals = [Cmp(">=", x + z, const(0)), Cmp("<=", y, const(5)),
                 Cmp("<=", z, const(8)), Cmp(">=", y * y, const(0)), Cmp(">=", y, x)]
        reads = []  # keeps every read comparison alive, so ids stay distinct
        monkeypatch.setattr(dmod, "atom_form", lambda c: reads.append(c) or atom_form(c))
        prover = dmod._Prover()
        assert outcome(prover, list(hyps), pred_and(goals)) == [
            "simplex", "simplex", "simplex", "square-rule",
            "hypothesis-match"]
        # the equation once while solving, the three other hypotheses once
        # for all five goals, and each goal's own conclusion; the last goal
        # is the hypothesis y >= x itself, one term, read in both roles
        assert len(reads) == 4 + len(goals)
        assert goals[-1] is hyps[1] and [c is hyps[1] for c in reads].count(True) == 2
        assert len({id(c) for c in reads}) == len(reads) - 1


class TestComposedSolution:
    def test_matches_one_substitution_per_solution(self):
        tv, tau = Var("t"), Var("tau")
        hyps = [
            Cmp(">=", y, x),
            # x := v + t, whose term reads a binder's name and v, solved later
            Cmp("=", x, v + tv),
            Cmp("=", x * y, const(2)),  # unsolvable: every name sits in x*y
            # binds t and reads x, so x's term is renamed apart from t
            TimeQuant("t", "tau", NONNEG, Cmp(">=", x, tau), Cmp("<=", x, tv)),
            # binds t but reads only z, whose term y + 2 does not mention it
            TimeQuant("t", "tau", NONNEG, Cmp(">=", z, tau), Cmp("<=", z + y, tv)),
            Cmp("=", z, y + const(2)),
            Cmp("<", Sin(v), z),
            Cmp("=", v, Sin(y) + const(3)),
        ]
        concl = Cmp("<=", x + z, y)
        ctx = dmod._Context().extend(hyps)
        cmps, sigma = ctx.cmps, ctx.sigma
        ref, ref_concl = per_goal_substituted(hyps, concl)
        # only comparisons remain, each paired with its own atom form
        assert [c for c, _ in cmps] == [h for h in ref if isinstance(h, Cmp)]
        assert all(form == atom_form(c) for c, form in cmps)
        assert substitute_pred(concl, sigma) == ref_concl
        # sigma composes the solutions, so it renames binders as one
        # substitution per solution does
        quants = [substitute_pred(h, sigma) for h in hyps if isinstance(h, TimeQuant)]
        assert quants == [h for h in ref if isinstance(h, TimeQuant)]
        assert [q.t_name for q in quants] == ["t2", "t"]
        assert free_names(sigma["x"]) == {"t", "y"}  # v's solution is composed in
        assert sorted(sigma) == ["v", "x", "z"]


def _random_hyp(rng):
    """One hypothesis over x, y, z, v: a linear, non-linear or unsolvable
    equality, an (in)equality, a time quantifier or, rarely, `false`."""
    a, b = rng.sample([x, y, z, v], 2)
    c = const(rng.randint(-3, 3))
    tv, tau = Var("t"), Var("tau")
    return [
        lambda: Cmp("=", a, b + c),  # linear: solvable
        lambda: Cmp("=", a, c),
        lambda: Cmp("=", const(2) * a - b, c * b),
        lambda: Cmp("=", a * b, c),  # solvable once a or b is
        lambda: Cmp("=", a * a, b * b),  # never solvable
        lambda: Cmp("=", Sin(a), b + c),  # b solvable, a is not
        lambda: Cmp(rng.choice([">=", ">", "<=", "<", "!="]), a + c, b),
        lambda: Cmp(">=", a * b, c),
        lambda: TimeQuant("t", "tau", NONNEG, Cmp(">=", a, tau), Cmp("<=", a + b, tv)),
        lambda: FALSE,
    ][rng.choices(range(10), weights=[3, 2, 1, 2, 1, 1, 4, 2, 1, 0.2])[0]]()


READ = dmod._read


def _context_fields(ctx):
    """What goals read of a context; nothing but `absurd` when a
    hypothesis is `false`."""
    if ctx.absurd:
        return "absurd"
    return ctx.cmps, ctx.sigma, ctx.keys, ctx.false, ctx.lins


class TestContextPrefixTree:
    """Extending the context of a prefix gives the context of the whole
    list, as solving it from scratch does."""

    @staticmethod
    def lists():
        rng = random.Random(20)
        yield [Cmp("=", x * y, const(2)), Cmp("=", y, const(1))]
        yield [Cmp(">=", x, y), Cmp("=", x * y, const(2)), Cmp(">", y, const(0)),
               Cmp("=", y, z + const(1)), Cmp("<=", x * y, z), Cmp("=", z, const(3))]
        for _ in range(80):
            yield [_random_hyp(rng) for _ in range(rng.randint(1, 8))]

    def test_extension_at_every_split_matches_scratch(self, monkeypatch):
        """An extension of a context that is not false matches a scratch
        solve; an extension of a false one is false and reads nothing."""
        reads = []
        monkeypatch.setattr(dmod, "atom_form", lambda c: reads.append(c) or atom_form(c))

        def extended(base, extras):
            reads.clear()
            ctx = base.extend(extras)
            if base.false and not ctx.absurd:
                assert ctx.false and reads == [] and ctx.cmps == [], (base.hyps, extras)
            return ctx

        false_bases = 0
        for hyps in self.lists():
            scratch = dmod._Context().extend(hyps)
            want = _context_fields(scratch)
            assert scratch.hyps == tuple(hyps)
            for k in range(len(hyps) + 1):
                base = dmod._Context().extend(hyps[:k])
                got = extended(base, hyps[k:])
                assert got.hyps == tuple(hyps)
                if base.false and not got.absurd:
                    # substitution keeps a false constant false
                    assert scratch.false, (hyps, k)
                    false_bases += 1
                else:
                    assert _context_fields(got) == want, (hyps, k)
            # one hypothesis at a time, as nested `if`s extend a list
            ctx = dmod._Context()
            for h in hyps:
                base_false = ctx.false  # a false prefix makes every longer one false
                ctx = extended(ctx, [h])
            if hyps and base_false and not ctx.absurd:
                assert scratch.false, hyps
            else:
                assert _context_fields(ctx) == want, hyps
        assert false_bases > 10

    def test_goal_undefined_under_a_false_prefix_is_vacuous(self):
        """Every goal under a false prefix is vacuous, even one whose
        appended hypothesis divides by zero at the prefix's solved point;
        under a prefix that is not false, that goal is declined."""
        hyps = [Cmp("=", x, const(0)), Cmp(">=", x, const(1))]
        # each disjunct's negation, appended as a hypothesis, reads 1/x
        concl = Or(Cmp("<", const(1) / x, const(0)), Cmp(">=", const(1) / x, const(1)))
        assert outcome(dmod._Prover(), hyps, concl) == ["vacuous"]
        assert discharge(arith(hyps, concl)) == dmod.Verdict("proved", method="vacuous")
        assert outcome(dmod._Prover(), hyps[:1], concl) == (
            "hypothesis undefined at a solved point")

    def test_appended_equality_solves_an_earlier_one(self):
        base = dmod._Context().extend([Cmp("=", x * y, const(2)), Cmp(">=", x, const(0))])
        assert base.sigma == {} and len(base.cmps) == 2
        ctx = base.extend([Cmp("=", y, const(1))])
        # y is solved, so x*1 = 2 solves x, and x >= 0 is read again
        assert sorted(ctx.sigma) == ["x", "y"]
        assert [c for c, _ in ctx.cmps] == [Cmp(">=", const(2), const(0))]
        assert ctx.base.hyps == () and base.eqs and not ctx.eqs

    def test_no_new_solution_reads_only_the_appended(self, monkeypatch):
        base = dmod._Context().extend([Cmp("=", x, const(1)), Cmp(">=", y, x),
                                       Cmp("=", x * y * z, const(2))])
        reads = []
        monkeypatch.setattr(dmod, "_read", lambda c, *rest: reads.append(c) or READ(c, *rest))
        ctx = base.extend([Cmp("<=", z, const(4)), Cmp("=", z * z, y * y)])
        # the appended comparisons themselves, equal terms being one object
        assert all(map(operator.is_, reads, [Cmp("=", z * z, y * y), Cmp("<=", z, const(4))]))
        assert len(reads) == 2 and ctx.base is base and ctx.cmps[:2] == base.cmps

    def test_discrete_ifs_read_each_guard_once_per_prefix(self, monkeypatch):
        """The benchmark's 200-statement discrete program with 5 nested
        `if`s: the 8 `pre` equalities are solved once (7 + 6 + ... + 1 = 28
        reads of the equalities left), and each guard is read once per path
        prefix that is not already false.  The `pre` pins every variable, so
        each guard is a constant and one of its two branches is false; only
        the other is extended (2 reads per level, 5 * 2 = 10), not every
        prefix (2 + 4 + ... + 32 = 62) nor every leaf list (32 lists of 28
        + 5 reads each, 1,056)."""
        inp = _perfbench_gen().discrete(1, 200, False)
        ob, = [ob for ob in verify(parse_spec(inp.text)) if ob.kind == "arith"]
        leaves = []

        class Recording(dmod._Prover):
            def prove_atomic(self, ctx, concl):
                leaves.append(ctx.hyps)
                return super().prove_atomic(ctx, concl)

        counts = {"read": 0, "solve": 0}

        def counted(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(dmod, "_read", counted("read", READ))
        monkeypatch.setattr(dmod, "_solve_poly_for_name",
                            counted("solve", dmod._solve_poly_for_name))
        assert isinstance(outcome(Recording(), list(ob.hyps), ob.concl), list)
        tree = dict(counts)
        counts.update(read=0, solve=0)
        for hyps in set(leaves):
            dmod._Context().extend(list(hyps))
        per_list = dict(counts)
        assert len(set(leaves)) == 32
        assert tree == {"read": 28 + 10, "solve": 8}
        assert per_list == {"read": 32 * (28 + 5), "solve": 32 * 8}


def reference_key(form):
    """discharge._key as written before a polynomial kept its sign-normalized
    key: an (in)equation's polynomial negated when the coefficient of its
    least monomial is negative, then keyed."""
    p, rel = form
    if rel in ("=", "!=") and p.terms:
        first = min(p.terms.items(), key=lambda it: mono_key(it[0]))
        if first[1] < 0:
            p = p.neg()
    return (p.key(), rel + "0")


class TestCanonicalCmp:
    def test_key_matches_the_reference(self):
        rng = random.Random(2807)
        negated = 0
        for _ in range(600):
            cmp = Cmp(rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                      rand_expr(rng, rng.randint(0, 3)), rand_expr(rng, rng.randint(0, 3)))
            form = atom_form(cmp)
            if form is None:
                continue
            p = form[0]
            for rel in (">=", ">", "=", "!="):
                key = dmod._key((p, rel))
                assert key == reference_key((p, rel)), (cmp, rel)
                if rel in ("=", "!="):  # p and -p give one key
                    assert dmod._key((p.neg(), rel)) == key == reference_key((p.neg(), rel))
            assert canonical_cmp(cmp) == reference_key(form)
            # computed once per polynomial
            assert p.sign_key() is p.sign_key() and p.key() is p.key()
            negated += p.sign_key() != p.key()
        assert negated

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


class TestSplitGoalsMatchesRecursiveReference:
    def test_random_conclusions(self):
        # _split_goals splits on one stack; tests/treepasses.py keeps its
        # recursive form
        rng = random.Random(26)
        kinds = set()
        for _ in range(800):
            hyps = tuple(rand_pred(rng, rng.randint(0, 2)) for _ in range(rng.randint(0, 2)))
            concl = rand_pred(rng, rng.randint(0, 4))
            if rng.random() < 0.1:
                concl = And(concl, x)  # a term where a predicate must stand
            got = call_outcome(dmod._split_goals, hyps, concl)
            assert got == call_outcome(ref_split_goals, hyps, concl), concl
            kinds.add("none" if got[1] is None else got[0])
        assert kinds == {"value", "none", "raise"}  # raise: the Not of a TimeQuant

    def test_a_deep_conjunction_splits(self):
        atoms = [Cmp(">=", x, const(k)) for k in range(3000)]
        goals = dmod._split_goals((), Not(Not(pred_and(atoms))))
        assert [goal.concl for goal in goals] == atoms


class TestConstantTruth:
    """A comparison whose sides differ by a constant is decided by that
    constant alone: "trivial" exactly when it holds, else never proved."""

    @pytest.mark.parametrize("op", ["=", "!=", ">", ">=", "<", "<="])
    @pytest.mark.parametrize("value", [0, 1, -1])
    def test_decided_by_the_constant(self, op, value):
        concl = Cmp(op, x - x + const(value), const(0))  # x - x + k, of constant form k
        holds = eval_pred(Cmp(op, const(value), const(0)), {})
        vd = discharge(arith([], concl))
        if holds:
            assert vd == dmod.Verdict("proved", method="trivial")
        else:
            assert not vd.proved
