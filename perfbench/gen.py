"""Seeded inputs with known answers for the verdict benchmark.

Every input is `.hwl` text plus the answer it must get, and the answer
comes from how the input is built, never from the kernel under test.
Each family function states in its docstring why its answer holds.

Two answers are kept per input:

* ``verify_expect``: the verdict `verify` must reach on the annotated
  input ("proved" or "refuted").  An annotation that is false (a wrong
  differential invariant) makes a proof obligation false, so such an
  input is "refuted" even where the property itself holds.
* ``holds``: whether the pre/post property holds for the program's
  semantics, annotations aside.  `falsify` must find a counterexample
  exactly when it does not hold.

The same seed gives byte-identical texts: every random choice comes from
``random.Random`` seeded with a string (deterministic across processes)
and numbers are printed as exact fractions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Shipped problems, by name, with their answers.  The three mutants are
# described in their own files: the ball falls through the floor once the
# guard or the flip goes (and the guard with it), and the pendulum's
# annotated radius is off by one while the rotation still keeps x^2+y^2.
SHIPPED_VALID = (
    "bouncing_ball", "bouncing_ball_dinv", "constant_velocity",
    "pendulum", "pendulum_evol", "pendulum_flow",
)
SHIPPED_MUTANTS = {
    # name: holds (semantic truth of the pre/post property)
    "mutant_ball_no_flip": False,
    "mutant_ball_no_guard": False,
    "mutant_pendulum_radius": True,
}

# The two soundness probes from ROADMAP open items 1 and 2, verbatim.
PROBE_CAPTURE = """problem probe_binder_capture
vars x t2
pre x = 0 & t2 = -1
post t2 >= 0
program
  evolve x' = 1 & true on [0,inf) flow x = x + t ;
  evolve x' = 1 & true on [0,inf) flow x = x + t
"""
PROBE_GRID = """problem probe_grid_refutation
vars x
pre x = 27/50
post x >= 2/5
program evolve x' = -1 & x >= 1/2 | x <= 3/10 on [0,inf) flow x = x - t
"""

# Statement counts of the discrete family: the size axis of wlp.  Each
# sequential `if` doubles the wlp formula, so the `if` count grows with
# size but stays capped: with 10 ifs in 100 statements wlp alone went
# past 700 MB and 10 minutes, while IFS_MAX keeps one op near a second.
DISCRETE_SIZES = (25, 50, 100, 200)
STATEMENTS_PER_IF = 25
IFS_MAX = 5
DISCRETE_VARS = 8
# Magnitude and denominator caps keep every value exactly representable
# as a float, so float-based refutation can tell v from v + 1.
VALUE_CAP = 100
DENOMINATOR_CAP = 1 << 12


@dataclass(frozen=True)
class Input:
    name: str
    family: str
    size: int
    text: str
    verify_expect: str  # "proved" | "refuted"
    holds: bool
    hybrid: bool
    known_defect: str = ""  # ROADMAP item whose defect makes today's verdict wrong


@dataclass(frozen=True)
class LawOp:
    model: str
    n: int
    law: str
    mode: str
    trials: int
    expect_pass: bool
    known_defect: str = ""

    @property
    def name(self) -> str:
        return f"{self.law}@{self.model}{self.n}/{self.mode}"

    @property
    def family(self) -> str:
        return f"laws_{self.model}{self.n}_{self.mode}"

    @property
    def size(self) -> int:
        return self.n


def q(x) -> str:
    """Exact, parser-readable text of a rational."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{tag}")


def _rat(rng: random.Random, lo: int, hi: int, den: int = 4) -> Fraction:
    """Uniform rational in [lo, hi] on a 1/den grid."""
    return Fraction(rng.randint(lo * den, hi * den), den)


# ---------------------------------------------------------------------------
# Bouncing balls


def _ball_consts(rng: random.Random, k: int) -> tuple:
    """Ranges g in [-7, -1] and h_i in [1, 2], all scaled by one seeded
    factor.  Scaling g and every h_i together scales each orbit in space
    but not in time (the fall time sqrt(2*h/-g) is unchanged), so the
    falsifier's work is the same for every seed.  2*h/-g <= 4 keeps the
    fall time under 2 s, inside the falsifier's 6 s horizon, so search can
    catch the mutants."""
    scale = Fraction(1, 2) + Fraction(rng.randint(0, 12), 8)
    return scale, 7 * scale, [(scale, 2 * scale)] * k


def ball(seed: int, k: int, mode: str) -> Input:
    """Product of k bouncing balls under one gravity constant g < 0.

    mode "flow" annotates the closed-form flow and one energy lemma per
    ball; "dinv" annotates the energy relations as a differential
    invariant.  Both are valid: the joint guard keeps every x_i >= 0,
    the flow and the flip v_i := -v_i keep 2*g*x_i - 2*g*h_i - v_i^2 = 0,
    and with g < 0 that energy relation gives x_i <= h_i.

    mode "noguard" drops the guard (keeps the flips) and "nofloor" drops
    guard and flips.  Both are invalid: with guard `true` the flow runs
    past the floor, and x_i = g*t^2/2 + h_i < 0 once t > sqrt(2*h_i/-g),
    violating 0 <= x_i.  Dropping only the flip would keep the property
    valid (the guard pins the ball at the floor), so "nofloor" drops both.
    """
    rng = _rng(seed, f"ball:{k}:{mode}")
    g_lo, g_hi, hs = _ball_consts(rng, k)
    idx = range(1, k + 1)
    consts = ", ".join([f"g in [{q(-g_hi)}, {q(-g_lo)}]"]
                       + [f"h{i} in [{q(lo)}, {q(hi)}]" for i, (lo, hi) in zip(idx, hs)])
    energy = [f"2*g*x{i} - 2*g*h{i} - v{i}*v{i} = 0" for i in idx]
    field = ", ".join(f"x{i}' = v{i}, v{i}' = g" for i in idx)
    guard = " & ".join(f"x{i} >= 0" for i in idx) if mode in ("flow", "dinv") else "true"
    if mode == "dinv":
        annot = f"dinv {' & '.join(energy)}"
    else:
        annot = "flow " + ", ".join(
            f"x{i} = g*t^2/2 + v{i}*t + x{i}, v{i} = g*t + v{i}" for i in idx)
    body = [f"evolve {field} & {guard} on [0,inf)\n      {annot}"]
    if mode != "nofloor":
        body += [f"if x{i} = 0 then v{i} := -v{i} else skip" for i in idx]
    inv = " & ".join(f"0 <= x{i} & {e}" for i, e in zip(idx, energy))
    lines = [
        f"problem ball_{mode}_k{k}",
        "vars " + " ".join(f"x{i} v{i}" for i in idx),
        f"consts {consts}",
        "assume g < 0, " + ", ".join(f"h{i} >= 0" for i in idx),
        "pre " + " & ".join(f"x{i} = h{i} & v{i} = 0" for i in idx),
        "post " + " & ".join(f"0 <= x{i} & x{i} <= h{i}" for i in idx),
        "program",
        "  loop (\n    " + " ;\n    ".join(body) + "\n  ) inv " + inv,
    ]
    if mode == "flow":
        lines += [f"lemma energy_height_bound_{i}: g < 0 & {e} => x{i} <= h{i}"
                  for i, e in zip(idx, energy)]
    valid = mode in ("flow", "dinv")
    return Input(
        name=f"ball_{mode}_k{k}", family=f"ball_{mode}", size=k,
        text="\n".join(lines) + "\n",
        verify_expect="proved" if valid else "refuted", holds=valid, hybrid=True,
    )


# ---------------------------------------------------------------------------
# Rotations


def rotation(seed: int, mode: str) -> Input:
    """Rotation x' = w*y, y' = -w*x at a rational rate w in [1/2, 3/2]
    with radius constant r in a seeded range.

    The rotation keeps x^2 + y^2 (its Lie derivative is
    2*x*w*y - 2*y*w*x = 0), and pre pins it to r^2, so post
    x^2 + y^2 = r^2 holds; "dinv", "flow" (the closed form with
    cos(w*t), sin(w*t)) and "evol" (the flow alone, no field) are valid.

    "dinv_off" annotates x^2 + y^2 = r^2 + d with d != 0: pre contradicts
    the annotation at every initial state, so the outline's initial
    invariant obligation is false and verify must refute.  The property
    itself still holds, so falsify must find nothing.
    """
    rng = _rng(seed, f"rotation:{mode}")
    w = _rat(rng, 2, 6) / 4
    r_lo = _rat(rng, 1, 2)
    r_hi = r_lo + _rat(rng, 1, 4)
    ws = q(w)
    cw, sw = f"cos({ws}*t)", f"sin({ws}*t)"
    field = f"x' = {ws}*y, y' = -{ws}*x"
    flow = f"x = x*{cw} + y*{sw}, y = y*{cw} - x*{sw}"
    if mode == "dinv":
        program = f"evolve {field} & true on R dinv x*x + y*y = r*r"
    elif mode == "dinv_off":
        d = _rat(rng, 1, 3) * rng.choice((-1, 1))
        program = f"evolve {field} & true on R dinv x*x + y*y = r*r + {q(d)}"
    elif mode == "flow":
        program = f"evolve {field} & true on R\n  flow {flow}"
    else:
        program = f"evol {flow} & true on R"
    text = "\n".join([
        f"problem rotation_{mode}",
        "vars x y",
        f"consts r in [{q(r_lo)}, {q(r_hi)}]",
        "pre x*x + y*y = r*r",
        "post x*x + y*y = r*r",
        f"program {program}",
    ]) + "\n"
    return Input(
        name=f"rotation_{mode}", family=f"rotation_{mode}", size=1, text=text,
        verify_expect="refuted" if mode == "dinv_off" else "proved",
        holds=True, hybrid=True,
    )


# ---------------------------------------------------------------------------
# Drift under a ceiling


def drift(seed: int, mode: str) -> Input:
    """x' = c from x = x0 under the guard x <= m, with c in a positive range.

    "ceiling": post x <= m holds, because every point of the guarded
    orbit satisfies the guard.

    "below": post x <= m - d with 0 < d and x0 < m - d.  The orbit is
    continuous and increasing (c > 0) and the guard lets it reach m, so it
    passes through (m - d, m] and the post fails.  The ranges put m within
    the falsifier's horizon (c_min * 6 > m - x0) and make d wider than
    one grid step of the orbit (c_max * 0.05 < d).
    """
    rng = _rng(seed, f"drift:{mode}")
    c_lo = _rat(rng, 1, 2)
    c_hi = c_lo + _rat(rng, 0, 1) + Fraction(1, 4)
    x0 = _rat(rng, -2, 1)
    m = x0 + _rat(rng, 2, 5)
    d = _rat(rng, 1, 2) / 2
    post = f"x <= {q(m)}" if mode == "ceiling" else f"x <= {q(m - d)}"
    text = "\n".join([
        f"problem drift_{mode}",
        "vars x",
        f"consts c in [{q(c_lo)}, {q(c_hi)}]",
        "assume c > 0",
        f"pre x = {q(x0)}",
        f"post {post}",
        f"program evolve x' = c & x <= {q(m)} on [0,inf) flow x = x + c*t",
    ]) + "\n"
    valid = mode == "ceiling"
    return Input(
        name=f"drift_{mode}", family=f"drift_{mode}", size=1, text=text,
        verify_expect="proved" if valid else "refuted", holds=valid, hybrid=True,
    )


# ---------------------------------------------------------------------------
# Straight-line discrete programs


def _discrete_step(rng: random.Random, store: dict, names: list):
    """One assignment x := f(x): (text, x, new value).

    Each right-hand side reads only its own target, so wlp's substitution
    keeps one occurrence per variable and the formula grows by a fixed
    amount per statement whatever the seed; the `if`s alone multiply it.
    A form whose value leaves the caps is redrawn; after eight draws the
    target is set to a small constant."""
    x = rng.choice(names)
    v = store[x]
    for _ in range(8):
        c = rng.randint(1, 5)
        text, val = (
            (f"{x} + {c}", v + c),
            (f"{x} - {c}", v - c),
            (f"2*{x}", 2 * v),
            (f"{x}/2", v / 2),
            (f"-{x}", -v),
            (f"{c} - {x}", c - v),
        )[rng.randrange(6)]
        if abs(val) <= VALUE_CAP and val.denominator <= DENOMINATOR_CAP:
            return f"{x} := {text}", x, val
    c = rng.randint(-5, 5)
    return f"{x} := {q(c)}", x, Fraction(c)


def discrete(seed: int, n: int, off_by_one: bool) -> Input:
    """n statements over DISCRETE_VARS variables, of which
    min(IFS_MAX, n // STATEMENTS_PER_IF) are `if`s with one assignment per
    branch, spread evenly.

    Every `if` condition holds on the simulated store, so each `if` takes
    its then-branch.  pre pins every variable to an integer, every
    statement is a total function of the store (division only by the
    constant 2), so exactly one final store exists; Fraction simulation computes it and post
    states it.  That post holds.  "off" adds one to the last variable's
    final value in post, which the only final store then violates.
    """
    rng = _rng(seed, f"discrete:{n}")
    names = [f"x{i}" for i in range(1, DISCRETE_VARS + 1)]
    store = {v: Fraction(rng.randint(-5, 5)) for v in names}
    init = dict(store)
    n_ifs = min(IFS_MAX, n // STATEMENTS_PER_IF)
    if_at = {(i + 1) * n // (n_ifs + 1) for i in range(n_ifs)}
    stmts = []
    for i in range(n):
        if i in if_at:
            # The condition always holds, so the taken branch is "then" at
            # every if: how far the prover backtracks through the nested
            # disjunctions depends on that pattern, and fixing it keeps the
            # op's cost the same across seeds.
            var = rng.choice(names)
            bound = store[var].numerator // store[var].denominator - rng.randint(1, 3)
            then_text, then_tgt, then_val = _discrete_step(rng, store, names)
            else_text, _, _ = _discrete_step(rng, store, names)
            store[then_tgt] = then_val
            stmts.append(f"if {var} > {bound} then {then_text} else {else_text}")
        else:
            text, tgt, val = _discrete_step(rng, store, names)
            store[tgt] = val
            stmts.append(text)
    final = dict(store)
    if off_by_one:
        # The prover stops at the first goal it cannot prove, so the
        # victim is the last variable: every other goal is proved first,
        # and the op's cost does not depend on which variable was hit.
        final[names[-1]] += 1
    tag = "off" if off_by_one else "exact"
    text = "\n".join([
        f"problem discrete_{tag}_n{n}",
        "vars " + " ".join(names),
        "pre " + " & ".join(f"{v} = {q(init[v])}" for v in names),
        "post " + " & ".join(f"{v} = {q(final[v])}" for v in names),
        "program\n  " + " ;\n  ".join(stmts),
    ]) + "\n"
    return Input(
        name=f"discrete_{tag}_n{n}", family=f"discrete_{tag}", size=n, text=text,
        verify_expect="refuted" if off_by_one else "proved",
        holds=not off_by_one, hybrid=False,
    )


# ---------------------------------------------------------------------------
# Workloads


def _shipped(problems: Path, name: str) -> str:
    path = problems / f"{name}.hwl"
    if not path.is_file():
        raise FileNotFoundError(f"shipped problem {path} is missing")
    return path.read_text(encoding="utf-8")


def prove_inputs(seed: int, problems: Path) -> list:
    out = [Input(n, "shipped", 1, _shipped(problems, n), "proved", True, True)
           for n in SHIPPED_VALID]
    out.append(Input("probe_grid_refutation", "probe", 1, PROBE_GRID, "proved",
                     True, True, known_defect="ROADMAP item 2"))
    for k in (1, 2, 3):
        out += [ball(seed, k, "flow"), ball(seed, k, "dinv")]
    out += [rotation(seed, m) for m in ("dinv", "flow", "evol")]
    out.append(drift(seed, "ceiling"))
    out += [discrete(seed, n, False) for n in DISCRETE_SIZES]
    return out


def refute_inputs(seed: int, problems: Path) -> list:
    out = [Input(n, "shipped_mutant", 1, _shipped(problems, n), "refuted", holds, True)
           for n, holds in SHIPPED_MUTANTS.items()]
    out.append(Input("probe_binder_capture", "probe", 1, PROBE_CAPTURE, "refuted",
                     False, True, known_defect="ROADMAP item 1"))
    for k in (1, 2, 3):
        out += [ball(seed, k, "noguard"), ball(seed, k, "nofloor")]
    out.append(rotation(seed, "dinv_off"))
    out.append(drift(seed, "below"))
    out += [discrete(seed, n, True) for n in DISCRETE_SIZES]
    return out


def search_inputs(seed: int, problems: Path) -> list:
    """Every hybrid input of prove and refute, in a seeded order."""
    out = [i for i in prove_inputs(seed, problems) + refute_inputs(seed, problems)
           if i.hybrid]
    _rng(seed, "search-order").shuffle(out)
    return out


# Law ops: DEFAULT_GROUPS and the functor laws exhaustively at n = 2 on
# both models, DEFAULT_GROUPS at random at n = 3 (rel) and n = 4 (sta),
# and the compose-comm sanity law everywhere, which must FAIL: relation
# composition does not commute on two points ({(0,1)};{(1,1)} differs
# from {(1,1)};{(0,1)}).  All other laws are theorems of modal Kleene
# algebra and of the relation/state-transformer isomorphism.
LAW_RANDOM_TRIALS = 400


def law_ops(seed: int) -> list:
    from hybridwlp.algebra import DEFAULT_GROUPS, laws_in_groups

    default = laws_in_groups(DEFAULT_GROUPS)
    functor = laws_in_groups(["functor"])
    ops = []
    for model in ("rel", "sta"):
        ops += [LawOp(model, 2, law, "exhaustive", 0, True) for law in default + functor]
        ops.append(LawOp(model, 2, "compose-comm", "exhaustive", 0, False))
    for model, n in (("rel", 3), ("sta", 4)):
        ops += [LawOp(model, n, law, "random", LAW_RANDOM_TRIALS, True) for law in default]
        ops.append(LawOp(model, n, "compose-comm", "random", LAW_RANDOM_TRIALS, False))
    _rng(seed, "laws-order").shuffle(ops)
    return ops
