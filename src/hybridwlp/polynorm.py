"""Canonical polynomial normal form with exact rational coefficients.

Expressions are normalized to multivariate polynomials over atoms:
variables, symbolic constants, the time symbol, reciprocals of symbolic
constants, and opaque transcendental subterms (sin/cos/exp keyed by their
normalized arguments).  One ideal reduction, sin(u)^2 -> 1 - cos(u)^2, is
applied on top of plain expansion.  A quotient by a nonzero monomial of
rational and symbolic-constant factors multiplies by its inverse (1/c is
the atom inv(c)); any other quotient is an opaque atom.  So normal forms
hold under total division (1/0 = 0) with no context; c * inv(c) = 1 needs
c != 0, and only cancel_inverses takes it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .expr import (
    Add,
    Cmp,
    Const,
    Cos,
    Div,
    EVAL_FAILURES,
    Exp,
    Expr,
    Mul,
    Neg,
    Pow,
    Sin,
    Sub,
    SymConst,
    TimeVar,
    Var,
    TIME_NAME,
    const,
    evaluate,
    fold,
    free_names,
)

_KIND_RANK = {"var": 0, "const": 1, "time": 2, "inv": 3, "sin": 4, "cos": 5, "exp": 6, "div": 7}


class Atom(NamedTuple):
    """An indivisible factor of a monomial.  A tuple, so that its hash and
    equality run in C."""

    kind: str
    name: str = ""
    args: tuple["Poly", ...] = ()

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.name, tuple(a.key() for a in self.args))


Mono = tuple[tuple[Atom, int], ...]

_EMPTY_MONO: Mono = ()


def mono_key(m: Mono):
    """Fully primitive (hence orderable) key for a monomial."""
    return tuple((a.sort_key(), k) for a, k in m)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    powers: dict[Atom, int] = {}
    for atom, k in itertools.chain(a, b):
        powers[atom] = powers.get(atom, 0) + k
    return _mono_sorted(powers)


def _mono_sorted(powers: Mapping[Atom, int]) -> Mono:
    items = [(atom, k) for atom, k in powers.items() if k != 0]
    items.sort(key=lambda it: it[0].sort_key())
    return tuple(items)


class Poly:
    """Immutable canonical polynomial: a map from monomials to rationals."""

    __slots__ = ("terms", "_key", "_sign_key")

    def __init__(self, terms: Mapping[Mono, Fraction]):
        clean = {m: c for m, c in terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_sign_key", None)

    def key(self):
        if self._key is None:
            items = sorted(
                ((mono_key(m), c) for m, c in self.terms.items()),
                key=lambda it: it[0],
            )
            object.__setattr__(
                self,
                "_key",
                tuple((mk, (c.numerator, c.denominator)) for mk, c in items),
            )
        return self._key

    def sign_key(self):
        """key() of p or of -p, whichever has a positive coefficient on its
        first monomial in key order: the one key of p = 0 and of -p = 0."""
        if self._sign_key is None:
            key = self.key()
            if key and key[0][1][0] < 0:
                key = tuple((mk, (-num, den)) for mk, (num, den) in key)
            object.__setattr__(self, "_sign_key", key)
        return self._sign_key

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, Poly) and self.key() == other.key()

    def __repr__(self):
        return f"Poly({self.terms!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Optional[Fraction]:
        """The rational value if the polynomial is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and _EMPTY_MONO in self.terms:
            return self.terms[_EMPTY_MONO]
        return None

    def atoms(self) -> set[Atom]:
        out: set[Atom] = set()
        for m in self.terms:
            for atom, _ in m:
                out.add(atom)
        return out

    def add(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Poly(terms)

    def neg(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def scale(self, c: Fraction) -> "Poly":
        if c == 0:
            return P_ZERO
        return Poly({m: k * c for m, k in self.terms.items()})

    def mul(self, other: "Poly") -> "Poly":
        terms: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return _reduce(Poly(terms))

    def pow(self, n: int) -> "Poly":
        out = P_ONE
        for _ in range(n):
            out = out.mul(self)
        return out

    def degree_in(self, name: str) -> int:
        """Highest power of the var/const/time atom with this name."""
        deg = 0
        for m in self.terms:
            for atom, k in m:
                if atom.kind in ("var", "const", "time") and atom.name == name:
                    deg = max(deg, k)
        return deg


P_ZERO = Poly({})
P_ONE = Poly({_EMPTY_MONO: Fraction(1)})


def poly_const(c: Fraction) -> Poly:
    return Poly({_EMPTY_MONO: Fraction(c)})


def poly_atom(atom: Atom, power: int = 1) -> Poly:
    return Poly({((atom, power),): Fraction(1)})


def _reduce(p: Poly) -> Poly:
    """Apply the sin^2 reduction to a fixpoint."""
    changed = True
    while changed:
        changed = False
        terms: dict[Mono, Fraction] = {}
        for m, c in p.terms.items():
            rewritten = _reduce_mono(m, c)
            if rewritten is None:
                terms[m] = terms.get(m, Fraction(0)) + c
            else:
                changed = True
                for m2, c2 in rewritten.terms.items():
                    terms[m2] = terms.get(m2, Fraction(0)) + c2
        p = Poly(terms)
    return p


def _reduce_mono(m: Mono, coeff: Fraction) -> Optional[Poly]:
    """coeff * m with sin(u)^2 -> 1 - cos(u)^2 at its first sin atom of
    power 2 or more; None when it has none."""
    for atom, k in m:
        if atom.kind == "sin" and k >= 2:
            powers = dict(m)
            powers[atom] = k - 2
            rest = Poly({_mono_sorted(powers): coeff})
            cos_sq = poly_atom(Atom("cos", args=atom.args), 2)
            return rest.mul(P_ONE.sub(cos_sq))
    return None


def inverse_pairs(p: Poly) -> list[str]:
    """The sorted constants c that a monomial of p holds with inv(c)."""
    return sorted({a.name for m in p.terms for a, _ in m
                   if a.kind == "inv" and any(b == Atom("const", a.name) for b, _ in m)})


def cancel_inverses(p: Poly, nonzero) -> Poly:
    """p with c^a * inv(c)^b cancelled in each monomial for each constant c
    in nonzero, which must hold only constants proved nonzero under the
    hypotheses p is read under."""
    if not nonzero:
        return p
    terms: dict[Mono, Fraction] = {}
    for m, coeff in p.terms.items():
        powers = dict(m)
        for atom, k in m:
            if atom.kind == "inv" and atom.name in nonzero:
                base = Atom("const", atom.name)
                cancel = min(k, powers.get(base, 0))
                powers[atom] -= cancel
                powers[base] = powers.get(base, 0) - cancel
        m = _mono_sorted(powers)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return Poly(terms)


class NormalizeError(Exception):
    pass


def _invert_monomial(p: Poly) -> Optional[Poly]:
    """Inverse of a single-monomial polynomial of constant-like atoms, or None."""
    if len(p.terms) != 1:
        return None
    (mono, coeff), = p.terms.items()
    if coeff == 0:
        return None
    inv_powers: dict[Atom, int] = {}
    for atom, k in mono:
        if atom.kind == "const":
            inv_powers[Atom("inv", atom.name)] = k
        elif atom.kind == "inv":
            inv_powers[Atom("const", atom.name)] = k
        else:
            return None
    return Poly({_mono_sorted(inv_powers): Fraction(1) / coeff})


@functools.lru_cache(maxsize=8192)
def normalize(e: Expr) -> Poly:
    """Canonical multivariate polynomial form of an expression.

    Expression trees are immutable, so results are memoized.
    """
    return _reduce(fold(e, _norm))


def _norm(e: Expr, args: list) -> Poly:
    """The polynomial of e from its children's."""
    kind = type(e)
    if kind is Const:
        return poly_const(e.value)
    if kind is SymConst:
        return poly_atom(Atom("const", e.name))
    if kind is Var:
        return poly_atom(Atom("var", e.name))
    if kind is TimeVar:
        return poly_atom(Atom("time", TIME_NAME))
    if kind is Neg:
        return args[0].neg()
    if kind is Add or kind is Sub or kind is Mul:
        return _ARITH[kind](*args)
    if kind is Pow:
        return args[0].pow(e.exp)
    if kind is Sin or kind is Cos or kind is Exp:
        p, = args
        if p.is_zero():
            return P_ZERO if kind is Sin else P_ONE
        return poly_atom(Atom(_FUNCTION_KINDS[kind], args=(p,)))
    if kind is Div:
        pn, pd = args
        if pd.is_zero():
            raise NormalizeError("denominator normalizes to zero")
        inv = _invert_monomial(pd)
        if inv is not None:
            return pn.mul(inv)
        return poly_atom(Atom("div", args=(pn, pd)))
    raise TypeError(f"not an Expr node: {e!r}")


_ARITH = {Add: Poly.add, Sub: Poly.sub, Mul: Poly.mul}
_FUNCTION_KINDS = {Sin: "sin", Cos: "cos", Exp: "exp"}


_ATOM_REL = {"<": ">", "<=": ">=", ">": ">", ">=": ">=", "=": "=", "!=": "!="}


def atom_form(c: Cmp) -> Optional[tuple[Poly, str]]:
    """A comparison as (p, rel), read "p rel 0" with rel in >=, >, =, !=.

    `<` and `<=` read as rhs - lhs, every other operator as lhs - rhs; the
    sign of an (in)equation is left as written.  None when normalization
    fails.
    """
    diff = Sub(c.rhs, c.lhs) if c.op in ("<", "<=") else Sub(c.lhs, c.rhs)
    try:
        return normalize(diff), _ATOM_REL[c.op]
    except NormalizeError:
        return None


def atom_to_expr(atom: Atom) -> Expr:
    if atom.kind == "var":
        return Var(atom.name)
    if atom.kind == "const":
        return SymConst(atom.name)
    if atom.kind == "time":
        return TimeVar()
    if atom.kind == "inv":
        return Div(const(1), SymConst(atom.name))
    if atom.kind == "sin":
        return Sin(poly_to_expr(atom.args[0]))
    if atom.kind == "cos":
        return Cos(poly_to_expr(atom.args[0]))
    if atom.kind == "exp":
        return Exp(poly_to_expr(atom.args[0]))
    if atom.kind == "div":
        return Div(poly_to_expr(atom.args[0]), poly_to_expr(atom.args[1]))
    raise ValueError(f"unknown atom kind {atom.kind!r}")


def poly_to_expr(p: Poly) -> Expr:
    if p.is_zero():
        return const(0)
    parts: list[Expr] = []
    items = sorted(p.terms.items(), key=lambda it: mono_key(it[0]))
    for mono, coeff in items:
        factors: list[Expr] = []
        if coeff != 1 or not mono:
            factors.append(const(coeff))
        for atom, k in mono:
            base = atom_to_expr(atom)
            factors.append(base if k == 1 else Pow(base, k))
        term = factors[0]
        for f in factors[1:]:
            term = Mul(term, f)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out = Add(out, term)
    return out


# ---------------------------------------------------------------------------
# Expression equality


@dataclass(frozen=True)
class EqResult:
    kind: str  # "equal" | "not-equal" | "unknown"
    witness: dict = field(default_factory=dict)
    note: str = ""

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"


EQ_SAMPLE_POINTS = 32
EQ_REL_TOL = 1e-9


def expr_eq(
    a: Expr,
    b: Expr,
    seed: int = 0,
    samples: int = EQ_SAMPLE_POINTS,
    rel_tol: float = EQ_REL_TOL,
    nonzero=(),
) -> EqResult:
    """Decide equality in the polynomial fragment; otherwise sample numerically.

    Returns Equal iff the normalized difference, cancel_inverses applied
    for nonzero, is identically zero.  Outside the fragment (or when the
    ideal reductions do not apply) the verdict is Unknown("likely-equal")
    when sampling agrees everywhere, or NotEqual with a witness valuation.
    """
    try:
        if cancel_inverses(normalize(Sub(a, b)), nonzero).is_zero():
            return EqResult("equal")
    except NormalizeError:
        pass
    names = sorted(free_names(a) | free_names(b))
    rng = random.Random(seed)
    agreed = 0
    attempts = 0
    while agreed < samples and attempts < samples * 20:
        attempts += 1
        v = {n: rng.uniform(-2.0, 2.0) for n in names}
        try:
            fa = evaluate(a, v)
            fb = evaluate(b, v)
        except EVAL_FAILURES:
            continue
        if abs(fa - fb) > rel_tol * max(1.0, abs(fa), abs(fb)):
            return EqResult("not-equal", witness=v)
        agreed += 1
    if agreed == 0:
        return EqResult("unknown", note="sampling failed")
    return EqResult("unknown", note="likely-equal")


# ---------------------------------------------------------------------------
# Exact linear algebra over the rationals (used by the discharger)


def solve_linear_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Solve rows * x = rhs exactly; None when inconsistent.

    Underdetermined systems return one solution (free unknowns set to zero).
    """
    m = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(rows, rhs)]
    nrows = len(m)
    ncols = len(m[0]) - 1 if m else 0
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        scale = m[rank][col]
        m[rank] = [x / scale for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, nrows):
        if m[r][ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row, col in pivots:
        solution[col] = m[row][ncols]
    return solution


def rational_combination(target: Poly, basis: Sequence[Poly]) -> Optional[list[Fraction]]:
    """Coefficients expressing target as a rational combination of basis polys."""
    if not basis:
        return [] if target.is_zero() else None
    monos: set[Mono] = set(target.terms)
    for p in basis:
        monos |= set(p.terms)
    ordered = sorted(monos, key=mono_key)
    rows = [[p.terms.get(m, Fraction(0)) for p in basis] for m in ordered]
    rhs = [target.terms.get(m, Fraction(0)) for m in ordered]
    coeffs = solve_linear_system(rows, rhs)
    return coeffs
