"""Verification kernel for hybrid programs.

Weakest liberal preconditions over hybrid-program ASTs, flow certification
against vector fields, differential-invariant checking via Lie derivatives,
and a lightweight arithmetic discharger, grounded in finite models of the
underlying modal algebra.
"""

from .expr import (
    Add,
    And,
    Cmp,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    FALSE,
    FalsePred,
    Mul,
    Neg,
    Not,
    Or,
    Pow,
    Pred,
    Sin,
    Sub,
    SymConst,
    TimeQuant,
    TimeVar,
    TRUE,
    TruePred,
    Var,
    const,
    diff,
    eval_pred,
    evaluate,
    lie_derivative,
    nnf,
    substitute,
    substitute_pred,
)
from .polynorm import expr_eq, normalize
from .hprog import (
    Abort,
    Assign,
    Choice,
    Evolve,
    Flow,
    HybridProgram,
    IfThenElse,
    Loop,
    NONNEG,
    REALS,
    RunConfig,
    Seq,
    Skip,
    Store,
    Test,
    TimeDomain,
    VectorField,
    guarded_orbit_flow,
    run_sampled,
    store_update,
)
from .vcgen import Obligation, VerifySpec, dc_split, ds_closed_form, dw_check, verify, wlp
from .discharge import (
    DischargeBudget,
    Lemma,
    Verdict,
    establish_lemma,
    fm_implication,
    linearize,
    simplex,
    validate_lemma,
)
from .odecert import (
    CounterexampleTrace,
    DiffInvariantReport,
    FalsifyBudget,
    FlowCertificate,
    certify_flow,
    check_diff_invariant,
    falsify,
    lipschitz_estimate,
    rk4_integrate,
)
from .hwl import ParseError, format_pred, format_program, format_spec, parse_spec
from .algebra import FinitePred, FiniteRel, FiniteSta, check_law, check_laws

__version__ = "0.1.0"
