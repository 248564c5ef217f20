"""Command-line frontend: verify, certify, falsify, laws, fmt.

Exit codes for verify: 0 when every obligation is proved, 2 when any is
refuted, 1 when any is unknown.  falsify exits 2 when a counterexample is
found, and 1 (undecided, as for verify) when a run reaches a store where
the post, a test, a branch condition or an assignment cannot be evaluated.
All commands accept --json for machine-readable reports.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import fields
from typing import Optional

from . import algebra
from .discharge import DischargeBudget, Verdict, discharge, establish_lemma
from .hwl import ParseError, format_spec, parse_pred, parse_spec
from .odecert import (
    FalsifyBudget,
    certify_flow,
    check_diff_invariant,
    falsify,
)
from .sampling import sample_valuation
from .vcgen import Obligation, VerifySpec, dc_split, verify


def _load(path: str) -> VerifySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


class SettingError(ValueError):
    """A flag or config value that its setting cannot take."""


def _setting(name: str, default, spec: VerifySpec, flag=None):
    """A setting's value: the flag given, else the file's config value,
    else default.  step and horizon must be positive finite numbers, seed
    an integer and any other setting a nonnegative integer (a count)."""
    value = flag if flag is not None else spec.config.get(name, default)
    if name in ("step", "horizon"):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not 0 < number < math.inf:  # also false for NaN
            raise SettingError(f"{name} must be positive and finite, got {value}")
        return number
    if isinstance(value, bool) or not isinstance(value, int):
        raise SettingError(f"{name} must be an integer, got {value}")
    if name != "seed" and value < 0:
        raise SettingError(f"{name} must be nonnegative, got {value}")
    return value


def _const_valuations(spec: VerifySpec, seed: int, k: int = 3) -> list:
    if not spec.consts:
        return [{}]
    rng = random.Random(seed)
    out = []
    for _ in range(k):
        v = sample_valuation(
            list(spec.consts), spec.assumptions, rng, ranges=spec.const_ranges,
            attempts=200,
        )
        if v is not None:
            out.append(v)
    return out or [{c: 1.0 for c in spec.consts}]


def _deciders(spec: VerifySpec, seed=None, trials=None, step=None, horizon=None):
    """The established lemmas, in declaration order, and the discharge
    budget that decide a problem's obligations.  Each setting is the flag
    given, else the file's config value, else the budget's default."""
    budget = DischargeBudget(
        seed=_setting("seed", DischargeBudget.seed, spec, seed),
        refute_trials=_setting("trials", DischargeBudget.refute_trials, spec, trials),
        grid_step=_setting("step", DischargeBudget.grid_step, spec, step),
        grid_horizon=_setting("horizon", DischargeBudget.grid_horizon, spec, horizon),
    )
    lemmas = ()
    lemma_trials = _setting("lemma_trials", 2000, spec)
    for lemma in spec.lemmas:
        lemmas += (establish_lemma(lemma, lemmas, trials=lemma_trials, seed=budget.seed),)
    return lemmas, budget


def _route(ob: Obligation, spec: VerifySpec, lemmas: tuple, budget: DischargeBudget):
    """Dispatch one obligation; returns (verdict, detail-json-or-None)."""
    if ob.kind == "arith":
        return discharge(ob, lemmas, budget, ranges=spec.const_ranges), None
    if ob.kind == "flow_cert":
        ev = ob.payload
        cert = certify_flow(
            ev.field, ev.flow, ev.dom,
            const_valuations=_const_valuations(spec, budget.seed),
            seed=budget.seed, assumptions=spec.assumptions,
        )
        if cert.issued:
            return Verdict("proved", method="flow-certificate"), cert.to_json()
        if cert.refusal_witness:
            return (
                Verdict("refuted", witness=cert.refusal_witness, reason=cert.refusal),
                cert.to_json(),
            )
        return Verdict("unknown", reason=cert.refusal), cert.to_json()
    if ob.kind == "diff_inv":
        ev = ob.payload
        report = check_diff_invariant(
            ev.dinv, ev.field, ev.dom, assumptions=spec.assumptions, lemmas=lemmas,
            budget=budget,
        )
        if report.overall.proved:
            methods = "+".join(
                sorted({r.verdict.method for r in report.rulings if r.verdict.method})
            )
            return Verdict("proved", method=methods or "diff-invariant"), report.to_json()
        reasons = "; ".join(
            r.verdict.reason for r in report.rulings if r.verdict.kind != "proved"
        )
        return (
            Verdict("unknown", reason=reasons or "invariance not established"),
            report.to_json(),
        )
    if ob.kind == "opaque":
        return Verdict("unknown", reason=ob.payload), None
    raise ValueError(f"unknown obligation kind {ob.kind!r}")


def _exit_code(verdicts) -> int:
    kinds = {v.kind for v in verdicts}
    if "refuted" in kinds:
        return 2
    if "unknown" in kinds:
        return 1
    return 0


def _verify_report(spec: VerifySpec, results) -> dict:
    verdicts = [v for _, v, _ in results]
    entries = []
    for ob, vd, detail in results:
        entry = {
            "id": ob.id,
            "provenance": ob.provenance,
            "kind": ob.kind,
            "forall": list(ob.forall),
            "verdict": vd.to_json(),
        }
        if detail is not None:
            entry["detail"] = detail
        entries.append(entry)
    return {
        "problem": spec.name,
        "obligations": entries,
        "summary": {
            "proved": sum(v.kind == "proved" for v in verdicts),
            "refuted": sum(v.kind == "refuted" for v in verdicts),
            "unknown": sum(v.kind == "unknown" for v in verdicts),
            "exit": _exit_code(verdicts),
        },
    }


def run_verify(
    spec: VerifySpec,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    step: Optional[float] = None,
    horizon: Optional[float] = None,
    extra_obligations: tuple = (),
) -> dict:
    """Full pipeline on a parsed problem; returns the report dict.  A
    setting left None comes from the file's config, else its default."""
    lemmas, budget = _deciders(spec, seed, trials, step, horizon)
    obligations = verify(spec) + list(extra_obligations)
    results = [(ob, *_route(ob, spec, lemmas, budget)) for ob in obligations]
    report = _verify_report(spec, results)
    report["lemmas"] = [l.to_json() for l in lemmas]
    return report


def cmd_verify(args) -> int:
    spec = _load(args.file)
    extra = ()
    if args.dc:
        spec, extra = dc_split(spec, parse_pred(args.dc, spec.vars, spec.consts))
    report = run_verify(
        spec, seed=args.seed, trials=args.trials, step=args.step,
        horizon=args.horizon, extra_obligations=extra,
    )
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        print(f"problem {report['problem']}")
        for entry in report["obligations"]:
            vd = entry["verdict"]
            extra = vd.get("method") or vd.get("reason") or ""
            if vd["status"] == "refuted":
                extra = "witness " + json.dumps(vd.get("witness", {}), default=str)
            print(f"  {entry['id']:>5} {vd['status']:<8} {entry['provenance']:<40} {extra}")
        s = report["summary"]
        print(
            f"summary: {s['proved']} proved, {s['refuted']} refuted, "
            f"{s['unknown']} unknown"
        )
    return report["summary"]["exit"]


_CERTIFY_KINDS = {"flow_cert": "flow", "diff_inv": "dinv"}


def run_certify(
    spec: VerifySpec,
    seed: Optional[int] = None,
    kinds: tuple = ("flow", "dinv"),
) -> dict:
    """verify restricted to side conditions: each flow certificate and
    differential-invariance obligation whose kind is in kinds, decided as
    run_verify decides it; ok when every one of them is proved."""
    lemmas, budget = _deciders(spec, seed)
    entries = []
    ok = True
    for ob in verify(spec):
        kind = _CERTIFY_KINDS.get(ob.kind)
        if kind not in kinds:
            continue
        verdict, detail = _route(ob, spec, lemmas, budget)
        entries.append({"at": ob.provenance.split("@", 1)[1], "kind": kind, "report": detail})
        ok = ok and verdict.kind == "proved"
    return {"problem": spec.name, "certificates": entries, "ok": ok}


def cmd_certify(args) -> int:
    spec = _load(args.file)
    doc = run_certify(
        spec,
        seed=args.seed,
        kinds=("flow",) if args.flow_only else ("dinv",) if args.dinv_only else ("flow", "dinv"),
    )
    if args.json:
        print(json.dumps(doc, indent=2, default=str))
    else:
        print(f"problem {spec.name}")
        for e in doc["certificates"]:
            status = e["report"].get("issued", e["report"].get("verdict", {}).get("status"))
            print(f"  {e['kind']} at {e['at']}: {status}")
        print("certification", "OK" if doc["ok"] else "FAILED")
    return 0 if doc["ok"] else 1


def cmd_falsify(args) -> int:
    spec = _load(args.file)
    budget = FalsifyBudget(**{  # fuel has no flag
        f.name: _setting(f.name, f.default, spec, getattr(args, f.name, None))
        for f in fields(FalsifyBudget)})
    cex = falsify(spec, budget)
    if args.json:
        doc = {"problem": spec.name, "counterexample": cex.to_json() if cex else None}
        print(json.dumps(doc, indent=2, default=str))
    else:
        if cex is None:
            print(f"{spec.name}: no counterexample within {budget.trials} trials")
        else:
            if cex.undefined is not None:
                print(f"{spec.name}: undefined at a reached store: {cex.undefined}")
            else:
                print(f"{spec.name}: counterexample found")
            print(f"  consts  {cex.consts}")
            print(f"  initial {cex.initial}")
            if len(cex.steps) > 4:  # the full run is in the --json report
                print(f"  ... ({len(cex.steps) - 4} earlier steps)")
            for label, store in cex.steps[-4:]:
                print(f"  {label:<16} {store}")
    if cex is None:
        return 0
    return 1 if cex.undefined is not None else 2


def cmd_laws(args) -> int:
    law_names = None
    if args.laws:
        law_names = [s.strip() for s in args.laws.split(",") if s.strip()]
        expanded = []
        for name in law_names:
            if name in algebra.LAWS:
                expanded.append(name)
            else:
                group = algebra.laws_in_groups([name])
                if not group:
                    print(f"unknown law or group {name!r}", file=sys.stderr)
                    return 2
                expanded.extend(group)
        law_names = expanded
        if not law_names:
            print("error: no law selected", file=sys.stderr)
            return 2
    try:
        reports = algebra.check_laws(
            args.model, args.n, law_names, mode=args.mode, seed=args.seed,
            trials=args.trials,
        )
    except ValueError as exc:  # n, trials or exhaustive size out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            extra = f"  counterexample: {r.counterexample}" if r.counterexample else ""
            print(f"  {r.law:<24} {r.model} n={r.n} {r.mode:<10} {status}{extra}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_fmt(args) -> int:
    spec = _load(args.file)
    sys.stdout.write(format_spec(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hybrid-wlp",
        description="Verification kernel for hybrid programs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="generate and discharge obligations")
    pv.add_argument("file")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--step", type=float, default=None)
    pv.add_argument("--horizon", type=float, default=None)
    pv.add_argument("--dc", default=None, metavar="PRED",
                    help="differential cut: strengthen the first evolve guard")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("certify", help="check flow / invariant annotations")
    pc.add_argument("file")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--seed", type=int, default=None)
    group = pc.add_mutually_exclusive_group()
    group.add_argument("--flow-only", action="store_true")
    group.add_argument("--dinv-only", action="store_true")
    pc.set_defaults(func=cmd_certify)

    pf = sub.add_parser("falsify", help="search for a counterexample run")
    pf.add_argument("file")
    pf.add_argument("--json", action="store_true")
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--trials", type=int, default=None)
    pf.add_argument("--step", type=float, default=None)
    pf.add_argument("--horizon", type=float, default=None)
    pf.set_defaults(func=cmd_falsify)

    pl = sub.add_parser("laws", help="check algebraic laws on finite models")
    pl.add_argument("--model", choices=("rel", "sta"), default="rel")
    pl.add_argument("--n", type=int, default=2)
    pl.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--trials", type=int, default=1000)
    pl.add_argument("--laws", default=None,
                    help="comma-separated law names or group names")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=cmd_laws)

    pm = sub.add_parser("fmt", help="print the canonical form of a problem file")
    pm.add_argument("file")
    pm.set_defaults(func=cmd_fmt)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SettingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the program walks take a Python frame per nesting level
        print("error: term nesting too deep for this kernel "
              f"(Python recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
