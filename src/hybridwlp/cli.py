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
import random
import sys
from dataclasses import replace
from typing import Optional

from . import algebra
from .discharge import DischargeBudget, LemmaDB, Verdict, discharge, validate_lemma
from .hwl import ParseError, SpecFile, format_spec, parse_spec
from .odecert import (
    FalsifyBudget,
    certify_flow,
    check_diff_invariant,
    falsify,
)
from .sampling import sample_valuation
from .vcgen import Obligation, dc_split, verify


def _load(path: str) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _setting(name: str, default, spec: SpecFile, flag):
    if flag is not None:
        return flag
    if name in spec.config:
        return spec.config[name]
    return default


def _const_valuations(spec: SpecFile, seed: int, k: int = 3) -> list:
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


def _deciders(spec: SpecFile, seed: int, trials=None, step=None, horizon=None):
    """The validated lemma DB and the discharge budget that decide a
    problem's obligations; trials defaults to the file's config value."""
    trials = _setting("trials", None, spec, trials)
    budget = DischargeBudget(
        seed=seed,
        refute_trials=int(trials) if trials is not None else DischargeBudget.refute_trials,
        grid_step=float(step) if step is not None else DischargeBudget.grid_step,
        grid_horizon=float(horizon) if horizon is not None else DischargeBudget.grid_horizon,
    )
    db = LemmaDB()
    lemma_trials = int(spec.config.get("lemma_trials", 2000))
    for lemma in spec.lemmas:
        db.add(validate_lemma(lemma, trials=lemma_trials, seed=seed))
    return db, budget


def _route(ob: Obligation, spec: SpecFile, db: LemmaDB, budget: DischargeBudget,
           seed: int):
    """Dispatch one obligation; returns (verdict, detail-json-or-None)."""
    if ob.kind == "arith":
        return discharge(ob, db, budget, ranges=spec.const_ranges), None
    if ob.kind == "flow_cert":
        ev = ob.payload
        cert = certify_flow(
            ev.field, ev.flow, ev.dom,
            const_valuations=_const_valuations(spec, seed),
            seed=seed,
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
            ev.dinv, ev.field, ev.dom, assumptions=spec.assumptions, db=db,
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
        return (
            Verdict("unknown", reason="evolution command carries no flow or invariant"),
            None,
        )
    raise ValueError(f"unknown obligation kind {ob.kind!r}")


def _exit_code(verdicts) -> int:
    kinds = {v.kind for v in verdicts}
    if "refuted" in kinds:
        return 2
    if "unknown" in kinds:
        return 1
    return 0


def _verify_report(spec: SpecFile, results) -> dict:
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
    spec: SpecFile,
    seed: int = 0,
    trials: Optional[int] = None,
    step: Optional[float] = None,
    horizon: Optional[float] = None,
    extra_obligations: tuple = (),
) -> dict:
    """Full pipeline on a parsed problem; returns the report dict."""
    db, budget = _deciders(spec, seed, trials, step, horizon)
    obligations = verify(spec.to_verify_spec()) + list(extra_obligations)
    results = [(ob, *_route(ob, spec, db, budget, seed)) for ob in obligations]
    report = _verify_report(spec, results)
    report["lemmas"] = [
        {"name": l.name, "status": l.status, "trials": l.trials} for l in db.lemmas
    ]
    return report


def cmd_verify(args) -> int:
    spec = _load(args.file)
    seed = int(_setting("seed", 0, spec, args.seed))
    extra = ()
    if args.dc:
        from .hwl import _Parser, tokenize

        parser = _Parser(tokenize(args.dc))
        parser.vars, parser.consts = spec.vars, spec.consts
        cut = parser.parse_pred()
        parser.expect_end()
        vspec, dc_obs = dc_split(spec.to_verify_spec(), cut)
        spec = replace(spec, program=vspec.program)
        extra = tuple(dc_obs)
    report = run_verify(
        spec,
        seed=seed,
        trials=args.trials,
        step=_setting("step", None, spec, args.step),
        horizon=_setting("horizon", None, spec, args.horizon),
        extra_obligations=extra,
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
    spec: SpecFile,
    seed: int = 0,
    kinds: tuple = ("flow", "dinv"),
) -> dict:
    """verify restricted to side conditions: each flow certificate and
    differential-invariance obligation whose kind is in kinds, decided as
    run_verify decides it; ok when every one of them is proved."""
    db, budget = _deciders(spec, seed)
    entries = []
    ok = True
    for ob in verify(spec.to_verify_spec()):
        kind = _CERTIFY_KINDS.get(ob.kind)
        if kind not in kinds:
            continue
        verdict, detail = _route(ob, spec, db, budget, seed)
        entries.append({"at": ob.provenance.split("@", 1)[1], "kind": kind, "report": detail})
        ok = ok and verdict.kind == "proved"
    return {"problem": spec.name, "certificates": entries, "ok": ok}


def cmd_certify(args) -> int:
    spec = _load(args.file)
    doc = run_certify(
        spec,
        seed=int(_setting("seed", 0, spec, args.seed)),
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
    budget = FalsifyBudget(
        trials=int(_setting("trials", 200, spec, args.trials)),
        horizon=float(_setting("horizon", 6.0, spec, args.horizon)),
        step=float(_setting("step", 0.05, spec, args.step)),
        fuel=int(spec.config.get("fuel", 12)),
        seed=int(_setting("seed", 0, spec, args.seed)),
    )
    cex = falsify(spec.to_verify_spec(), budget)
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
    reports = algebra.check_laws(
        args.model, args.n, law_names, mode=args.mode, seed=args.seed,
        trials=args.trials,
    )
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
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
