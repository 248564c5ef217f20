"""Spans and counters around the kernel's public functions.

The tracer wraps functions from the benchmark's side: for each target it
replaces the function object in every `hybridwlp` module that holds it,
because `cli`, `discharge`, `odecert`, `sampling` and `hprog` bind what
they use with `from .x import y` and call it through their own globals.
Nothing inside `src/` is edited.

A span records (name, start, end, parent, op id).  Spans stay in memory
and are written out when the run ends.  A layer's self time is its span's
duration minus the time of the spans it directly contains.  Leaf functions
called millions of times (`expr.evaluate`, `expr.eval_pred`) get a
counter only, because timing them would swamp the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import fields

# discharge() proves with these methods; "lemma:<name>" counts as "lemma".
DISCHARGE_METHODS = (
    "vacuous", "trivial", "hypothesis-match", "poly-identity",
    "fourier-motzkin", "square-rule", "lemma",
)
# sample_valuation is attributed to the nearest enclosing span of these.
SAMPLE_CALLERS = {
    "discharge.lemma_validate": "lemma",
    "discharge.discharge": "refute",
    "odecert.falsify": "falsify",
}
SAMPLE_GROUPS = ("lemma", "refute", "falsify", "other")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list = []  # [span index, name, start, child seconds]
        self.self_s: defaultdict = defaultdict(float)
        self.outcome_s: defaultdict = defaultdict(float)  # discharge() by verdict
        self.counts: Counter = Counter()
        self.op_id = -1
        self.obligation_lists: list = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.spans.append(None)
        self.stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        index, name, start, child = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        self.spans[index] = (name, start, end, parent, self.op_id)
        duration = end - start
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        return duration

    def enclosing(self, names) -> str:
        for _, name, _, _ in reversed(self.stack):
            if name in names:
                return name
        return ""

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    # -- installation --------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make, home: bool = True):
        """Swap function `module.attr` for make(original) in every package
        module holding it; the defining module too unless home is False
        (for recursive leaves whose inner calls must not count)."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if not (name == "hybridwlp" or name.startswith("hybridwlp.")):
                continue
            if name == module_name and not home:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _span(self, name: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = self.exit()
                    self.counts[f"{name}.calls"] += 1
                if after is not None:
                    after(result, duration)
                return result
            return wrapper
        return make

    def _counter(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        c = self.counts

        def on_verify(obligations, _):
            c["vcgen.obligations"] += len(obligations)
            self.obligation_lists.append(obligations)

        def on_discharge(verdict, duration):
            c[f"discharge.{verdict.kind}"] += 1
            self.outcome_s[verdict.kind] += duration
            if verdict.kind == "proved":
                for m in verdict.method.split("+"):
                    c[f"discharge.method.{m.split(':')[0]}"] += 1

        def on_lemma(lemma, _):
            c["discharge.lemma_samples"] += lemma.trials

        def on_certify(cert, _):
            c["odecert.certified"] += bool(cert.issued)

        def on_orbit(orbit, _):
            c["hprog.orbit_points"] += len(orbit)

        def on_law(report, _):
            c["algebra.instances_checked"] += report.checked

        def sample(fn):
            inner = self._span("sampling.sample")(fn)

            def wrapper(*args, **kwargs):
                group = SAMPLE_CALLERS.get(self.enclosing(SAMPLE_CALLERS), "other")
                start = self.self_s["sampling.sample"]
                result = inner(*args, **kwargs)
                self.self_s[f"sampling.{group}.sample"] += self.self_s["sampling.sample"] - start
                c[f"sampling.{group}.calls"] += 1
                c[f"sampling.{group}.accepted"] += result is not None
                c["sampling.accepted"] += result is not None
                return result
            return wrapper

        r = self._replace
        r("hybridwlp.hwl", "parse_spec", self._span("hwl.parse"))
        r("hybridwlp.cli", "run_verify", self._span("cli.run_verify"))
        r("hybridwlp.vcgen", "verify", self._span("vcgen.wlp", on_verify))
        r("hybridwlp.polynorm", "normalize", self._span("polynorm.normalize"))
        r("hybridwlp.discharge", "discharge", self._span("discharge.discharge", on_discharge))
        r("hybridwlp.discharge", "fm_implication", self._span("discharge.fm"))
        r("hybridwlp.discharge", "fourier_motzkin", self._span("discharge.fm"))
        r("hybridwlp.discharge", "square_rule", self._span("discharge.square_rule"))
        r("hybridwlp.discharge", "validate_lemma", self._span("discharge.lemma_validate", on_lemma))
        r("hybridwlp.sampling", "sample_valuation", sample)
        r("hybridwlp.odecert", "certify_flow", self._span("odecert.certify_flow", on_certify))
        r("hybridwlp.odecert", "rk4_integrate", self._span("odecert.rk4"))
        r("hybridwlp.odecert", "lipschitz_estimate", self._span("odecert.lipschitz"))
        r("hybridwlp.odecert", "check_diff_invariant", self._span("odecert.dinv"))
        r("hybridwlp.odecert", "falsify", self._span("odecert.falsify"))
        r("hybridwlp.hprog", "find_violation", self._span("hprog.find_violation"))
        r("hybridwlp.hprog", "guarded_orbit_flow", self._span("hprog.orbit", on_orbit))
        r("hybridwlp.hprog", "guarded_orbit_field", self._span("hprog.orbit", on_orbit))
        r("hybridwlp.expr", "evaluate", self._counter("expr.evaluate_calls"), home=False)
        r("hybridwlp.expr", "eval_pred", self._counter("expr.eval_pred_calls"), home=False)
        r("hybridwlp.algebra", "check_law", self._span("algebra.check_law", on_law))

    # -- per-op bookkeeping --------------------------------------------------

    def end_op(self) -> None:
        """Count expression nodes of the obligations built during the op,
        outside every span so the count adds no layer time."""
        memo: dict = {}
        for obligations in self.obligation_lists:
            for ob in obligations:
                nodes = _tree_size(ob.concl, memo)
                nodes += sum(_tree_size(h, memo) for h in ob.hyps)
                self.counts["vcgen.obligation_nodes"] += nodes
        self.obligation_lists.clear()

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        c, own = self.counts, self.self_s

        def share(num, den):
            return num / den if den else 0.0

        out = {
            "hwl.parse_s": own["hwl.parse"],
            "hwl.parse_calls": c["hwl.parse.calls"],
            "vcgen.wlp_s": own["vcgen.wlp"],
            "vcgen.obligations": c["vcgen.obligations"],
            "vcgen.obligation_nodes": c["vcgen.obligation_nodes"],
            "polynorm.normalize_s": own["polynorm.normalize"],
            "polynorm.normalize_calls": c["polynorm.normalize.calls"],
            "discharge.calls": c["discharge.discharge.calls"],
            "discharge.self_s": own["discharge.discharge"],
            "discharge.prove_s": self.outcome_s["proved"],
            "discharge.refute_s": self.outcome_s["refuted"],
            "discharge.unknown_s": self.outcome_s["unknown"],
            "discharge.proved_share": share(
                c["discharge.proved"],
                c["discharge.proved"] + c["discharge.refuted"] + c["discharge.unknown"]),
            "discharge.fm_s": own["discharge.fm"],
            "discharge.square_rule_s": own["discharge.square_rule"],
            "discharge.lemma_validate_s": own["discharge.lemma_validate"],
            "discharge.lemma_samples": c["discharge.lemma_samples"],
        }
        for m in DISCHARGE_METHODS:
            out[f"discharge.method.{m}"] = c[f"discharge.method.{m}"]
        calls = c["sampling.sample.calls"]
        out["sampling.sample_s"] = own["sampling.sample"]
        out["sampling.sample_calls"] = calls
        out["sampling.accept_ratio"] = share(c["sampling.accepted"], calls)
        for g in SAMPLE_GROUPS:
            out[f"sampling.{g}.sample_s"] = own[f"sampling.{g}.sample"]
            out[f"sampling.{g}.sample_calls"] = c[f"sampling.{g}.calls"]
            out[f"sampling.{g}.accept_ratio"] = share(
                c[f"sampling.{g}.accepted"], c[f"sampling.{g}.calls"])
        certs = c["odecert.certify_flow.calls"]
        out.update({
            "odecert.certify_flow_s": own["odecert.certify_flow"],
            "odecert.certify_flow_calls": certs,
            "odecert.certified_share": share(c["odecert.certified"], certs),
            "odecert.rk4_s": own["odecert.rk4"],
            "odecert.rk4_calls": c["odecert.rk4.calls"],
            "odecert.lipschitz_s": own["odecert.lipschitz"],
            "odecert.dinv_s": own["odecert.dinv"],
            "odecert.dinv_calls": c["odecert.dinv.calls"],
            "odecert.falsify_s": own["odecert.falsify"],
            "odecert.falsify_calls": c["odecert.falsify.calls"],
            "hprog.find_violation_s": own["hprog.find_violation"],
            "hprog.find_violation_calls": c["hprog.find_violation.calls"],
            "hprog.orbit_s": own["hprog.orbit"],
            "hprog.orbit_calls": c["hprog.orbit.calls"],
            "hprog.orbit_points": c["hprog.orbit_points"],
            "expr.evaluate_calls": c["expr.evaluate_calls"],
            "expr.eval_pred_calls": c["expr.eval_pred_calls"],
            "algebra.check_law_s": own["algebra.check_law"],
            "algebra.instances_checked": c["algebra.instances_checked"],
            "algebra.instances_per_s": share(
                c["algebra.instances_checked"], own["algebra.check_law"]),
            "cli.self_s": own["cli.run_verify"],
            "trace.spans": len(self.spans),
        })
        return out


def _tree_size(node, memo: dict) -> int:
    """Node count of a predicate/expression tree, counting shared subtrees
    once per occurrence (the size a tree walk visits)."""
    from hybridwlp.expr import Expr, Pred

    key = id(node)
    if key in memo:
        return memo[key]
    size = 1
    for f in fields(node):
        value = getattr(node, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, (Expr, Pred)):
                size += _tree_size(item, memo)
    memo[key] = size
    return size
