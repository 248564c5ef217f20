"""Verdict benchmark for the hybridwlp kernel.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

Run from the repository root: the kernel is imported from ./src and the
shipped problems are read from ./problems.  One process, one thread.

The workload seed drives only input generation (perfbench/gen.py); the
kernel's own seed arguments stay at their defaults.  Ops run in whole
passes over the workload's inputs until at least --seconds have passed
and at least MIN_OPS ops are done.  Op times are wall times scaled to a
reference CPU speed by a calibration loop run between and during ops
(see ReferenceClock): the shared host's speed swings up to 2x within a
minute, and scaling keeps runs comparable.  Every verdict is checked against the
input's known answer; a mismatch or an exception is counted, never fatal.
Stdout gets one "row" line per input, then the result as its last line.

One untimed warm-up pass comes first, so caches are filled alike in
every timed pass.  --trace 0 prints the end-to-end metrics.  --trace 1
times one untraced pass (the reference for tracing overhead), then one
traced pass, and prints the per-layer metrics of the
traced pass (see perfbench/spans.py); its spans go to
.perfbench_out/spans-<workload>-<seed>.jsonl.
"""

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

WORKLOADS = ("prove", "refute", "search", "laws")
# Fixed on every commit.  The CLI's defaults (200 trials, fuel 12) spend
# 14.6 s on bouncing_ball alone.  A search's cost grows about as (orbit
# points)^fuel, so with fuel 4 the ball products' cost swung 2x with the
# seeded constant ranges; fuel 2 with 16 trials keeps each search under
# about 0.15 s and its seed-to-seed spread near 10%.
FALSIFY_BUDGET = {"trials": 16, "horizon": 6.0, "step": 0.05, "fuel": 2}
SETUP_ROUNDS = 5
MIN_OPS = 100
# Reference speed: the calibration loop's time at which reported seconds
# are counted (see ReferenceClock).
CAL_REF_S = 0.0012
SAMPLE_INTERVAL_S = 0.05
TAIL_QUANTILE = 0.9  # at least MIN_OPS * (1 - TAIL_QUANTILE) = 10 ops beyond it
VERDICT_OF_EXIT = {0: "proved", 1: "unknown", 2: "refuted"}
KERNEL_MODULES = ("hybridwlp.algebra", "hybridwlp.cli", "hybridwlp.hwl", "hybridwlp.odecert")


class Kernel:
    """The kernel's modules, imported afresh from ./src."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "hybridwlp" / "__init__.py").is_file():
            raise FileNotFoundError(f"no kernel sources under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules if m.split(".")[0] == "hybridwlp"]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.algebra, self.cli, self.hwl, self.odecert = (
            importlib.import_module(m) for m in KERNEL_MODULES)


def build_inputs(workload: str, seed: int) -> list:
    problems = ROOT / "problems"
    if workload == "prove":
        return gen.prove_inputs(seed, problems)
    if workload == "refute":
        return gen.refute_inputs(seed, problems)
    if workload == "search":
        return gen.search_inputs(seed, problems)
    return gen.law_ops(seed)


# ---------------------------------------------------------------------------
# Ops: each returns (verdict, method, expected, wrong, undecided)


def verify_op(k: Kernel, inp: gen.Input):
    report = k.cli.run_verify(k.hwl.parse_spec(inp.text))
    verdict = VERDICT_OF_EXIT[report["summary"]["exit"]]
    method = ";".join(o["verdict"].get("method") or o["verdict"]["status"]
                      for o in report["obligations"])
    return (verdict, method, inp.verify_expect,
            verdict not in (inp.verify_expect, "unknown"), verdict == "unknown")


def search_op(k: Kernel, inp: gen.Input):
    spec = k.hwl.parse_spec(inp.text).to_verify_spec()
    cex = k.odecert.falsify(spec, k.odecert.FalsifyBudget(**FALSIFY_BUDGET))
    verdict = "none" if cex is None else "counterexample"
    expected = "none" if inp.holds else "counterexample"
    return (verdict, f"trials={FALSIFY_BUDGET['trials']}", expected,
            inp.holds and cex is not None, not inp.holds and cex is None)


def law_op(k: Kernel, op: gen.LawOp):
    extra = {"trials": op.trials} if op.mode == "random" else {}
    report = k.algebra.check_law(op.model, op.n, op.law, mode=op.mode, **extra)
    verdict = "pass" if report.passed else "FAIL"
    return (verdict, f"checked={report.checked}", "pass" if op.expect_pass else "FAIL",
            report.passed != op.expect_pass, False)


OPS = {"prove": verify_op, "refute": verify_op, "search": search_op, "laws": law_op}


def calibration_loop() -> float:
    """Seconds for a fixed slice of pure-Python work (Fraction arithmetic,
    dict and tuple churn) that never touches the kernel."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(300):
        total += Fraction(i, 7)
        table[i % 50] = (total, str(i), [i] * 3)
    return time.perf_counter() - start


def calibrate() -> float:
    return min(calibration_loop(), calibration_loop())


class ReferenceClock:
    """Times work in reference seconds: wall time scaled to the speed at
    which the calibration loop takes CAL_REF_S.

    The loop runs before and after each timed span.  With sampling on, a
    timer signal also runs it every SAMPLE_INTERVAL_S inside the span, so
    a speed change in the middle of a long op is seen; the time of those
    in-span loops is taken out of the span's wall time."""

    def __init__(self, sampling: bool):
        self.samples: list = []
        self.spent = 0.0
        self.last = calibrate()
        self.sampling = sampling
        if sampling:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - start

    def close(self) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def start(self) -> None:
        self.mark = (len(self.samples), self.spent, time.perf_counter())

    def stop(self) -> tuple:
        """(wall seconds, reference seconds) since start()."""
        end = time.perf_counter()
        first, spent, start = self.mark
        wall = end - start - (self.spent - spent)
        after = calibrate()
        speeds = [self.last, *self.samples[first:], after]
        self.last = after
        return wall, wall * CAL_REF_S * len(speeds) / sum(speeds)


class Tally:
    """Per-op outcomes of one phase, plus one row per input."""

    def __init__(self):
        self.ops = 0
        self.wrong = 0
        self.undecided = 0
        self.unexpected = 0  # wrong on an input without a known defect
        self.rows: dict = {}

    def run_pass(self, k: Kernel, workload: str, inputs: list, clock: ReferenceClock,
                 tracer=None) -> None:
        op_fn = OPS[workload]
        for item in inputs:
            if tracer is not None:
                tracer.op_id = self.ops
                tracer.enter("op")
            clock.start()
            try:
                verdict, method, expected, wrong, undecided = op_fn(k, item)
            except Exception as exc:  # a crash is a wrong verdict, not an abort
                verdict, method = f"error:{type(exc).__name__}", str(exc)[:200]
                expected, wrong, undecided = "", True, False
            wall, seconds = clock.stop()
            if tracer is not None:
                tracer.exit()
                tracer.end_op()
            self.ops += 1
            self.wrong += wrong
            self.undecided += undecided
            self.unexpected += wrong and not item.known_defect
            row = self.rows.setdefault(item.name, {
                "input": item.name, "family": item.family, "size": item.size,
                "expected": expected, "verdicts": [], "method": method,
                "wall_s": [], "seconds": [], "wrong": 0, "undecided": 0,
                "known_defect": item.known_defect,
            })
            if verdict not in row["verdicts"]:
                row["verdicts"].append(verdict)
            row["expected"] = row["expected"] or expected
            row["wall_s"].append(wall)
            row["seconds"].append(seconds)
            row["wrong"] += wrong
            row["undecided"] += undecided

    def op_times(self) -> list:
        """Each op's time replaced by its input's median over the passes,
        so one descheduled or throttled sample does not set a quantile."""
        return [statistics.median(row["seconds"])
                for row in self.rows.values() for _ in row["seconds"]]

    def verdicts_per_s(self) -> float:
        return self.ops / sum(self.op_times())

    def print_rows(self) -> None:
        for row in self.rows.values():
            row = dict(row, runs=len(row["seconds"]), seconds=statistics.median(row["seconds"]),
                       wall_s=statistics.median(row["wall_s"]))
            print("row " + json.dumps(row, sort_keys=True))


def setup(workload: str, seed: int):
    """Import the kernel and generate the inputs, SETUP_ROUNDS times;
    returns the last kernel and inputs and the median round time in
    reference seconds."""
    times = []
    clock = ReferenceClock(sampling=False)
    for _ in range(SETUP_ROUNDS):
        clock.start()
        kernel = Kernel()
        inputs = build_inputs(workload, seed)
        times.append(clock.stop()[1])
    return kernel, inputs, statistics.median(times)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    times = tally.op_times()
    tail = statistics.quantiles(times, n=100, method="inclusive")[round(TAIL_QUANTILE * 100) - 1]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verdicts_per_s": (tally.verdicts_per_s(), "1/s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_tail": (tail, "s"),
        "right_verdict_share": (1 - tally.wrong / tally.ops, "share"),
        "decided_share": (1 - tally.undecided / tally.ops, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    kernel, inputs, setup_s = setup(args.workload, args.seed)
    # In-op sampling stays off when tracing, so it adds no time to spans.
    clock = ReferenceClock(sampling=not args.trace)
    try:
        Tally().run_pass(kernel, args.workload, inputs, clock)  # warm-up, untimed
        tally = Tally()
        start = time.perf_counter()
        while True:
            tally.run_pass(kernel, args.workload, inputs, clock)
            elapsed = time.perf_counter() - start
            if args.trace or (elapsed >= args.seconds and tally.ops >= MIN_OPS):
                break
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            traced = Tally()
            traced.run_pass(kernel, args.workload, inputs, clock, tracer)
    finally:
        clock.close()

    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        traced.print_rows()
        metrics = {name: (value, unit_of(name)) for name, value in tracer.metrics().items()}
        metrics["trace.overhead_verdicts_per_s"] = (
            traced.verdicts_per_s() - tally.verdicts_per_s(), "1/s")
        result_tally = traced
    else:
        tally.print_rows()
        metrics = end_to_end(tally, setup_s)
        result_tally = tally

    print(json.dumps({
        "correct": result_tally.unexpected == 0,
        "attempted": result_tally.ops,
        "failed": result_tally.wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "share"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
