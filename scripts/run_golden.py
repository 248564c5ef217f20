#!/usr/bin/env python3
"""Verify and certify every shipped problem; print a one-line result per file.

Valid problems must come out all-proved; mutants must be refuted.  certify
must succeed exactly when verify proves every flow-certificate and
differential-invariance obligation.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hybridwlp.cli import run_certify, run_verify
from hybridwlp.hwl import parse_spec

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def main() -> int:
    failures = 0
    for path in sorted(PROBLEMS.glob("*.hwl")):
        spec = parse_spec(path.read_text())
        start = time.perf_counter()
        report = run_verify(spec, seed=0)
        elapsed = time.perf_counter() - start
        summary = report["summary"]
        expect_refuted = path.name.startswith("mutant_")
        ok = (summary["exit"] == 2) if expect_refuted else (summary["exit"] == 0)
        side_proved = all(
            e["verdict"]["status"] == "proved"
            for e in report["obligations"]
            if e["kind"] in ("flow_cert", "diff_inv")
        )
        certified = run_certify(spec, seed=0)["ok"]
        ok = ok and certified == side_proved
        status = "ok" if ok else "UNEXPECTED"
        failures += not ok
        print(
            f"{path.name:<32} exit={summary['exit']} "
            f"proved={summary['proved']} refuted={summary['refuted']} "
            f"unknown={summary['unknown']} certify={'OK' if certified else 'FAILED'} "
            f"({elapsed:.2f}s) {status}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
