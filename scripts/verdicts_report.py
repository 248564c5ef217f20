#!/usr/bin/env python3
"""Print the verdict of every obligation of the benchmark's verify inputs.

For each `prove` and `refute` input that `perfbench/gen.py` builds at
seed 1, run `cli.run_verify` on its text, as the benchmark's op does, and
print one line per obligation: workload, input, obligation id, status,
the method (proved) or reason (otherwise), and the witness as JSON; then
one line per lemma of the input: its name, status, exact proof (or "-")
and sample count.  CI diffs the output against
tests/golden/verdicts_report.txt, so a refactor of the decision
procedures that changes any verdict or lemma outcome shows up line by
line.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from hybridwlp.cli import run_verify  # noqa: E402
from hybridwlp.hwl import parse_spec  # noqa: E402

SEED = 1


def main() -> int:
    problems = ROOT / "problems"
    for workload, inputs in (("prove", gen.prove_inputs(SEED, problems)),
                             ("refute", gen.refute_inputs(SEED, problems))):
        for inp in inputs:
            report = run_verify(parse_spec(inp.text))
            for entry in report["obligations"]:
                vd = entry["verdict"]
                why = vd.get("method") or vd.get("reason") or "-"
                witness = json.dumps(vd.get("witness", {}))
                print(f"{workload} {inp.name} {entry['id']} {vd['status']} "
                      f"[{why}] {witness}")
            for lemma in report["lemmas"]:
                print(f"{workload} {inp.name} lemma {lemma['name']} {lemma['status']} "
                      f"[{lemma.get('proof', '-')}] trials={lemma['trials']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
