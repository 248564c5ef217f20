#!/usr/bin/env python3
"""Print the verdict of every obligation of the benchmark's verify inputs.

For each `prove` and `refute` input that `perfbench/gen.py` builds at the
given workload seed (`--seed`, default 1), run `cli.run_verify` on its
text, as the benchmark's op does, and
print one line per obligation: workload, input, obligation id, status,
the method (proved) or reason (otherwise), and the witness as JSON; then
one line per lemma of the input: its name, status, exact proof (or "-")
and sample count.  CI diffs the output at seed 1 against
tests/golden/verdicts_report.txt, and at seeds 2 and 3 against
tests/golden/verdicts_report_seed2.txt and ..._seed3.txt, so a refactor of
the decision procedures that changes any verdict or lemma outcome shows up
line by line:

    python3 scripts/verdicts_report.py --seed 2
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from hybridwlp.cli import run_verify  # noqa: E402
from hybridwlp.hwl import parse_spec  # noqa: E402

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed of the inputs")
    seed = parser.parse_args().seed
    problems = ROOT / "problems"
    for workload, inputs in (("prove", gen.prove_inputs(seed, problems)),
                             ("refute", gen.refute_inputs(seed, problems))):
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
