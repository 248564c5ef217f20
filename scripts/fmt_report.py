#!/usr/bin/env python3
"""Print the canonical form of every verify input of the benchmark.

For each `prove` and `refute` input that `perfbench/gen.py` builds at the
given workload seed (`--seed`, default 1), which includes the shipped
problems, print `format_spec(parse_spec(text))`, as `hybridwlp fmt` does;
each printout starts with its `problem` line.  The script exits
1 if printing is not a fixpoint on some input (the printout does not parse
back to the same text).  CI diffs the output at seed 1 against
tests/golden/fmt_report.txt, and at seeds 2 and 3 against
tests/golden/fmt_report_seed2.txt and ..._seed3.txt, so a change to the
parser or the printer that moves one byte shows up line by line:

    python3 scripts/fmt_report.py --seed 2
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from hybridwlp.hwl import format_spec, parse_spec  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed of the inputs")
    seed = parser.parse_args().seed
    problems = ROOT / "problems"
    status = 0
    for workload, inputs in (("prove", gen.prove_inputs(seed, problems)),
                             ("refute", gen.refute_inputs(seed, problems))):
        for inp in inputs:
            printed = format_spec(parse_spec(inp.text))
            if format_spec(parse_spec(printed)) != printed:
                print(f"fmt is not a fixpoint on {workload} {inp.name}", file=sys.stderr)
                status = 1
            sys.stdout.write(printed)
    return status


if __name__ == "__main__":
    sys.exit(main())
