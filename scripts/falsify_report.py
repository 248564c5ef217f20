#!/usr/bin/env python3
"""Print the outcome of the benchmark's falsify op on every search input.

For each `search` input that `perfbench/gen.py` builds at the given
workload seed (`--seed`, default 1), run `odecert.falsify` on its text
with the benchmark's `FALSIFY_BUDGET`, as the benchmark's op does, and
print one line: the input's name, then the counterexample as JSON, or
`none`.  CI diffs the output at seed 1 against
tests/golden/falsify_report.txt, and at seeds 2 and 3 against
tests/golden/falsify_report_seed2.txt and ..._seed3.txt, so a change to
the run search, orbits, RK4, flows or expression evaluation that moves
any sampled run shows up line by line:

    python3 scripts/falsify_report.py --seed 2
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from run import FALSIFY_BUDGET  # noqa: E402
from hybridwlp.hwl import parse_spec  # noqa: E402
from hybridwlp.odecert import FalsifyBudget, falsify  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed of the inputs")
    seed = parser.parse_args().seed
    budget = FalsifyBudget(**FALSIFY_BUDGET)
    for inp in gen.search_inputs(seed, ROOT / "problems"):
        cex = falsify(parse_spec(inp.text), budget)
        print(inp.name, "none" if cex is None else json.dumps(cex.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
