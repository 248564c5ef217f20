#!/usr/bin/env python3
"""Print the outcome of the benchmark's falsify op on every search input.

For each `search` input that `perfbench/gen.py` builds at seed 1, run
`odecert.falsify` on its text with the benchmark's `FALSIFY_BUDGET`, as
the benchmark's op does, and print one line: the input's name, then the
counterexample as JSON, or `none`.  CI diffs the output against
tests/golden/falsify_report.txt, so a change to the orbits, RK4, flows or
expression evaluation that moves any sampled run shows up line by line.
"""

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

SEED = 1


def main() -> int:
    budget = FalsifyBudget(**FALSIFY_BUDGET)
    for inp in gen.search_inputs(SEED, ROOT / "problems"):
        cex = falsify(parse_spec(inp.text).to_verify_spec(), budget)
        print(inp.name, "none" if cex is None else json.dumps(cex.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
