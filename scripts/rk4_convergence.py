#!/usr/bin/env python3
"""Convergence study of RK4 on the rotation field x' = y, y' = -x.

Two errors per step h, against the exact flow from (1, 0):
- the error of odecert.rk4_integrate at t = 1;
- the sup deviation on [0, 1] that the flow certificate's RK4 check
  kernel reports (odecert._rk4_check_kernel), over the grid k * h.

Exits 1 when a successive error ratio of either falls outside RATIO_BAND:
halving the step of a fourth-order method divides its error by about
2**4 = 16.  CI diffs the table against tests/golden/rk4_convergence.txt.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hybridwlp.expr import Cos, Sin, TimeVar, Var, memo_kernel
from hybridwlp.hprog import Flow, VectorField
from hybridwlp.odecert import _rk4_check_kernel, rk4_integrate

x, y, t = Var("x"), Var("y"), TimeVar()
FIELD = VectorField({"x": y, "y": -x})
FLOW = Flow({"x": x * Cos(t) + y * Sin(t), "y": y * Cos(t) - x * Sin(t)})
RATIO_BAND = (14.0, 18.0)


def error_at(step: float) -> float:
    n = int(round(1.0 / step))
    traj, _ = rk4_integrate(FIELD, {"x": 1.0, "y": 0.0}, step, n)
    _, final = traj[-1]
    return max(abs(final["x"] - math.cos(1.0)), abs(final["y"] + math.sin(1.0)))


def sup_deviation_at(step: float) -> float:
    check = memo_kernel(_rk4_check_kernel, tuple(FIELD.components.items()),
                        tuple(FLOW.components.items()), ("x", "y"), ())
    return check(1.0, 0.0, int(round(1.0 / step)), step, 0.5 * step, step / 6.0, 0.0)


def main() -> int:
    print(f"{'h':>10} {'error at 1':>14} {'ratio':>8} {'sup on [0,1]':>14} {'ratio':>8}")
    prev = None
    bad = []
    for k in range(3, 10):
        h = 2.0 ** -k
        errs = (error_at(h), sup_deviation_at(h))
        row = f"{h:10.5f}"
        for i, err in enumerate(errs):
            ratio = prev[i] / err if prev else None
            row += f" {err:14.3e} " + (f"{ratio:8.2f}" if ratio else " " * 8)
            if ratio and not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
                bad.append(h)
        print(row)
        prev = errs
    if bad:
        lo, hi = RATIO_BAND
        print(f"error ratio outside [{lo:g}, {hi:g}] at h = {', '.join(f'{h:g}' for h in sorted(set(bad), reverse=True))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
