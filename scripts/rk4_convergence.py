#!/usr/bin/env python3
"""Convergence study of RK4 on the rotation field x' = y, y' = -x.

Two errors per step h, against the exact flow from (1, 0):
- the error of odecert.rk4_integrate at t = 1;
- the sup deviation on [0, 1], over the grid k * h, between the
  trajectory of rk4_integrate and the flow's orbit
  (hprog.guarded_orbit_flow), as acceptance criterion 08(b) compares them.

Exits 1 when a successive error ratio of either falls outside RATIO_BAND:
halving the step of a fourth-order method divides its error by about
2**4 = 16.  CI diffs the table against tests/golden/rk4_convergence.txt.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hybridwlp.expr import TRUE, Cos, Sin, TimeVar, Var
from hybridwlp.hprog import NONNEG, Flow, VectorField, guarded_orbit_flow
from hybridwlp.odecert import rk4_integrate

x, y, t = Var("x"), Var("y"), TimeVar()
FIELD = VectorField({"x": y, "y": -x})
FLOW = Flow({"x": x * Cos(t) + y * Sin(t), "y": y * Cos(t) - x * Sin(t)})
START = {"x": 1.0, "y": 0.0}
RATIO_BAND = (14.0, 18.0)


def error_at(step: float) -> float:
    n = int(round(1.0 / step))
    traj, _ = rk4_integrate(FIELD, START, step, n)
    _, final = traj[-1]
    return max(abs(final["x"] - math.cos(1.0)), abs(final["y"] + math.sin(1.0)))


def sup_deviation_at(step: float) -> float:
    traj, _ = rk4_integrate(FIELD, START, step, int(round(1.0 / step)))
    orbit = guarded_orbit_flow(FLOW, TRUE, NONNEG, START, step, horizon=1.0)
    assert [tt for tt, _ in orbit] == [tt for tt, _ in traj]
    return max(abs(at[v] - st[v]) for (_, st), (_, at) in zip(traj, orbit) for v in ("x", "y"))


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
