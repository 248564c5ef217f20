#!/usr/bin/env python3
"""Convergence study: RK4 error against the rotation flow at t = 1.

Exits 1 when a successive error ratio falls outside RATIO_BAND: halving
the step of a fourth-order method divides its error by about 2**4 = 16.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hybridwlp.expr import Var
from hybridwlp.hprog import VectorField
from hybridwlp.odecert import rk4_integrate

x, y = Var("x"), Var("y")
FIELD = VectorField({"x": y, "y": -x})
RATIO_BAND = (14.0, 18.0)


def error_at(step: float) -> float:
    n = int(round(1.0 / step))
    traj, _ = rk4_integrate(FIELD, {"x": 1.0, "y": 0.0}, step, n)
    _, final = traj[-1]
    return max(abs(final["x"] - math.cos(1.0)), abs(final["y"] + math.sin(1.0)))


def main() -> int:
    print(f"{'h':>10} {'error':>14} {'ratio':>8}")
    prev = None
    bad = []
    for k in range(3, 10):
        h = 2.0 ** -k
        err = error_at(h)
        ratio = f"{prev / err:8.2f}" if prev else "        "
        print(f"{h:10.5f} {err:14.3e} {ratio}")
        if prev and not RATIO_BAND[0] <= prev / err <= RATIO_BAND[1]:
            bad.append(h)
        prev = err
    if bad:
        lo, hi = RATIO_BAND
        print(f"error ratio outside [{lo:g}, {hi:g}] at h = {', '.join(f'{h:g}' for h in bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
