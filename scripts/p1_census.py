#!/usr/bin/env python3
"""Height census of accepted points on the line pair (P^1, sum (1-1/m)[d]).

Counts accepted primitive points (p : q) up to increasing height bounds for a
configurable multiplicity m on the divisors [0], [1], [infinity].  With m = 2
and S empty the accepted points are exactly those whose three resultants p,
p - q, q are each zero or 2-full.  Each row also gives N/H^(1/2), the count
over the square root of the height, the order of growth that the heuristic
for Campana points predicts (Pieropan, Smeets, Tanimoto and
Várilly-Alvarado, "Campana points of bounded height on vector group
compactifications", Proc. LMS 2021).
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cpairs.conditions import AtLeast
from cpairs.search import enumerate_campana_points_p1, format_projective_point


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=2, help="multiplicity at 0, 1, infinity (default 2)")
    ap.add_argument("--height", type=int, default=100, help="largest height bound (default 100)")
    ap.add_argument("--s", default="", help="comma-separated primes excluded from the test")
    args = ap.parse_args()

    primes = tuple(int(p) for p in args.s.split(",") if p.strip())
    divisors = [((0, 1), AtLeast(args.m)), ((1, 1), AtLeast(args.m)), ((1, 0), AtLeast(args.m))]
    records = enumerate_campana_points_p1(divisors, primes, args.height)

    print(f"multiplicity {args.m} at [0], [1], [inf]; S = {list(primes)}")
    print("height  accepted  N/H^(1/2)  (cumulative, support points included)")
    step = max(args.height // 10, 1)
    for h in range(step, args.height + 1, step):
        n = sum(1 for r in records if r.height <= h)
        print(f"{h:6d}  {n:8d}  {n / math.sqrt(h):9.3f}")

    outside = [r for r in records if "in_support" not in r.flags]
    print(f"\n{len(outside)} accepted points lie outside the three divisors; smallest by height:")
    for r in outside[: 15]:
        print(f"  {format_projective_point((r.p, r.q)):>8}   height {r.height}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
