"""Output checks, all made outside the timed region.

`check_result` compares one command's exit status and stdout digest with
what its workload expects, and treats a traceback or a silent exit 2 as a
failure.  The sweep and line outputs are also re-derived record by record:
`check_sweep_records` re-verifies every verdict, witness and lift with
`Fraction` arithmetic and sympy primality, and `check_line_points` compares
the accepted points with `oracle_p1_accepts` from tests/_oracles.py.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import _oracles
import sympy

from workloads import Command, key, strip


class ExpectCache:
    """expect() per distinct argv: query passes repeat commands, oracles are costly."""

    def __init__(self):
        self.seen: dict[str, tuple[int, str]] = {}

    def __call__(self, cmd: Command) -> tuple[int, str]:
        k = key(cmd.argv)
        if k not in self.seen:
            self.seen[k] = cmd.expect()
        return self.seen[k]


def check_result(cmd: Command, res: dict, expect: ExpectCache) -> "str | None":
    """None when the command behaved as expected, else what went wrong."""
    if "Traceback" in res["err"]:
        return "traceback: " + res["err"].strip().splitlines()[-1]
    code, sha = expect(cmd)
    if res["code"] != code:
        return f"exit status {res['code']}, expected {code}"
    if res["sha"] != sha:
        return f"stdout differs from the expected output (starts {res['head'][:80]!r})"
    if code == 2 and not res["err"].strip():
        return "exit status 2 without a message on stderr"
    if "out" in res:
        if cmd.family == "sweep":
            return check_sweep_records(cmd.argv, res["out"])
        if cmd.family == "line":
            return check_line_points(cmd.argv, res["out"])
    return None


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _s_integer(x: Fraction, s) -> bool:
    return strip(x.denominator, s) == 1


def check_sweep_records(argv: list[str], text: str) -> "str | None":
    """Re-derive every record of `search 2full|2or3` independently of cpairs."""
    kind = argv[1]
    s = [int(p) for p in _flag(argv, "--s").split(",")]
    bound = int(_flag(argv, "--bound"))
    fails = (lambda e: e < 2) if kind == "2full" else (lambda e: e % 2 != 0 and e % 3 != 0)
    target = "X" if kind == "2full" else "Y"
    units = {sign * math.prod(Fraction(p) ** e for p, e in zip(s, ev))
             for ev in itertools.product(range(-bound, bound + 1), repeat=len(s)) for sign in (1, -1)}
    lines = text.splitlines()
    if len(lines) != len(units):
        return f"{len(lines)} records, expected one per S-unit ({len(units)})"
    primes: set[int] = set()
    prev = None
    for line in lines:
        r = json.loads(line)
        x = Fraction(r["x"])
        order = (abs(x.numerator), x.denominator, 1 if x > 0 else -1)
        if x not in units or (prev is not None and order <= prev):
            return f"record x = {r['x']} is not the next S-unit in sweep order"
        prev = order
        if r["target"] != target:
            return f"x = {r['x']}: target {r['target']}, expected {target}"
        if x == 1:
            if r != {"x": "1", "shift": None, "verdict": "accept", "lift": ["0", "1"],
                     "target": target, "flags": ["in_support"]}:
                return "x = 1 must be the flagged support point with lift (0, 1)"
            continue
        shift = r["shift"]
        value = shift["sign"] * math.prod(Fraction(p) ** e for p, e in shift["factors"])
        if value != x - 1:
            return f"x = {r['x']}: shift factorization does not multiply out to x - 1"
        primes.update(p for p, _ in shift["factors"])
        bad = sorted(p for p, e in shift["factors"] if p not in s and fails(e))
        if r["verdict"] == "accept":
            if bad:
                return f"x = {r['x']} accepted, but prime {bad[0]} fails the condition"
            a, b = (Fraction(t) for t in r["lift"])
            if a * a * b**3 != 1 - x or not (_s_integer(a, s) and _s_integer(b, s)):
                return f"x = {r['x']}: lift ({a}, {b}) is not an S-integral a^2 b^3 = 1 - x"
            if target == "Y" and math.gcd(strip(abs(a.numerator), s), strip(abs(b.numerator), s)) != 1:
                return f"x = {r['x']}: lift ({a}, {b}) is not coprime away from S"
        else:
            w = r.get("witness")
            if not bad or w != bad[0]:
                return f"x = {r['x']} rejected with witness {w}, expected {bad[:1]}"
            n, v = abs((x - 1).numerator), 0
            while n % w == 0:
                n //= w
                v += 1
            if not fails(v):
                return f"x = {r['x']}: valuation {v} at witness {w} does not fail the condition"
    composite = next((p for p in sorted(primes) if not sympy.isprime(p)), None)
    if composite is not None:
        return f"shift factorizations list the composite {composite} as a prime"
    return None


LABEL_POINTS = {"0": (0, 1), "1": (1, 1), "inf": (1, 0), "-1": (-1, 1)}


def check_line_points(argv: list[str], text: str) -> "str | None":
    """Compare `p1 enumerate` with the sympy oracle when every condition is >=m."""
    divisors = []
    for chunk in _flag(argv, "--pair").split(";"):
        label, _, cond = (t.strip() for t in chunk.partition(":"))
        if not cond.startswith(">="):
            return None  # the oracle covers >=m only; the digest check still applies
        divisors.append((LABEL_POINTS[label], int(cond[2:])))
    s = [int(p) for p in _flag(argv, "--s").split(",")] if "--s" in argv else []
    height = int(_flag(argv, "--height"))
    want = _oracles.oracle_p1_accepts(divisors, s, height)
    got, prev = set(), None
    for line in text.splitlines():
        r = json.loads(line)
        pt = (1, 0) if r["point"] == "inf" else Fraction(r["point"]).as_integer_ratio()
        order = (r["height"], pt[1], pt[0])
        if r["height"] != max(abs(pt[0]), pt[1]) or (prev is not None and order <= prev):
            return f"point {r['point']}: wrong height or out of order"
        prev = order
        support = any(pt == d for d, _ in divisors)
        if r["verdict"] != "accept" or r["flags"] != (["in_support"] if support else []):
            return f"point {r['point']}: wrong verdict or flags"
        got.add(pt)
    if got != want:
        extra, missing = sorted(got - want)[:3], sorted(want - got)[:3]
        return f"accepted points differ from the oracle: extra {extra}, missing {missing}"
    return None
