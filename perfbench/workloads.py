"""The benchmark's workloads: the argv lists it runs and what each must print.

Every command carries `expect()`, which returns (exit status, sha256 of the
stdout it must print).  Fixed commands (the sweeps, the line enumerations and
the geometry menus) expect the digest recorded in expected.json; the seeded
query commands compute their expected output by routes that share no code
with cpairs: sympy factorization, breadth-first semigroup closure, m-full
numbers by filter or by the a^2 b^3 form, and direct arithmetic.

Inputs that exhaust memory or never finish (`mfull list 10^21`,
`semigroup elements --bound 10^11`) are left out: a run must end in bounded
time, and ROADMAP item 5d is where they get size limits.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

import _oracles  # tests/_oracles.py, put on sys.path by run.py
import sympy

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

SWEEP = [
    ["search", "2full", "--s", "2,3,5", "--bound", "12"],
    ["search", "2or3", "--s", "2,3,5", "--bound", "12"],
]
LINE = [
    ["p1", "enumerate", "--pair", "0: >=2; 1: >=2; inf: >=2", "--height", "100"],
    ["p1", "enumerate", "--pair", "0: >=40; 1: >=2; inf: >=2", "--height", "25"],
    ["p1", "enumerate", "--pair", "0: >=2; 1: union <2,7>|<3>; inf: div 2; -1: inf",
     "--height", "100", "--s", "2,3"],
]
WEIGHTS_MENU = [
    ["2", "3"], ["2", "3", "--blocks", "1,1"], ["4", "6", "9"], ["2", "7", "3", "--blocks", "2,1"],
    ["6", "10", "15"], ["3", "5", "7", "--blocks", "1,2"], ["12", "18"], ["5"],
    ["2", "2", "3", "--blocks", "1,1,1"], ["4", "6", "10", "--blocks", "2,1"],
    ["30", "42", "70", "105"], ["8", "12", "18", "27", "--blocks", "2,2"],
]
SPACE_MENU = [">=2", ">=3", ">=5", ">=7", "div 2", "div 3", "union <2,7>|<3>", "union <2>|<3>",
              "union <3,5>|<4>", "union <2,3>", "union <4,6,9>|<5>"]
KODAIRA_MENU = ["II*", "III*", "IV*"]
MENU_COMMANDS = ([["weights", *a] for a in WEIGHTS_MENU]
                 + [["space", "report", "--condition", c] for c in SPACE_MENU]
                 + [["kodaira", "reduce", t] for t in KODAIRA_MENU])
# well-formed commands whose input is wrong: each must exit 2 with a message
MALFORMED = [
    ["factor", "0"], ["factor", "1.5"], ["factor"], ["semigroup", "frobenius", "<2,4>"],
    ["semigroup", "atoms", "<2>|<3>"], ["mfull", "check", "1/3"],
    ["cpair", "check", "--pair", "D: >=2", "--point", "{bad"],
    ["cpair", "check", "--pair", "D: >=2", "--point", '{"E": {"mults": []}}'],
    ["p1", "enumerate", "--pair", "0 >=2", "--height", "5"], ["xa", "classify", "2", "4"],
    ["fibre", "classify", "--empty", "--mults", "2"], ["weights", "2", "3", "--blocks", "1,x"],
    ["kodaira", "reduce", "I*"], ["space", "report", "--condition", "inf"],
    ["point", "verify", "--a", "1/3", "--b", "1", "--s", "2"],
    ["search", "2full", "--s", "4", "--bound", "1"],
]
# JSON arguments of the wrong shape: these must exit 2 too, but crash today
# (ROADMAP item 5c), so they run as a probe outside the timed workload
SHAPE_PROBES = [
    ["cpair", "check", "--pair", "D: >=2", "--point", "[1]"],
    ["cpair", "check", "--pair", "D: >=2", "--point", '{"D": 5}'],
    ["cpair", "check", "--pair", "D: >=2", "--point", '{"D": {"mults": 5}}'],
]

SWEEP_CANDIDATES = 2 * 25**3  # per command: signs times exponent vectors in [-12, 12]^3


def key(argv: list[str]) -> str:
    return json.dumps(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


EMPTY = digest("")


@dataclass
class Command:
    argv: list[str]
    family: str
    expect: Callable[[], tuple[int, str]]
    items: int = 1  # work items for throughput: candidates, pairs examined, or 1 command


@lru_cache(maxsize=None)
def expected_outputs() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def recorded(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def expect():
        rec = expected_outputs()[key(argv)]
        return rec["code"], rec["sha"]

    return expect


def json_out(obj, code: int = 0) -> tuple[int, str]:
    """The canonical one-line JSON the CLI prints for obj."""
    return code, digest(json.dumps(obj, separators=(", ", ": ")) + "\n")


def frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- fixed workloads -------------------------------------------------------------


def primitive_pairs(height: int) -> int:
    """Primitive (p : q) with max(|p|, q) <= height that p1 enumerate examines."""
    return 1 + sum(1 for q in range(1, height + 1) for p in range(-height, height + 1)
                   if math.gcd(p, q) == 1)


def sweep_pass(rng: random.Random) -> list[Command]:
    cmds = [Command(a, "sweep", recorded(a), SWEEP_CANDIDATES) for a in SWEEP]
    rng.shuffle(cmds)
    return cmds


def line_pass(rng: random.Random) -> list[Command]:
    cmds = [Command(a, "line", recorded(a), primitive_pairs(int(a[a.index("--height") + 1])))
            for a in LINE]
    rng.shuffle(cmds)
    return cmds


# -- semigroup oracles -------------------------------------------------------------


def canon(gens) -> str:
    g = tuple(sorted(set(gens)))
    if not g:
        return "{}"
    if g == tuple(range(g[0], 2 * g[0])):
        return f"<{g[0]}.."
    return "<" + ",".join(map(str, g)) + ">"


def in_blocks(blocks, n: int) -> bool:
    return any(n in _oracles.naive_semigroup_elements(b, n) for b in blocks)


def random_gens(rng: random.Random) -> tuple[int, ...]:
    if rng.random() < 0.2:
        m = rng.randint(1, 8)
        return tuple(range(m, 2 * m))
    return tuple(sorted(rng.sample(range(2, 16), rng.randint(1, 3))))


def random_blocks(rng: random.Random) -> list[tuple[int, ...]]:
    return [random_gens(rng) for _ in range(rng.randint(1, 2))]


def semigroup_cmd(rng: random.Random, action: str) -> Command:
    blocks = [random_gens(rng)] if action in ("atoms", "frobenius") else random_blocks(rng)
    text = "|".join(canon(b) for b in blocks)
    argv = ["semigroup", action, text]
    if action == "contains":
        n = rng.randint(1, 200)
        argv.append(str(n))
        strict = rng.random() < 0.2
        if strict:
            argv.append("--strict")

        def expect():
            ok = in_blocks(blocks, n)
            return json_out({"semigroup": text, "n": n, "contains": ok}, 1 if strict and not ok else 0)
    elif action == "elements":
        bound = rng.randint(10, 200)
        argv += ["--bound", str(bound)]

        def expect():
            els = sorted(set().union(*(_oracles.naive_semigroup_elements(b, bound) for b in blocks)))
            return json_out({"semigroup": text, "bound": bound, "count": len(els), "elements": els})
    elif action == "atoms":
        def expect():
            return json_out({"semigroup": text, "atoms": list(_oracles.naive_atoms(blocks[0]))})
    else:
        def expect():
            if math.gcd(*blocks[0]) != 1:
                return 2, EMPTY
            return json_out({"semigroup": text, "frobenius": _oracles.naive_frobenius(blocks[0])})
    return Command(argv, "semigroup." + action, expect)


def heavy_semigroup_cmd(rng: random.Random, m: int, actions=("frobenius", "atoms", "contains")) -> Command:
    """A query on <m.. = {m, m+1, ...}, whose answers have closed forms."""
    action = rng.choice(actions)
    text = f"<{m}.."
    argv = ["semigroup", action, text]
    if action == "frobenius":
        obj = {"semigroup": text, "frobenius": m - 1}
    elif action == "atoms":
        obj = {"semigroup": text, "atoms": list(range(m, 2 * m))}
    else:
        n = rng.randint(1, 3 * m)
        argv.append(str(n))
        obj = {"semigroup": text, "n": n, "contains": n >= m}
    return Command(argv, "semigroup.large", lambda: json_out(obj))


# -- arithmetic oracles --------------------------------------------------------------


def valuations(x: Fraction) -> dict[int, int]:
    return _oracles.sympy_valuations(x) if x else {}


def s_part(rng: random.Random, s: list[int], top: int) -> int:
    return math.prod(p ** rng.randint(0, top) for p in s)


def factor_cmd(rng: random.Random) -> Command:
    num = rng.randint(1, 10**rng.randint(2, 15))
    den = rng.randint(1, 10**6) if rng.random() < 0.3 else 1
    sign = rng.choice([1, -1])
    text = f"{sign * num}/{den}" if den > 1 else str(sign * num)
    x = Fraction(sign * num, den)

    def expect():
        return json_out({"sign": sign, "factors": [[p, e] for p, e in sorted(valuations(x).items())]})

    return Command(["factor", text], "factor", expect)


def mfull_check_cmd(rng: random.Random) -> Command:
    s = sorted(rng.sample([2, 3, 5], rng.randint(0, 2)))
    m = rng.choice([2, 3])
    n = rng.randint(1, 10**6)
    if rng.random() < 0.5:  # often m-full away from S
        n = math.prod(rng.choice([2, 3, 5, 7, 11, 13, 17]) ** rng.randint(m, m + 2)
                      for _ in range(rng.randint(1, 3)))
    x = Fraction(rng.choice([1, -1]) * n * s_part(rng, s, 2),
                 s_part(rng, s, 2) if rng.random() < 0.3 else 1)
    argv = ["mfull", "check", frac(x), "--m", str(m)]
    if s:
        argv += ["--s", ",".join(map(str, s))]
    strict = rng.random() < 0.2
    if strict:
        argv.append("--strict")

    def expect():
        bad = [p for p, e in valuations(x).items() if p not in s and 0 < e < m]
        obj = {"x": frac(x), "m": m, "s": s, "full": not bad}
        if bad:
            obj["witness"] = min(bad)
        return json_out(obj, 1 if strict and bad else 0)

    return Command(argv, "mfull.check", expect)


@lru_cache(maxsize=None)
def mfull_values(bound: int, m: int) -> tuple[int, ...]:
    if m > 2:
        return tuple(_oracles.mfull_by_filter(bound, m))
    # every powerful number is a^2 b^3 with b squarefree, in exactly one way
    out = []
    for b in range(1, math.isqrt(bound) + 1):
        if b**3 > bound:
            break
        if all(e == 1 for e in sympy.factorint(b).values()):
            out.extend(a * a * b**3 for a in range(1, math.isqrt(bound // b**3) + 1))
    return tuple(sorted(out))


def mfull_list_cmd(rng: random.Random) -> Command:
    m = rng.choice([2, 2, 3, 4])
    bound = 10 ** rng.randint(3, 7 if m == 2 else 5)

    def expect():
        vals = list(mfull_values(bound, m))
        return json_out({"bound": bound, "m": m, "count": len(vals), "values": vals})

    return Command(["mfull", "list", str(bound), "--m", str(m)], "mfull.list", expect)


def s_unit(x: Fraction, s) -> bool:
    return x != 0 and all(p in s for p in valuations(x))


def strip(n: int, s) -> int:
    """n with every prime of s divided out."""
    for p in s:
        while n % p == 0:
            n //= p
    return n


# (a, b, S) with a^2 b^3 - 1 an S-unit, except (1, 1) whose value is 0
KNOWN_POINTS = [("1/2", "2", [2]), ("0", "1", []), ("3", "1", [2]), ("1/3", "3", [2, 3]),
                ("1/2", "3/2", [2, 5]), ("1", "1", [2]), ("2", "-1", [5])]


def point_verify_cmd(rng: random.Random) -> Command:
    if rng.random() < 0.5:
        at, bt, s = rng.choice(KNOWN_POINTS)
        a, b = Fraction(at), Fraction(bt)
    else:
        s = sorted(rng.sample([2, 3, 5], rng.randint(0, 2)))
        a = Fraction(rng.randint(-30, 30), s_part(rng, s, 2))
        b = Fraction(rng.randint(-30, 30), s_part(rng, s, 2))
    argv = ["point", "verify", "--a", frac(a), "--b", frac(b)]
    if s:
        argv += ["--s", ",".join(map(str, s))]
    strict = rng.random() < 0.2
    if strict:
        argv.append("--strict")

    def expect():
        value = a * a * b**3 - 1
        on_x = s_unit(value, s)
        if a == 0 and b == 0:
            coprime = False
        elif a == 0 or b == 0:
            coprime = s_unit(a or b, s)
        else:
            coprime = math.gcd(strip(abs(a.numerator), s), strip(abs(b.numerator), s)) == 1
        obj = {"a": frac(a), "b": frac(b), "s": list(s), "value": frac(value),
               "on_x": on_x, "on_y": on_x and coprime}
        return json_out(obj, 1 if strict and not on_x else 0)

    return Command(argv, "point.verify", expect)


# -- condition oracles -----------------------------------------------------------------


def random_condition(rng: random.Random):
    """(text, accepted-multiplicity test or None for inf, smallest accepted multiplicity)."""
    kind = rng.choice([">=", "div", "union", "inf"])
    if kind == "inf":
        return "inf", None, None
    if kind == ">=":
        m = rng.randint(1, 4)
        return f">={m}", (lambda n: n >= m), m
    if kind == "div":
        m = rng.randint(1, 4)
        return f"div {m}", (lambda n: n % m == 0), m
    blocks = random_blocks(rng)
    return ("union " + "|".join(canon(b) for b in blocks),
            lambda n: in_blocks(blocks, n), min(b[0] for b in blocks))


def random_pair(rng: random.Random):
    labels = rng.sample(["D", "E", "F"], rng.randint(1, 3))
    conds = [(lbl, *random_condition(rng)) for lbl in labels]
    return "; ".join(f"{lbl}: {text}" for lbl, text, _, _ in conds), conds


def cpair_check_cmd(rng: random.Random) -> Command:
    pair, conds = random_pair(rng)
    vec = {}
    for lbl, *_ in conds:
        if rng.random() < 0.1:
            vec[lbl] = {"contained": True, "mults": []}
        else:
            primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 3))
            vec[lbl] = {"contained": False, "mults": [[p, rng.randint(1, 7)] for p in primes]}
    argv = ["cpair", "check", "--pair", pair, "--point", json.dumps(vec)]
    strict = rng.random() < 0.2
    if strict:
        argv.append("--strict")

    def expect():
        kinds = {text.split()[0][:2] for _, text, _, _ in conds if text != "inf"}
        checker = "campana" if kinds <= {">="} else "darmon" if kinds == {"di"} else "dedekind"
        divisors = []
        for lbl, text, accepts, _ in conds:
            data = vec[lbl]
            mults = sorted(data["mults"])
            if data["contained"]:
                passed, support, witness = accepts is not None, True, None
            elif accepts is None:
                passed, support, witness = not mults, False, mults[0][0] if mults else None
            else:
                bad = [p for p, m in mults if not accepts(m)]
                passed, support, witness = not bad, False, bad[0] if bad else None
            divisors.append({"label": lbl, "passed": passed, "in_support": support,
                             "witness": witness})
        accepted = all(d["passed"] for d in divisors)
        obj = {"pair": pair, "checker": checker, "accepted": accepted,
               "flags": ["in_support"] if any(d["in_support"] for d in divisors) else [],
               "divisors": divisors}
        return json_out(obj, 1 if strict and not accepted else 0)

    return Command(argv, "cpair.check", expect)


def cpair_divisor_cmd(rng: random.Random) -> Command:
    pair, conds = random_pair(rng)

    def expect():
        coeffs = [[lbl, "1" if m is None else frac(1 - Fraction(1, m))] for lbl, _, _, m in conds]
        return json_out({"pair": pair, "coefficients": coeffs})

    return Command(["cpair", "divisor", "--pair", pair], "cpair.divisor", expect)


def config_check_cmd(rng: random.Random) -> Command:
    blocks = random_blocks(rng)
    union = "|".join(canon(b) for b in blocks)
    ids = ["A", "B", "C", "D"][: rng.randint(1, 4)]
    comps = [[c, rng.randint(1, 9)] for c in ids]
    edges = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.4]
    cfg = {"components": comps, "edges": edges}
    argv = ["config", "check", "--union", union, "--configuration", json.dumps(cfg)]
    strict = rng.random() < 0.2
    if strict:
        argv.append("--strict")

    def expect():
        root = {c: c for c in ids}

        def find(c):
            while root[c] != c:
                c = root[c]
            return c

        for a, b in edges:
            root[find(a)] = find(b)
        groups: dict[str, list[str]] = {}
        for c in ids:  # grouped in order of first appearance
            groups.setdefault(find(c), []).append(c)
        mult = dict((c, m) for c, m in comps)
        assignment, failing = [], None
        for members in groups.values():
            comp = sorted(members)
            blk = next((i for i, b in enumerate(blocks, 1)
                        if all(in_blocks([b], mult[c]) for c in comp)), None)
            if blk is None:
                failing = comp
                break
            assignment.append([comp, blk])
        obj = {"union": union, "accepted": failing is None,
               "assignment": None if failing else assignment, "failing_component": failing}
        return json_out(obj, 1 if strict and failing else 0)

    return Command(argv, "config.check", expect)


# -- geometry oracles -----------------------------------------------------------------


def fibre_classify_cmd(rng: random.Random) -> Command:
    empty = rng.random() < 0.05
    mults = [] if empty else [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
    exceptional = not empty and rng.random() < 0.3
    argv = ["fibre", "classify"]
    if mults:
        argv.append("--mults=" + ",".join(map(str, mults)))
    if exceptional:
        argv.append("--exceptional")
    if empty:
        argv.append("--empty")

    def expect():
        if empty:
            fields = {"inf_mult": "inf", "gcd_mult": "inf", "coefficient": "1",
                      "inf_multiple": True, "divisible": True}
        else:
            m, g = min(mults), math.gcd(*mults)
            fields = {"inf_mult": m, "gcd_mult": g, "coefficient": frac(1 - Fraction(1, m)),
                      "inf_multiple": m >= 2, "divisible": g >= 2}
        return json_out({"mults": sorted(mults), "exceptional": exceptional, "empty": empty,
                         **fields})

    return Command(argv, "fibre.classify", expect)


def xa_classify_cmd(rng: random.Random) -> Command:
    a = sorted(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
    if rng.random() < 0.1:
        a.reverse()

    def expect():
        if a != sorted(a) or math.gcd(*a) != 1:
            return 2, EMPTY
        return json_out({"a": a, "weakly_special": True, "special": a[0] == 1})

    return Command(["xa", "classify", *map(str, a)], "xa.classify", expect)


def menu_cmd(rng: random.Random, family: str, prefix: list[str]) -> Command:
    argv = rng.choice([a for a in MENU_COMMANDS if a[: len(prefix)] == prefix])
    return Command(argv, family, recorded(argv))


def malformed_cmd(rng: random.Random) -> Command:
    return Command(list(rng.choice(MALFORMED)), "malformed", lambda: (2, EMPTY))


# -- the queries workload ------------------------------------------------------------------

# commands of each family in one pass of 1000: 960 cheap, 30 on <m.., 10 malformed
QUERY_MIX = [
    (80, factor_cmd),
    (70, mfull_check_cmd),
    (50, mfull_list_cmd),
    (80, lambda r: semigroup_cmd(r, "contains")),
    (50, lambda r: semigroup_cmd(r, "atoms")),
    (50, lambda r: semigroup_cmd(r, "frobenius")),
    (50, lambda r: semigroup_cmd(r, "elements")),
    (80, cpair_check_cmd),
    (60, cpair_divisor_cmd),
    (60, config_check_cmd),
    (70, fibre_classify_cmd),
    (60, lambda r: menu_cmd(r, "weights", ["weights"])),
    (60, lambda r: menu_cmd(r, "space.report", ["space", "report"])),
    (40, lambda r: menu_cmd(r, "kodaira.reduce", ["kodaira", "reduce"])),
    (50, xa_classify_cmd),
    (50, point_verify_cmd),
    (10, malformed_cmd),
]


# the 3% of heavy <m.. queries in a pass of 1000, m up to 300: ten at m = 200
# (where atoms would cost more) sit where the p99 rank falls, so p99 is the
# middle of ten like commands rather than one noisy sample
LARGE_M = [300, 290, 280, 270, 260] + list(range(10, 200, 13))
P99_M, P99_COUNT = 200, 10


def queries_pass(rng: random.Random, scale: int = 1) -> list[Command]:
    """One pass of the query mix; scale > 1 keeps every scale-th command of each family."""
    cmds = [make(rng) for count, make in QUERY_MIX for _ in range(count // scale)]
    cmds += [heavy_semigroup_cmd(rng, m) for m in LARGE_M[::scale]]
    cmds += [heavy_semigroup_cmd(rng, P99_M, ("frobenius", "contains"))
             for _ in range(P99_COUNT // scale)]
    rng.shuffle(cmds)
    return cmds


@dataclass
class Workload:
    name: str
    item: str  # what throughput counts
    fresh_per_command: bool  # one interpreter per command, or one for the whole run
    make_pass: Callable[[random.Random], list[Command]]


WORKLOADS = {
    "sweep": Workload("sweep", "candidates", True, sweep_pass),
    "line": Workload("line", "primitive pairs examined", True, line_pass),
    "queries": Workload("queries", "commands", False, queries_pass),
}
