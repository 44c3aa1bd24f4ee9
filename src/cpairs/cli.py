"""Command line front end.

Exit codes: 0 on success (including searches with zero hits), 1 when --strict
is set and the computed verdict is a rejection, 2 on usage, parse, or input
errors.  Output formats: json (canonical, one object per line, byte-stable
under parse/re-emit), csv (same columns, flat cells), table (human-readable,
not meant to round-trip).

Every command computes its JSON objects; the csv/table cells are derived from
them by `flat`, with a small per-command override where a cell is written
differently.  The command set is the `COMMANDS` table, which also names the
JSON field whose false value makes --strict exit 1.  The common flags
(--format, --strict, --config, --s) follow the subcommand:
`cpairs semigroup atoms "<4.." --format csv`.  A known command path is
parsed by that command's own leaf parser in one pass; the full parser tree,
built once, serves help, unknown names, leading flags and the tests.

A plain-text config file ("key = value" lines, # comments) can preset the
common flags; explicit flags win.  Unknown, duplicate, or malformed entries
are reported with line and column and exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Iterable

# `geometry` is imported by the handlers that use it, so a sweep or `p1` never loads it; what
# those commands use is imported here, so that none of their runs pays for an import.
from . import arith, conditions, search as search_mod
from .arith import SIntegerContext, format_rational, parse_rational
from .semigroups import MAX_APERY, format_semigroup, format_union, parse_semigroup, parse_union


class CliError(Exception):
    """Input or usage error: message printed to stderr, exit 2."""


# -- config files -------------------------------------------------------------


def _conv_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{where}: expected an integer, got {raw!r}") from None


def _conv_ints(raw: str, where: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(t) for t in raw.split(","))
    except ValueError:
        raise CliError(f"{where}: expected comma-separated integers, got {raw!r}") from None


def _conv_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise CliError(f"{where}: expected a boolean, got {raw!r}")


def _conv_format(raw: str, where: str) -> str:
    if raw in ("json", "csv", "table"):
        return raw
    raise CliError(f"{where}: format must be json, csv, or table, got {raw!r}")


# config key -> converter of its raw text; a flag given as text goes through it too
CONFIG_KEYS = {"s": _conv_ints, "bound": _conv_int, "height": _conv_int, "format": _conv_format,
               "strict": _conv_bool, "m": _conv_int}

REQUIRED = object()


def load_config(path: str) -> dict[str, tuple[str, int, int]]:
    """Parse "key = value" lines into {key: (raw value, line, column-of-value)}."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read config file {path}: {e}") from None
    out: dict[str, tuple[str, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise CliError(f"{path}:{lineno}:{col}: expected 'key = value'")
        key_part, _, val_part = line.partition("=")
        key = key_part.strip()
        key_col = line.index(key) + 1 if key else 1
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}:{key_col}: unknown config key {key!r}")
        if key in out:
            raise CliError(f"{path}:{lineno}:{key_col}: duplicate config key {key!r}")
        value = val_part.strip()
        val_col = line.index("=") + 2 + (len(val_part) - len(val_part.lstrip()))
        if not value:
            raise CliError(f"{path}:{lineno}:{val_col}: empty value for {key!r}")
        out[key] = (value, lineno, val_col)
    return out


class Options:
    """Flag values resolved against the config file (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config(args.config) if args.config else {}

    def get(self, key: str, default=REQUIRED):
        conv = CONFIG_KEYS[key]
        value = getattr(self.args, key, None)
        if isinstance(value, str):
            return conv(value, f"--{key}")
        if value is not None:
            return value
        if key in self.cfg:
            raw, line, col = self.cfg[key]
            return conv(raw, f"{self.args.config}:{line}:{col}")
        if default is REQUIRED:
            raise CliError(f"--{key} is required (flag or config)")
        return default


# -- output -------------------------------------------------------------------


_JOINERS = {"s": ",", "flags": "+"}


def flat(obj: dict) -> dict:
    """csv/table cells of a JSON object.

    A list is joined by a space (`s` by ",", `flags` by "+"), None becomes "",
    and nested objects stay in the JSON only.
    """
    cells = {}
    for key, value in obj.items():
        if isinstance(value, list):
            cells[key] = _JOINERS.get(key, " ").join(map(str, value))
        elif not isinstance(value, dict):
            cells[key] = "" if value is None else value
    return cells


def emit(objs: Iterable, columns: list[str], fmt: str, rows: Iterable[dict] | None = None) -> None:
    """Write JSON objects one per line, or csv/table rows of `flat(obj)` cells.

    An item of `objs` that is a `str` is taken as its JSON line already
    formatted.  `rows`, when given, replaces the flattened cells.  json and
    csv read their input once, so it may be a generator; table reads all rows
    to size its columns.
    """
    out = sys.stdout
    if fmt == "json":
        for obj in objs:
            out.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
        return
    rows = map(flat, objs) if rows is None else rows
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(columns)
        w.writerows([row.get(c, "") for c in columns] for row in rows)
        return
    cells = [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [max([len(c), *(len(r[i]) for r in cells)]) for i, c in enumerate(columns)]
    for line in (columns, *cells):
        out.write("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() + "\n")


def _compact_factorization(obj: "dict | None") -> str:
    """A factorization's JSON object as one cell: "-2^-3*3^2"; "0" for None."""
    if obj is None:
        return "0"
    sign = "-" if obj["sign"] < 0 else ""
    body = "*".join(f"{p}^{e}" if e != 1 else str(p) for p, e in obj["factors"])
    return sign + (body or "1")


def _load_json_arg(value: str, what: str, parse):
    """parse(JSON), the JSON inline if the value looks like JSON, else read from that path."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            text = Path(value).read_text()
        except OSError as e:
            raise CliError(f"cannot read {what} file {value}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"malformed {what} JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise CliError(f"malformed {what} JSON: nested too deeply") from None
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"bad {what}: {e}") from None


def _check_scan(count: int, what: str) -> None:
    """Exit 2 before anything is allocated when a command may scan or list over MAX_APERY integers."""
    if count > MAX_APERY:
        raise CliError(f"{what} may scan or list up to {count} integers, over the limit of {MAX_APERY}")


# -- command implementations ---------------------------------------------------
# Each returns (JSON objects, csv/table columns, rows overriding flat(obj) or None).


def cmd_factor(args, opt: Options):
    """Factor a nonzero rational."""
    obj = arith.factor(parse_rational(args.value)).to_json_obj()
    rows = [{"value": args.value, "sign": obj["sign"], "factors": _compact_factorization(obj)}]
    return [obj], ["value", "sign", "factors"], rows


def cmd_mfull_check(args, opt: Options):
    """Is an S-integer m-full away from S?"""
    ctx = SIntegerContext(opt.get("s", ()))
    x = parse_rational(args.value)
    m = opt.get("m", 2)
    witness = arith.m_full_witness(x, m, ctx)
    obj = {"x": format_rational(x), "m": m, "s": list(ctx.sorted_primes()), "full": witness is None}
    if witness is not None:
        obj["witness"] = witness
    return [obj], ["x", "m", "s", "full", "witness"], None


def cmd_mfull_list(args, opt: Options):
    """List the m-full numbers up to a bound."""
    m, bound = opt.get("m", 2), args.bound_pos
    if m >= 1 and bound >= 1:
        _check_scan(arith.m_full_count_bound(bound, m), "mfull list")
    values = arith.enumerate_m_full(bound, m)
    return [{"bound": bound, "m": m, "count": len(values), "values": values}], \
        ["bound", "m", "count", "values"], None


def _semigroup(text: str, single: "str | None" = None):
    """(semigroup or union, its canonical text); an action named by `single` refuses a union."""
    if "|" not in text:
        sg = parse_semigroup(text)
        return sg, format_semigroup(sg)
    union = parse_union(text)
    if single:
        raise CliError(f"{single} applies to a single semigroup, not a union")
    return union, format_union(union)


def cmd_semigroup_atoms(args, opt: Options):
    """Minimal generators of a semigroup."""
    sg, text = _semigroup(args.spec, "atoms")
    return [{"semigroup": text, "atoms": list(sg.atoms())}], ["semigroup", "atoms"], None


def cmd_semigroup_contains(args, opt: Options):
    """Membership of n in a semigroup or union."""
    sg, text = _semigroup(args.spec)
    return [{"semigroup": text, "n": args.n, "contains": sg.contains(args.n)}], \
        ["semigroup", "n", "contains"], None


def cmd_semigroup_elements(args, opt: Options):
    """Elements up to --bound."""
    sg, text = _semigroup(args.spec)
    bound = opt.get("bound")
    _check_scan(bound, "semigroup elements")
    els = sg.elements_up_to(bound)
    return [{"semigroup": text, "bound": bound, "count": len(els), "elements": els}], \
        ["semigroup", "bound", "count", "elements"], None


def cmd_semigroup_frobenius(args, opt: Options):
    """Frobenius number of a cofinite semigroup."""
    sg, text = _semigroup(args.spec, "frobenius")
    if not sg.is_cofinite:
        raise CliError(f"{text} is not cofinite (gcd of generators != 1)")
    return [{"semigroup": text, "frobenius": sg.frobenius()}], ["semigroup", "frobenius"], None


def _select_checker(spec: conditions.CPairSpec):
    kinds = {type(c) for _, c in spec.divisors if not isinstance(c, conditions.LogCondition)}
    if kinds <= {conditions.AtLeast}:
        return "campana", conditions.check_campana_point
    if kinds <= {conditions.DivisibleBy}:
        return "darmon", conditions.check_darmon_point
    return "dedekind", conditions.check_generalized_point_dedekind


def cmd_cpair_check(args, opt: Options):
    """Check a valuation vector against a pair."""
    spec = conditions.parse_pair_spec(args.pair)
    vec = _load_json_arg(args.point, "point", conditions.vector_from_json_obj)
    name, checker = _select_checker(spec)
    verdict = checker(spec, vec)
    obj = {
        "pair": conditions.format_pair_spec(spec),
        "checker": name,
        "accepted": verdict.accepted,
        "flags": list(verdict.flags),
        "divisors": [
            {"label": d.label, "passed": d.passed, "in_support": d.in_support,
             "witness": d.witness_prime}
            for d in verdict.divisors
        ],
    }
    witness = verdict.witness()
    return [obj], ["pair", "checker", "accepted", "flags", "witness"], \
        [{**flat(obj), "witness": "" if witness is None else witness}]


def cmd_cpair_divisor(args, opt: Options):
    """Coefficients 1 - 1/m of the pair's orbifold divisor."""
    spec = conditions.parse_pair_spec(args.pair)
    obj = {"pair": conditions.format_pair_spec(spec),
           "coefficients": [[lbl, format_rational(c)] for lbl, c in conditions.cpair_divisor(spec)]}
    cells = " ".join(f"{lbl}={c}" for lbl, c in obj["coefficients"])
    return [obj], ["pair", "coefficients"], [{**flat(obj), "coefficients": cells}]


def cmd_config_check(args, opt: Options):
    """Check a divisor configuration against a union."""
    union = parse_union(args.union)
    cfg = _load_json_arg(args.configuration, "configuration",
                         conditions.DivisorConfiguration.from_json_obj)
    verdict = conditions.check_generalized_configuration(union, cfg)
    obj = {
        "union": format_union(union),
        "accepted": verdict.accepted,
        "assignment": None if verdict.assignment is None
        else [[list(comp), blk] for comp, blk in verdict.assignment],
        "failing_component": None if verdict.failing_component is None
        else list(verdict.failing_component),
    }
    row = {**flat(obj),
           "assignment": " ".join(f"{'+'.join(comp)}->{blk}" for comp, blk in obj["assignment"] or ()),
           "failing": "+".join(obj["failing_component"] or ())}
    return [obj], ["union", "accepted", "assignment", "failing"], [row]


def _classification_fields(cls: geometry.FibreClassification) -> dict:
    return {
        "inf_mult": "inf" if cls.inf_mult is arith.INFINITY else cls.inf_mult,
        "gcd_mult": "inf" if cls.gcd_mult is arith.INFINITY else cls.gcd_mult,
        "coefficient": format_rational(cls.coefficient),
        "inf_multiple": cls.inf_multiple,
        "divisible": cls.divisible,
    }


_CLASSIFICATION_COLUMNS = ["inf_mult", "gcd_mult", "coefficient", "inf_multiple", "divisible"]


def cmd_fibre_classify(args, opt: Options):
    """inf-/gcd-multiplicity of one fibre."""
    from . import geometry

    fibre = geometry.FibreDecomposition(
        multiplicities=_conv_ints(args.mults, "--mults"),
        has_exceptional_part=args.exceptional,
        empty=args.empty,
    )
    obj = {"mults": list(fibre.multiplicities), "exceptional": fibre.has_exceptional_part,
           "empty": fibre.empty, **_classification_fields(geometry.classify_fibre(fibre))}
    return [obj], ["mults", "exceptional", "empty", *_CLASSIFICATION_COLUMNS], None


def cmd_fibre_orbifold_base(args, opt: Options):
    """The orbifold base of a list of fibres, one row per divisor."""
    from . import geometry

    report = geometry.orbifold_base(_load_json_arg(args.fibres, "fibres", geometry.fibres_from_json_obj))
    obj = {"divisors": [{"divisor": e.label, **_classification_fields(e.classification)}
                        for e in report.entries]}
    return [obj], ["divisor", *_CLASSIFICATION_COLUMNS], obj["divisors"]


def cmd_fibre_checklist(args, opt: Options):
    """The weak-specialness checklist."""
    from . import geometry

    fibres = _load_json_arg(args.fibres, "fibres", geometry.fibres_from_json_obj)
    rep = geometry.weakly_special_checklist(args.base_ws, args.dense_ws, fibres)
    obj = {
        "base_weakly_special": rep.base_weakly_special,
        "weakly_special_fibres_dense": rep.weakly_special_fibres_dense,
        "no_divisible_fibre": rep.no_divisible_fibre,
        "divisible_witness": rep.divisible_witness,
        "certified": rep.certified,
    }
    return [obj], list(obj), None


def cmd_xa_classify(args, opt: Options):
    """Weak specialness of the x^a family."""
    from . import geometry

    cls = geometry.classify_xa_family(args.exponents)
    return [{"a": list(cls.a), "weakly_special": cls.weakly_special, "special": cls.special}], \
        ["a", "weakly_special", "special"], None


def cmd_kodaira_reduce(args, opt: Options):
    """Reduced removal of a starred Kodaira fibre."""
    from . import geometry

    rem = geometry.kodaira_reduced_removal(args.type)
    obj = {
        "type": rem.type.value,
        "multiplicities": list(geometry.KODAIRA_MULTIPLICITIES[rem.type]),
        "removed_components": rem.removed_components,
        "reduced_mults": list(rem.fibre.multiplicities),
        **_classification_fields(rem.classification),
    }
    return [obj], ["type", "multiplicities", "removed_components", "reduced_mults",
                   *_CLASSIFICATION_COLUMNS], None


def _weights_obj(w: geometry.CampanaWeightData) -> dict:
    return {
        "a": list(w.a),
        "blocks": list(w.block_sizes),
        "kernel_basis": w.kernel_basis,  # tuples, which json writes as lists, uncopied
        "splitting": None if w.splitting is None else list(w.splitting),
        "strata": w.strata,
        "inf": w.inf_mult,
        "gcd": w.gcd_mult,
    }


def cmd_weights(args, opt: Options):
    """Weight vector and kernel lattice."""
    from . import geometry

    blocks = _conv_ints(args.blocks, "--blocks") or None
    obj = _weights_obj(geometry.campana_weights(args.exponents, blocks))
    # a generator, as in cmd_search: json output never builds the csv/table row
    rows = ({**flat(o), "kernel_basis": "; ".join(" ".join(map(str, r)) for r in o["kernel_basis"]),
             "strata": " ".join(f"({i},{j})" for i, j in o["strata"])} for o in [obj])
    return [obj], ["a", "kernel_basis", "splitting", "strata", "inf", "gcd"], rows


def cmd_space_report(args, opt: Options):
    """The model space of a condition."""
    from . import geometry

    cond = conditions.parse_condition(args.condition)
    rep = geometry.campana_space_report(cond)
    obj = {
        "condition": conditions.format_condition(cond),
        "atoms": [list(b) for b in rep.atoms_per_block],
        "a": list(rep.a),
        "torus_rank": rep.torus_rank,
        "weights": _weights_obj(rep.weights),
        "fibre_mults": list(rep.fibre.multiplicities),
        **_classification_fields(rep.classification),
    }
    return [obj], ["condition", "a", "torus_rank", "coefficient", "inf_multiple", "divisible"], None


def _search_cells(obj: dict) -> dict:
    lift_a, lift_b = obj.get("lift", ("", ""))
    return {**flat(obj), "shift": _compact_factorization(obj["shift"]),
            "lift_a": lift_a, "lift_b": lift_b}


def cmd_search(args, opt: Options):
    """Shifted S-unit sweeps."""
    cfg = search_mod.SearchConfig(
        s_primes=opt.get("s", ()),
        exponent_bound=opt.get("bound"),
        include_negative_units=not args.no_negative,
        include_support_points=not args.no_support,
    )
    signs = 2 if cfg.include_negative_units else 1
    _check_scan(signs * (2 * cfg.exponent_bound + 1) ** len(cfg.s_primes), "search")
    records = search_mod.shifted_unit_sweep(cfg, args.kind)
    # emit reads one of the two generators, so each record is written as the sweep makes it
    return search_mod.json_lines(records), \
        ["x", "shift", "verdict", "witness", "lift_a", "lift_b", "target", "flags"], \
        (_search_cells(search_mod.PointRecord._make(r).to_json_obj()) for r in records)


def cmd_p1_enumerate(args, opt: Options):
    """Accepted points of bounded height on the line."""
    spec = conditions.parse_pair_spec(args.pair)
    divisors = [(search_mod.parse_projective_point(lbl), cond) for lbl, cond in spec.divisors]
    s_primes, height = opt.get("s", ()), opt.get("height")
    _check_scan(search_mod.p1_scan_count(divisors, s_primes, height), "p1 enumerate")
    records = search_mod.enumerate_campana_points_p1(
        divisors, s_primes, height, include_support_points=not args.no_support)
    # as in cmd_search: json writes each record's line, csv/table its flattened object
    return (r.json_line() for r in records), ["point", "height", "verdict", "flags"], \
        (flat(r.to_json_obj()) for r in records)


def cmd_point_verify(args, opt: Options):
    """Is (a, b) on X and on Y?"""
    ctx = SIntegerContext(opt.get("s", ()))
    a, b = parse_rational(args.a), parse_rational(args.b)
    membership = search_mod.verify_point_on_X(a, b, ctx)
    obj = {"a": format_rational(a), "b": format_rational(b),
           "s": list(ctx.sorted_primes()),
           "value": format_rational(membership.value),
           "on_x": membership.on_x, "on_y": membership.on_y}
    return [obj], ["a", "b", "s", "value", "on_x", "on_y"], None


# -- the command table -----------------------------------------------------------


def arg(*names: str, **kwargs):
    return names, kwargs


SPEC = arg("spec", help='semigroup text: "<2,7>", "<2..", "{}", blocks joined by |')
M = arg("--m", type=int)
FIBRES = arg("--fibres", required=True, help="list of fibre objects (JSON inline or file)")
EXPONENTS = arg("exponents", type=int, nargs="+", metavar="A")
NO_SUPPORT = arg("--no-support", action="store_true", help="drop flagged support points")

# (path, handler, arguments, strict field: the JSON key whose false value makes --strict exit 1)
COMMANDS = [
    ("factor", cmd_factor, [arg("value")], None),
    ("mfull check", cmd_mfull_check, [arg("value"), M], "full"),
    ("mfull list", cmd_mfull_list, [arg("bound_pos", type=int, metavar="BOUND"), M], None),
    ("semigroup atoms", cmd_semigroup_atoms, [SPEC], None),
    ("semigroup contains", cmd_semigroup_contains, [SPEC, arg("n", type=int)], "contains"),
    ("semigroup elements", cmd_semigroup_elements, [SPEC, arg("--bound", type=int)], None),
    ("semigroup frobenius", cmd_semigroup_frobenius, [SPEC], None),
    ("cpair check", cmd_cpair_check, [
        arg("--pair", required=True, help='e.g. "0: >=2; 1: inf; inf: union <2,7>|<3>"'),
        arg("--point", required=True, help="valuation vector JSON (inline or file path)")], "accepted"),
    ("cpair divisor", cmd_cpair_divisor, [arg("--pair", required=True)], None),
    ("config check", cmd_config_check, [
        arg("--union", required=True, help='semigroup union text, e.g. "<2,7>|<3>"'),
        arg("--configuration", required=True, help="configuration JSON (inline or file path)")],
     "accepted"),
    ("fibre classify", cmd_fibre_classify, [
        arg("--mults", default="", help="comma-separated component multiplicities"),
        arg("--exceptional", action="store_true"), arg("--empty", action="store_true")], None),
    ("fibre orbifold-base", cmd_fibre_orbifold_base, [FIBRES], None),
    ("fibre checklist", cmd_fibre_checklist, [
        FIBRES,
        arg("--base-ws", action=argparse.BooleanOptionalAction, required=True, dest="base_ws",
            help="caller certifies: the base is weakly special"),
        arg("--dense-ws", action=argparse.BooleanOptionalAction, required=True, dest="dense_ws",
            help="caller certifies: weakly special fibres are dense")], "certified"),
    ("xa classify", cmd_xa_classify, [EXPONENTS], None),
    ("kodaira reduce", cmd_kodaira_reduce, [arg("type", help="II*, III*, or IV*")], None),
    ("weights", cmd_weights, [EXPONENTS, arg("--blocks", default="", help="comma-separated block sizes")],
     None),
    ("space report", cmd_space_report, [
        arg("--condition", required=True, help='condition text, e.g. ">=2" or "div 2"')], None),
    ("search", cmd_search, [
        arg("kind", choices=["2full", "2or3"]),
        arg("--bound", type=int, help="sup-norm exponent bound"),
        arg("--no-negative", action="store_true", help="skip negative units"), NO_SUPPORT], None),
    ("p1 enumerate", cmd_p1_enumerate, [
        arg("--pair", required=True, help='e.g. "0: >=2; 1: >=2; inf: >=2"'),
        arg("--height", type=int), NO_SUPPORT], None),
    ("point verify", cmd_point_verify, [arg("--a", required=True), arg("--b", required=True)], "on_x"),
]

GROUPS = {"mfull": "m-full (powerful) numbers", "semigroup": "numerical semigroup queries",
          "cpair": "multiplicity-condition checks", "config": "divisor configuration checks",
          "fibre": "fibre and orbifold-base analysis", "xa": "the coordinate-power family",
          "kodaira": "starred Kodaira fibres", "space": "model-space reports",
          "p1": "bounded-height points on the line", "point": "verify candidate points"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative rationals like -9/8 pass as positional values
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


class _TopParser(_Parser):
    """The `cpairs` parser: a known command path goes straight to its leaf parser.

    argparse would parse `mfull check 5` three times over (top, group, leaf),
    each level handing the rest of the argv to the next.  A path in `leaves`
    gives the same namespace and leftovers from the leaf alone; any other argv
    (help, an unknown name, a leading flag) takes the full argparse route.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.leaves: dict[tuple[str, ...], argparse.ArgumentParser] = {}

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        words = 1 if tuple(args[:1]) in self.leaves else 2
        leaf = self.leaves.get(tuple(args[:words]))
        if leaf is None:
            return super().parse_known_args(args, namespace)
        namespace = argparse.Namespace() if namespace is None else namespace
        namespace.command = args[0]
        if words == 2:
            namespace.action = args[1]
        sub, extras = leaf.parse_known_args(args[words:])
        vars(namespace).update(vars(sub))
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `cpairs` parser, built once per process from `COMMANDS`."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "table"],
                        help="output format (default json)")
    common.add_argument("--strict", action="store_const", const=True,
                        help="exit 1 when the verdict is a rejection")
    common.add_argument("--config", metavar="PATH",
                        help="plain-text config file presetting common flags")
    common.add_argument("--s", metavar="P,P,...",
                        help="excluded primes S (comma separated, empty for none)")

    p = _TopParser(prog="cpairs", description=__doc__,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = {"": p.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    for path, handler, arguments, strict_field in COMMANDS:
        group, _, name = path.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group, help=GROUPS[group]).add_subparsers(
                dest="action", required=True)
        leaf = subs[group].add_parser(name, parents=[common], help=handler.__doc__)
        for names, kwargs in arguments:
            leaf.add_argument(*names, **kwargs)
        leaf.set_defaults(fn=handler, strict_field=strict_field)
        p.leaves[tuple(path.split())] = leaf
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opt = Options(args)
        # resolved first, so that a malformed value exits 2 before any output
        strict = args.strict_field is not None and opt.get("strict", False)
        objs, columns, rows = args.fn(args, opt)
        emit(objs, columns, opt.get("format", "json"), rows)
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
        return 1 if strict and not objs[0][args.strict_field] else 0
    except (CliError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left; the interpreter's final flush must not meet the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before the command finished", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
