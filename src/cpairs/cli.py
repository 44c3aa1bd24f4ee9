"""Command line front end.

Exit codes: 0 on success (including searches with zero hits), 1 when --strict
is set and the computed verdict is a rejection, 2 on usage, parse, or input
errors.  Output formats: json (canonical, one object per line, byte-stable
under parse/re-emit), csv (same columns, flat cells), table (human-readable,
not meant to round-trip).

A plain-text config file ("key = value" lines, # comments) can preset the
common flags; explicit flags win.  Unknown, duplicate, or malformed entries
are reported with line and column and exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

from . import arith, conditions, geometry, search as search_mod
from .arith import SIntegerContext, format_rational, parse_rational
from .semigroups import format_semigroup, format_union, parse_semigroup, parse_union


class CliError(Exception):
    """Input or usage error: message printed to stderr, exit 2."""


# -- config files -------------------------------------------------------------

CONFIG_KEYS = ("s", "bound", "height", "format", "strict", "m")

# The most integers one command may scan or list; a larger request exits 2
# before anything is allocated.
MAX_SCAN = 10**7


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


def _conv_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{where}: expected an integer, got {raw!r}") from None


def _conv_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise CliError(f"{where}: expected a boolean, got {raw!r}")


def _conv_primes(raw: str, where: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(t) for t in raw.split(","))
    except ValueError:
        raise CliError(f"{where}: expected comma-separated primes, got {raw!r}") from None


def _conv_format(raw: str, where: str) -> str:
    if raw in ("json", "csv", "table"):
        return raw
    raise CliError(f"{where}: format must be json, csv, or table, got {raw!r}")


class Options:
    """Flag values resolved against the config file (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config(args.config) if getattr(args, "config", None) else {}

    def _pick(self, key: str, cli_value, conv, default):
        if cli_value is not None:
            return cli_value
        if key in self.cfg:
            raw, line, col = self.cfg[key]
            return conv(raw, f"{self.args.config}:{line}:{col}")
        return default

    @property
    def fmt(self) -> str:
        v = getattr(self.args, "format", None)
        return self._pick("format", v, _conv_format, "json")

    @property
    def strict(self) -> bool:
        v = getattr(self.args, "strict", None)
        return self._pick("strict", v, _conv_bool, False)

    @property
    def s_primes(self) -> tuple[int, ...]:
        v = getattr(self.args, "s", None)
        if v is not None:
            return _conv_primes(v, "--s")
        return self._pick("s", None, _conv_primes, ())

    def bound(self, default=None) -> int:
        v = getattr(self.args, "bound", None)
        n = self._pick("bound", v, _conv_int, default)
        if n is None:
            raise CliError("--bound is required (flag or config)")
        return n

    def height(self) -> int:
        v = getattr(self.args, "height", None)
        n = self._pick("height", v, _conv_int, None)
        if n is None:
            raise CliError("--height is required (flag or config)")
        return n

    def m(self, default=None) -> int:
        v = getattr(self.args, "m", None)
        n = self._pick("m", v, _conv_int, default)
        if n is None:
            raise CliError("--m is required (flag or config)")
        return n


# -- output -------------------------------------------------------------------


def json_line(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def emit(rows: list[dict], columns: list[str], fmt: str, out=None) -> None:
    """rows: flat csv/table cells by column; JSON objects ride in row["__json__"]."""
    out = out or sys.stdout
    if fmt == "json":
        for row in rows:
            out.write(json_line(row["__json__"]) + "\n")
        return
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([row.get(c, "") for c in columns])
        return
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
    out.write("  ".join(c.ljust(widths[c]) for c in columns).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns).rstrip() + "\n")


def _compact_factorization(fz: "arith.PrimeFactorization | None") -> str:
    if fz is None:
        return "0"
    body = "*".join(f"{p}^{e}" if e != 1 else str(p) for p, e in fz.factors)
    if not body:
        return "-1" if fz.sign < 0 else "1"
    return ("-" if fz.sign < 0 else "") + body


def _load_json_arg(value: str, what: str):
    """Inline JSON if the value looks like JSON, else read the file at that path."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            text = Path(value).read_text()
        except OSError as e:
            raise CliError(f"cannot read {what} file {value}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CliError(f"malformed {what} JSON at line {e.lineno} column {e.colno}: {e.msg}") from None


# -- command implementations ---------------------------------------------------


def cmd_factor(args, opt: Options) -> int:
    x = parse_rational(args.value)
    if x == 0:
        raise CliError("0 has no prime factorization")
    fz = arith.factor(x)
    obj = fz.to_json_obj()
    rows = [{"__json__": obj, "value": args.value, "sign": fz.sign,
             "factors": _compact_factorization(fz)}]
    emit(rows, ["value", "sign", "factors"], opt.fmt)
    return 0


def cmd_mfull_check(args, opt: Options) -> int:
    ctx = SIntegerContext(opt.s_primes)
    x = parse_rational(args.value)
    m = opt.m(default=2)
    try:
        witness = arith.m_full_witness(x, m, ctx)
    except arith.NotAnSIntegerError as e:
        raise CliError(str(e)) from None
    full = witness is None
    obj = {"x": format_rational(x), "m": m, "s": list(ctx.sorted_primes()), "full": full}
    if witness is not None:
        obj["witness"] = witness
    rows = [{"__json__": obj, "x": obj["x"], "m": m, "s": ",".join(map(str, ctx.sorted_primes())),
             "full": full, "witness": "" if witness is None else witness}]
    emit(rows, ["x", "m", "s", "full", "witness"], opt.fmt)
    return 1 if opt.strict and not full else 0


def _check_scan(count: int, what: str) -> None:
    if count > MAX_SCAN:
        raise CliError(f"{what} may scan or list up to {count} integers, over the limit of {MAX_SCAN}")


def cmd_mfull_list(args, opt: Options) -> int:
    m = opt.m(default=2)
    if m >= 1 and args.bound_pos >= 1:
        _check_scan(arith.m_full_count_bound(args.bound_pos, m), "mfull list")
    values = arith.enumerate_m_full(args.bound_pos, m)
    obj = {"bound": args.bound_pos, "m": m, "count": len(values), "values": values}
    rows = [{"__json__": obj, "bound": args.bound_pos, "m": m, "count": len(values),
             "values": " ".join(map(str, values))}]
    emit(rows, ["bound", "m", "count", "values"], opt.fmt)
    return 0


def _parse_set_text(text: str):
    return parse_union(text) if "|" in text else parse_semigroup(text)


def cmd_semigroup(args, opt: Options) -> int:
    action = args.action
    sg = _parse_set_text(args.spec)
    from .semigroups import SemigroupUnion

    if action == "atoms":
        if isinstance(sg, SemigroupUnion):
            raise CliError("atoms applies to a single semigroup, not a union")
        atoms = list(sg.atoms())
        obj = {"semigroup": format_semigroup(sg), "atoms": atoms}
        rows = [{"__json__": obj, "semigroup": obj["semigroup"], "atoms": " ".join(map(str, atoms))}]
        emit(rows, ["semigroup", "atoms"], opt.fmt)
        return 0
    if action == "frobenius":
        if isinstance(sg, SemigroupUnion):
            raise CliError("frobenius applies to a single semigroup, not a union")
        if not sg.is_cofinite:
            raise CliError(f"{format_semigroup(sg)} is not cofinite (gcd of generators != 1)")
        obj = {"semigroup": format_semigroup(sg), "frobenius": sg.frobenius()}
        rows = [{"__json__": obj, **obj}]
        emit(rows, ["semigroup", "frobenius"], opt.fmt)
        return 0
    text = format_union(sg) if isinstance(sg, SemigroupUnion) else format_semigroup(sg)
    if action == "contains":
        n = args.n
        ok = sg.contains(n)
        obj = {"semigroup": text, "n": n, "contains": ok}
        rows = [{"__json__": obj, **obj}]
        emit(rows, ["semigroup", "n", "contains"], opt.fmt)
        return 1 if opt.strict and not ok else 0
    if action == "elements":
        bound = opt.bound()
        _check_scan(bound, "semigroup elements")
        els = sg.elements_up_to(bound)
        obj = {"semigroup": text, "bound": bound, "count": len(els), "elements": els}
        rows = [{"__json__": obj, "semigroup": text, "bound": bound, "count": len(els),
                 "elements": " ".join(map(str, els))}]
        emit(rows, ["semigroup", "bound", "count", "elements"], opt.fmt)
        return 0
    raise CliError(f"unknown semigroup action {action!r}")


def _select_checker(spec: conditions.CPairSpec):
    kinds = {type(c) for _, c in spec.divisors if not isinstance(c, conditions.LogCondition)}
    if kinds <= {conditions.AtLeast}:
        return "campana", conditions.check_campana_point
    if kinds <= {conditions.DivisibleBy}:
        return "darmon", conditions.check_darmon_point
    return "dedekind", conditions.check_generalized_point_dedekind


def cmd_cpair_check(args, opt: Options) -> int:
    spec = conditions.parse_pair_spec(args.pair)
    vec_obj = _load_json_arg(args.point, "point")
    try:
        vec = conditions.vector_from_json_obj(vec_obj)
        name, checker = _select_checker(spec)
        verdict = checker(spec, vec)
    except ValueError as e:
        raise CliError(str(e)) from None
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
    rows = [{"__json__": obj, "pair": obj["pair"], "checker": name, "accepted": verdict.accepted,
             "flags": "+".join(verdict.flags),
             "witness": "" if verdict.witness() is None else verdict.witness()}]
    emit(rows, ["pair", "checker", "accepted", "flags", "witness"], opt.fmt)
    return 1 if opt.strict and not verdict.accepted else 0


def cmd_cpair_divisor(args, opt: Options) -> int:
    spec = conditions.parse_pair_spec(args.pair)
    coeffs = conditions.cpair_divisor(spec)
    obj = {"pair": conditions.format_pair_spec(spec),
           "coefficients": [[lbl, format_rational(c)] for lbl, c in coeffs]}
    rows = [{"__json__": obj, "pair": obj["pair"],
             "coefficients": " ".join(f"{lbl}={format_rational(c)}" for lbl, c in coeffs)}]
    emit(rows, ["pair", "coefficients"], opt.fmt)
    return 0


def cmd_config_check(args, opt: Options) -> int:
    union = parse_union(args.union)
    cfg_obj = _load_json_arg(args.configuration, "configuration")
    try:
        cfg = conditions.DivisorConfiguration.from_json_obj(cfg_obj)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"bad configuration: {e}") from None
    verdict = conditions.check_generalized_configuration(union, cfg)
    obj = {
        "union": format_union(union),
        "accepted": verdict.accepted,
        "assignment": None if verdict.assignment is None
        else [[list(comp), blk] for comp, blk in verdict.assignment],
        "failing_component": None if verdict.failing_component is None
        else list(verdict.failing_component),
    }
    rows = [{"__json__": obj, "union": obj["union"], "accepted": verdict.accepted,
             "assignment": "" if verdict.assignment is None
             else " ".join(f"{'+'.join(comp)}->{blk}" for comp, blk in verdict.assignment),
             "failing": "" if verdict.failing_component is None else "+".join(verdict.failing_component)}]
    emit(rows, ["union", "accepted", "assignment", "failing"], opt.fmt)
    return 1 if opt.strict and not verdict.accepted else 0


def _mults_arg(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError(f"--mults expects comma-separated integers, got {text!r}") from None


def _classification_fields(cls: geometry.FibreClassification) -> dict:
    return {
        "inf_mult": "inf" if cls.inf_mult is arith.INFINITY else cls.inf_mult,
        "gcd_mult": "inf" if cls.gcd_mult is arith.INFINITY else cls.gcd_mult,
        "coefficient": format_rational(cls.coefficient),
        "inf_multiple": cls.inf_multiple,
        "divisible": cls.divisible,
    }


def cmd_fibre_classify(args, opt: Options) -> int:
    fibre = geometry.FibreDecomposition(
        multiplicities=_mults_arg(args.mults),
        has_exceptional_part=args.exceptional,
        empty=args.empty,
    )
    cls = geometry.classify_fibre(fibre)
    obj = {"mults": list(fibre.multiplicities), "exceptional": fibre.has_exceptional_part,
           "empty": fibre.empty, **_classification_fields(cls)}
    rows = [{"__json__": obj, **obj, "mults": " ".join(map(str, fibre.multiplicities))}]
    emit(rows, ["mults", "exceptional", "empty", "inf_mult", "gcd_mult",
                "coefficient", "inf_multiple", "divisible"], opt.fmt)
    return 0


def _fibres_arg(value: str) -> list[tuple[str, geometry.FibreDecomposition]]:
    data = _load_json_arg(value, "fibres")
    if not isinstance(data, list):
        raise CliError("fibres JSON must be a list of fibre objects")
    try:
        return [geometry.fibre_from_json_obj(o) for o in data]
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"bad fibre object: {e}") from None


def cmd_fibre_orbifold_base(args, opt: Options) -> int:
    fibres = _fibres_arg(args.fibres)
    report = geometry.orbifold_base(fibres)
    entries = [{"divisor": e.label, **_classification_fields(e.classification)}
               for e in report.entries]
    obj = {"divisors": entries}
    rows = [{"__json__": obj}] if opt.fmt == "json" else [
        {"__json__": obj, **e} for e in entries
    ]
    emit(rows, ["divisor", "inf_mult", "gcd_mult", "coefficient", "inf_multiple", "divisible"],
         opt.fmt)
    return 0


def cmd_fibre_checklist(args, opt: Options) -> int:
    fibres = _fibres_arg(args.fibres)
    rep = geometry.weakly_special_checklist(args.base_ws, args.dense_ws, fibres)
    obj = {
        "base_weakly_special": rep.base_weakly_special,
        "weakly_special_fibres_dense": rep.weakly_special_fibres_dense,
        "no_divisible_fibre": rep.no_divisible_fibre,
        "divisible_witness": rep.divisible_witness,
        "certified": rep.certified,
    }
    rows = [{"__json__": obj, **{k: ("" if v is None else v) for k, v in obj.items()}}]
    emit(rows, list(obj.keys()), opt.fmt)
    return 1 if opt.strict and not rep.certified else 0


def cmd_xa_classify(args, opt: Options) -> int:
    try:
        cls = geometry.classify_xa_family(args.exponents)
    except ValueError as e:
        raise CliError(str(e)) from None
    obj = {"a": list(cls.a), "weakly_special": cls.weakly_special, "special": cls.special}
    rows = [{"__json__": obj, "a": " ".join(map(str, cls.a)),
             "weakly_special": cls.weakly_special, "special": cls.special}]
    emit(rows, ["a", "weakly_special", "special"], opt.fmt)
    return 0


def cmd_kodaira_reduce(args, opt: Options) -> int:
    try:
        rem = geometry.kodaira_reduced_removal(args.type)
    except ValueError as e:
        raise CliError(str(e)) from None
    obj = {
        "type": rem.type.value,
        "multiplicities": list(geometry.KODAIRA_MULTIPLICITIES[rem.type]),
        "removed_components": rem.removed_components,
        "reduced_mults": list(rem.fibre.multiplicities),
        **_classification_fields(rem.classification),
    }
    rows = [{"__json__": obj, **obj,
             "multiplicities": " ".join(map(str, obj["multiplicities"])),
             "reduced_mults": " ".join(map(str, obj["reduced_mults"]))}]
    emit(rows, ["type", "multiplicities", "removed_components", "reduced_mults",
                "inf_mult", "gcd_mult", "coefficient", "inf_multiple", "divisible"], opt.fmt)
    return 0


def _weights_obj(w: geometry.CampanaWeightData) -> dict:
    return {
        "a": list(w.a),
        "blocks": list(w.block_sizes),
        "kernel_basis": [list(r) for r in w.kernel_basis],
        "splitting": None if w.splitting is None else list(w.splitting),
        "strata": [list(s) for s in w.strata],
        "inf": w.inf_mult,
        "gcd": w.gcd_mult,
    }


def cmd_weights(args, opt: Options) -> int:
    blocks = None
    if args.blocks:
        try:
            blocks = tuple(int(t) for t in args.blocks.split(","))
        except ValueError:
            raise CliError(f"--blocks expects comma-separated sizes, got {args.blocks!r}") from None
    try:
        w = geometry.campana_weights(args.exponents, blocks)
    except ValueError as e:
        raise CliError(str(e)) from None
    obj = _weights_obj(w)
    rows = [{"__json__": obj, "a": " ".join(map(str, w.a)),
             "kernel_basis": "; ".join(" ".join(map(str, r)) for r in w.kernel_basis),
             "splitting": "" if w.splitting is None else " ".join(map(str, w.splitting)),
             "strata": " ".join(f"({i},{j})" for i, j in w.strata),
             "inf": w.inf_mult, "gcd": w.gcd_mult}]
    emit(rows, ["a", "kernel_basis", "splitting", "strata", "inf", "gcd"], opt.fmt)
    return 0


def cmd_space_report(args, opt: Options) -> int:
    try:
        cond = conditions.parse_condition(args.condition)
        rep = geometry.campana_space_report(cond)
    except ValueError as e:
        raise CliError(str(e)) from None
    obj = {
        "condition": conditions.format_condition(cond),
        "atoms": [list(b) for b in rep.atoms_per_block],
        "a": list(rep.a),
        "torus_rank": rep.torus_rank,
        "weights": _weights_obj(rep.weights),
        "fibre_mults": list(rep.fibre.multiplicities),
        **_classification_fields(rep.classification),
    }
    rows = [{"__json__": obj, "condition": obj["condition"],
             "a": " ".join(map(str, rep.a)), "torus_rank": rep.torus_rank,
             "coefficient": obj["coefficient"], "inf_multiple": obj["inf_multiple"],
             "divisible": obj["divisible"]}]
    emit(rows, ["condition", "a", "torus_rank", "coefficient", "inf_multiple", "divisible"],
         opt.fmt)
    return 0


def _search_rows(records) -> list[dict]:
    rows = []
    for r in records:
        obj = r.to_json_obj()
        rows.append({
            "__json__": obj,
            "x": obj["x"],
            "shift": _compact_factorization(r.shifted),
            "verdict": r.verdict,
            "witness": "" if r.witness_prime is None else r.witness_prime,
            "lift_a": "" if r.lift is None else format_rational(r.lift[0]),
            "lift_b": "" if r.lift is None else format_rational(r.lift[1]),
            "target": r.target,
            "flags": "+".join(r.flags),
        })
    return rows


def cmd_search(args, opt: Options) -> int:
    cfg = search_mod.SearchConfig(
        s_primes=opt.s_primes,
        exponent_bound=opt.bound(),
        include_negative_units=not args.no_negative,
        include_support_points=not args.no_support,
    )
    fn = {"2full": search_mod.search_shifted_units_2full,
          "2or3": search_mod.search_shifted_units_2or3}[args.kind]
    records = fn(cfg)
    emit(_search_rows(records),
         ["x", "shift", "verdict", "witness", "lift_a", "lift_b", "target", "flags"], opt.fmt)
    return 0


def _parse_p1_pair(text: str) -> list[tuple[tuple[int, int], object]]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        label, colon, cond_text = chunk.partition(":")
        if not colon:
            raise CliError(f"pair entry needs 'point: condition', got {chunk!r}")
        try:
            pt = search_mod.parse_projective_point(label)
            cond = conditions.parse_condition(cond_text)
        except ValueError as e:
            raise CliError(str(e)) from None
        out.append((pt, cond))
    if not out:
        raise CliError("pair specification is empty")
    return out


def cmd_p1_enumerate(args, opt: Options) -> int:
    divisors = _parse_p1_pair(args.pair)
    try:
        records = search_mod.enumerate_campana_points_p1(
            divisors, opt.s_primes, opt.height(),
            include_support_points=not args.no_support,
        )
    except ValueError as e:
        raise CliError(str(e)) from None
    rows = []
    for r in records:
        obj = r.to_json_obj()
        rows.append({"__json__": obj, "point": obj["point"], "height": r.height,
                     "verdict": obj["verdict"], "flags": "+".join(r.flags)})
    emit(rows, ["point", "height", "verdict", "flags"], opt.fmt)
    return 0


def cmd_point_verify(args, opt: Options) -> int:
    ctx = SIntegerContext(opt.s_primes)
    try:
        a, b = parse_rational(args.a), parse_rational(args.b)
        membership = search_mod.verify_point_on_X(a, b, ctx)
    except ValueError as e:
        raise CliError(str(e)) from None
    obj = {"a": format_rational(a), "b": format_rational(b),
           "s": list(ctx.sorted_primes()),
           "value": format_rational(membership.value),
           "on_x": membership.on_x, "on_y": membership.on_y}
    rows = [{"__json__": obj, **obj, "s": ",".join(map(str, ctx.sorted_primes()))}]
    emit(rows, ["a", "b", "s", "value", "on_x", "on_y"], opt.fmt)
    return 1 if opt.strict and not membership.on_x else 0


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative rationals like -9/8 pass as positional values
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "table"], default=None,
                        help="output format (default json)")
    common.add_argument("--strict", action="store_const", const=True, default=None,
                        help="exit 1 when the verdict is a rejection")
    common.add_argument("--config", default=None, metavar="PATH",
                        help="plain-text config file presetting common flags")
    common.add_argument("--s", default=None, metavar="P,P,...",
                        help="excluded primes S (comma separated, empty for none)")

    p = _Parser(prog="cpairs", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factor", parents=[common], help="factor a nonzero rational")
    sp.add_argument("value")
    sp.set_defaults(fn=cmd_factor)

    mf = sub.add_parser("mfull", parents=[common], help="m-full (powerful) numbers")
    mfsub = mf.add_subparsers(dest="action", required=True)
    c = mfsub.add_parser("check", parents=[common])
    c.add_argument("value")
    c.add_argument("--m", type=int, default=None)
    c.set_defaults(fn=cmd_mfull_check)
    c = mfsub.add_parser("list", parents=[common])
    c.add_argument("bound_pos", type=int, metavar="BOUND")
    c.add_argument("--m", type=int, default=None)
    c.set_defaults(fn=cmd_mfull_list)

    sg = sub.add_parser("semigroup", parents=[common], help="numerical semigroup queries")
    sgsub = sg.add_subparsers(dest="action", required=True)
    for action in ("atoms", "contains", "elements", "frobenius"):
        c = sgsub.add_parser(action, parents=[common])
        c.add_argument("spec", help='semigroup text: "<2,7>", "<2..", "{}", blocks joined by |')
        if action == "contains":
            c.add_argument("n", type=int)
        if action == "elements":
            c.add_argument("--bound", type=int, default=None)
        c.set_defaults(fn=cmd_semigroup)

    cp = sub.add_parser("cpair", parents=[common], help="multiplicity-condition checks")
    cpsub = cp.add_subparsers(dest="action", required=True)
    c = cpsub.add_parser("check", parents=[common])
    c.add_argument("--pair", required=True, help='e.g. "0: >=2; 1: inf; inf: union <2,7>|<3>"')
    c.add_argument("--point", required=True, help="valuation vector JSON (inline or file path)")
    c.set_defaults(fn=cmd_cpair_check)
    c = cpsub.add_parser("divisor", parents=[common])
    c.add_argument("--pair", required=True)
    c.set_defaults(fn=cmd_cpair_divisor)

    cf = sub.add_parser("config", parents=[common], help="divisor configuration checks")
    cfsub = cf.add_subparsers(dest="action", required=True)
    c = cfsub.add_parser("check", parents=[common])
    c.add_argument("--union", required=True, help='semigroup union text, e.g. "<2,7>|<3>"')
    c.add_argument("--configuration", required=True,
                   help="configuration JSON (inline or file path)")
    c.set_defaults(fn=cmd_config_check)

    fb = sub.add_parser("fibre", parents=[common], help="fibre and orbifold-base analysis")
    fbsub = fb.add_subparsers(dest="action", required=True)
    c = fbsub.add_parser("classify", parents=[common])
    c.add_argument("--mults", default="", help="comma-separated component multiplicities")
    c.add_argument("--exceptional", action="store_true")
    c.add_argument("--empty", action="store_true")
    c.set_defaults(fn=cmd_fibre_classify)
    c = fbsub.add_parser("orbifold-base", parents=[common])
    c.add_argument("--fibres", required=True, help="list of fibre objects (JSON inline or file)")
    c.set_defaults(fn=cmd_fibre_orbifold_base)
    c = fbsub.add_parser("checklist", parents=[common])
    c.add_argument("--fibres", required=True)
    c.add_argument("--base-ws", action=argparse.BooleanOptionalAction, required=True,
                   dest="base_ws", help="caller certifies: the base is weakly special")
    c.add_argument("--dense-ws", action=argparse.BooleanOptionalAction, required=True,
                   dest="dense_ws", help="caller certifies: weakly special fibres are dense")
    c.set_defaults(fn=cmd_fibre_checklist)

    xa = sub.add_parser("xa", parents=[common], help="the coordinate-power family")
    xasub = xa.add_subparsers(dest="action", required=True)
    c = xasub.add_parser("classify", parents=[common])
    c.add_argument("exponents", type=int, nargs="+", metavar="A")
    c.set_defaults(fn=cmd_xa_classify)

    kd = sub.add_parser("kodaira", parents=[common], help="starred Kodaira fibres")
    kdsub = kd.add_subparsers(dest="action", required=True)
    c = kdsub.add_parser("reduce", parents=[common])
    c.add_argument("type", help="II*, III*, or IV*")
    c.set_defaults(fn=cmd_kodaira_reduce)

    c = sub.add_parser("weights", parents=[common], help="weight vector and kernel lattice")
    c.add_argument("exponents", type=int, nargs="+", metavar="A")
    c.add_argument("--blocks", default=None, help="comma-separated block sizes")
    c.set_defaults(fn=cmd_weights)

    c = sub.add_parser("space", parents=[common], help="model-space reports")
    spsub = c.add_subparsers(dest="action", required=True)
    c = spsub.add_parser("report", parents=[common])
    c.add_argument("--condition", required=True, help='condition text, e.g. ">=2" or "div 2"')
    c.set_defaults(fn=cmd_space_report)

    se = sub.add_parser("search", parents=[common], help="shifted S-unit sweeps")
    se.add_argument("kind", choices=["2full", "2or3"])
    se.add_argument("--bound", type=int, default=None, help="sup-norm exponent bound")
    se.add_argument("--no-negative", action="store_true", help="skip negative units")
    se.add_argument("--no-support", action="store_true", help="drop flagged support points")
    se.set_defaults(fn=cmd_search)

    p1 = sub.add_parser("p1", parents=[common], help="bounded-height points on the line")
    p1sub = p1.add_subparsers(dest="action", required=True)
    c = p1sub.add_parser("enumerate", parents=[common])
    c.add_argument("--pair", required=True, help='e.g. "0: >=2; 1: >=2; inf: >=2"')
    c.add_argument("--height", type=int, default=None)
    c.add_argument("--no-support", action="store_true")
    c.set_defaults(fn=cmd_p1_enumerate)

    pv = sub.add_parser("point", parents=[common], help="verify candidate points")
    pvsub = pv.add_subparsers(dest="action", required=True)
    c = pvsub.add_parser("verify", parents=[common])
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.set_defaults(fn=cmd_point_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opt = Options(args)
        return args.fn(args, opt)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
