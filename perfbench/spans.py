"""Span tracing for the traced run, installed from outside the program.

The program looks up its cross-module calls by module-level name at call
time (`search.factor`, `cli.emit`, `conditions.condition_element_union`,
...).  `Tracer.install` rebinds those names, and a few class attributes such
as `NumericalSemigroup.contains`, to wrappers that record one span per call:
(command id, span id, parent span id, name, start ns, end ns), read from the
tracer's clock, which leaves out the calibration handler's time.  `uninstall`
puts every original back.  Spans stay in memory until `write` dumps them.

A span's name is "<layer>.<what>"; the layer is one of the program's modules.
Self time is a span's duration minus the time its direct child spans cover,
summed per layer as the spans close.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from functools import cached_property
from time import perf_counter_ns

_INHERITED = object()


class Tracer:
    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.out = None  # buffer the current command prints into; emit bytes are read from it
        self.cmd = 0
        self.next_id = 0
        self.stack: list[list[int]] = []  # [span id, time covered by children]
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)  # layer -> self time
        self.total_ns: dict[str, int] = defaultdict(int)  # span name -> inclusive time
        self.calls: dict[str, int] = defaultdict(int)  # span name -> calls
        self.counts: dict[str, int] = defaultdict(int)  # named counters
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_result=None):
        layer = name.split(".", 1)[0]
        stack, spans, clock = self.stack, self.spans, self.clock

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            frame = [sid, 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.self_ns[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.total_ns[name] += dur
                self.calls[name] += 1
                spans.append((self.cmd, sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, make) -> None:
        """Rebind owner.attr to make(original); a class attribute is read unbound.

        An attribute a class inherits is set on the class itself and deleted
        again by `uninstall`.
        """
        if isinstance(owner, type):
            old = owner.__dict__.get(attr, _INHERITED)
            current = getattr(owner, attr) if old is _INHERITED else old
        else:
            old = current = getattr(owner, attr)
        self._saved.append((owner, attr, old))
        setattr(owner, attr, make(current))

    def install(self) -> None:
        from cpairs import arith, cli, conditions, geometry, search
        from cpairs.semigroups import NumericalSemigroup, SemigroupUnion
        import cpairs.semigroups as semigroups

        def count_sweep(records):
            self.counts["search.candidates"] += len(records)
            self.counts["search.accepts"] += sum(r.verdict == "accept" for r in records)

        def count_p1(records):
            self.counts["search.accepts"] += len(records)

        emit = cli.emit

        def emit_counted(*args, **kwargs):
            pos = self.out.tell()
            emit(*args, **kwargs)
            self.counts["cli.emit_bytes"] += self.out.tell() - pos

        plan = [
            # (span name, owners holding the name, attribute, result hook)
            ("cli.main", [cli], "main", None),
            ("cli.parse", [cli], "build_parser", None),
            ("cli.parse", [cli._Parser], "parse_args", None),
            ("search.sweep", [search], "search_shifted_units_2full", count_sweep),
            ("search.sweep", [search], "search_shifted_units_2or3", count_sweep),
            ("search.p1", [search], "enumerate_campana_points_p1", count_p1),
            ("search.valuation", [search], "point_valuation_vector", None),
            ("search.lift_verify", [search], "verify_point_on_X", None),
            ("arith.factor", [arith, search], "factor", None),
            ("arith.primality", [arith, search, conditions], "is_probable_prime", None),
            ("arith.witness", [arith, search], "m_full_witness", None),
            ("arith.decompose", [arith, search], "decompose_square_cube", None),
            ("arith.decompose", [arith, search], "decompose_coprime_square_cube", None),
            ("arith.mfull_list", [arith], "enumerate_m_full", None),
            ("conditions.check", [conditions, search], "check_generalized_point_dedekind", None),
            ("conditions.check", [conditions], "check_campana_point", None),
            ("conditions.check", [conditions], "check_darmon_point", None),
            ("conditions.check", [conditions], "check_generalized_configuration", None),
            ("conditions.union", [conditions, geometry], "condition_element_union", None),
            ("conditions.parse", [conditions], "parse_pair_spec", None),
            ("conditions.parse", [conditions], "parse_condition", None),
            ("conditions.parse", [conditions], "vector_from_json_obj", None),
            ("conditions.divisor", [conditions], "cpair_divisor", None),
            ("semigroups.parse", [semigroups, cli], "parse_semigroup", None),
            ("semigroups.parse", [semigroups, cli, conditions], "parse_union", None),
            ("semigroups.contains", [NumericalSemigroup], "contains", None),
            ("semigroups.query", [NumericalSemigroup], "atoms", None),
            ("semigroups.query", [NumericalSemigroup], "frobenius", None),
            ("semigroups.query", [NumericalSemigroup], "elements_up_to", None),
            ("semigroups.query", [SemigroupUnion], "elements_up_to", None),
        ]
        for name in ("classify_fibre", "orbifold_base", "weakly_special_checklist",
                     "classify_xa_family", "kodaira_reduced_removal", "campana_weights",
                     "campana_space_report", "fibre_from_json_obj"):
            plan.append(("geometry." + name, [geometry], name, None))

        for span, owners, attr, hook in plan:
            for owner in owners:
                self._replace(owner, attr, lambda old, span=span, hook=hook: self.wrap(span, old, hook))
        self._replace(cli, "emit", lambda old: self.wrap("cli.emit", emit_counted))

        # the DP table is a cached_property: wrap its function, count each build
        def counted_table(old):
            new = cached_property(self.wrap("semigroups.build", old.func))
            new.__set_name__(NumericalSemigroup, "_scaled")
            return new

        self._replace(NumericalSemigroup, "_scaled", counted_table)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def take_times(self) -> tuple[dict, dict]:
        """(self ns per layer, inclusive ns per span name) since the last take."""
        times = (dict(self.self_ns), dict(self.total_ns))
        self.self_ns.clear()
        self.total_ns.clear()
        return times

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "counts": dict(self.counts), "spans": len(self.spans)}
