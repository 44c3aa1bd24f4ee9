"""The cpairs benchmark.

    python3 perfbench/run.py --workload sweep|line|queries --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout.  It starts the program from `src/` in
child interpreters (perfbench/child.py), runs whole passes of the workload
until S seconds have gone by, checks every output, and prints a summary
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 each pass runs once untraced and once with spans around every layer
(spans.py), and the metrics are the per-layer ones.  A full report, with run
metadata, goes to .bench_results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from calib import REFERENCE_NS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 12  # extra start-ups per run, so setup_s is a median of several
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
LAYERS = ("cli", "search", "arith", "conditions", "semigroups", "geometry")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def spawn(job: dict) -> dict:
    """Run one child interpreter on a job and return its report."""
    payload = json.dumps(job)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spawn_ns)],
                          input=payload, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=job.get("seconds", 0) + 120)
    if proc.returncode != 0:
        raise BenchError(f"child interpreter failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


class Run:
    """Commands executed in one benchmark run, with their reports."""

    def __init__(self):
        self.done: list[tuple] = []  # (Command, child result)
        self.setup_ns: list[int] = []
        self.setup_cal_ns: list[int] = []  # kernel time right after each set-up
        self.cal_ns: list[int] = []  # kernel times sampled while commands ran
        self.rss_kb = 0
        self.after: list[dict] = []
        self.traces: list[dict] = []  # tracer summaries of traced children
        self.kept: set[str] = set()
        self.passes = 0

    def absorb(self, report: dict, cmds) -> None:
        self.setup_ns.append(report["setup_ns"])
        self.setup_cal_ns.append(report["setup_cal_ns"])
        self.cal_ns += report["cal_ns"]
        self.rss_kb = max(self.rss_kb, report["rss_kb"])
        self.done += zip(cmds, report["results"])
        self.after += report["after"]
        if "trace" in report:
            self.traces.append(report["trace"])

    def keep_first(self, cmd) -> list:
        """Ask for the full stdout the first time a fixed command runs in this run."""
        from workloads import key

        k = key(cmd.argv)
        if k in self.kept or cmd.family not in ("sweep", "line"):
            return []
        self.kept.add(k)
        return [[0, 0]]


def run_pass(cmds, wl, run: Run, seconds: float = 0, trace: bool = False,
             spans_dir: "Path | None" = None, more_passes=None, after=()) -> None:
    """Fresh-per-command workloads get one child per command; others one child in all."""
    def spans_path(tag):
        return str(spans_dir / f"{tag}.jsonl.gz") if spans_dir else None

    if wl.fresh_per_command:
        for cmd in cmds:
            job = {"passes": [[cmd.argv]], "seconds": 0, "keep": run.keep_first(cmd),
                   "trace": trace, "spans_path": spans_path(f"c{len(run.done)}")}
            run.absorb(spawn(job), [cmd])
        return
    passes = [cmds] + list(more_passes or [])
    job = {"passes": [[c.argv for c in p] for p in passes], "seconds": seconds,
           "trace": trace, "spans_path": spans_path(f"c{len(run.done)}"), "after": list(after)}
    report = spawn(job)
    flat = [c for p in passes for c in p]
    run.absorb(report, flat[: len(report["results"])])


def measure(wl, seed: int, seconds: float, pass_maker=None) -> Run:
    """The timed run: start-up probes, then whole passes until `seconds` have gone by."""
    from workloads import SHAPE_PROBES

    rng = random.Random(seed)
    make = pass_maker or wl.make_pass
    run = Run()
    probes = Run()
    for _ in range(SETUP_PROBES):
        probes.absorb(spawn({"passes": [], "seconds": 0}), [])
    if wl.fresh_per_command:
        start = time.perf_counter()
        while not run.done or time.perf_counter() - start < seconds:
            run_pass(make(rng), wl, run)
            run.passes += 1
    else:
        first = make(rng)
        more = [make(rng) for _ in range(int(seconds // 3) + 1)]
        run_pass(first, wl, run, seconds=seconds, more_passes=more, after=SHAPE_PROBES)
        run.passes = 1 + run.done[-1][1]["pass"]
    run.setup_ns += probes.setup_ns
    run.setup_cal_ns += probes.setup_cal_ns
    return run


def traced(wl, seed: int, seconds: float, pass_maker=None) -> tuple[Run, Run, int]:
    """Pairs of passes on the same commands, one untraced and one traced, in alternating order."""
    rng = random.Random(seed)
    make = pass_maker or wl.make_pass
    spans_dir = RESULTS / f"spans-{wl.name}-seed{seed}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    plain, spanned, pairs = Run(), Run(), 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        cmds = make(rng)
        order = [(plain, False), (spanned, True)]
        for run, trace in order if pairs % 2 == 0 else order[::-1]:
            run_pass(cmds, wl, run, trace=trace, spans_dir=spans_dir if trace else None)
        pairs += 1
    return plain, spanned, pairs


def check_all(runs) -> tuple[int, int, list[str]]:
    from checks import ExpectCache, check_result

    expect = ExpectCache()
    attempted, problems = 0, []
    for run in runs:
        for cmd, res in run.done:
            attempted += 1
            problem = check_result(cmd, res, expect)
            if problem:
                problems.append(f"{' '.join(cmd.argv)[:120]}: {problem}")
    return attempted, len(problems), problems


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, scaled: bool = True) -> dict:
    """Times are scaled to the reference speed of calib.py unless scaled is False."""
    ns = sorted(res["ns"] * REFERENCE_NS / res["cal_ns"] if scaled else res["ns"]
                for _, res in run.done)
    setup = [s * REFERENCE_NS / c if scaled else s for s, c in zip(run.setup_ns, run.setup_cal_ns)]
    items = sum(cmd.items for cmd, _ in run.done)
    return {
        "setup_s": metric(statistics.median(setup) / 1e9, "s"),
        "throughput": metric(items / (sum(ns) / 1e9), "items/s"),
        "op_latency_p50_ms": metric(statistics.median(ns) / 1e6, "ms"),
        "op_latency_p99_ms": metric(ns[math.ceil(0.99 * len(ns)) - 1] / 1e6, "ms"),
        "peak_rss_mb": metric(run.rss_kb / 1024, "MB"),
    }


def per_layer(plain: Run, spanned: Run, pairs: int) -> dict:
    self_ns, total, calls, counts = (defaultdict(int) for _ in range(4))
    cache, spans = defaultdict(int), 0
    for report in spanned.traces:
        for src, dst in ((report["self_ns"], self_ns), (report["total_ns"], total),
                         (report["calls"], calls), (report["counts"], counts),
                         (report["factor_cache"], cache)):
            for k, v in src.items():
                dst[k] += v
        spans += report["spans"]

    def sec(ns):
        return metric(ns / 1e9 / pairs, "s")

    def count(n):
        return metric(n / pairs, "count")

    hits, misses = cache["hits"], cache["misses"]
    candidates = counts["search.candidates"] + calls["search.valuation"]
    wall = sum(res["ns"] * REFERENCE_NS / res["cal_ns"] for _, res in spanned.done)
    base = sum(res["ns"] * REFERENCE_NS / res["cal_ns"] for _, res in plain.done)
    m = {f"{layer}.self_s": sec(self_ns[layer]) for layer in LAYERS}
    m.update({
        "arith.factor_s": sec(total["arith.factor"]),
        "arith.factor_calls": count(calls["arith.factor"]),
        "arith.factor_cache_hits": count(hits),
        "arith.factor_cache_misses": count(misses),
        "arith.factor_cache_hit_ratio": metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "arith.primality_calls": count(calls["arith.primality"]),
        "arith.primality_s": sec(total["arith.primality"]),
        "arith.witness_s": sec(total["arith.witness"]),
        "arith.decompose_s": sec(total["arith.decompose"]),
        "search.candidates": count(candidates),
        "search.accepts": count(counts["search.accepts"]),
        "search.accept_ratio": metric(counts["search.accepts"] / candidates if candidates else 0.0, "ratio"),
        "search.lift_verify_s": sec(total["search.lift_verify"]),
        "search.valuation_s": sec(total["search.valuation"]),
        "conditions.check_s": sec(total["conditions.check"]),
        "conditions.check_calls": count(calls["conditions.check"]),
        "conditions.union_builds": count(calls["conditions.union"]),
        "semigroups.built": count(calls["semigroups.build"]),
        "semigroups.contains_calls": count(calls["semigroups.contains"]),
        "semigroups.contains_s": sec(total["semigroups.contains"]),
        "semigroups.query_s": sec(total["semigroups.query"]),
        "cli.parse_s": sec(total["cli.parse"]),
        "cli.emit_s": sec(total["cli.emit"]),
        "cli.emit_bytes": metric(counts["cli.emit_bytes"] / pairs, "bytes"),
        "trace.commands": count(len(spanned.done)),
        "trace.spans": count(spans),
        "trace.wall_s": sec(wall),
        "trace.untraced_wall_s": sec(base),
        "trace.overhead_s": sec(wall - base),
        "trace.self_sum_s": sec(sum(self_ns.values())),
    })
    return m


def metadata(wl, seed: int, seconds: float, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a bare source checkout records no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit,
            "src_lines": src_lines, "throughput_item": wl.item}


def shape_probe_summary(run: Run) -> "dict | None":
    """Malformed JSON shapes must exit 2; a crash here is the ROADMAP 5c defect."""
    if not run.after:
        return None
    crashed = [r for r in run.after if r["code"] != 2 or "Traceback" in r["err"]]
    return {"attempted": len(run.after), "failed": len(crashed), "error_rate": len(crashed) / len(run.after),
            "failures": [r["err"].strip().splitlines()[-1] if r["err"].strip() else f"exit {r['code']}"
                         for r in crashed]}


def report(wl, seed: int, seconds: float, trace: int, pass_maker=None) -> dict:
    """Run the workload, check it, and return the result object."""
    meta = metadata(wl, seed, seconds, trace)
    if trace:
        plain, spanned, pairs = traced(wl, seed, seconds, pass_maker)
        runs = [plain, spanned]
        metrics = per_layer(plain, spanned, pairs)
        meta["passes"] = pairs
    else:
        run = measure(wl, seed, seconds, pass_maker)
        runs = [run]
        metrics = end_to_end(run)
        meta["unscaled"] = end_to_end(run, scaled=False)
        meta["calibration"] = {"samples": len(run.cal_ns), "mean_ns": statistics.fmean(run.cal_ns),
                               "reference_ns": REFERENCE_NS}
        meta["passes"] = run.passes
        meta["samples"] = {"latency": len(run.done), "setup": len(run.setup_ns)}
        meta["shape_probe"] = shape_probe_summary(run)
    attempted, failed, problems = check_all(runs)
    meta["error_rate"] = failed / attempted
    meta["problems"] = problems[:50]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "meta": meta}


def print_summary(result: dict) -> None:
    meta = result["meta"]
    print(f"cpairs benchmark: workload {meta['workload']}, seed {meta['seed']}, "
          f"trace {meta['trace']}, {meta['passes']} passes, python {meta['python']}, "
          f"nproc {meta['nproc']}, commit {meta['commit']}, src lines {meta['src_lines']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if "samples" in meta:
        print(f"  latency samples {meta['samples']['latency']}, set-up samples "
              f"{meta['samples']['setup']}; throughput counts {meta['throughput_item']}")
    print(f"  error_rate {meta['error_rate']:.4g} ({result['failed']} failed of "
          f"{result['attempted']} commands)")
    for p in meta["problems"][:10]:
        print(f"    FAILED {p}")
    probe = meta.get("shape_probe")
    if probe:
        print(f"  shape probe (malformed JSON arguments, outside the timed mix): error_rate "
              f"{probe['error_rate']:.4g} ({probe['failed']} of {probe['attempted']} did not exit 2)")


def selftest() -> int:
    """Tiny runs that check the metric names and that a corrupted output is caught."""
    import checks
    from workloads import WORKLOADS, queries_pass

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    errors = [f"bad metric name or unit: {n!r} {u!r}" for n, u in declared.items()
              if not NAME.match(n) or not u]
    wl = WORKLOADS["queries"]
    tiny = lambda rng: queries_pass(rng, scale=20)  # noqa: E731
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = report(wl, 1, 0, trace, tiny)
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in bench[section]}
        if got != want:
            errors.append(f"trace {trace} metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        if result["failed"]:
            errors.append(f"tiny run failed: {result['meta']['problems'][:3]}")
    # a corrupted output must count as a failure
    run = measure(wl, 2, 0, tiny)
    cmd, res = run.done[0]
    run.done[0] = (cmd, dict(res, sha="0" * 64))
    attempted, failed, _ = check_all([run])
    if failed != 1:
        errors.append(f"corrupted output counted {failed} failures of {attempted}, expected 1")
    # so must a sweep record that no longer re-derives
    argv = ["search", "2full", "--s", "2,3", "--bound", "3"]
    text = spawn({"passes": [[argv]], "seconds": 0, "keep": [[0, 0]]})["results"][0]["out"]
    if checks.check_sweep_records(argv, text) is not None:
        errors.append("tiny sweep failed its record check")
    if checks.check_sweep_records(argv, text.replace('"accept"', '"reject"', 1)) is None:
        errors.append("corrupted sweep record passed its record check")
    for e in errors:
        print("selftest:", e)
    print("selftest", "failed" if errors else "ok")
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["sweep", "line", "queries"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true", help="tiny-size checks of the benchmark itself")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for need in ("src/cpairs/cli.py", "tests/_oracles.py"):
        if not (ROOT / need).is_file():
            print(f"error: {need} not found; run from the root of a cpairs checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "tests"))
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    try:
        result = report(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print_summary(result)
    print(f"  report: {out.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
