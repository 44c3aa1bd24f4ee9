"""Run cpairs CLI commands in one fresh interpreter and report what happened.

Usage: python3 perfbench/child.py SPAWN_NS < job.json > result.json

SPAWN_NS is the parent's `time.monotonic_ns()` just before it started this
process, so set-up time covers interpreter start, `import cpairs.cli` and one
`build_parser()` call.  The job is a JSON object:

    {"passes": [[argv, ...], ...],   # run whole passes, in order
     "seconds": 20,                  # start no pass once this long has gone by
     "keep": [[pass, index], ...],   # commands whose full stdout is sent back
     "trace": false,                 # wrap the layers in spans (spans.py)
     "spans_path": null,             # where the traced run writes its spans
     "after": [argv, ...]}           # run after the timed passes, untimed

Each command runs through `cpairs.cli.main(argv)` with stdout and stderr
captured; only the call itself is timed.  The child also samples the
machine's speed (calib.py): three kernels right after set-up, then one every
calib.INTERVAL seconds.  The result is one JSON object on stdout.
"""

import sys
import time

SPAWN_NS = int(sys.argv[1])

import cpairs.cli  # noqa: E402  (set-up is part of the measurement)

cpairs.cli.build_parser()
SETUP_NS = time.monotonic_ns() - SPAWN_NS

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

from calib import REFERENCE_NS, Sampler, kernel  # noqa: E402

SETUP_CAL_NS = sum(kernel() for _ in range(3)) // 3


def run_one(argv, out, err, sampler=None):
    """Exit status, time and start of one CLI call, as the `cpairs` script would report it."""
    busy = sampler.busy_ns if sampler else 0  # the calibration handler's time is not the call's
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            code = cpairs.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception:  # an uncaught exception is a crash: exit 1 with a traceback
            code = 1
            err.write(traceback.format_exc())
        ns = time.perf_counter_ns() - t0
    if sampler:
        ns -= sampler.busy_ns - busy
    return code, ns, t0


def main() -> None:
    job = json.load(sys.stdin)
    keep = {tuple(k) for k in job.get("keep", ())}
    sampler = Sampler()
    sampler.start()
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer(sampler.clock)
    factor_cache = cpairs.arith._factor_positive
    results, cache, windows, times = [], {"hits": 0, "misses": 0}, [], []
    rss_kb = 0
    start = time.perf_counter()
    for pi, argvs in enumerate(job["passes"]):
        if pi and time.perf_counter() - start >= job["seconds"]:
            break
        for ci, argv in enumerate(argvs):
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.out, tracer.cmd = out, len(results)
                info0 = factor_cache.cache_info()
                tracer.install()
                try:
                    code, ns, t0 = run_one(argv, out, err, sampler)
                finally:
                    tracer.uninstall()
                times.append(tracer.take_times())
                info1 = factor_cache.cache_info()
                cache["hits"] += info1.hits - info0.hits
                cache["misses"] += info1.misses - info0.misses
            else:
                code, ns, t0 = run_one(argv, out, err, sampler)
            windows.append((t0, t0 + ns))
            rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            text = out.getvalue()
            res = {"pass": pi, "code": code, "ns": ns, "err": err.getvalue()[-2000:],
                   "sha": hashlib.sha256(text.encode()).hexdigest(), "head": text[:300]}
            if (pi, ci) in keep:
                res["out"] = text
            results.append(res)
    sampler.stop()
    for res, (t0, t1) in zip(results, windows):
        res["cal_ns"] = sampler.around(t0, t1)
    after = []
    for argv in job.get("after", ()):
        out, err = io.StringIO(), io.StringIO()
        code, _, _ = run_one(argv, out, err)
        after.append({"code": code, "head": out.getvalue()[:300], "err": err.getvalue()[-2000:]})
    report = {"setup_ns": SETUP_NS, "setup_cal_ns": SETUP_CAL_NS, "rss_kb": rss_kb,
              "cal_ns": [k for _, k in sampler.samples],
              "results": results, "after": after}
    if tracer:
        # span times scale like command times, by the speed measured around each command
        self_ns, total_ns = defaultdict(float), defaultdict(float)
        for res, (self_part, total_part) in zip(results, times):
            speed = REFERENCE_NS / res["cal_ns"]
            for acc, part in ((self_ns, self_part), (total_ns, total_part)):
                for k, v in part.items():
                    acc[k] += v * speed
        report["trace"] = tracer.summary()
        report["trace"].update(factor_cache=cache, self_ns=self_ns, total_ns=total_ns)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
