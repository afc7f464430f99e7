#!/usr/bin/env python3
"""empcharge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads listed in
BENCHMARK.json, or ``all`` to run each in turn, each in a process of its
own.  With ``--trace 0`` the run times operations untraced and reports
the end-to-end metrics; with ``--trace 1`` it spends half of ``--seconds``
untraced and half traced and reports the per-layer metrics.  Call and
set-up times are set against a gauge of the machine's speed taken between
calls (see README.md).
Human-readable lines come first; the last line of standard output is the
JSON result.  Result records and span files go to perfbench/out/.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from functools import partial
from pathlib import Path
from statistics import median

# one BLAS thread, pinned before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
SETUP_GAUGE_REPS = 9  # set-up calls are few, so each gauge is taken longer
REF_S = 0.0025  # setup_s is in seconds where reference() takes REF_S
GAUGE_EVERY_S = 0.1   # how stale the speed gauge before a call may be
GAUGE_WINDOW_S = 1.0  # gauges this close to a call set its speed


@dataclasses.dataclass
class Phase:
    """Per-item call start and duration, the speed gauges taken between
    calls as (time, seconds), and the check infos of one measuring
    phase."""
    times: list[list[float]]
    starts: list[list[float]]
    gauges: list[tuple[float, float]] = dataclasses.field(
        default_factory=list)
    infos: list[tuple[int, int, dict]] = dataclasses.field(
        default_factory=list)  # (pass, item, info)

    def per_item(self, stat) -> list[float]:
        return [stat(t) for t in self.times]

    def per_item_ref(self) -> list[float]:
        """Per item, the median over its calls of call time over the
        median gauge from GAUGE_WINDOW_S before the call to GAUGE_WINDOW_S
        after it."""
        at = [a for a, _ in self.gauges]
        size = [g for _, g in self.gauges]

        def gauge_near(start: float, dt: float) -> float:
            lo = bisect_left(at, start - GAUGE_WINDOW_S)
            hi = bisect_right(at, start + dt + GAUGE_WINDOW_S)
            return median(size[lo:hi])

        return [median(t / gauge_near(s, t) for t, s in zip(ts, ss))
                for ts, ss in zip(self.times, self.starts)]

    @property
    def passes(self) -> float:
        return len(self.infos) / len(self.times)


@dataclasses.dataclass
class Tally:
    """Failure accounting of a run.  Each item's operation counts once,
    at its first check; every later check of the same item must give the
    same outcome, or the run is not correct.  So ``attempted`` and
    ``failed`` depend on the seed only, not on how many passes fit in the
    run's time."""
    outcome: dict[int, tuple[int, int]] = dataclasses.field(
        default_factory=dict)  # item -> (attempted, failed)
    correct: bool = True

    def add(self, item: int, attempted: int, failed: int, ok: bool) -> None:
        first = self.outcome.setdefault(item, (attempted, failed))
        self.correct = self.correct and ok and first == (attempted, failed)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.outcome.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.outcome.values())


def gauge(reps: int = 3) -> float:
    """Median time of ``reps`` reference computations."""
    from workloads import reference
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return median(times)


def measure(wl, seconds: float, tally: Tally, tracer=None) -> Phase:
    """Passes over the workload's items, one call at a time, until
    ``seconds`` have passed and at least one pass is complete.  A gauge
    of the machine's speed is taken before a call whenever the last one is
    more than GAUGE_EVERY_S old, and once at the end.  Each output is
    checked after its call, outside the call's timing; a traced call
    belongs to the operation numbered by its pass."""
    items = wl.items
    phase = Phase(times=[[] for _ in items], starts=[[] for _ in items])
    t_end = time.perf_counter() + seconds
    p, done = 0, False
    while not done:
        for j, item in enumerate(items):
            if (not phase.gauges
                    or time.perf_counter() - phase.gauges[-1][0]
                    > GAUGE_EVERY_S):
                phase.gauges.append((time.perf_counter(), gauge()))
            call = partial(wl.run, item)
            t0 = time.perf_counter()
            out = call() if tracer is None else tracer.run_op(p, call)
            phase.times[j].append(time.perf_counter() - t0)
            phase.starts[j].append(t0)
            check = wl.check(item, out)
            tally.add(j, check.attempted, check.failed, check.ok)
            phase.infos.append((p, j, check.info))
            done = p > 0 and time.perf_counter() >= t_end
            if done:
                break
        p += 1
        done = done or time.perf_counter() >= t_end
    phase.gauges.append((time.perf_counter(), gauge()))
    return phase


IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t0 = time.perf_counter(); import empcharge.cli; "
               "print(time.perf_counter() - t0)")


def fresh_import() -> float:
    """Seconds a fresh interpreter takes to import the whole package."""
    res = subprocess.run([sys.executable, "-c", IMPORT_CODE,
                          str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    return float(res.stdout)


def measure_setup(wl, seed: int, tally: Tally) -> Phase:
    """IMPORT_REPEATS imports of the package, each in a fresh interpreter
    (item 0), then SETUP_REPEATS set-ups of the workload, each ending in
    its warm-up (item 1).  A gauge of the machine's speed, of
    SETUP_GAUGE_REPS reference computations, is taken before each and once
    at the end."""
    def setup() -> float:
        t0 = time.perf_counter()
        wl.setup(seed)
        ok = wl.warmup()
        dt = time.perf_counter() - t0
        tally.correct = tally.correct and ok
        return dt

    phase = Phase(times=[[], []], starts=[[], []])
    calls = ([(0, fresh_import)] * IMPORT_REPEATS
             + [(1, setup)] * SETUP_REPEATS)
    for j, call in calls:
        phase.gauges.append((time.perf_counter(), gauge(SETUP_GAUGE_REPS)))
        phase.starts[j].append(time.perf_counter())
        phase.times[j].append(call())
    phase.gauges.append((time.perf_counter(), gauge(SETUP_GAUGE_REPS)))
    return phase


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = res.stdout.split()
    if res.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": git_commit()}


def select(values: dict, specs: list) -> dict:
    """The metrics BENCHMARK.json names, each with its unit; any mismatch
    between the two name sets is a harness error."""
    names = [m["name"] for m in specs]
    if set(values) != set(names):
        raise RuntimeError(
            f"not in BENCHMARK.json: {sorted(set(values) - set(names))}; "
            f"not measured: {sorted(set(names) - set(values))}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in specs}


def run_workload(wl, args, spec: dict) -> dict:
    import layers
    from tracer import Tracer
    from workloads import OUT

    tally = Tally()
    setup = measure_setup(wl, args.seed, tally)
    setup_s = REF_S * sum(setup.per_item_ref())

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if not args.trace:
        untraced = measure(wl, args.seconds, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup_s,
                  "op_ref": wl.op_seconds(untraced.per_item_ref()),
                  "peak_rss_mb": rss_mb}
        metrics = select(values, spec["end_to_end"])
        phases = {"setup": setup, "untraced": untraced}
    else:
        untraced = measure(wl, args.seconds / 2, tally)
        tracer = Tracer()
        try:
            layers.patch_all(tracer)
            traced = measure(wl, args.seconds / 2, tally, tracer)
        finally:
            tracer.restore()
        tracer.write(OUT / f"spans-{tag}.jsonl")
        values = layers.span_metrics(tracer.spans, traced.passes)
        values.update(layers.fact_metrics(wl.facts(untraced, traced)))
        values["bench.op_best_ms"] = 1e3 * wl.op_seconds(
            untraced.per_item(min))
        values["bench.op_p50_ms"] = 1e3 * wl.op_seconds(
            untraced.per_item(median))
        values["bench.ref_ms"] = 1e3 * median(g for _, g in untraced.gauges)
        values["bench.setup_raw_s"] = sum(setup.per_item(median))
        values["bench.trace_overhead_ratio"] = (
            wl.op_seconds(traced.per_item_ref())
            / wl.op_seconds(untraced.per_item_ref()) - 1.0)
        values["bench.fail_frac"] = tally.failed / max(tally.attempted, 1)
        metrics = select(values, spec["per_layer"])
        phases = {"setup": setup, "untraced": untraced, "traced": traced}

    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "calls_s": {k: {"item": v.times, "start": v.starts,
                              "gauges": v.gauges}
                          for k, v in phases.items()},
              "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"passes={untraced.passes:.2f} attempted={tally.attempted} "
          f"failed={tally.failed} correct={tally.correct} "
          f"{json.dumps(record['environment'])}")
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in metrics.items():
        print(f"{wl.name:<18} {name:<42} {m['value']:>14.6g} {m['unit']:<6}"
              f" ({better[name]} is better)")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {names + ['all']}")
    missing = [p for p in (ROOT / "src" / "empcharge", ROOT / "configs")
               if not p.is_dir()]
    if missing:
        print(f"perfbench: {', '.join(map(str, missing))} not found; run "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(names, args)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import OUT, WORKLOADS

    OUT.mkdir(exist_ok=True)
    print(json.dumps(run_workload(WORKLOADS[args.workload](), args, spec)))
    return 0


def run_all(names: list[str], args) -> int:
    """Each workload in a process of its own, so that its peak memory and
    warm state are its own; the results merge under ``workload/metric``
    names."""
    results = {}
    for n in names:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", n,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        *lines, last = res.stdout.splitlines() or [""]
        if lines:
            print("\n".join(lines), flush=True)
        if res.returncode:
            return res.returncode
        results[n] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
