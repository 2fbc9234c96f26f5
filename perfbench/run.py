"""Benchmark front door: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady-churn-linux --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (host time scaled to a
reference machine speed by :mod:`perfbench.speed`, tracing off) over as
many repetitions as fit in ``--seconds``; ``--trace 1`` runs one
repetition untraced and the same repetition with the span recorder
installed, and reports the per-layer metrics plus the layer-share
table.  Both check the simulated outputs (see :mod:`perfbench.check`).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every run also
writes a record stamped with the machine fingerprint, and traced runs
write their spans, under ``perfbench/runs/``.

The exit code is 0 when every output check passed, 1 when one failed
and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, "perfbench", "runs")
DEFAULT_SEED = 1
#: Repetitions per run, however short ``--seconds`` is.
MIN_REPS = 2
#: (name, unit) of the end-to-end metrics a ``--trace 0`` run reports.
END_TO_END = (("setup_s", "s"), ("units_per_s", "1/s"),
              ("peak_rss_mib", "MiB"))
clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full",
                   help="input size: full (measured) or tiny (smoke)")
    p.add_argument("--record-golden", action="store_true",
                   help="store this run's first digest as the golden "
                        "output of the default seed (after a deliberate "
                        "model change)")
    return p.parse_args(argv)


def peak_rss_mib(workers: int) -> float:
    """Peak resident memory of this process plus, when it ran worker
    processes, *workers* times the largest reaped worker's peak.  For
    forked workers this is an upper bound: each worker's peak also
    counts the copy-on-write pages it shares with this process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def run_timed(bench, seed: int, seconds: float):
    """Repetitions until *seconds* would be exceeded (at least
    :data:`MIN_REPS`).  Returns ``[(input seed, Rep, speed scale)]``
    and the traceback text of a repetition that raised, if any."""
    from perfbench import speed

    reps, walls = [], []
    start = clock()
    for seed_i in bench.inputs(seed):
        t0 = clock()
        try:
            rep, scale = speed.measured(lambda: bench.rep(seed_i))
        except Exception:  # counted as a failed unit; the run stops
            return reps, traceback.format_exc()
        walls.append(clock() - t0)
        reps.append((seed_i, rep, scale))
        elapsed = clock() - start
        if (len(reps) >= MIN_REPS
                and elapsed + statistics.median(walls) > seconds):
            return reps, None


def end_to_end(bench, reps) -> dict[str, tuple[float, str]]:
    """Medians over the repetitions, host times at the reference speed
    (:mod:`perfbench.speed`)."""
    setups = [r.setup_s * k for _, r, k in reps if r.setup_s is not None]
    values = {
        "setup_s": statistics.median(setups),
        "units_per_s": statistics.median(r.units / (r.run_s * k)
                                         for _, r, k in reps),
        "peak_rss_mib": peak_rss_mib(bench.workers),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import check
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(RUNS, exist_ok=True)
    bench = WORKLOADS[args.workload](args.size, RUNS)
    fingerprint = check.fingerprint()
    if bench.workers == 1:
        # The speed probe must time the CPU the work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"perfbench: workload={bench.name} seed={args.seed} "
          f"size={args.size} trace={args.trace}")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    try:
        if args.trace:
            result = traced(bench, args)
        else:
            result = untraced(bench, args)
    finally:
        bench.close()
    result["fingerprint"] = fingerprint
    result["workload"] = bench.name
    result["seed"] = args.seed
    result["size"] = args.size
    result["trace"] = args.trace
    path = os.path.join(
        RUNS, f"{bench.name}-seed{args.seed}-trace{args.trace}-"
              f"{time.time_ns()}.json")
    check.write_record(path, result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def timed(fn, *args, **kwargs):
    t0 = clock()
    result = fn(*args, **kwargs)
    return result, clock() - t0


def untraced(bench, args) -> dict:
    from perfbench import check

    reps, error = run_timed(bench, args.seed, args.seconds)
    if error:
        print(error, file=sys.stderr, end="")
    golden_key = check.golden_key(bench.name, args.seed, args.size,
                                  DEFAULT_SEED)
    if args.record_golden and reps:
        check.record_golden(golden_key, check.digest(reps[0][1].output))
    verdict = check.verify([(s, r) for s, r, _ in reps], bench.attempts,
                           golden_key)
    attempted = len(reps) * bench.attempts + (bench.attempts if error else 0)
    failed = verdict.failed + (bench.attempts if error else 0)
    metrics = end_to_end(bench, reps) if reps else {}
    print(f"repetitions: {len(reps)} over {len(verdict.digests)} inputs")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if reps:
        name, unit = bench.alias
        rate = metrics["units_per_s"][0]
        value = 1.0 / rate if unit == "s" else rate
        how = (f"reference seconds per {bench.unit[:-1]}" if unit == "s"
               else f"{bench.unit} per reference second")
        print(f"  {name} = {value:.6g} {unit}  ({how}, median repetition)")
        raw = statistics.median(r.units / r.run_s for _, r, _ in reps)
        print(f"  units_per_s unscaled = {raw:.6g} 1/s  (raw host time; "
              f"median speed scale "
              f"{statistics.median(k for _, _, k in reps):.3f})")
    print(f"  failed_frac = {failed}/{attempted} = "
          f"{failed / max(1, attempted):.4g} ratio")
    check.print_verdict(verdict, reps[0][1].shown if reps else {})
    return {
        "correct": not error and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if not error else {},
        "reps": [{"seed": s, "setup_s": r.setup_s, "run_s": r.run_s,
                  "speed_scale": k, "units": r.units,
                  "digest": check.digest(r.output)}
                 for s, r, k in reps],
    }


def traced(bench, args) -> dict:
    from perfbench import check, speed
    from perfbench.layers import PER_LAYER, per_layer_metrics, trace_targets
    from perfbench.spans import LAYERS, SpanRecorder, patched

    seed = next(bench.inputs(args.seed))
    try:
        for _ in range(bench.trace_warmup):
            bench.rep(seed, trace_config=True)
        (base, base_wall), base_k = speed.measured(
            lambda: timed(bench.rep, seed, trace_config=True))
        rec = SpanRecorder()
        with patched(rec, trace_targets()):
            (spanned, traced_wall), traced_k = speed.measured(
                lambda: timed(bench.rep, seed, trace_config=True))
        extra = dict(base.extra)
        outputs = [base, spanned]
        if bench.workers > 1:
            # The untraced multi-process repetition: its wall time is the
            # base of the parallel speed-up, and its outputs must match
            # the serial ones bit for bit.
            parallel = bench.rep(seed)
            outputs.append(parallel)
            extra["parallel_speedup"] = base.run_s / parallel.run_s
            extra["workers"] = bench.workers
    except Exception:
        print(traceback.format_exc(), file=sys.stderr, end="")
        return {"correct": False, "attempted": bench.attempts,
                "failed": bench.attempts, "metrics": {}}
    digests = [check.digest(r.output) for r in outputs]
    ok = len(set(digests)) == 1 and all(r.ok for r in outputs)
    failed = 0 if ok else bench.attempts
    failed += spanned.failed
    extra["overhead_frac"] = ((traced_wall * traced_k)
                              / (base_wall * base_k) - 1.0)
    values = per_layer_metrics(rec, traced_wall, spanned.vmstat, extra)
    units = dict(PER_LAYER)
    rec.write(os.path.join(
        RUNS, f"{bench.name}-seed{args.seed}-spans-{time.time_ns()}.npz"))
    print(f"traced: {len(rec)} spans, wall {traced_wall:.3f} s traced vs "
          f"{base_wall:.3f} s untraced")
    print("layer self-time share:")
    for layer in LAYERS:
        print(f"  {layer:<11} {values[f'layer.{layer}_share']:7.1%}")
    for name, value in values.items():
        if not name.startswith("layer."):
            print(f"  {name} = {value:.6g} {units[name]}")
    print(f"output: digest={digests[0][:16]} "
          f"{'all repetitions match' if ok else 'MISMATCH'} "
          + " ".join(f"{k}={v}" for k, v in spanned.shown.items()))
    return {
        "correct": ok and failed == 0,
        "attempted": bench.attempts,
        "failed": failed,
        "metrics": {name: (float(values[name]), units[name])
                    for name, _ in PER_LAYER},
    }


if __name__ == "__main__":
    sys.exit(main())
