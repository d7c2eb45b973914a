#!/usr/bin/env python3
"""End-to-end benchmark of scrack: four workloads, answers checked against
an oracle, and a traced per-layer run.

Usage (from the repository root):

  python3 bench/e2e/run.py                      every workload, every metric
  python3 bench/e2e/run.py --trace              per-layer metrics instead
  python3 bench/e2e/run.py --workload serve-read --seed 3 --seconds 12 --trace 0
  python3 bench/e2e/run.py --smoke              small inputs, ~1 s per leg
  python3 bench/e2e/run.py --self-test          corrupts one answer; the run
                                                must fail (exit status 1)
  python3 bench/e2e/run.py --record A.json      append this run to A.json
  python3 bench/e2e/run.py --compare A.json B.json

The first run builds bench/e2e (and the library from the repository root)
in Release mode under .bench_build/e2e. Each workload runs in fresh
processes of the e2e_bench binary; cold-mixed runs at least three and
reports the median process. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 its
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics. Without --workload the keys are "<workload>/<metric>".
Exit status: 0 when every operation succeeded and every answer matched the
oracle, 1 when one did not (a serve-rw writer that misses more than 5% of
its schedule fails too; no result line if a process broke), 2 when the
build failed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
TRACE_DIR = os.path.join(BUILD_DIR, "traces")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")

BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170       # every process of one workload run, together
COLD_MIN_PROCESSES = 3   # cold-mixed: fresh processes per run, at least
COLD_MIN_TRACED = 2      # cold-mixed --trace: traced and untraced each
# --compare: a difference smaller than this, in the metric's unit, is never
# a regression. Set-up of cold-mixed is a few hundred nanoseconds, where a
# relative bound alone would flag noise.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds e2e_bench (both no-ops when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "e2e_bench"]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build: {' '.join(cmd)}: {err}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def run_process(workload, seed, seconds, traced, smoke, self_test, deadline):
    """One e2e_bench process; returns its parsed report, or None."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace-dir", TRACE_DIR]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if self_test:
        cmd.append("--self-test")
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        log(f"{workload}: out of time before starting a process")
        return None
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: process exceeded {timeout:.0f} s and was killed")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        log(f"{workload}: no report (exit status {proc.returncode})")
    return report


def median_metrics(reports):
    """Per-metric median across process reports."""
    names = sorted(set().union(*(r["metrics"] for r in reports)))
    out = {}
    for name in names:
        entries = [r["metrics"][name] for r in reports if name in r["metrics"]]
        values = [e["value"] for e in entries if e["value"] is not None]
        if not values:
            continue
        out[name] = {"value": statistics.median(values),
                     "unit": entries[0]["unit"],
                     "samples": sum(e.get("samples", 0) for e in entries)}
    return out


def run_workload(workload, seed, seconds, traced, smoke, self_test):
    """Runs one workload; returns a result dict or None on a broken run."""
    deadline = time.monotonic() + RUN_BUDGET_S
    reports = []
    if workload == "cold-mixed":
        # A cold run is one query sequence on a fresh engine, so each one
        # gets a fresh process (cold allocator, page cache of the copy).
        plain, tagged = [], []
        start = time.monotonic()
        while True:
            n_plain, n_traced = len(plain), len(tagged)
            enough_time = time.monotonic() - start >= seconds
            if traced:
                if enough_time and min(n_plain, n_traced) >= COLD_MIN_TRACED:
                    break
                leg_traced = n_traced < n_plain
            else:
                if enough_time and n_plain >= COLD_MIN_PROCESSES:
                    break
                leg_traced = False
            report = run_process(workload, seed, seconds, leg_traced, smoke,
                                 self_test, deadline)
            if report is None:
                return None
            reports.append(report)
            (tagged if leg_traced else plain).append(report)
        metrics = median_metrics(plain)
        if traced:
            # Layer metrics from the traced processes; every metric the
            # untraced ones also report (qps, latencies) stays untraced.
            with_spans = median_metrics(tagged)
            overhead = (metrics["qps"]["value"] /
                        with_spans["qps"]["value"] - 1.0) * 100.0
            metrics = {**with_spans, **metrics}
            metrics["trace.overhead_pct"] = {
                "value": overhead, "unit": "%", "samples": len(tagged)}
    else:
        report = run_process(workload, seed, seconds, traced, smoke,
                             self_test, deadline)
        if report is None:
            return None
        reports.append(report)
        metrics = report["metrics"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "smoke": smoke,
        "processes": len(reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
        "meta": reports[-1].get("meta", {}),
    }


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def meta_block(results, seed):
    meta = dict(results[0]["meta"]) if results else {}
    meta["nproc"] = len(os.sched_getaffinity(0))
    meta["commit"] = commit()
    meta["seed"] = seed
    return meta


def print_result(result, wanted):
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"== {result['workload']}  seed={result['seed']} "
          f"trace={result['trace']} processes={result['processes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={failed_frac:.6g}")
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        mark = "" if name in wanted else "   (printed, not gated)"
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>14s} {m['unit']:7s} "
              f"samples={m.get('samples', 0)}{mark}")


def contract_metrics(result, wanted):
    """The metrics the result line must carry, or None if one is missing."""
    out = {}
    for name, unit in wanted.items():
        m = result["metrics"].get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            log(f"{result['workload']}: metric {name} missing or not finite")
            return None
        out[name] = {"value": m["value"], "unit": unit}
    return out


def record(path, results, meta):
    existing = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            existing = json.load(f)
    for result in results:
        entry = dict(result)
        entry["meta"] = meta
        existing.append(entry)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(existing, f, indent=1)
    log(f"recorded {len(results)} result(s) in {path}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b, spec):
    """Per (metric, workload): each side's median and quartiles, flagged
    against the metric's bound. Exit status 1 if anything regressed."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({n: m["better"] for n, m in bounds.items()})
    sides = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as f:
            sides.append(json.load(f))
    groups = {}
    for side, entries in enumerate(sides):
        for e in entries:
            if e.get("smoke"):
                continue
            for name, m in e["metrics"].items():
                if name not in better or m["value"] is None:
                    continue
                key = (name, e["workload"], e["trace"])
                groups.setdefault(key, ([], []))[side].append(m["value"])
    regressed = 0
    print(f"{'metric':32s} {'workload':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'B vs A':>8s}  verdict")
    for (name, workload, traced) in sorted(groups):
        a, b = groups[(name, workload, traced)]
        if not a or not b:
            continue
        qa, qb = quartiles(a), quartiles(b)
        delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        worse = delta if better[name] == "lower" else -delta
        bound = None if traced else bounds.get(name, {}).get("bound")
        floor = ABSOLUTE_FLOOR.get(name, 0.0)
        spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                     for q in (qa, qb))
        b_all_better = (max(b) < min(a)) if better[name] == "lower" \
            else (min(b) > max(a))
        if bound is None:
            verdict = "diagnostic, no bound"
        elif abs(qb[1] - qa[1]) < floor:
            verdict = f"within the {floor:g} {bounds[name]['unit']} floor"
        elif spread > bound:
            verdict = "improved" if b_all_better else \
                f"unresolved: spread {spread:.1%} > bound {bound:.0%}"
        elif worse > bound:
            verdict = f"REGRESSED beyond {bound:.0%}"
            regressed += 1
        elif -worse > bound:
            verdict = "improved"
        else:
            verdict = f"within {bound:.0%}"
        side = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        print(f"{name:32s} {workload:12s} {side(qa):>30s} {side(qb):>30s} "
              f"{delta:+8.1%}  {verdict} (n={len(a)}/{len(b)})")
    return 1 if regressed else 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds; --smoke: 1)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="1 (or bare --trace): per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs for iterating; never reported")
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one answer; the run must fail")
    parser.add_argument("--record", metavar="FILE",
                        help="append results to FILE (a JSON list)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 2
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)

    traced = args.trace == "1"
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        log(f"unknown workload {args.workload}; one of {', '.join(workloads)}")
        return 2
    if args.self_test:
        # Small inputs: the point is that the oracle notices, not the speed.
        args.smoke = True
        if args.workload is None:
            args.workload = "serve-read"
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if traced else "end_to_end"]}

    if not build():
        return 2

    results = []
    for workload in ([args.workload] if args.workload else workloads):
        result = run_workload(workload, args.seed, seconds, traced,
                              args.smoke, args.self_test)
        if result is None:
            return 1
        if traced:
            # A layer the workload's stack lacks reports nothing: it is 0.
            for name, unit in wanted.items():
                result["metrics"].setdefault(
                    name, {"value": 0.0, "unit": unit, "samples": 0})
        print_result(result, wanted)
        results.append(result)

    meta = meta_block(results, args.seed)
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.record:
        record(args.record, results, meta)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for result in results:
        chosen = contract_metrics(result, wanted)
        if chosen is None:
            return 1
        for name, m in chosen.items():
            metrics[name if args.workload else f"{result['workload']}/{name}"] = m
    correct = failed == 0 and attempted > 0
    if args.self_test:
        print(f"self-test: the oracle flagged {failed} of {attempted} answers "
              f"after one answer per process was corrupted"
              + ("" if failed else " -- the corruption went UNNOTICED"),
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
