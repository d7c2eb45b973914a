#!/usr/bin/env python3
"""Per-layer summary of the trace files a traced benchmark run wrote.

  python3 bench/e2e/trace_summary.py [trace_<workload>.jsonl ...]

Without arguments it reads every .bench_build/e2e/traces/trace_*.jsonl
(written by `run.py --trace`). For each span name it prints the call count,
the p50/p99 of the span's duration and of its self time (duration minus the
part of its interval that its child spans cover), and the tracing overhead
the run measured (traced vs untraced QPS). The figures come from the file's
header, which the benchmark computed over every recorded span; the span
lines that follow (the earliest ones, each with its `self_ns`) are for
drilling into single requests.
"""

import glob
import json
import os
import sys


def summarize(path):
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
    print(f"== {os.path.basename(path)}: workload={header['workload']} "
          f"seed={header['seed']}, 1 in {header['sample_stride']} requests "
          f"traced, {header['spans']} spans ({header['written']} in the file)")
    overhead = header["overhead_pct"]
    print("   tracing overhead (untraced vs traced throughput): " +
          ("see run.py --trace, which runs the legs in separate processes"
           if overhead is None else f"{overhead:+.2f}%"))
    print(f"   {'layer':12s} {'calls':>9s} {'p50 us':>10s} {'p99 us':>10s} "
          f"{'self p50':>10s} {'self p99':>10s}")
    for name, layer in sorted(header["layers"].items()):
        print(f"   {name:12s} {layer['calls']:9d} {layer['p50_us']:10.3f} "
              f"{layer['p99_us']:10.3f} {layer['self_p50_us']:10.3f} "
              f"{layer['self_p99_us']:10.3f}")


def main(argv):
    paths = argv or sorted(glob.glob(os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        ".bench_build", "e2e", "traces", "trace_*.jsonl")))
    if not paths:
        print("no trace files; run `python3 bench/e2e/run.py --trace` first",
              file=sys.stderr)
        return 1
    for path in paths:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
