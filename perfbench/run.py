#!/usr/bin/env python3
"""The relb benchmark.

    python3 perfbench/run.py --workload {derive,serve_mixed,localsim}
                             --seed N --seconds S --trace {0,1}

Builds the program (Release) and the trace harness from the checkout this
file sits in, runs one workload for about S seconds, checks every output,
and prints one line per metric followed by a last line of JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md).  The full record, stamped with the machine and
build, is also written under .bench_build/results/ for compare.py.
"""

import argparse
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from lib import build, derive, inputs, localsim, metrics, serve  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        b = build.build_all(ROOT)
    except (build.BuildError, OSError) as e:
        print("perfbench: cannot build the program: %s" % e, file=sys.stderr)
        return 2

    data = inputs.load_data()
    # derive runs its derivations at one lane on one CPU (see lib/derive.py);
    # the other workloads run at the width the program resolves its default to.
    lanes = int(derive.CLI_THREADS) if args.workload == "derive" else localsim.effective_lanes(b)
    stamp = build.stamp(b, lanes)
    started = time.time()
    if args.workload == "derive":
        values, info, out = derive.run(b, data, args.seed, args.seconds, args.trace)
    elif args.workload == "serve_mixed":
        values, info, out = serve.run(b, data, args.seed, args.seconds, args.trace,
                                      stamp["nproc"])
    else:
        values, info, out = localsim.run(b, data, args.seed, args.seconds, args.trace)
    if args.trace:
        values.setdefault("error_rate", out.error_rate)

    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    reported = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in names}
    broken = [name for name, m in reported.items() if not math.isfinite(m["value"])]
    if broken:
        # Nothing completed to measure (every attempt failed): no result.
        print("perfbench: no measurement for %s; failures: %s"
              % (", ".join(broken), dict(out.failures)), file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "stamp": stamp,
        "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
        "error_rate": out.error_rate, "failures": dict(out.failures), "wrong": out.wrong,
        "metrics": reported, "extra": {k: v for k, v in values.items() if k not in reported},
        "info": info,
    }
    results = os.path.join(b.dir, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d-%d.json"
                        % (args.workload, args.seed, args.trace, int(started)))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("stamp: " + json.dumps(stamp, sort_keys=True))
    for name, m in reported.items():
        print("%-34s %14.4f %s" % (name, m["value"], m["unit"]))
    for name, value in sorted(record["extra"].items()):
        print("%-34s %14.4f (extra)" % (name, value))
    if "breakdown" in info:
        parts = info["breakdown"]
        print("breakdown: %s = %.3f ms; traced_wall_ms = %.3f ms"
              % (" + ".join("%s %.3f" % kv for kv in sorted(parts.items())),
                 sum(parts.values()), values["traced_wall_ms"]))
    print("operations: %d attempted, %d failed (error rate %.4f) %s"
          % (out.attempted, out.failed, out.error_rate, dict(out.failures)))
    for what in out.wrong:
        print("WRONG: " + what)
    print("record: " + os.path.relpath(path, ROOT))
    print(json.dumps({"correct": out.correct, "attempted": max(1, out.attempted),
                      "failed": out.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
