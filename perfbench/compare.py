#!/usr/bin/env python3
"""Compares two sets of benchmark records (written by run.py under
.bench_build/results/).

    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json ...

Prints, per workload and metric, both medians, the relative change, and
whether it is worse than the bound BENCHMARK.json fixes.  Refuses (exit 2)
to compare records taken at different core counts or lane counts: a
parallel number from another core count is not comparable.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from lib import compare  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description="compare benchmark records")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = [compare.load(p) for p in args.base]
    change = [compare.load(p) for p in args.change]
    try:
        rows = compare.compare(base, change, spec)
    except compare.Incomparable as e:
        print("compare: refused: %s" % e, file=sys.stderr)
        return 2
    for row in rows:
        print("%-12s %-28s base %12.4f change %12.4f %+7.2f%% %s"
              % (row["workload"], row["metric"], row["base"], row["change"],
                 100.0 * row["relative"], "WORSE THAN BOUND" if row["regressed"] else ""))
    return 1 if any(r["regressed"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
