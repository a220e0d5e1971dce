"""Comparison of benchmark records, refusing records from other machines'
core counts."""

import json

from . import stats

# Stamp fields that must agree before two records are comparable.
MUST_MATCH = ("nproc", "lanes", "build_type")


class Incomparable(Exception):
    pass


def load(path):
    with open(path) as f:
        return json.load(f)


def check_comparable(records):
    first = records[0]["stamp"]
    for r in records[1:]:
        for key in MUST_MATCH:
            if r["stamp"].get(key) != first.get(key):
                raise Incomparable("%s differs: %r vs %r" % (key, first.get(key),
                                                            r["stamp"].get(key)))


def compare(base, change, spec):
    """Rows of (workload, metric, base median, change median, relative
    change, regressed) for every end-to-end metric in both sets."""
    check_comparable(base + change)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for workload in workloads:
        b = [r for r in base if r["workload"] == workload and not r["trace"]]
        c = [r for r in change if r["workload"] == workload and not r["trace"]]
        for name, m in bounds.items():
            bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c if name in r["metrics"]]
            if not bv or not cv:
                continue
            bm, cm = stats.median(bv), stats.median(cv)
            rel = (cm - bm) / bm if bm else 0.0
            worse = rel if m["better"] == "lower" else -rel
            rows.append({"workload": workload, "metric": name, "base": bm, "change": cm,
                         "relative": rel, "regressed": worse > m["bound"]})
    return rows
