"""The traced run: per-layer metrics from the harness's spans.

The harness (perfbench/harness) calls each layer's public functions with a
span around every call.  Here the spans are folded into each layer's self
time; time that no span covers is reported as `unattributed_ms`, so that

    sum(layer self times) + store.covered_ms + unattributed_ms == traced_wall_ms

for every workload.  Scaling (localsim): the same traced run at one lane,
and `<layer>.speedup` = one-lane time / default-width time.  The derive
pass runs at one lane on one CPU, as the derive workload does (see
derive.py), so it reports no scaling.
"""

import json
import os
import time

from . import outcome as oc
from . import stats

DERIVE_LAYERS = ("re.analyze", "re.iterate", "re.autobound", "family.instantiate",
                 "core.certify", "io.cert_encode", "io.cert_verify", "store.open",
                 "bench.check")
STORE_LAYERS = ("store.read", "store.write")
DERIVE_COUNTERS = ("re.rbar.candidates", "re.antichain.tests", "engine.step_misses",
                   "engine.zero_round_lookups", "pool.batches", "pool.items",
                   "store.writes", "store.bytes")
LOCAL_LAYERS = ("local.make_tree", "local.luby", "local.domset", "local.verify")


def _harness(b, out, args, one_cpu=False):
    """Runs the harness (crashes retried); its parsed JSON, or None.  With
    `one_cpu` the harness runs on one CPU (see derive.py)."""
    result, _ = oc.run_retrying(out, [b.harness] + args, timeout_s=170.0, one_cpu=one_cpu)
    if not result.ok:
        return None
    return json.loads(result.stdout)


def _harness_kind(job):
    args = job["args"]
    if args[0] == "--family":
        return [job["name"], "family", args[1]]
    if args[0] == "--chain":
        return [job["name"], "chain", args[1]]
    return [job["name"], "problem"] + args


def fold_derive(passes):
    """Sums one derive pass (a list of per-job harness outputs) into layer
    self times, store busy and covered time, counters and the wall."""
    totals = {"wall": 0.0, "covered": 0.0, "unattributed": 0.0}
    self_ms, busy, counters = {}, {}, {}
    for job in passes:
        layer_spans = [(n, s, e) for n, main, s, e in job["spans"]
                       if main and n not in STORE_LAYERS]
        child_spans = [(n, s, e) for n, _, s, e in job["spans"] if n in STORE_LAYERS]
        mine, covered, child_busy, unattributed = stats.layer_breakdown(
            job["wall_ms"], layer_spans, child_spans)
        for d, src in ((self_ms, mine), (busy, child_busy)):
            for k, v in src.items():
                d[k] = d.get(k, 0.0) + v
        for k, v in job["counters"].items():
            counters[k] = counters.get(k, 0) + v
        totals["wall"] += job["wall_ms"]
        totals["covered"] += covered
        totals["unattributed"] += unattributed
    return totals, self_ms, busy, counters


def derive(b, out, data, seconds, work):
    from .derive import CLI_THREADS, setup_once

    setup_once(b, work)
    jobs_file = os.path.join(work, "jobs.tsv")
    with open(jobs_file, "w") as f:
        for job in data["derive_jobs"]:
            f.write("\t".join(_harness_kind(job)) + "\n")

    def one_pass(spans):
        results = []
        for job in data["derive_jobs"]:
            args = ["derive", "--jobs", jobs_file, "--only", job["name"],
                    "--work", os.path.join(work, "traced"), "--threads", CLI_THREADS]
            if not spans:
                args.append("--no-spans")
            parsed = _harness(b, out, args, one_cpu=True)
            if parsed is None:
                continue
            for failure in parsed["failures"]:
                out.mismatch(failure)
            results.append(parsed)
        return results

    runs = {"traced": [], "untraced": []}
    deadline = time.perf_counter() + seconds
    while not runs["untraced"] or time.perf_counter() < deadline:
        for name in runs:
            runs[name].append(fold_derive(one_pass(name == "traced")))

    # The breakdown comes from one pass, the median one by wall time, so that
    # its parts add up exactly.
    totals, self_ms, busy, counters = median_run(runs["traced"], lambda r: r[0]["wall"])
    metrics = {layer + "_ms": self_ms.get(layer, 0.0) for layer in DERIVE_LAYERS}
    for layer in STORE_LAYERS:  # store: busy time, all threads
        metrics[layer + "_ms"] = busy.get(layer, 0.0)
    metrics["store.covered_ms"] = totals["covered"]
    metrics["unattributed_ms"] = totals["unattributed"]
    metrics["traced_wall_ms"] = totals["wall"]
    untraced = stats.median([r[0]["wall"] for r in runs["untraced"]])
    metrics["trace.overhead_pct"] = 100.0 * (totals["wall"] - untraced) / untraced
    for name in DERIVE_COUNTERS:
        metrics[name] = counters.get(name, 0)
    breakdown = {layer + "_ms": v for layer, v in self_ms.items()}
    breakdown["store.covered_ms"] = totals["covered"]
    breakdown["unattributed_ms"] = totals["unattributed"]
    info = {"passes": {k: len(v) for k, v in runs.items()},
            "untraced_wall_ms": untraced, "breakdown": breakdown}
    return metrics, info


def median_run(runs, key):
    """The run whose `key` is the median (the lower middle one for an even
    count)."""
    ordered = sorted(runs, key=key)
    return ordered[(len(ordered) - 1) // 2]


def serve(b, out, data, socket_path, work):
    """The in-process half of the traced serve run: ping round trips on the
    live daemon, and driver::run / autoLowerBound over one warm core."""
    metrics = {}
    ping = _harness(b, out, ["ping", "--unix", socket_path, "--count", "400"])
    if ping is not None:
        metrics["serve.ping_rtt_us"] = stats.median(ping["rtt_us"])
    requests = os.path.join(work, "popular.tsv")
    with open(requests, "w") as f:
        for pop in data["popular"]:
            if "chain" in pop:
                row = [pop["name"], "chain", str(pop["chain"])]
            else:
                row = [pop["name"], "problem", pop["node"], pop["edge"], str(pop["max_steps"])]
            f.write("\t".join(row) + "\n")
    warm = _harness(b, out, ["warm", "--requests", requests, "--repeats", "5"], one_cpu=True)
    if warm is not None:
        for r in warm["requests"]:
            if not r["identical"]:
                out.mismatch("%s: warm driver::run output differs from the first run" % r["name"])
            metrics["driver.warm_run_ms." + r["name"]] = stats.median(r["run_ms"])
            if r["autobound_ms"]:
                metrics["re.autobound_warm_ms." + r["name"]] = stats.median(r["autobound_ms"])
    return metrics


def fold_localsim(run):
    """Layer self times, per-round times and the wall of one harness run."""
    spans = [(n, s, e) for n, _, s, e in run["spans"]]
    self_ms, _, _, unattributed = stats.layer_breakdown(run["wall_ms"], spans, [])
    rounds = {}
    previous = run["luby_start_ms"]
    first = run["first_round_start_ms"]
    if first > 0:
        rounds["local.pre_round_ms"] = first - previous
        previous = first
    else:
        rounds["local.pre_round_ms"] = 0.0
    for i, (_, end) in enumerate(run["rounds"]):
        rounds["local.round_ms.%d" % i] = end - previous
        previous = end
    return self_ms, rounds, unattributed


def bytes_moved(run):
    """Bytes the run must move at least, computed from the layout (not a
    measured bandwidth): the CSR build writes offsets and neighbors and reads
    the parents; every Luby round reads the active vertices' offsets and
    neighbor lists plus one state byte per half-edge, and writes state and
    mark bytes; the domset round and the verifier each read the layout once
    plus their per-node arrays."""
    n = run["nodes"]
    layout = run["layout_bytes"]
    half = run["half_edges"]
    build = 4 * n + layout
    luby = 0.0
    for active, _ in run["rounds"]:
        share = active / n
        luby += share * (layout + half + 2 * n)
    domset = layout + half + n * (1 + 4)
    verify = layout + 2 * n * (1 + 4)
    return build + luby + domset + verify


def localsim(b, out, seconds, seed, nodes, pinned_checksum):
    def one(threads, spans):
        args = ["localsim", "--seed", str(seed), "--nodes", str(nodes),
                "--threads", str(threads)]
        parsed = _harness(b, out, args + ([] if spans else ["--no-spans"]))
        if parsed is None:
            return None
        if not parsed["verified"]:
            out.mismatch("localsim: the verifier rejected the dominating set")
        if parsed["state_checksum"] != pinned_checksum:
            out.mismatch("localsim: state checksum %s, pinned %s"
                         % (parsed["state_checksum"], pinned_checksum))
        return parsed

    # Keys: the width, and "untraced" for default-width runs without spans.
    configs = ((0, 0, True), ("untraced", 0, False), (1, 1, True))
    runs = {key: [] for key, _, _ in configs}
    deadline = time.perf_counter() + seconds
    while not runs[1] or time.perf_counter() < deadline:
        for key, threads, spans in configs:
            parsed = one(threads, spans)
            if parsed is not None:
                runs[key].append(parsed)
    if not all(runs.values()):
        return {}, {}
    untraced = stats.median([r["wall_ms"] for r in runs.pop("untraced")])

    # The breakdown comes from the median run by wall time, so that its parts
    # add up exactly; the one-lane side of each speedup is a median.
    rep = median_run(runs[0], lambda r: r["wall_ms"])
    self_ms, rounds, unattributed = fold_localsim(rep)
    serial_runs = [fold_localsim(r)[0] for r in runs[1]]
    metrics = {}
    for layer in LOCAL_LAYERS:
        wide = self_ms.get(layer, 0.0)
        serial = stats.median([f.get(layer, 0.0) for f in serial_runs])
        metrics[layer + "_ms"] = wide
        metrics[layer + ".speedup"] = serial / wide if wide else 0.0
    serial_csr = stats.median([r["csr_build_ms"] for r in runs[1]])
    metrics["local.csr_build_ms"] = rep["csr_build_ms"]
    metrics["local.csr_build.speedup"] = serial_csr / rep["csr_build_ms"]
    metrics.update(rounds)
    metrics["local.luby_rounds"] = len(rep["rounds"])
    metrics["unattributed_ms"] = unattributed
    metrics["traced_wall_ms"] = rep["wall_ms"]
    metrics["trace.overhead_pct"] = 100.0 * (rep["wall_ms"] - untraced) / untraced
    metrics["local.graph_mib"] = rep["layout_bytes"] / float(1 << 20)
    metrics["local.bytes_moved_computed"] = bytes_moved(rep)
    breakdown = {layer + "_ms": v for layer, v in self_ms.items()}
    breakdown["unattributed_ms"] = unattributed
    info = {"runs": {t: len(rs) for t, rs in runs.items()}, "untraced_wall_ms": untraced,
            "breakdown": breakdown}
    return metrics, info
