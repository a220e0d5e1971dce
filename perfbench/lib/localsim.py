"""The `localsim` workload: the Section 1.1 MIS -> 0-outdegree dominating
set upper bound on a 10^7-node random tree, one relb_localsim process per
run, at the default width, verified, with the state checksum pinned for
each simulator seed."""

import os
import re
import shutil
import time

from . import inputs
from . import outcome as oc
from . import proc, stats, traced

SETUP_REPEATS = 21
CHECKSUM_RE = re.compile(r"state-checksum: (0x[0-9a-f]{16})")
THREADS_RE = re.compile(r"threads: (\d+)")


def setup_once(b, work):
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = proc.run([b.binary("relb_localsim"), "--help"])
    if "usage:" not in result.stdout:
        raise RuntimeError("relb_localsim --help printed no usage")
    return time.perf_counter() - start


def check(out, result, want_checksum):
    """True when an (already accounted) simulator run exited 0 with the
    pinned checksum and a verified result."""
    if not result.ok:
        return False
    match = CHECKSUM_RE.search(result.stdout)
    if "verified: yes" not in result.stdout:
        out.mismatch("localsim: run not verified")
    elif match is None or match.group(1) != want_checksum:
        out.mismatch("localsim: state checksum %s, pinned %s"
                     % (match.group(1) if match else "missing", want_checksum))
    else:
        return True
    return False


def effective_lanes(b):
    """The width the simulator resolves its default to."""
    for _ in range(oc.CRASH_RETRIES):
        result = proc.run([b.binary("relb_localsim"), "--nodes", "1000", "--no-verify"])
        match = THREADS_RE.search(result.stdout)
        if match:
            return int(match.group(1))
    return 0


def run(b, data, seed, seconds, trace):
    """Returns (metrics, info, outcome)."""
    out = oc.Outcome()
    work = os.path.join(b.work, "localsim")
    cfg = data["localsim"]
    sim_seed = inputs.localsim_seed(seed, cfg["state_checksum"])
    want = cfg["state_checksum"][str(sim_seed)]
    nodes = int(cfg["args"][cfg["args"].index("--nodes") + 1])
    if trace:
        setup_once(b, work)
        metrics, info = traced.localsim(b, out, seconds, sim_seed, nodes, want)
        return metrics, info, out

    setup = stats.median([setup_once(b, work) for _ in range(SETUP_REPEATS)])
    args = [b.binary("relb_localsim")] + cfg["args"] + ["--seed", str(sim_seed)]
    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        result, _ = oc.run_retrying(out, args)
        if check(out, result, want):
            walls.append(result.wall_s)
        elif result.signal is None and not result.ok:
            break  # a deterministic failure; do not spin on it
    metrics = {
        "setup_s": setup,
        "wall_s": stats.median(walls),
        "latency_p50_ms": stats.median(walls) * 1e3,
        "latency_p99_ms": stats.percentile(walls, 99.0) * 1e3,
        "peak_rss_mib": out.peak_rss_mib,
    }
    info = {"sim_seed": sim_seed, "runs": len(walls), "run_wall_s": walls}
    return metrics, info, out
