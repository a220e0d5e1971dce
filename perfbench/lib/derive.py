"""The `derive` workload: one-shot CLI derivations, one process at a time.

Each job runs cold against a fresh --store (compute and write through),
then warm with --resume (read and checksum-verify), then its certificate
is re-checked with --verify-cert.  A batch is every job once; a run
repeats the batch until its time is up.

Every engine process runs on one CPU, and each derivation at one lane.
The engine's zero-round checks fan out over a pool as wide as the machine
whatever the lane count, and with two or more CPUs the pool's batch race
(ROADMAP item 1) kills one engine process in three to ten with SIGSEGV,
so the failure count of a run would be chance.  On one CPU no pool worker
runs at the same time as the thread that starts the next batch, and the
race did not show in 460 runs.  Results are the same at every width.
"""

import hashlib
import os
import re
import shutil
import time

from . import outcome as oc
from . import proc, stats, traced

BOUND_RE = re.compile(r"automatic lower bound: >= (\d+) rounds")
PROVEN_RE = re.compile(r"proven lower bound: (\d+) rounds")
SETUP_REPEATS = 21
CLI_THREADS = "1"
# The CLI's default step cap, written out because in --family and --chain
# mode the thread count is the second positional argument after it.
CLI_MAX_STEPS = "6"


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _check_golden(out, job, cert_path, golden_sha):
    if "golden" not in job:
        return
    want = golden_sha[job["golden"]]
    if _sha256(cert_path) != want:
        out.mismatch("%s: certificate differs from %s" % (job["name"], job["golden"]))


def _check_bound(out, job, stdout):
    if "published_bound" not in job:
        return
    match = BOUND_RE.search(stdout)
    if match is None or int(match.group(1)) < job["published_bound"]:
        out.mismatch("%s: derived bound below the published %d" % (job["name"], job["published_bound"]))


def cli_args(job):
    """The job's CLI arguments at one lane."""
    args = list(job["args"])
    if args[0] in ("--family", "--chain"):
        args.append(CLI_MAX_STEPS)
    return args + [CLI_THREADS]


def run_job(b, out, job, golden_sha, work):
    """One job: cold, warm, verify.  Returns (op latencies by kind in s, time
    spent in crashed attempts)."""
    cli = b.binary("round_eliminator_cli")
    store = os.path.join(work, job["name"] + "-store")
    cold_cert = os.path.join(work, job["name"] + "-cold.json")
    warm_cert = os.path.join(work, job["name"] + "-warm.json")
    shutil.rmtree(store, ignore_errors=True)

    def wipe_store():
        shutil.rmtree(store, ignore_errors=True)

    lat = {}
    cold, crashed = oc.run_retrying(out, [cli] + cli_args(job) + ["--store", store, "--save-cert", cold_cert],
                                    before_retry=wipe_store, one_cpu=True)
    if not cold.ok:
        return lat, crashed
    lat["cold"] = cold.wall_s
    _check_bound(out, job, cold.stdout)
    _check_golden(out, job, cold_cert, golden_sha)

    warm, c = oc.run_retrying(out, [cli] + cli_args(job) + ["--store", store, "--resume", "--save-cert", warm_cert],
                              one_cpu=True)
    crashed += c
    if warm.ok:
        lat["warm"] = warm.wall_s
        with open(cold_cert, "rb") as f1, open(warm_cert, "rb") as f2:
            if f1.read() != f2.read():
                out.mismatch("%s: cold-store and warm-store certificates differ" % job["name"])

    verify, c = oc.run_retrying(out, [cli, "--verify-cert", cold_cert], one_cpu=True)
    crashed += c
    if verify.ok:
        lat["verify"] = verify.wall_s
        proven = PROVEN_RE.search(verify.stdout)
        if "chain_rounds" in job and (proven is None or int(proven.group(1)) != job["chain_rounds"]):
            out.mismatch("%s: verified chain does not prove %d rounds" % (job["name"], job["chain_rounds"]))
    return lat, crashed


def setup_once(b, work):
    """Fresh work directory and one CLI start: what has to happen before the
    first derivation can run."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = proc.run([b.binary("round_eliminator_cli"), "--help"])
    if "usage:" not in result.stdout + result.stderr:
        raise RuntimeError("round_eliminator_cli --help printed no usage")
    return time.perf_counter() - start


def run(b, data, seed, seconds, trace):
    """Returns (metrics, info, outcome).  The batch is fixed, so the seed
    changes nothing here."""
    del seed
    out = oc.Outcome()
    work = os.path.join(b.work, "derive")
    if trace:
        metrics, info = traced.derive(b, out, data, seconds, work)
        return metrics, info, out
    setup = stats.median([setup_once(b, work) for _ in range(SETUP_REPEATS)])
    golden_sha = data["golden_sha256"]

    batches = []
    latencies = {"cold": [], "warm": [], "verify": []}
    job_ms = []  # cold + warm + verify of one job: one derivation, end to end
    by_job = {job["name"]: [] for job in data["derive_jobs"]}
    deadline = time.perf_counter() + seconds
    rounds = 0
    last = 0.0
    # A batch takes seconds, so one is started only if at least half of it
    # fits before the deadline: the run ends within half a batch of it.
    while rounds == 0 or time.perf_counter() + last / 2 < deadline:
        rounds += 1
        start = time.perf_counter()
        crashed = 0.0
        complete = True
        for job in data["derive_jobs"]:
            lat, c = run_job(b, out, job, golden_sha, work)
            crashed += c
            complete = complete and len(lat) == 3
            for kind, value in lat.items():
                latencies[kind].append(value * 1e3)
            if len(lat) == 3:
                job_ms.append(sum(lat.values()) * 1e3)
                by_job[job["name"]].append(job_ms[-1])
        last = time.perf_counter() - start
        if complete:  # a batch with a job that never succeeded has no wall time
            batches.append(last - crashed)
    # The operation whose latency is reported is the batch.  A median over
    # single processes falls among millisecond-scale ones that swing with
    # process start-up and the file system, and a median over jobs is always
    # that of one job (each batch runs every job once).
    metrics = {
        "setup_s": setup,
        "wall_s": stats.median(batches),
        "latency_p50_ms": stats.median(batches) * 1e3,
        "latency_p99_ms": stats.percentile(job_ms, 99.0),
        "peak_rss_mib": out.peak_rss_mib,
    }
    info = {
        "batches": len(batches),
        "jobs": len(job_ms),
        "job_p50_ms": stats.median(job_ms),
        "latency_cold_p50_ms": stats.median(latencies["cold"]),
        "latency_warm_p50_ms": stats.median(latencies["warm"]),
        "batch_wall_s": batches,
        "job_p50_ms_by_job": {name: stats.median(v) for name, v in by_job.items()},
    }
    return metrics, info, out
