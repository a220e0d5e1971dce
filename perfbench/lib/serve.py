"""The `serve_mixed` workload: relb_served fed by an open loop.

One daemon with default lanes and a fresh --store.  Requests arrive as a
seeded Poisson stream at a fixed rate over at most nproc unix-socket
connections; each connection carries one request at a time, so a request
that finds every connection busy waits at the client, and that wait counts
in its latency, which runs from the request's due time.  60% of the stream
repeats a fixed popular set (the warm path); the rest are distinct small
random problems (the cold path, with store writes).
"""

import os
import queue
import random
import shutil
import sys
import threading
import time

from . import inputs
from . import outcome as oc
from . import proc, serve_client, stats, traced

# Requests per second.  At this rate the daemon's lanes are busy about a
# third of the time on a 4-core host (serve.lane_busy_share), clearly below
# saturation, and a 30 s run has 1200 requests: 12 beyond the p99.
RATE = 40.0
SETUP_REPEATS = 3
# Share of the stream that repeats the popular set.
POPULAR_SHARE = 0.6
# How often each popular request appears in one cycle of the popular part.
# The cold requests (about a millisecond of compute plus store writes, whose
# latency swings with the file system from run to run) and the sub-ms warm
# ones make up 44% of the stream, so the overall median falls inside the
# compute-bound warm MIS cluster (about 45 ms), not on the edge of the cold
# one; the two-ruling-set run (about 300 ms, 3% of the stream) sets the p99.
POPULAR_WEIGHTS = {"mis3": 50, "pi4": 1, "two_ruling_set3": 3, "maximal_matching3": 1,
                   "delta_coloring3": 1, "chain1024": 1}
LISTEN_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0
# Generator lateness (dispatch time minus due time, p99) beyond which the
# open loop did not hold.
LATE_LIMIT_MS = 20.0


def _request(pop, req_id):
    """A popular request; chains ship their certificate, to be compared."""
    if "chain" in pop:
        return serve_client.chain_request(req_id, pop["chain"])
    return serve_client.problem_request(req_id, pop["node"], pop["edge"], pop["max_steps"])


class Plan:
    """The request stream: due offsets, and per slot either a popular name or
    a unique (node, edge) problem.  A pure function of the seed."""

    def __init__(self, data, seed, seconds, rate=RATE):
        rng = random.Random(seed)
        n = max(2, int(rate * seconds))
        n_popular = round(POPULAR_SHARE * n)
        kinds = ["popular"] * n_popular + ["unique"] * (n - n_popular)
        rng.shuffle(kinds)
        cycle = [name for name, w in POPULAR_WEIGHTS.items() for _ in range(w)]
        popular = []
        while len(popular) < n_popular:
            block = list(cycle)
            rng.shuffle(block)
            popular += block
        deny = inputs.load_deny_list()
        uniques = inputs.unique_problems(rng, n - n_popular, deny)
        # Poisson arrivals, rescaled so that the stream always spans n / rate
        # seconds: the seed moves individual arrivals, not the total load.
        gaps = [rng.expovariate(rate) for _ in range(n)]
        scale = (n / rate) / sum(gaps)
        self.due = []
        t = 0.0
        for gap in gaps:
            t += gap * scale
            self.due.append(t)
        self.slots = []
        pi = ui = 0
        for kind in kinds:
            if kind == "popular":
                self.slots.append(("popular", popular[pi]))
                pi += 1
            else:
                self.slots.append(("unique", uniques[ui]))
                ui += 1


class Session:
    """A running daemon plus the reference bytes its answers must match."""

    def __init__(self, daemon, socket_path):
        self.daemon = daemon
        self.socket_path = socket_path
        self.reference = {}  # popular name -> (output, certificate)


def setup_once(b, out, data, work, chain_cert):
    """Daemon spawn -> `listening`, then one pass over the popular set (which
    computes it cold).  Returns (Session, seconds)."""
    store = os.path.join(work, "store")
    sock = os.path.join(work, "serve.sock")
    shutil.rmtree(store, ignore_errors=True)
    start = time.perf_counter()
    daemon = proc.Daemon([b.binary("relb_served"), "--unix", sock, "--store", store])
    line = daemon.readline(LISTEN_TIMEOUT_S)
    if line is None or not line.startswith("listening"):
        _stop(out, Session(daemon, sock))
        raise RuntimeError("relb_served did not start listening")
    session = Session(daemon, sock)
    try:
        conn = serve_client.Connection(sock, REQUEST_TIMEOUT_S)
        try:
            for i, pop in enumerate(data["popular"]):
                response = conn.round_trip(_request(pop, i + 1))
                if response.get("code") != 200:
                    out.fail("status %s" % response.get("code"))
                    raise RuntimeError("pre-warm of %s failed" % pop["name"])
                out.ok()
                session.reference[pop["name"]] = (response.get("output", ""),
                                                  response.get("certificate", ""))
        finally:
            conn.close()
    except (OSError, ValueError, RuntimeError):
        _stop(out, session)
        raise
    elapsed = time.perf_counter() - start
    if chain_cert is not None and session.reference["chain1024"][1] != chain_cert:
        out.mismatch("chain 1024: served certificate differs from the CLI's --save-cert bytes")
    return session, elapsed


def cli_chain_certificate(b, out, work):
    """The CLI's --save-cert bytes for the popular chain, to compare with
    what the daemon ships."""
    path = os.path.join(work, "chain1024-cli.json")
    result, _ = oc.run_retrying(out, [b.binary("round_eliminator_cli"), "--chain", "1024",
                                      "--save-cert", path], one_cpu=True)
    if not result.ok:
        return None
    with open(path) as f:
        return f.read()


class Record:
    __slots__ = ("kind", "name", "due", "dispatched", "sent", "done", "code", "stats")

    def __init__(self, kind, name, due):
        self.kind = kind
        self.name = name
        self.due = due
        self.dispatched = self.sent = self.done = None
        self.code = None
        self.stats = None


def drive(session, plan, data, out, connections):
    """Plays `plan` against the daemon.  Returns the per-request records and
    the stream's start time."""
    popular = {p["name"]: p for p in data["popular"]}
    work = queue.Queue()
    records = [Record(kind, item if kind == "popular" else None, due)
               for (kind, item), due in zip(plan.slots, plan.due)]
    lock = threading.Lock()
    dead = threading.Event()

    def worker():
        try:
            conn = serve_client.Connection(session.socket_path, REQUEST_TIMEOUT_S)
        except OSError:
            dead.set()
            conn = None
        while True:
            item = work.get()
            if item is None:
                break
            index, rec = item
            if conn is None or dead.is_set():
                with lock:
                    out.fail("daemon gone")
                continue
            kind, payload = plan.slots[index]
            request = (_request(popular[payload], index + 1000)
                       if kind == "popular" else
                       serve_client.problem_request(index + 1000, payload[0], payload[1],
                                                    inputs.RANDOM_MAX_STEPS))
            rec.sent = time.perf_counter()
            try:
                response = conn.round_trip(request)
            except (OSError, ValueError):
                dead.set()
                with lock:
                    out.fail("daemon gone")
                continue
            rec.done = time.perf_counter()
            rec.code = response.get("code")
            rec.stats = response.get("stats")
            with lock:
                _check(out, session, rec, kind, payload, response)
        if conn is not None:
            conn.close()

    # A thread woken by its socket must not wait out the default 5 ms GIL
    # switch interval behind another client thread: that wait would land in
    # the measured latency.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    start = time.perf_counter() + 0.05
    for index, rec in enumerate(records):
        due = start + rec.due
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        rec.due = due
        rec.dispatched = time.perf_counter()
        work.put((index, rec))
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join()
    sys.setswitchinterval(switch_interval)
    return records, start


def _check(out, session, rec, kind, payload, response):
    if rec.code != 200:
        out.fail("status %s" % rec.code)
        return
    out.ok()
    if kind == "popular":
        want_output, want_cert = session.reference[payload]
        if response.get("output", "") != want_output:
            out.mismatch("%s: repeated request returned different output" % payload)
        elif payload == "chain1024" and response.get("certificate", "") != want_cert:
            out.mismatch("chain1024: repeated request returned a different certificate")
    elif "automatic lower bound" not in response.get("output", ""):
        out.mismatch("unique problem: no lower bound in the output")


def summarize(records, start, nproc):
    """End-to-end metrics plus the breakdown the traced run reports."""
    done = [r for r in records if r.done is not None]
    lat = [stats.open_loop_latency(r.due, r.done) for r in done]
    warm = [stats.open_loop_latency(r.due, r.done) for r in done if r.kind == "popular"]
    cold = [stats.open_loop_latency(r.due, r.done) for r in done if r.kind == "unique"]
    p, tail, beyond = stats.tail_percentile(lat, 99.0)
    late = [stats.lateness(r.due, r.dispatched) for r in records if r.dispatched is not None]
    end = max((r.done for r in done), default=start)
    e2e = {
        "wall_s": end - start,
        "latency_p50_ms": stats.median(lat),
        "latency_p99_ms": tail,
    }
    info = {
        "requests": len(records),
        "completed": len(done),
        "latency_samples": len(lat),
        "latency_tail_percentile": p,
        "latency_tail_beyond": beyond,
        "latency_warm_p50_ms": stats.median(warm),
        "latency_cold_p50_ms": stats.median(cold),
        "bench.late_ms_p99": stats.percentile(late, 99.0),
    }
    # Per-request split: client-side wait, server queue, server run, and the
    # rest of the round trip (transport and framing), which no span covers.
    served = [r for r in done if r.stats is not None]
    queue_ms = [r.stats.get("queue_micros", 0) / 1e3 for r in served]
    run_ms = [r.stats.get("run_micros", 0) / 1e3 for r in served]
    transport = [(r.done - r.sent) * 1e3 - q - m for r, q, m in zip(served, queue_ms, run_ms)]
    wait = [(r.sent - r.due) * 1e3 for r in served]
    duration_s = max(end - start, 1e-9)

    def hit_ratio(rs):
        hits = sum(_hits(r.stats) for r in rs)
        total = hits + sum(_misses(r.stats) for r in rs)
        return hits / total if total else 0.0

    warm_served = [r for r in served if r.kind == "popular"]
    cold_served = [r for r in served if r.kind == "unique"]
    layers = {
        "bench.conn_wait_ms": sum(wait),
        "serve.queue_ms": sum(queue_ms),
        "serve.run_ms": sum(run_ms),
        "unattributed_ms": sum(transport),
        "traced_wall_ms": sum(stats.open_loop_latency(r.due, r.done) for r in served),
        "serve.queue_ms_p99": stats.percentile(queue_ms, 99.0),
        "serve.run_ms_p50": stats.median(run_ms),
        "serve.transport_ms_p50": stats.median(transport),
        "serve.lane_busy_share": sum(run_ms) / 1e3 / (nproc * duration_s),
        "engine.hit_ratio_warm": hit_ratio(warm_served),
        "engine.misses_cold": (sum(_misses(r.stats) for r in cold_served) / len(cold_served)
                               if cold_served else 0.0),
    }
    return e2e, info, layers


def _hits(s):
    return sum(v for k, v in s.items() if k.endswith("_hits") and not k.startswith("store"))


def _misses(s):
    return sum(v for k, v in s.items() if k.endswith("_misses") and not k.startswith("store"))


def run(b, data, seed, seconds, trace, nproc):
    """Returns (metrics, info, outcome)."""
    out = oc.Outcome()
    work = os.path.join(b.work, "serve")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = Plan(data, seed, seconds)
    chain_cert = cli_chain_certificate(b, out, work)
    if chain_cert is None:
        out.mismatch("chain 1024: the CLI produced no reference certificate")

    setups = []
    session = None
    attempts = 0
    while len(setups) < SETUP_REPEATS:
        if session is not None:
            _stop(out, session)
            session = None
        attempts += 1
        try:
            session, elapsed = setup_once(b, out, data, work, chain_cert)
        except (OSError, ValueError, RuntimeError):
            # The daemon died or never listened: a failed operation (counted
            # when the daemon is reaped), then a fresh attempt.
            if attempts >= 2 * SETUP_REPEATS:
                raise
            continue
        setups.append(elapsed)
    try:
        records, start = drive(session, plan, data, out, connections=nproc)
        e2e, info, layers = summarize(records, start, nproc)
        if trace:
            layers.update(traced.serve(b, out, data, session.socket_path, work))
    finally:
        _stop(out, session)
    if info["bench.late_ms_p99"] > LATE_LIMIT_MS:
        # The generator itself fell behind: the open loop did not hold, so
        # the run is invalid, and counted as a failed operation.
        out.fail("generator late")
    info["error_rate"] = out.error_rate
    if trace:
        layers.update({k: info[k] for k in ("latency_warm_p50_ms", "latency_cold_p50_ms",
                                             "bench.late_ms_p99", "latency_samples")})
        layers["latency_p99_ms"] = e2e["latency_p99_ms"]
        info["breakdown"] = {k: layers[k] for k in ("bench.conn_wait_ms", "serve.queue_ms",
                                                    "serve.run_ms", "unattributed_ms")}
        return layers, info, out
    metrics = {"setup_s": stats.median(setups), **e2e, "peak_rss_mib": out.peak_rss_mib}
    info["setup_runs_s"] = setups
    return metrics, info, out


def _stop(out, session):
    code = session.daemon.stop()
    out.peak_rss_mib = max(out.peak_rss_mib, session.daemon.maxrss_mib)
    if code != 0:
        out.fail("daemon exit %s" % code)
