"""Metric names and units.  BENCHMARK.json lists the same names; the
self-test perfbench/tests/test_contract.py keeps the two in step."""

WORKLOADS = ("derive", "serve_mixed", "localsim")

# Printed by every untraced run (--trace 0), on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

_DERIVE_TIMED = ("re.analyze", "re.iterate", "re.autobound", "family.instantiate",
                 "core.certify", "io.cert_encode", "io.cert_verify", "store.read",
                 "store.write")
_POPULAR = ("mis3", "pi4", "two_ruling_set3", "maximal_matching3", "delta_coloring3",
            "chain1024")
_LOCAL_TIMED = ("local.make_tree", "local.csr_build", "local.luby", "local.domset",
                "local.verify")

# Printed by every traced run (--trace 1).  A layer a workload does not
# exercise reads 0 there.
PER_LAYER = (
    # Every workload: the traced wall, the part of it no layer covers, the
    # tracing overhead, the open-loop tail with its sample count, the
    # warm/cold split, and the error rate.
    (("traced_wall_ms", "ms"), ("unattributed_ms", "ms"), ("trace.overhead_pct", "pct"),
     ("latency_p99_ms", "ms"), ("latency_samples", "count"),
     ("latency_warm_p50_ms", "ms"), ("latency_cold_p50_ms", "ms"), ("error_rate", "ratio"))
    # derive: layer self times, store busy time, counters.
    + tuple((layer + "_ms", "ms") for layer in _DERIVE_TIMED)
    + (("store.open_ms", "ms"), ("store.covered_ms", "ms"), ("bench.check_ms", "ms"),
       ("store.writes", "count"), ("store.bytes", "B"),
       ("re.rbar.candidates", "count"), ("re.antichain.tests", "count"),
       ("engine.step_misses", "count"), ("engine.zero_round_lookups", "count"),
       ("pool.batches", "count"), ("pool.items", "count"))
    # serve_mixed: the round trip split, the generator, the warm path in
    # process, and the engine caches seen from the responses.
    + (("serve.ping_rtt_us", "us"), ("serve.queue_ms_p99", "ms"), ("serve.run_ms_p50", "ms"),
       ("serve.transport_ms_p50", "ms"), ("serve.lane_busy_share", "ratio"),
       ("serve.queue_ms", "ms"), ("serve.run_ms", "ms"), ("bench.conn_wait_ms", "ms"),
       ("bench.late_ms_p99", "ms"), ("engine.hit_ratio_warm", "ratio"),
       ("engine.misses_cold", "count"))
    + tuple(("driver.warm_run_ms." + name, "ms") for name in _POPULAR)
    + tuple(("re.autobound_warm_ms." + name, "ms") for name in _POPULAR[:-1])
    # localsim: phases, rounds, sizes, scaling.
    + tuple((layer + "_ms", "ms") for layer in _LOCAL_TIMED)
    + tuple((layer + ".speedup", "x") for layer in _LOCAL_TIMED)
    + (("local.luby_rounds", "count"), ("local.pre_round_ms", "ms"))
    + tuple(("local.round_ms.%d" % i, "ms") for i in range(4))
    + (("local.graph_mib", "MiB"), ("local.bytes_moved_computed", "B"))
)
