"""Shared SLO / profiler-overhead workload (``BENCH_slo.json``).

Two measurements, both reused by ``benchmarks/test_bench_slo.py`` and
the ``slo-report`` / ``profile-report`` build tasks so every entry point
runs the identical scenario:

- **profiler overhead** — the repeated discovery stream from the
  query-cache bench (smaller lake, same query mix) run under the
  sampling profiler.  The asserted number is the sampler's self-metered
  **duty cycle** (time inside ticks over wall time sampled), which on a
  single core is exactly the wall-clock share stolen from the workload;
  the always-on claim is that it stays <= 5%.  Off-vs-on wall clock is
  reported alongside for context but not asserted — on a shared host
  its run-to-run scatter (±10%) swamps a sub-1% effect.

- **burn-rate discrimination** — one seeded storage workload run twice
  through a DataLake carrying declarative SLOs: once clean, once with a
  20% injected fault rate on the relational backend with
  ``replicate="never"`` (no failover copies, so injected faults surface
  as errored ``storage.polystore.fetch`` spans instead of degraded
  successes).  The faulty run must flag the availability objective as a
  burn-rate breach; the clean run must pass — the engine discriminates,
  it doesn't just alarm.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.core.dataset import Dataset, Table
from repro.core.errors import DataLakeError
from repro.core.lake import DataLake
from repro.datagen import LakeGenerator
from repro.faults import (FaultInjector, FaultSchedule, FaultSpec,
                          ResilienceConfig)
from repro.obs import SLO, SamplingProfiler, get_event_log, get_profiler
from repro.runtime.jobs import RetryPolicy
from repro.storage.polystore import Polystore
from repro.storage.relational import RelationalStore

SEED = 47
FAULT_RATE = 0.20
DATASETS = 120
FETCH_ROUNDS = 2

#: the profiler-overhead stream: a 40-table lake, uncached discovery —
#: every slice recomputes real index work the sampler can observe
PROFILE_POOLS = 10
PROFILE_TABLES_PER_POOL = 3
PROFILE_ROWS = 30
PROFILE_SWEEPS = 4
PROFILE_INTERVAL_S = 0.01  # the always-on default interval

#: the objectives every scenario lake runs under
SLOS = (
    SLO(name="fetch-availability", operation="storage.polystore.fetch",
        availability=0.99, error_rate=0.01,
        window_s=300.0, short_window_s=60.0),
    SLO(name="discovery-latency", operation="exploration.lake.discover_*",
        p95_ms=5000.0, window_s=300.0, short_window_s=60.0),
)


# -- profiler overhead ------------------------------------------------------------


def _build_profile_lake(seed: int) -> Tuple[DataLake, List[tuple]]:
    workload = LakeGenerator(seed=seed).generate(
        num_pools=PROFILE_POOLS, tables_per_pool=PROFILE_TABLES_PER_POOL,
        rows_per_table=PROFILE_ROWS, pool_size=PROFILE_ROWS * 2)
    # cache off: every round recomputes, so the timed stream is real
    # discovery work the sampler can actually observe, not 2ms of hits
    lake = DataLake(cache=False, profile=False)
    for table in workload.tables:
        lake.ingest(Dataset(name=table.name, payload=table, format="table"))
    names = [table.name for table in workload.tables]
    columns = {table.name: table.column_names[0] for table in workload.tables}
    queries: List[tuple] = []
    for name in names[::4]:
        queries.append(("related", name, 5))
        queries.append(("joinable", name, columns[name], 5))
    for name in names[::8]:
        queries.append(("union", name, 5))
    queries.append(("keyword", "label", 5))
    # warm indexes outside the timed window: both configs measure queries
    lake.discovery.build()
    lake.keyword_search("label")
    return lake, queries


def measure_profiler_overhead(
    seed: int = SEED,
    sweeps: int = PROFILE_SWEEPS,
    collapsed_min_ms: float = None,
) -> Dict[str, Any]:
    """Run the discovery stream under the sampler; report its duty cycle.

    The asserted overhead is the sampler's **self-metered duty cycle**:
    every tick times itself with ``perf_counter`` over a sub-millisecond
    window, and the snapshot divides the accumulated tick time by the
    wall time sampled.  Hundreds of ticks average the per-measurement
    noise away, and on a single core the ratio is exactly the wall-clock
    fraction the sampler steals from the workload (ticks hold the GIL).

    Off-vs-on wall clock is measured too — alternating whole-stream
    passes, GC pinned — but only *reported*: empirically this host's
    run-to-run scatter for the identical deterministic stream is ±10%
    (CPU steal on a 1-vCPU VM), an order of magnitude above the ~0.5%
    effect, so a differential estimate at bench-sized sample counts
    would flap.
    """
    import gc

    lake, queries = _build_profile_lake(seed)
    get_profiler().stop()  # a globally running sampler would taint "off"
    sampler = SamplingProfiler(interval=PROFILE_INTERVAL_S)

    def timed_stream() -> float:
        started = time.perf_counter()
        lake.discover_batch(queries)
        return time.perf_counter() - started

    timed_stream()  # untimed warm-up builds lazy state
    off_s = on_s = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for sweep in range(sweeps):
            gc.collect()
            if sweep % 2 == 0:
                off_s += timed_stream()
                with sampler:
                    on_s += timed_stream()
            else:
                with sampler:
                    on_s += timed_stream()
                off_s += timed_stream()
    finally:
        if gc_was_enabled:
            gc.enable()
        lake.close()

    snap = sampler.snapshot()
    wall_delta_pct = ((on_s - off_s) / off_s * 100.0) if off_s else 0.0
    report: Dict[str, Any] = {
        "interval_s": PROFILE_INTERVAL_S,
        "sweeps": sweeps,
        "queries_total": len(queries),
        "off_s": round(off_s, 4),
        "on_s": round(on_s, 4),
        "wall_delta_pct": round(wall_delta_pct, 2),  # informational only
        "tick_cost_ms": snap["tick_cost_ms"],
        "overhead_pct": snap["duty_cycle_pct"],
        "sampler_samples": snap["samples"],
        "hotspots": snap["functions"][:10],
    }
    if collapsed_min_ms is not None:  # opt-in: large, text-report only
        report["collapsed"] = sampler.collapsed(min_ms=collapsed_min_ms)
    return report


# -- SLO burn-rate scenario -------------------------------------------------------


def _dataset(index: int) -> Dataset:
    name = f"slo_ds_{index:03d}"
    table = Table.from_rows(name, ["id", "value"],
                            [[row, (index * 13 + row) % 89] for row in range(5)])
    return Dataset(name, table, format="table")


def _faulty_polystore(fault_rate: float, seed: int) -> Polystore:
    """No failover copies: injected faults must surface as span errors."""
    schedule = FaultSchedule()
    if fault_rate > 0.0:
        schedule.set("relational", "*", FaultSpec(error_rate=fault_rate))
    relational = FaultInjector(RelationalStore(), "relational", schedule,
                               seed=seed)
    config = ResilienceConfig(
        failure_threshold=1000,  # keep the breaker out of the measurement
        replicate="never",
        retry=RetryPolicy(max_attempts=1, base_delay=0.0001),
    )
    return Polystore(relational=relational, resilience=config)


def run_slo_scenario(
    fault_rate: float,
    seed: int = SEED,
    datasets: int = DATASETS,
    rounds: int = FETCH_ROUNDS,
) -> Dict[str, Any]:
    """Store + fetch under the SLOs; report burn-rate verdicts and alerts."""
    lake = DataLake(polystore=_faulty_polystore(fault_rate, seed),
                    slos=SLOS, profile=False)
    events_before = get_event_log().emitted  # scope alerts to this run
    store_failures = 0
    fetch_failures = 0
    fetches = 0
    try:
        for index in range(datasets):
            try:
                lake.ingest(_dataset(index))
            except DataLakeError:
                store_failures += 1
        lake.discover_related(f"slo_ds_{seed % datasets:03d}", k=3)
        for _ in range(rounds):
            for index in range(datasets):
                fetches += 1
                try:
                    lake.polystore.fetch(f"slo_ds_{index:03d}")
                except DataLakeError:
                    fetch_failures += 1
        verdicts = lake.slo_engine.verdicts()
        results = lake.slo_engine.evaluate()
        report_text = lake.slo_report()
        breach_events = [event.to_dict() for event
                         in get_event_log().events(kind="slo.breach")
                         if event.seq > events_before]
        degraded = lake.polystore.health.degraded()
    finally:
        lake.close()
    return {
        "fault_rate": fault_rate,
        "datasets": datasets,
        "fetches": fetches,
        "store_failures": store_failures,
        "fetch_failures": fetch_failures,
        "error_fraction": round(fetch_failures / fetches, 4) if fetches else 0.0,
        "verdicts": verdicts,
        "breached": any(verdicts.values()),
        "objectives": {r["slo"]: r["objectives"] for r in results},
        "breach_events": breach_events,
        "health_degraded": degraded,
        "report": report_text,
    }


def build_artifact(report: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a :func:`run_bench` report in the shared ``BENCH_*`` envelope."""
    from repro.bench.results import envelope

    payload = dict(report)
    schema = payload.pop("schema")
    seed = payload.pop("seed")
    return envelope(schema, payload, seed=seed,
                    gates={"discriminates": payload["discriminates"]})


def run_bench(seed: int = SEED,
              fault_rate: float = FAULT_RATE) -> Dict[str, Any]:
    """The full scenario: overhead probe plus clean-vs-faulty discrimination."""
    overhead = measure_profiler_overhead(seed=seed)
    clean = run_slo_scenario(0.0, seed=seed)
    faulty = run_slo_scenario(fault_rate, seed=seed)
    return {
        "schema": "repro.obs/bench-slo-v1",
        "seed": seed,
        "slos": [
            {"name": s.name, "operation": s.operation, "p95_ms": s.p95_ms,
             "error_rate": s.error_rate, "availability": s.availability}
            for s in SLOS
        ],
        "profiler_overhead": overhead,
        "runs": {"clean": clean, "faulty": faulty},
        "discriminates": faulty["breached"] and not clean["breached"],
    }
