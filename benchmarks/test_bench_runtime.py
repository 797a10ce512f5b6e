"""[runtime] Maintenance cost under an interleaved ingest/discovery workload.

DLBench-style scenario: 200 tables arrive one at a time while users keep
querying the lake (keyword search every 5 ingests, join discovery every
10).  Three maintenance strategies answer the same workload:

- **inline full-rebuild** — the seed behavior, kept here as a bench-local
  baseline (:class:`RebuildPerQuery`): every ingest invalidates the
  discovery and keyword indexes, and the next query builds fresh ones
  from all of ``lake.tables()``;
- **incremental (sync, default)** — persistent indexes, per-table deltas
  applied inline at ingest;
- **async** — maintenance enqueued on the background job runtime,
  ``drain()`` as the final barrier.

The claim to reproduce: dirty-set deltas turn the quadratic
rebuild-per-query cost into near-linear upkeep — incremental maintenance
must be >= 5x faster than inline full-rebuild end to end.  Results land
in ``BENCH_runtime.json`` together with the async job-latency p95.
"""

import json
import pathlib
import time

from repro import DataLake
from repro.discovery.aurum import Aurum
from repro.exploration.keyword import KeywordSearch
from repro.bench.reporting import render_table, report_experiment
from repro.bench.results import envelope, write_bench_json
from repro.obs import get_registry

from conftest import add_report

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_runtime.json"

TABLES = 200
ROWS = 10
KEYWORD_EVERY = 5
DISCOVERY_EVERY = 10
CITIES = ("berlin", "paris", "rome", "london")


def payload(i):
    """Small table sharing a customer_id domain so join edges exist."""
    return {
        "row_id": [f"t{i}-{r}" for r in range(ROWS)],
        "customer_id": [f"c{(i + r) % 40}" for r in range(ROWS)],
        "city": [CITIES[(i + r) % len(CITIES)] for r in range(ROWS)],
    }


class RebuildPerQuery:
    """The seed's rebuild-per-query maintenance around a default lake.

    Ingest goes through the lake (placement, metadata, catalog); the
    lake's own indexes are never queried, so its maintainer only marks
    tables dirty.  The first query after an ingest builds a fresh
    :class:`Aurum` or :class:`KeywordSearch` from ``lake.tables()``.
    """

    def __init__(self):
        self.lake = DataLake()
        self._aurum = None
        self._keyword = None

    def ingest_table(self, name, data, source=""):
        self._aurum = self._keyword = None  # every ingest invalidates both
        return self.lake.ingest_table(name, data, source=source)

    def keyword_search(self, keywords, k=10):
        if self._keyword is None:
            self._keyword = KeywordSearch()
            for table in self.lake.tables():
                self._keyword.add_table(table)
        return self._keyword.search(keywords, k=k)

    def discover_joinable(self, table_name, column, k=5):
        if self._aurum is None:
            self._aurum = Aurum()
            for table in self.lake.tables():
                self._aurum.add_table(table)
            self._aurum.build()
        return self._aurum.joinable(table_name, column, k=k)

    def drain(self):
        return self.lake.drain()

    def close(self):
        self.lake.close()


def run_workload(lake):
    """Interleave ingest with keyword + join-discovery queries; return seconds."""
    started = time.perf_counter()
    for i in range(TABLES):
        lake.ingest_table(f"table_{i}", payload(i), source=f"feed-{i}")
        if i % KEYWORD_EVERY == KEYWORD_EVERY - 1:
            lake.keyword_search("berlin", k=5)
        if i % DISCOVERY_EVERY == DISCOVERY_EVERY - 1:
            lake.discover_joinable(f"table_{i}", "customer_id", k=3)
    lake.drain()
    lake.close()
    return time.perf_counter() - started


def run_all_modes():
    timings = {}
    timings["inline_full_rebuild"] = run_workload(RebuildPerQuery())
    timings["incremental_sync"] = run_workload(DataLake())
    timings["async_runtime"] = run_workload(DataLake(async_maintenance=True))
    job_latency = get_registry().histogram("runtime.job_ms").summary()
    return timings, job_latency


def test_bench_runtime_incremental_vs_full_rebuild(benchmark):
    timings, job_latency = benchmark.pedantic(run_all_modes, iterations=1, rounds=1)

    inline = timings["inline_full_rebuild"]
    speedups = {mode: inline / seconds for mode, seconds in timings.items()}
    rendered = render_table(
        "Maintenance runtime: interleaved ingest/discovery over "
        f"{TABLES} tables",
        ["strategy", "total (s)", "speedup vs inline"],
        [[mode, f"{seconds:.2f}", f"{speedups[mode]:.1f}x"]
         for mode, seconds in timings.items()],
    )
    rendered += "\n" + report_experiment(
        "runtime",
        "incremental index deltas beat rebuild-per-query maintenance",
        f"incremental {speedups['incremental_sync']:.1f}x, async "
        f"{speedups['async_runtime']:.1f}x vs inline; async job p95 "
        f"{job_latency['p95']:.2f}ms over {job_latency['count']:.0f} jobs",
    )
    add_report("runtime_maintenance", rendered)

    write_bench_json("runtime", envelope(
        "repro.runtime/bench-v1",
        {
            "workload": {
                "tables": TABLES,
                "rows_per_table": ROWS,
                "keyword_query_every": KEYWORD_EVERY,
                "discovery_query_every": DISCOVERY_EVERY,
            },
            "total_seconds": {k: round(v, 4) for k, v in timings.items()},
            "speedup_vs_inline": {k: round(v, 2) for k, v in speedups.items()},
            "async_job_latency_ms": job_latency,
        },
        gates={
            "incremental_speedup": {
                "pass": speedups["incremental_sync"] >= 5.0,
                "value": round(speedups["incremental_sync"], 2),
                "min": 5.0,
            },
        },
    ))

    # acceptance: incremental maintenance is at least 5x the inline path
    assert speedups["incremental_sync"] >= 5.0
    # async keeps the query path correct (drain happened) and jobs flowed
    assert job_latency["count"] > TABLES  # metadata + catalog + refresh jobs
