"""Shared workload for the query-cache benchmark.

One seeded scenario: a 200-table generated lake (entity pools with
joinable dimension/fact structure) answering a repeated mixed discovery
workload — related / union / joinable / keyword — issued through
``DataLake.discover_batch``.  Two configurations run the *identical*
query stream:

- **uncached** — ``cache=False``: every round recomputes every answer
  from the indexes;
- **cached** — ``cache=True`` (the default lake): the first round
  computes and populates the cache, later rounds are epoch-checked hits.

The report carries wall-clock seconds per configuration, the speedup
ratio, cache statistics, and a sample-equality check (the cached
answers must equal the uncached ones — the equivalence suite proves it
exhaustively; the bench re-asserts it on the measured stream so the
artifact can't describe two different workloads).

Used by ``benchmarks/test_bench_parallel.py`` (writes
``BENCH_parallel.json``).
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List

from repro.core.dataset import Dataset
from repro.core.lake import DataLake
from repro.datagen import LakeGenerator

SEED = 31
NUM_POOLS = 40
TABLES_PER_POOL = 4  # 40 * (1 dim + 4 facts) = 200 tables
ROWS_PER_TABLE = 30
POOL_SIZE = 60
ROUNDS = 4


def build_workload(seed: int = SEED):
    return LakeGenerator(seed=seed).generate(
        num_pools=NUM_POOLS, tables_per_pool=TABLES_PER_POOL,
        rows_per_table=ROWS_PER_TABLE, pool_size=POOL_SIZE,
        noise_tables=0)


def _ingest(lake: DataLake, workload) -> DataLake:
    for table in workload.tables:
        lake.ingest(Dataset(name=table.name, payload=table, format="table"))
    return lake


def build_queries(workload, seed: int = SEED) -> List[tuple]:
    """The per-round query mix: 10 related, 5 union, 5 joinable, 5 keyword."""
    rng = random.Random(seed)
    names = [table.name for table in workload.tables]
    columns = {table.name: table.column_names[0] for table in workload.tables}
    queries: List[tuple] = []
    for name in rng.sample(names, 10):
        queries.append(("related", name, 5))
    for name in rng.sample(names, 5):
        queries.append(("union", name, 5))
    for name in rng.sample(names, 5):
        queries.append(("joinable", name, columns[name], 5))
    pool_picks = rng.sample(range(NUM_POOLS), 5)
    for pool_index in pool_picks:
        queries.append(("keyword", f"label ent{pool_index} id", 5))
    return queries


def _run_rounds(lake: DataLake, queries: List[tuple], rounds: int):
    """Time the repeated stream; return (seconds, last round's answers)."""
    answers = None
    started = time.perf_counter()
    for _ in range(rounds):
        answers = lake.discover_batch(queries)
    return time.perf_counter() - started, answers


def build_artifact(report: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a :func:`run_bench` report in the shared ``BENCH_*`` envelope."""
    from repro.bench.results import envelope

    payload = dict(report)
    seed = payload.pop("seed")
    return envelope("repro.exploration/bench-parallel-v2", payload, seed=seed,
                    gates={"answers_equal": payload["answers_equal"]})


def run_bench(seed: int = SEED, rounds: int = ROUNDS) -> Dict[str, Any]:
    workload = build_workload(seed)
    queries = build_queries(workload, seed)

    uncached = _ingest(DataLake(cache=False), workload)
    cached = _ingest(DataLake(cache=True), workload)

    # warm the *indexes* (not the query cache) outside the timed window so
    # both configurations measure query answering, not one-time index builds
    for lake in (uncached, cached):
        lake.discovery.build()
        lake.keyword_search("label")

    uncached_seconds, uncached_answers = _run_rounds(uncached, queries, rounds)
    cached_seconds, cached_answers = _run_rounds(cached, queries, rounds)

    report: Dict[str, Any] = {
        "seed": seed,
        "tables": len(workload.tables),
        "rounds": rounds,
        "queries_per_round": len(queries),
        "uncached": {"seconds": round(uncached_seconds, 4)},
        "cached": {
            "seconds": round(cached_seconds, 4),
            "cache": cached.query_cache.stats(),
        },
        "speedup": round(uncached_seconds / cached_seconds, 2)
        if cached_seconds else float("inf"),
        "answers_equal": cached_answers == uncached_answers,
    }
    return report
