"""The two measurement modes and the load generators behind them.

:func:`run_untraced` sets a workload's lake up ``SETUP_REPS`` times and
measures the last one for a fixed time; :func:`run_traced` runs a fixed
single-client schedule on a plain lake and then on a lake built and driven
under the :class:`~lakebench.ledger.Ledger`.  Both verify answers against
the workload's reference lake and return ``(metrics, tally)``, where
metrics map a name to ``(value, unit)``.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from lakebench import measure
from lakebench.ledger import Ledger

#: set-up repetitions per untraced run; ``setup_s`` is their median
SETUP_REPS = 3

#: ops generated per untraced run (full, smoke): more than any run completes
SCHEDULE_LENGTH = {"discover_static": (4096, 400), "ingest_churn": (300, 300),
                   "serving_mixed": (40000, 4000)}

#: how long the traced run's open-loop probe lasts (seconds)
PROBE_S = 5.0

#: query kinds whose untraced single-client p50 the traced run reports
KIND_P50 = ("joinable", "related", "keyword", "union", "catalog", "ingest",
            "visible", "sql", "fetch")

Metric = Tuple[float, str]

LOG = logging.getLogger("lakebench")


# -- load phases -------------------------------------------------------------


def closed_loop(run_op: Callable[[Any], None], ops: Sequence[Any],
                clients: int, seconds: Optional[float],
                block: int = 1) -> Tuple[int, float]:
    """*clients* threads take the next op as soon as their last one returns.

    With *seconds*, no op starts after the deadline unless the current
    *block* of ops is unfinished; without, every op runs.  Returns (ops
    started, seconds from start to the last op's end).
    """
    lock = threading.Lock()
    cursor = [0]
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def client() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(ops) or (
                        deadline is not None and index % block == 0
                        and time.perf_counter() >= deadline):
                    return
                cursor[0] += 1
            run_op(ops[index])

    threads = [threading.Thread(target=client, name=f"lakebench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return cursor[0], time.perf_counter() - started


def open_loop(run_op: Callable[[Any, float], None], ops: Sequence[Any],
              clients: int, rate: float, seconds: float,
              late_ms: List[float]) -> Tuple[int, float]:
    """Send op *i* at ``start + i / rate`` regardless of completions.

    The calling thread is the generator; *clients* threads take requests
    from an unbounded queue, so a stall makes later requests wait and each
    op is timed from when it was due.  The generator's own lateness per
    request is appended to *late_ms*.
    """
    requests: "queue.Queue[Optional[Tuple[Any, float]]]" = queue.Queue()

    def client() -> None:
        while True:
            item = requests.get()
            if item is None:
                return
            run_op(item[0], item[1])

    threads = [threading.Thread(target=client, name=f"lakebench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    sent = 0
    try:
        while sent < len(ops):
            due = started + sent / rate
            if due - started >= seconds:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_ms.append((time.perf_counter() - due) * 1000.0)
            requests.put((ops[sent], due))
            sent += 1
    finally:
        for _ in threads:
            requests.put(None)
        for thread in threads:
            thread.join()
    return sent, time.perf_counter() - started


# -- the two modes -----------------------------------------------------------


def _op_runner(workload: Any, env: Any, tally: Any) -> Callable[..., None]:
    """``run_op`` bound to one lake; an op that raises is a failed op."""

    def run(op: Any, due: Optional[float] = None) -> None:
        try:
            workload.run_op(env, op, tally, due)
        except Exception as exc:  # a client thread must outlive a bad op
            LOG.exception("operation %.120r raised", op)
            tally.crashed(f"{op!r:.120}: {type(exc).__name__}: {exc}")

    return run


def run_untraced(workload: Any, seconds: float) -> Tuple[Dict[str, Metric], Any]:
    """Set up ``SETUP_REPS`` times, measure, verify; end-to-end metrics."""
    setup_s: List[float] = []
    env = reference = None
    for rep in range(SETUP_REPS):
        as_reference = workload.reference_in_setup and rep == 0
        started = time.perf_counter()
        built = workload.setup(reference=as_reference)
        setup_s.append(time.perf_counter() - started)
        if as_reference:
            reference = built
        elif rep == SETUP_REPS - 1:
            env = built
        else:
            built.close()
    tally = measure.Tally()
    ops = workload.schedule(SCHEDULE_LENGTH[workload.name][workload.smoke])
    try:
        closed_loop(_op_runner(workload, env, tally), ops, workload.clients,
                    seconds, workload.block)
        if reference is None:
            reference = workload.reference(env)
        workload.verify(env, reference, tally)
    finally:
        env.close()
        if reference is not None:
            reference.close()
    latencies = tally.all_latencies()
    # closed loop, no think time: throughput = clients / mean latency
    # (Little's law), which leaves out the drain after the deadline
    ops_per_s = workload.clients * len(latencies) / (sum(latencies) / 1000.0)
    metrics: Dict[str, Metric] = {
        "setup_s": (measure.median(setup_s), "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "latency_p50_ms": (measure.percentile(latencies, 0.50), "ms"),
        "latency_p95_ms": (measure.percentile(latencies, 0.95), "ms"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }
    return metrics, tally


def _disk_bytes(root: Optional[Path]) -> int:
    if root is None or not root.exists():
        return 0
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def run_traced(workload: Any, seconds: float) -> Tuple[Dict[str, Metric], Any]:
    """Untraced then traced single-client pass; per-layer metrics.

    *seconds* is not used: the traced schedule has a fixed length, so its
    call counts repeat exactly for a seed.
    """
    count = workload.fixed_ops
    rate = workload.probe_rate
    probe_ops = int(PROBE_S * rate) + 1 if rate else 0
    ops = workload.schedule(count + probe_ops)
    fixed, probe = ops[:count], ops[count:]
    plain_tally, traced_tally, probe_tally = (measure.Tally(), measure.Tally(),
                                              measure.Tally())
    late_ms: List[float] = []
    plain = traced = reference = None
    try:
        plain = workload.setup()
        _, plain_s = closed_loop(_op_runner(workload, plain, plain_tally),
                                 fixed, 1, None)
        with Ledger() as ledger:
            traced = workload.setup()
            cache_before = traced.lake.query_cache.stats()
            ingests_before = traced.ingests
            top_k_before = ledger.count("discovery.table_union.top_k")
            embed_before = ledger.nested_count("discovery.table_union.top_k",
                                               "ml.embeddings.embed_set")
            add_before = ledger.count("discovery.table_union.add_table")
            _, traced_s = closed_loop(
                _op_runner(workload, traced, traced_tally), fixed, 1, None)
            cache_after = traced.lake.query_cache.stats()
        written = _disk_bytes(traced.root)
        reference = workload.reference(traced)
        for env, tally in ((plain, plain_tally), (traced, traced_tally)):
            workload.verify(env, reference, tally)
        if probe:
            open_loop(_op_runner(workload, plain, probe_tally), probe, 2, rate,
                      PROBE_S, late_ms)
    finally:
        for env in (plain, traced, reference):
            if env is not None:
                env.close()
    metrics: Dict[str, Metric] = dict(ledger.layer_metrics())
    op_ingests = traced.ingests - ingests_before
    top_k = ledger.count("discovery.table_union.top_k") - top_k_before
    embeds = ledger.nested_count("discovery.table_union.top_k",
                                 "ml.embeddings.embed_set") - embed_before
    adds = ledger.count("discovery.table_union.add_table") - add_before
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    metrics.update({
        "storage.object_store.bytes_written": (written, "bytes"),
        "storage.object_store.write_amp": (
            _ratio(written, ledger.put_bytes_user), "ratio"),
        "runtime.incremental.delta_tables": (ledger.delta_tables, "count"),
        "discovery.profiles.profiles_per_new_column": (
            _ratio(ledger.count("discovery.profiles.profile_column"),
                   traced.columns_ingested), "ratio"),
        "discovery.table_union.embed_set_per_query": (_ratio(embeds, top_k),
                                                      "ratio"),
        "discovery.table_union.add_table_per_ingest": (_ratio(adds, op_ingests),
                                                       "ratio"),
        "exploration.parallel.cache.hits": (hits, "count"),
        "exploration.parallel.cache.misses": (misses, "count"),
        "exploration.parallel.cache.hit_ratio": (_ratio(hits, hits + misses),
                                                 "ratio"),
        "exploration.sql.rows_returned": (ledger.sql_rows, "count"),
        "serving.shed": (ledger.shed, "count"),
        "serving.overhead_p50_ms": (measure.median(ledger.serve_overhead_ms),
                                    "ms"),
        "bench.generator.late_p95_ms": (measure.percentile(late_ms, 0.95), "ms"),
        "bench.open_loop.latency_p95_ms": (
            measure.percentile(probe_tally.all_latencies(), 0.95), "ms"),
        "bench.trace.overhead_ratio": (
            _ratio(plain_s, traced_s), "ratio"),
        "bench.lake_datasets": (len(traced.lake), "count"),
        "bench.failed_ratio": (
            _ratio(len(plain_tally.failures) + len(traced_tally.failures),
                   plain_tally.attempted + traced_tally.attempted), "ratio"),
    })
    for kind in KIND_P50:
        metrics[f"bench.{kind}_p50_ms"] = (plain_tally.p50(kind), "ms")
    combined = measure.Tally()
    for tally in (plain_tally, traced_tally, probe_tally):
        combined.attempted += tally.attempted
        combined.failures += tally.failures
    return metrics, combined


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
