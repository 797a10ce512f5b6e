"""The three workloads: set-up, one operation, and the correctness checks.

Each workload builds lakes through the public ``DataLake`` / ``LakeServer``
API with default settings (``ingest_churn`` swaps in an on-disk object
store), runs one op of its schedule at a time on behalf of a client
thread, and finally compares a seeded sample of discovery answers with a
serial, uncached reference lake (``DataLake(cache=False)``) holding the same
final corpus.  Every wrong answer is a failure on the run's tally.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dataset import Dataset, Table
from repro.core.lake import DataLake
from repro.serving.quotas import TenantQuota
from repro.serving.server import LakeServer, qualify
from repro.storage.object_store import ObjectStore
from repro.storage.polystore import Polystore

from lakebench.corpus import (QUERY_K, STATIC_CYCLE, TENANTS, VISIBLE_K,
                              ChurnStep,
                              LakeShape, churn_corpus, count_columns,
                              payload_copy, serving_corpus, static_corpus)
from lakebench.measure import Tally

#: "smoke" shrinks every corpus so the whole benchmark runs in seconds
SHAPES: Dict[str, Dict[str, LakeShape]] = {
    "discover_static": {
        "full": LakeShape(pools=12, tables_per_pool=9, noise_tables=4,
                          json_collections=4, log_files=2),
        "smoke": LakeShape(pools=3, tables_per_pool=3, rows=30, pool_size=16,
                           noise_tables=1, json_collections=1, log_files=1,
                           log_lines=40),
    },
    "ingest_churn": {
        "full": LakeShape(pools=6, tables_per_pool=7, json_collections=2,
                          log_files=1, text_docs=2),
        "smoke": LakeShape(pools=2, tables_per_pool=2, rows=30, pool_size=16,
                           json_collections=1, log_files=1, log_lines=40,
                           text_docs=1),
    },
    "serving_mixed": {
        # few, large tables: a SQL request does milliseconds of real work,
        # so latency is not dominated by thread hand-offs
        "full": LakeShape(pools=1, tables_per_pool=5, rows=1500, pool_size=750,
                          json_collections=2),
        "smoke": LakeShape(pools=1, tables_per_pool=2, rows=60, pool_size=30,
                           json_collections=1),
    },
}


@dataclass
class Env:
    """One lake under test (plus its server, for ``serving_mixed``)."""

    lake: DataLake
    server: Optional[LakeServer] = None
    sessions: Dict[str, Any] = field(default_factory=dict)
    root: Optional[Path] = None
    columns_ingested: int = 0
    ingests: int = 0
    answers: Dict[Tuple[Any, ...], Any] = field(default_factory=dict)
    executed: List[Any] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def count_ingest(self, payload: Any) -> None:
        columns = count_columns(payload)
        with self.lock:
            self.ingests += 1
            self.columns_ingested += columns or 0

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.lake.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


def _answer(lake: DataLake, query: Tuple[Any, ...], k: int) -> Any:
    kind = query[0]
    if kind == "joinable":
        return lake.discover_joinable(query[1], query[2], k=k)
    if kind == "related":
        return lake.discover_related(query[1], k=k)
    if kind == "keyword":
        return lake.keyword_search(query[1], k=k)
    if kind == "union":
        return lake.discover_union(query[1], k=k)
    if kind == "catalog":
        return lake.catalog.search(query[1], k=k)
    raise ValueError(f"unknown query kind {kind!r}")


def _names(kind: str, answer: Any) -> List[str]:
    """The dataset names an answer lists."""
    if kind == "joinable":
        return [ref[0] for ref, _ in answer]
    if kind == "keyword":
        return [hit.table for hit in answer]
    if kind == "catalog":
        return list(answer)
    return [name for name, _ in answer]


def _warm(lake: DataLake, joinable: Tuple[str, str], keyword: str,
          union_table: str) -> None:
    """Build every index the workload queries, then forget the warm answers."""
    lake.discover_joinable(joinable[0], joinable[1], k=QUERY_K)
    lake.keyword_search(keyword, k=QUERY_K)
    lake.discover_union(union_table, k=QUERY_K)
    if lake.query_cache is not None:
        lake.query_cache.clear()


def _compare(tally: Tally, label: str, mine: Any, theirs: Any) -> None:
    tally.check(label, mine == theirs)


class Workload:
    """Base class: a seeded corpus, an op schedule and the lake set-up."""

    name = ""
    #: closed-loop client threads in the untraced run
    clients = 1
    #: requests/s of the traced run's open-loop probe (0: no probe)
    probe_rate = 0.0
    #: a closed-loop run past its deadline still completes the current
    #: block of this many ops, so every run holds whole schedule cycles
    block = 1
    #: ops the traced run executes, full / smoke
    traced_ops = (48, 12)
    #: the first set-up repetition doubles as the reference lake
    reference_in_setup = False

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.shape = SHAPES[self.name]["smoke" if smoke else "full"]

    def setup(self, reference: bool = False) -> Env:
        raise NotImplementedError

    def schedule(self, length: int) -> List[Any]:
        raise NotImplementedError

    def run_op(self, env: Env, op: Any, tally: Tally,
               due: Optional[float] = None) -> None:
        raise NotImplementedError

    def reference(self, env: Env) -> Env:
        """A serial uncached lake holding *env*'s final corpus."""
        raise NotImplementedError

    def verify(self, env: Env, reference: Env, tally: Tally) -> None:
        raise NotImplementedError

    @property
    def fixed_ops(self) -> int:
        return self.traced_ops[1 if self.smoke else 0]


# -- discover_static ----------------------------------------------------------


class DiscoverStatic(Workload):
    """A fixed few-hundred-table lake, two closed-loop discovery clients."""

    name = "discover_static"
    clients = 2
    block = len(STATIC_CYCLE)
    traced_ops = (48, 24)
    reference_in_setup = True

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.corpus = static_corpus(seed, self.shape)
        tabular = [(name, payload) for name, payload, _ in self.corpus.datasets
                   if count_columns(payload)]
        # the narrowest table makes the cheapest union warm-up query
        self.warm_union = min(tabular, key=lambda item: (count_columns(item[1]),
                                                         item[0]))[0]

    def setup(self, reference: bool = False) -> Env:
        env = Env(DataLake(cache=False) if reference else DataLake())
        for name, payload, fmt in self.corpus.datasets:
            env.lake.ingest(Dataset(name, payload_copy(payload), format=fmt))
            env.count_ingest(payload)
        _warm(env.lake, self.corpus.joinable[0], self.corpus.keywords[0],
              self.warm_union)
        return env

    def schedule(self, length: int) -> List[Any]:
        return self.corpus.schedule(self.seed, length)

    def run_op(self, env: Env, op: Any, tally: Tally,
               due: Optional[float] = None) -> None:
        started = time.perf_counter()
        answer = _answer(env.lake, op, QUERY_K)
        tally.op(op[0], (time.perf_counter() - started) * 1000.0)
        with env.lock:
            env.answers.setdefault(op, answer)

    def reference(self, env: Env) -> Env:
        return self.setup(reference=True)

    def verify(self, env: Env, reference: Env, tally: Tally) -> None:
        """A seeded sample of the answers given in-run, per kind."""
        rng = random.Random(f"{self.seed}/static/verify")
        per_kind = {"joinable": 6, "related": 6, "keyword": 6, "union": 1}
        answered = sorted(env.answers, key=repr)
        for kind, count in per_kind.items():
            ops = [op for op in answered if op[0] == kind]
            for op in rng.sample(ops, min(count, len(ops))):
                _compare(tally, " ".join(map(str, op)), env.answers[op],
                         _answer(reference.lake, op, QUERY_K))


# -- ingest_churn -------------------------------------------------------------


class IngestChurn(Workload):
    """Ingest one dataset, then find it; one closed-loop client."""

    name = "ingest_churn"
    clients = 1
    traced_ops = (24, 8)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.corpus = churn_corpus(seed, self.shape)
        self._roots = 0

    def _ingest(self, env: Env, name: str, data: bytes) -> None:
        dataset = env.lake.ingest_bytes(name, data)
        env.count_ingest(dataset.payload)

    def setup(self, reference: bool = False) -> Env:
        if reference:
            env = Env(DataLake(cache=False))
        else:
            # raw files go to an on-disk store that fsyncs every write
            self._roots += 1
            root = self.workdir / f"objects-{self._roots}"
            store = ObjectStore(root, fsync=True)
            env = Env(DataLake(polystore=Polystore(objects=store)), root=root)
        for name, data in self.corpus.base:
            self._ingest(env, name, data)
        if not reference:
            _warm(env.lake, ("dim_ent0", "ent0_id"), "metric", "fact_ent0_0")
        return env

    def schedule(self, length: int) -> List[ChurnStep]:
        return self.corpus.steps(length)

    def run_op(self, env: Env, op: ChurnStep, tally: Tally,
               due: Optional[float] = None) -> None:
        # one operation is the whole step: its latency is the freshness
        # delay, from the start of the ingest to the answer that lists it
        started = time.perf_counter()
        self._ingest(env, op.name, op.data)
        ingested = time.perf_counter()
        answer = _answer(env.lake, op.query, VISIBLE_K)
        done = time.perf_counter()
        tally.op(op.query[0], (done - started) * 1000.0)
        tally.sample("ingest", (ingested - started) * 1000.0)
        tally.sample("visible", (done - started) * 1000.0)
        with env.lock:
            env.executed.append(op)
        if op.name not in _names(op.query[0], answer):
            tally.fail(f"step {op.index}: {op.query} does not list {op.name}")

    def reference(self, env: Env) -> Env:
        ref = self.setup(reference=True)
        for step in sorted(env.executed, key=lambda s: s.index):
            self._ingest(ref, step.name, step.data)
        return ref

    def verify(self, env: Env, reference: Env, tally: Tally) -> None:
        """A seeded post-run query sample over the final corpus."""
        for query in self.corpus.sample_queries(env.lake.datasets()):
            _compare(tally, " ".join(map(str, query)),
                     _answer(env.lake, query, QUERY_K),
                     _answer(reference.lake, query, QUERY_K))


# -- serving_mixed ------------------------------------------------------------


#: generous quotas: admission never sheds this workload's traffic
SERVING_QUOTA = TenantQuota(max_in_flight=64, requests_per_sec=1_000_000.0,
                            max_result_rows=1_000_000)


class ServingMixed(Workload):
    """Two tenants behind a ``LakeServer``; one closed-loop client.

    The traced run adds a short open-loop probe at a fixed rate (about a
    quarter of what the server sustains on the reference host) to report
    how late the generator runs and the latency it sees.
    """

    name = "serving_mixed"
    clients = 1
    probe_rate = 50.0
    traced_ops = (400, 60)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.corpus = serving_corpus(seed, self.shape)

    def setup(self, reference: bool = False) -> Env:
        env = Env(DataLake(cache=False) if reference else DataLake())
        for tenant in TENANTS:
            for name, payload, fmt in self.corpus.datasets[tenant]:
                qualified = qualify(tenant, name)
                if isinstance(payload, Table):
                    # the indexes key tables by the table's own name
                    payload = Table(qualified, payload.columns)
                env.lake.ingest(Dataset(qualified, payload_copy(payload),
                                        format=fmt))
                env.count_ingest(payload)
        if reference:
            return env
        env.server = LakeServer(env.lake, workers=2,
                                default_quota=SERVING_QUOTA)
        for tenant in TENANTS:
            token = env.server.register_tenant(tenant)
            env.sessions[tenant] = session = env.server.connect(token)
            # one request of each read kind warms indexes and the pool
            query, _ = self.corpus.sql[tenant][0]
            for response in (
                    session.sql(query),
                    session.fetch(sorted(self.corpus.fetch[tenant])[0]),
                    session.discover(kind="keyword",
                                     keywords=self.corpus.keywords[0])):
                response.raise_for_status()
        env.lake.query_cache.clear()
        return env

    def schedule(self, length: int) -> List[Any]:
        return self.corpus.schedule(length)

    def run_op(self, env: Env, op: Any, tally: Tally,
               due: Optional[float] = None) -> None:
        kind, tenant = op[0], op[1]
        session = env.sessions[tenant]
        started = time.perf_counter() if due is None else due
        if kind == "sql":
            response = session.sql(op[2])
        elif kind == "fetch":
            response = session.fetch(op[2])
        elif kind == "keyword":
            response = session.discover(kind="keyword", keywords=op[2],
                                        k=QUERY_K)
        else:
            response = session.ingest(op[2], op[3])
        tally.op(kind, (time.perf_counter() - started) * 1000.0)
        if not response.ok:
            tally.fail(f"{kind} {op[2]!r}: {response.error_type}: "
                       f"{response.error}")
            return
        if kind == "sql" and len(response.value["rows"]) != op[3]:
            tally.fail(f"sql {op[2]!r}: {len(response.value['rows'])} rows, "
                       f"oracle {op[3]}")
        elif kind == "fetch" and (
                response.value.get("columns")
                != self.corpus.fetch[tenant][op[2]]):
            tally.fail(f"fetch {tenant}/{op[2]}: payload did not round-trip")
        elif kind == "ingest":
            env.count_ingest(op[3])
            with env.lock:
                env.executed.append(op)

    def reference(self, env: Env) -> Env:
        ref = self.setup(reference=True)
        for op in sorted(env.executed, key=lambda o: o[2]):
            ref.lake.ingest_table(qualify(op[1], op[2]), op[3])
        return ref

    def verify(self, env: Env, reference: Env, tally: Tally) -> None:
        """Served keyword answers equal the reference's, namespace-filtered."""
        for tenant in TENANTS:
            prefix = qualify(tenant, "")
            for term in self.corpus.sample_keywords():
                served = env.sessions[tenant].discover(
                    kind="keyword", keywords=term, k=QUERY_K)
                if not served.ok:
                    tally.fail(f"verify keyword {term!r}: {served.error}")
                    continue
                expected = [
                    {"table": hit.table[len(prefix):], "score": hit.score}
                    for hit in reference.lake.keyword_search(term, k=VISIBLE_K)
                    if hit.table.startswith(prefix)][:QUERY_K]
                _compare(tally, f"{tenant} keyword {term}", served.value,
                         expected)


WORKLOADS = {cls.name: cls for cls in (DiscoverStatic, IngestChurn, ServingMixed)}
