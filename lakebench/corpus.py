"""Seeded corpora and op schedules for the three workloads.

Everything here is a pure function of the workload seed: the same seed
gives byte-identical datasets and the same op schedule, another seed gives
different values and a different schedule (table and column *names* come
from ``repro.datagen`` templates and repeat across seeds; their contents and
the order of queries do not).  Only ``random.Random(seed)`` streams are used.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.dataset import Table
from repro.datagen import (EvolvingDocumentGenerator, LakeGenerator,
                           LogGenerator, TextCorpusGenerator)
from repro.datagen.lakegen import VOCABULARIES
from repro.ingestion.datamaran import Datamaran
from repro.ml.text import tokenize
from repro.storage.formats import encode

#: ``k`` for visibility queries: large enough that the answer lists every
#: match, so "the answer contains the new dataset" is a pure correctness check
VISIBLE_K = 10_000

#: ``k`` for user queries in the discovery and serving mixes
QUERY_K = 5


def sub_seed(seed: int, tag: str) -> int:
    """A derived integer seed for one generator (string seeds hash stably)."""
    return random.Random(f"{seed}/{tag}").randrange(2 ** 31)


def zipf_order(rng: random.Random, pool: Sequence[Any]) -> List[Any]:
    """*pool* in a Zipf-skewed random order, without replacement.

    Items get weights ``1 / rank`` over a seeded shuffle; the order is a
    weighted sample without replacement (Efraimidis–Spirakis keys
    ``u ** (1 / w)``), so popular items tend to come first.
    """
    ranked = list(pool)
    rng.shuffle(ranked)
    keyed = [(rng.random() ** (rank + 1), rank) for rank in range(len(ranked))]
    keyed.sort(reverse=True)
    return [ranked[rank] for _, rank in keyed]


@dataclass(frozen=True)
class LakeShape:
    """How much of each ``repro.datagen`` source one corpus draws."""

    pools: int
    tables_per_pool: int
    rows: int = 120
    pool_size: int = 60
    noise_tables: int = 0
    json_collections: int = 0
    docs_per_epoch: int = 8
    log_files: int = 0
    log_lines: int = 120
    text_docs: int = 0


def lakegen_tables(seed: int, shape: LakeShape) -> List[Table]:
    """The lakegen share of a corpus: one dimension + facts per entity pool.

    ``pool_size`` is half of ``rows`` so the fact tables of one pool overlap
    well above Aurum's 0.5 content threshold: joinability is planted.
    """
    return LakeGenerator(seed).generate(
        num_pools=shape.pools, tables_per_pool=shape.tables_per_pool,
        rows_per_table=shape.rows, pool_size=shape.pool_size,
        noise_tables=shape.noise_tables).tables


def json_documents(seed: int, docs_per_epoch: int) -> List[Dict[str, Any]]:
    generated = EvolvingDocumentGenerator(seed).generate(
        docs_per_epoch=docs_per_epoch)
    return [document for _, document in generated.documents]


def fresh_fact(seed: int, pool: int, rows: int, pool_size: int,
               name: str) -> Table:
    """A new fact table of entity pool *pool*, renamed to *name*.

    Same column template and key domain as the base lake's facts of that
    pool, so it is joinable with the pool's dimension key and unionable
    with its sibling facts by construction.
    """
    tables = LakeGenerator(seed).generate(
        num_pools=pool + 1, tables_per_pool=1, rows_per_table=rows,
        pool_size=pool_size, noise_tables=0).tables
    fact = next(t for t in tables if t.name == f"fact_ent{pool}_0")
    return Table.from_columns(
        name, {column.name: list(column.values) for column in fact.columns})


def keyword_terms(tables: Sequence[Table]) -> List[str]:
    """Single-term keyword queries: schema tokens plus vocabulary values."""
    terms = set()
    for table in tables:
        for column in table.columns:
            terms.update(tokenize(column.name))
    for values in VOCABULARIES.values():
        terms.update(values)
    return sorted(term for term in terms if not term.isdigit())


class QueryStream:
    """Seeded targets for one query kind with a fixed repeat share.

    Every ``repeat_every``-th draw repeats an earlier target (Zipf-skewed
    towards the first issued, never one of the last ``gap`` issued so a
    repeat rarely races its own first run); the others take the next fresh
    target of a Zipf-ordered pool.  The cache hit ratio is therefore about
    ``1 / repeat_every`` by construction, whatever the seed.  With
    ``repeat_every=0`` every draw is fresh.
    """

    def __init__(self, rng: random.Random, pool: Sequence[Any],
                 repeat_every: int = 4, gap: int = 2):
        self._rng = rng
        self._order = zipf_order(rng, pool)
        self._repeat_every = repeat_every
        self._gap = gap
        self._issued: List[Any] = []
        self._draws = 0
        self._fresh = 0

    def draw(self) -> Any:
        self._draws += 1
        if (self._repeat_every
                and self._draws % self._repeat_every == 0
                and len(self._issued) > self._gap):
            candidates = self._issued[:-self._gap]
            weights = [1.0 / (rank + 1) for rank in range(len(candidates))]
            return self._rng.choices(candidates, weights=weights)[0]
        target = self._order[self._fresh % len(self._order)]
        self._fresh += 1
        self._issued.append(target)
        return target


# -- discover_static ----------------------------------------------------------

#: query kinds in schedule order.  Union, the slow kind, is one op in
#: twelve and never repeats, so every cycle holds exactly one union cache
#: miss: those 8% of ops hold the top 5%, and p95 is a union query
STATIC_CYCLE = ("joinable", "related", "keyword", "union",
                "joinable", "related", "keyword", "keyword",
                "joinable", "related", "keyword", "related")


@dataclass
class StaticCorpus:
    """A fixed tabular lake (lakegen + JSON + DATAMARAN log records)."""

    datasets: List[Tuple[str, Any, str]]       # (name, payload, format)
    joinable: List[Tuple[str, str]]
    related: List[str]
    keywords: List[str]
    union: List[str]

    def schedule(self, seed: int, length: int) -> List[Tuple[Any, ...]]:
        """*length* queries: kinds cycle, targets are seeded per kind."""
        rng = random.Random(f"{seed}/static/schedule")
        streams = {
            "joinable": QueryStream(rng, self.joinable),
            "related": QueryStream(rng, self.related),
            "keyword": QueryStream(rng, self.keywords),
            "union": QueryStream(rng, self.union, repeat_every=0),
        }
        ops: List[Tuple[Any, ...]] = []
        for index in range(length):
            kind = STATIC_CYCLE[index % len(STATIC_CYCLE)]
            target = streams[kind].draw()
            if kind == "joinable":
                ops.append(("joinable", target[0], target[1]))
            else:
                ops.append((kind, target))
        return ops


def static_corpus(seed: int, shape: LakeShape) -> StaticCorpus:
    tables = lakegen_tables(sub_seed(seed, "static/lakegen"), shape)
    datasets: List[Tuple[str, Any, str]] = [
        (table.name, table, "table") for table in tables]
    for index in range(shape.json_collections):
        documents = json_documents(sub_seed(seed, f"static/json/{index}"),
                                   shape.docs_per_epoch)
        datasets.append((f"docs_{index:02d}", documents, "json"))
    extractor = Datamaran()
    for index in range(shape.log_files):
        log = LogGenerator(sub_seed(seed, f"static/log/{index}")).generate(
            num_lines=shape.log_lines)
        for table in extractor.to_tables(log.text, f"logrec_{index:02d}"):
            datasets.append((table.name, table, "table"))
            tables.append(table)
    return StaticCorpus(
        datasets=datasets,
        joinable=[(t.name, t.columns[0].name) for t in tables if t.columns],
        related=[name for name, _, _ in datasets],
        keywords=keyword_terms(tables),
        union=[t.name for t in tables if t.name.startswith("fact_")],
    )


# -- ingest_churn ------------------------------------------------------------

#: dataset shapes in step order: mostly new tables, one re-ingest and one
#: unstructured file (text and log alternate) per six steps
CHURN_CYCLE = ("csv", "json", "csv", "reingest", "csv", "unstructured")

#: visibility-query kinds for tabular steps, in rotation
TABLE_QUERY_ROTATION = ("joinable", "union", "keyword")


@dataclass
class ChurnStep:
    """One ingest plus the discovery query that must then find it."""

    index: int
    name: str
    data: bytes
    shape: str
    query: Tuple[Any, ...]


@dataclass
class ChurnCorpus:
    base: List[Tuple[str, bytes]]              # (name, raw bytes)
    pools: int
    shape: LakeShape
    seed: int
    base_tables: List[Table] = field(default_factory=list)

    def steps(self, count: int) -> List[ChurnStep]:
        """The first *count* steps of this seed's churn sequence."""
        return list(_churn_steps(self, count))

    def sample_queries(self, names: Sequence[str]) -> List[Tuple[Any, ...]]:
        """Seeded post-run queries compared against the reference lake."""
        rng = random.Random(f"{self.seed}/churn/sample")
        tabular = sorted(name for name in names
                         if not name.startswith(("churntext_", "churnlog_",
                                                 "text_", "log_")))
        dims = [(f"dim_ent{pool}", f"ent{pool}_id") for pool in range(self.pools)]
        queries: List[Tuple[Any, ...]] = []
        for table, column in rng.sample(dims, min(3, len(dims))):
            queries.append(("joinable", table, column))
        for name in rng.sample(tabular, min(4, len(tabular))):
            queries.append(("related", name))
        terms = keyword_terms(self.base_tables)
        for term in rng.sample(terms, min(3, len(terms))):
            queries.append(("keyword", term))
        facts = sorted(n for n in tabular if n.startswith("fact_"))
        queries.append(("union", rng.choice(facts)))
        return queries


def churn_corpus(seed: int, shape: LakeShape) -> ChurnCorpus:
    tables = lakegen_tables(sub_seed(seed, "churn/lakegen"), shape)
    base: List[Tuple[str, bytes]] = [
        (table.name, encode(table, "csv")) for table in tables]
    for index in range(shape.json_collections):
        documents = json_documents(sub_seed(seed, f"churn/json/{index}"),
                                   shape.docs_per_epoch)
        base.append((f"docs_{index:02d}", json.dumps(documents).encode()))
    for index in range(shape.log_files):
        log = LogGenerator(sub_seed(seed, f"churn/log/{index}")).generate(
            num_lines=shape.log_lines)
        base.append((f"log_{index:02d}", log.text.encode()))
    if shape.text_docs:
        corpus = TextCorpusGenerator(sub_seed(seed, "churn/text")).generate(
            num_docs=shape.text_docs)
        for index, name in enumerate(sorted(corpus.documents)):
            base.append((f"text_{index:02d}", corpus.documents[name].encode()))
    return ChurnCorpus(base=base, pools=shape.pools, shape=shape, seed=seed,
                       base_tables=tables)


def _table_query(kind: str, name: str, pool: int) -> Tuple[Any, ...]:
    if kind == "joinable":
        return ("joinable", f"dim_ent{pool}", f"ent{pool}_id")
    if kind == "union":
        sibling = f"fact_ent{pool}_0"
        if sibling == name:
            sibling = f"fact_ent{pool}_1"
        return ("union", sibling)
    return ("keyword", name)


def _churn_steps(corpus: ChurnCorpus, count: int) -> Iterator[ChurnStep]:
    seed, shape = corpus.seed, corpus.shape
    rng = random.Random(f"{seed}/churn/steps")
    pool_of: Dict[str, int] = {}   # churn table -> its entity pool
    table_steps = 0
    unstructured = 0
    for index in range(count):
        kind = CHURN_CYCLE[index % len(CHURN_CYCLE)]
        step_seed = sub_seed(seed, f"churn/step/{index}")
        if kind in ("csv", "reingest"):
            if kind == "csv" or not pool_of:
                pool = rng.randrange(corpus.pools)
                name = f"churn_{index:04d}"
                pool_of[name] = pool
            else:
                name = rng.choice(sorted(pool_of))
                pool = pool_of[name]
            table = fresh_fact(step_seed, pool, shape.rows, shape.pool_size,
                               name)
            query_kind = TABLE_QUERY_ROTATION[table_steps % len(TABLE_QUERY_ROTATION)]
            table_steps += 1
            yield ChurnStep(index, name, encode(table, "csv"), kind,
                            _table_query(query_kind, name, pool))
        elif kind == "json":
            name = f"churnjson_{index:04d}"
            documents = json_documents(step_seed, 4)
            yield ChurnStep(index, name, json.dumps(documents).encode(), kind,
                            ("keyword", name))
        else:
            if unstructured % 2 == 0:
                name = f"churntext_{index:04d}"
                text = TextCorpusGenerator(step_seed).generate(num_docs=1)
                data = next(iter(text.documents.values())).encode()
            else:
                name = f"churnlog_{index:04d}"
                data = LogGenerator(step_seed).generate(num_lines=40).text.encode()
            unstructured += 1
            yield ChurnStep(index, name, data, kind, ("catalog", name))


# -- serving_mixed -----------------------------------------------------------

TENANTS = ("acme", "globex")

#: op positions: one ingest every ``INGEST_EVERY`` requests and one keyword
#: discovery every ``KEYWORD_EVERY``; fixed positions keep each run's share
#: of index refreshes the same.  Of the rest, ``SQL_SHARE`` are SQL queries
#: and the others fetches, so the median request is a SQL query.
INGEST_EVERY = 400
KEYWORD_EVERY = 25
SQL_SHARE = 0.75


@dataclass
class ServingCorpus:
    """Per-tenant relational + document datasets with precomputed oracles."""

    datasets: Dict[str, List[Tuple[str, Any, str]]]
    sql: Dict[str, List[Tuple[str, int]]]           # (query, row-count oracle)
    fetch: Dict[str, Dict[str, Dict[str, List[Any]]]]  # name -> column oracle
    keywords: List[str]
    seed: int
    shape: LakeShape

    def schedule(self, length: int) -> List[Tuple[Any, ...]]:
        rng = random.Random(f"{self.seed}/serving/schedule")
        fetchable = {tenant: sorted(self.fetch[tenant]) for tenant in TENANTS}
        ops: List[Tuple[Any, ...]] = []
        ingests = 0
        for index in range(length):
            if index % INGEST_EVERY == INGEST_EVERY // 2:
                kind = "ingest"
            elif index % KEYWORD_EVERY == KEYWORD_EVERY // 2:
                kind = "keyword"
            else:
                kind = "sql" if rng.random() < SQL_SHARE else "fetch"
            tenant = rng.choice(TENANTS)
            if kind == "sql":
                query, oracle = rng.choice(self.sql[tenant])
                ops.append(("sql", tenant, query, oracle))
            elif kind == "fetch":
                ops.append(("fetch", tenant, rng.choice(fetchable[tenant])))
            elif kind == "keyword":
                ops.append(("keyword", tenant, rng.choice(self.keywords)))
            else:
                name = f"live_{ingests:04d}"
                table = fresh_fact(sub_seed(self.seed, f"serving/live/{ingests}"),
                                   0, 8, 8, name)
                data = {column.name: list(column.values) for column in table.columns}
                ops.append(("ingest", tenant, name, data))
                ingests += 1
        return ops

    def sample_keywords(self) -> List[str]:
        rng = random.Random(f"{self.seed}/serving/sample")
        return rng.sample(self.keywords, min(4, len(self.keywords)))


def serving_corpus(seed: int, shape: LakeShape) -> ServingCorpus:
    datasets: Dict[str, List[Tuple[str, Any, str]]] = {}
    sql: Dict[str, List[Tuple[str, int]]] = {}
    fetch: Dict[str, Dict[str, Dict[str, List[Any]]]] = {}
    all_tables: List[Table] = []
    for tenant in TENANTS:
        tables = lakegen_tables(sub_seed(seed, f"serving/{tenant}/lakegen"), shape)
        all_tables.extend(tables)
        datasets[tenant] = [(table.name, table, "table") for table in tables]
        sql[tenant] = _sql_oracles(
            [table for table in tables if table.name.startswith("fact_")])
        fetch[tenant] = {table.name: {c.name: list(c.values) for c in table.columns}
                         for table in tables}
        for index in range(shape.json_collections):
            name = f"docs_{index:02d}"
            documents = json_documents(
                sub_seed(seed, f"serving/{tenant}/json/{index}"),
                shape.docs_per_epoch)
            datasets[tenant].append((name, documents, "json"))
            view = Table.from_records(name, documents)
            fetch[tenant][name] = {c.name: list(c.values) for c in view.columns}
    return ServingCorpus(datasets=datasets, sql=sql, fetch=fetch,
                         keywords=keyword_terms(all_tables), seed=seed,
                         shape=shape)


#: filter thresholds per fact table; with F facts a tenant has
#: ``SQL_LEVELS * F`` queries whose selectivities are spread evenly over (0, 1)
SQL_LEVELS = 5


def _sql_oracles(facts: Sequence[Table]) -> List[Tuple[str, int]]:
    """Filters on each fact's metric column, and their row counts.

    The queries return evenly spread shares of their table, half of it on
    average.  Spread costs make SQL latencies continuous rather than one
    spike, so the run's median moves smoothly with the host's speed
    instead of jumping between a fast and a slow value.
    """
    slots = SQL_LEVELS * len(facts)
    queries = []
    for position, table in enumerate(facts):
        column = next(c for c in table.columns if c.name.startswith("metric_"))
        ordered = sorted(column.values)
        for level in range(SQL_LEVELS):
            share = (level * len(facts) + position + 0.5) / slots
            threshold = ordered[int((1.0 - share) * len(ordered))]
            oracle = sum(1 for value in column.values if value >= threshold)
            queries.append((f"SELECT * FROM {table.name} "
                            f"WHERE {column.name} >= {threshold!r}", oracle))
    return queries


def payload_copy(payload: Any) -> Any:
    """A per-lake copy of a JSON payload (tables are shared read-only)."""
    if isinstance(payload, list):
        return [dict(document) for document in payload]
    return payload


def count_columns(payload: Any) -> Optional[int]:
    """Columns a tabular payload contributes to the indexes, else ``None``."""
    if isinstance(payload, Table):
        return payload.width
    if isinstance(payload, dict):  # {column: values}, the serving ingest body
        return len(payload)
    if isinstance(payload, list) and all(isinstance(d, dict) for d in payload):
        return len(Table.from_records("probe", payload).columns)
    return None
