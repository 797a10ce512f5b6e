"""Every lake configuration answers discovery exactly like the reference.

The lake has one discovery path, so its contract is one answer per
query: whatever ``cache=`` and the maintenance mode are set to, every
discovery answer (joinable / related / union / keyword) equals the
answer of a sync, uncached ``DataLake(cache=False)``, element for
element and score for score.  These tests pin that for the default lake
(``DataLake()``) and for async maintenance at {1, 2, 8} scheduler
workers, across randomized generated lakes (hypothesis over the
generator seed) and the degenerate lakes (empty, single table).
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.errors import DatasetNotFound
from repro.datagen import LakeGenerator
from repro.core.lake import DataLake

#: scheduler worker counts for the async-maintenance lake under test
WORKER_COUNTS = (1, 2, 8)


def _ingest_workload(lake, workload):
    for table in workload.tables:
        lake.ingest(Dataset(name=table.name, payload=table, format="table"))
    return lake


@contextmanager
def _lakes(workers, build=lambda lake: lake, reference=None):
    """The uncached reference and the lakes under test, each *build*-filled.

    A prebuilt *reference* is reused: it is sync and uncached, so queries
    leave it unchanged.
    """
    if reference is None:
        reference = build(DataLake(cache=False))
    candidates = [build(DataLake()),
                  build(DataLake(async_maintenance=True,
                                 maintenance_workers=workers))]
    try:
        yield reference, candidates
    finally:
        for lake in candidates:
            lake.close()


def _workload_lakes(workload, workers, reference=None):
    return _lakes(workers, lambda lake: _ingest_workload(lake, workload),
                  reference)


def _query_targets(workload):
    """A dimension table, a fact table, and one joinable column each."""
    tables = workload.tables
    names = [table.name for table in tables]
    picks = [names[0], names[len(names) // 2], names[-1]]
    columns = {table.name: table.column_names[0] for table in tables}
    return picks, columns


def _assert_equivalent(reference, lake, workload, k=5):
    picks, columns = _query_targets(workload)
    for name in picks:
        assert (lake.discover_related(name, k=k)
                == reference.discover_related(name, k=k))
        assert (lake.discover_union(name, k=k)
                == reference.discover_union(name, k=k))
        assert (lake.discover_joinable(name, columns[name], k=k)
                == reference.discover_joinable(name, columns[name], k=k))
    for query in ("label", "ent0 id", picks[0].replace("_", " ")):
        assert (lake.keyword_search(query, k=k)
                == reference.keyword_search(query, k=k))


@pytest.fixture(scope="module")
def module_workload():
    return LakeGenerator(seed=23).generate(
        num_pools=3, tables_per_pool=3, rows_per_table=60, pool_size=90,
        noise_tables=2)


@pytest.fixture(scope="module")
def module_reference(module_workload):
    return _ingest_workload(DataLake(cache=False), module_workload)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_all_query_types_match_serial(module_workload, module_reference,
                                      workers):
    with _workload_lakes(module_workload, workers,
                         module_reference) as (reference, lakes):
        for lake in lakes:
            _assert_equivalent(reference, lake, module_workload)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_cached_answers_match_serial_on_repeat(module_workload,
                                              module_reference, workers):
    name = module_workload.tables[0].name
    with _workload_lakes(module_workload, workers,
                         module_reference) as (reference, lakes):
        expected = reference.discover_related(name, k=7)
        for lake in lakes:
            first = lake.discover_related(name, k=7)
            again = lake.discover_related(name, k=7)  # served from the cache
            assert first == again == expected
            assert lake.query_cache.stats()["hits"] >= 1

            # a cached answer is a copy: mutating it must not corrupt the cache
            if again:
                again.append(("corrupted", -1.0))
                assert lake.discover_related(name, k=7) == first


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_discover_batch_matches_individual_queries(module_workload,
                                                  module_reference, workers):
    picks, columns = _query_targets(module_workload)
    queries = []
    for name in picks:
        queries.append(("related", name, 5))
        queries.append(("union", name, 5))
        queries.append(("joinable", name, columns[name], 5))
    queries.append(("keyword", "label", 5))
    with _workload_lakes(module_workload, workers,
                         module_reference) as (reference, lakes):
        expected = []
        for name in picks:
            expected.append(reference.discover_related(name, k=5))
            expected.append(reference.discover_union(name, k=5))
            expected.append(reference.discover_joinable(name, columns[name], k=5))
        expected.append(reference.keyword_search("label", k=5))
        for lake in lakes:
            assert lake.discover_batch(queries) == expected


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_randomized_lakes_equivalent(seed):
    workload = LakeGenerator(seed=seed).generate(
        num_pools=2, tables_per_pool=2, rows_per_table=40, pool_size=60,
        noise_tables=1)
    with _workload_lakes(workload, workers=8) as (reference, lakes):
        for lake in lakes:
            _assert_equivalent(reference, lake, workload, k=4)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_empty_lake(workers):
    with _lakes(workers) as (reference, lakes):
        for lake in [reference, *lakes]:
            assert lake.discover_related("ghost") == []
            assert lake.keyword_search("anything") == []
            with pytest.raises(DatasetNotFound):
                lake.discover_joinable("ghost", "id")
            with pytest.raises(DatasetNotFound):
                lake.discover_union("ghost")
            assert lake.discover_batch([]) == []


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_single_table_lake(workers):
    def build(lake):
        lake.ingest_table("solo", {"id": [1, 2, 3], "city": ["a", "b", "c"]})
        return lake

    with _lakes(workers, build) as (reference, lakes):
        for lake in [reference, *lakes]:
            assert lake.discover_related("solo") == []
            assert lake.discover_union("solo") == []
            assert lake.discover_joinable("solo", "id") == []
            assert (lake.keyword_search("city")
                    == reference.keyword_search("city"))
            assert lake.keyword_search("city")[0].table == "solo"


def test_async_mode_equivalent(module_workload, module_reference):
    """Queries between async ingests move the delta batch boundaries;
    discovery is partition-invariant, so the answers still match."""
    tables = module_workload.tables
    lake = DataLake(async_maintenance=True)
    try:
        for index, table in enumerate(tables):
            lake.ingest(Dataset(name=table.name, payload=table, format="table"))
            if index % 3 == 0:
                lake.discover_related(tables[0].name)  # quiesces mid-load
        _assert_equivalent(module_reference, lake, module_workload)
    finally:
        lake.close()
