"""The traced run's per-layer ledger, recorded from outside the program.

:class:`Ledger` replaces public functions of the lake's layers (class or
module attributes) with timing wrappers and puts the originals back when
the run ends.  For every wrapped function it counts calls, total wall time
and *self* time: a call's time minus the time of wrapped calls nested
inside it on the same thread.  Calls a function makes on other threads
(server workers, fan-out pools) are not nested and are not subtracted.

Only attribute lookups made at call time see a wrapper: code that bound
the function at import (``from module import fn`` at module top) keeps
calling the original and is not counted.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core.lake import DataLake
from repro.discovery.aurum import Aurum
from repro.discovery.profiles import TableProfiler
from repro.discovery.table_union import TableUnionSearch
from repro.exploration.keyword import KeywordSearch
from repro.exploration.sql import SqlEngine
from repro.ingestion.gemms import GemmsExtractor
from repro.ml.embeddings import HashedEmbedder
from repro.ml.minhash import MinHasher
from repro.obs.context import current_context
from repro.organization.goods_catalog import GoodsCatalog
from repro.runtime.incremental import IncrementalIndexMaintainer
from repro.serving.server import LakeServer
from repro.storage import formats
from repro.storage.object_store import ObjectStore
from repro.storage.polystore import Polystore

#: (metric prefix, owner, attribute) of every wrapped public call; the
#: prefix is ``<layer module>.<function>``
LAYER_CALLS: Tuple[Tuple[str, Any, str], ...] = (
    ("storage.polystore.store", Polystore, "store"),
    ("storage.polystore.fetch", Polystore, "fetch"),
    ("storage.object_store.put_bytes", ObjectStore, "put_bytes"),
    ("storage.formats.decode", formats, "decode"),
    ("ingestion.gemms.extract", GemmsExtractor, "extract"),
    ("organization.goods_catalog.register", GoodsCatalog, "register"),
    ("runtime.incremental.refresh", IncrementalIndexMaintainer, "refresh"),
    ("discovery.profiles.profile_column", TableProfiler, "profile_column"),
    ("ml.minhash.signature", MinHasher, "signature"),
    ("ml.embeddings.embed_set", HashedEmbedder, "embed_set"),
    ("discovery.aurum.build_delta", Aurum, "build_delta"),
    ("discovery.aurum.joinable", Aurum, "joinable"),
    ("discovery.aurum.related_tables", Aurum, "related_tables"),
    ("exploration.keyword.search", KeywordSearch, "search"),
    ("exploration.keyword.add_table", KeywordSearch, "add_table"),
    ("discovery.table_union.add_table", TableUnionSearch, "add_table"),
    ("discovery.table_union.table_unionability", TableUnionSearch,
     "table_unionability"),
    ("discovery.table_union.top_k", TableUnionSearch, "top_k"),
    ("exploration.sql.execute", SqlEngine, "execute"),
    ("serving.serve", LakeServer, "serve"),
)

#: lake entry points a serving handler calls; timed (not reported) so the
#: serving overhead of a request can be computed as serve minus lake time
LAKE_CALLS: Tuple[Tuple[str, Any, str], ...] = (
    ("lake.sql", DataLake, "sql"),
    ("lake.dataset", DataLake, "dataset"),
    ("lake.keyword_search", DataLake, "keyword_search"),
    ("lake.ingest_table", DataLake, "ingest_table"),
)


@dataclass
class _Frame:
    name: str
    child_ms: float = 0.0


class Ledger:
    """Wraps layer functions for the duration of a ``with`` block.

    Counters are exact: with one client the same seed gives the same call
    counts on every run.  Times are wall-clock ``perf_counter`` intervals.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.calls: Dict[str, int] = {}
        self.ms: Dict[str, float] = {}
        self.self_ms: Dict[str, float] = {}
        #: (outer, inner) -> calls of *inner* made while *outer* was active
        self.nested: Dict[Tuple[str, str], int] = {}
        self.put_bytes_user = 0
        self.delta_tables = 0
        self.sql_rows = 0
        self.serve_overhead_ms: List[float] = []
        self.shed = 0
        self._lake_ms: Dict[str, float] = {}

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Ledger":
        try:
            for name, owner, attr in LAYER_CALLS + LAKE_CALLS:
                self._wrap(name, owner, attr)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _wrap(self, name: str, owner: Any, attr: str) -> None:
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        on_return = self._HOOKS.get(name)
        ledger = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = ledger._stack()
            stack.append(_Frame(name))
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = (time.perf_counter() - started) * 1000.0
                frame = stack.pop()
                if stack:
                    stack[-1].child_ms += elapsed
                ledger._record(name, elapsed, elapsed - frame.child_ms, stack)
            if on_return is not None:
                on_return(ledger, args, kwargs, result, elapsed)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def installed() -> Dict[str, Any]:
        """The functions currently installed at every wrapped attribute."""
        return {name: vars(owner)[attr]
                for name, owner, attr in LAYER_CALLS + LAKE_CALLS}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, ms: float, self_ms: float,
                stack: List[_Frame]) -> None:
        outers = {frame.name for frame in stack}
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.ms[name] = self.ms.get(name, 0.0) + ms
            self.self_ms[name] = self.self_ms.get(name, 0.0) + self_ms
            for outer in outers:
                key = (outer, name)
                self.nested[key] = self.nested.get(key, 0) + 1

    # hooks run after a wrapped call returns: (args, kwargs, result, ms)

    def _on_put_bytes(self, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                      result: Any, ms: float) -> None:
        data = args[3] if len(args) > 3 else kwargs["data"]
        with self._lock:
            self.put_bytes_user += len(data)

    def _on_refresh(self, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                    result: Any, ms: float) -> None:
        with self._lock:
            self.delta_tables += int(result)

    def _on_sql(self, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                result: Any, ms: float) -> None:
        with self._lock:
            self.sql_rows += len(result)

    def _on_lake_call(self, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                      result: Any, ms: float) -> None:
        context = current_context()
        if context is None:
            return
        with self._lock:
            rid = context.request_id
            self._lake_ms[rid] = self._lake_ms.get(rid, 0.0) + ms

    def _on_serve(self, args: Tuple[Any, ...], kwargs: Dict[str, Any],
                  result: Any, ms: float) -> None:
        with self._lock:
            if result.shed:
                self.shed += 1
            lake_ms = self._lake_ms.pop(result.request_id, 0.0)
            self.serve_overhead_ms.append(ms - lake_ms)

    _HOOKS: Dict[str, Callable[..., None]] = {
        "storage.object_store.put_bytes": _on_put_bytes,
        "runtime.incremental.refresh": _on_refresh,
        "exploration.sql.execute": _on_sql,
        "serving.serve": _on_serve,
        "lake.sql": _on_lake_call,
        "lake.dataset": _on_lake_call,
        "lake.keyword_search": _on_lake_call,
        "lake.ingest_table": _on_lake_call,
    }

    # -- snapshots -----------------------------------------------------------

    def count(self, name: str) -> int:
        with self._lock:
            return self.calls.get(name, 0)

    def nested_count(self, outer: str, inner: str) -> int:
        with self._lock:
            return self.nested.get((outer, inner), 0)

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """``<layer>.<fn>.calls|ms|self_ms`` for every wrapped layer call."""
        out: Dict[str, Tuple[float, str]] = {}
        with self._lock:
            for name, _, _ in LAYER_CALLS:
                out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
                out[f"{name}.ms"] = (self.ms.get(name, 0.0), "ms")
                out[f"{name}.self_ms"] = (self.self_ms.get(name, 0.0), "ms")
        return out
