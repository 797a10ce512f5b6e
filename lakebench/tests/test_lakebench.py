"""The lake benchmark's own tests: smoke runs, metric contract, ledger.

Run from the repository root::

    python3 -m pytest lakebench/tests -q

Every run here uses ``--smoke`` corpora, so the whole file takes well under
a minute on two cores.
"""

from __future__ import annotations

import ast
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from lakebench import driver  # noqa: E402
from lakebench.corpus import (churn_corpus, serving_corpus,  # noqa: E402
                              static_corpus)
from lakebench.ledger import Ledger  # noqa: E402
from lakebench.workloads import SHAPES, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(workload: str, seed: int, trace: int, cwd: pathlib.Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "lakebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _contract(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced smoke runs per workload, same seed."""
    return {name: [_result(_run(name, 5, 1)) for _ in range(2)]
            for name in WORKLOAD_NAMES}


def test_benchmark_json_names_every_workload():
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_matches_contract(workload):
    result = _result(_run(workload, 3, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == _contract("end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_metrics_match_contract(traced_runs):
    for runs in traced_runs.values():
        for result in runs:
            assert result["correct"] is True and result["failed"] == 0
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            assert printed == _contract("per_layer")


def test_traced_counts_repeat_exactly(traced_runs):
    for name, (first, second) in traced_runs.items():
        counts = {metric for metric, spec in first["metrics"].items()
                  if spec["unit"] in ("count", "bytes")}
        assert counts, name
        for metric in sorted(counts):
            assert (first["metrics"][metric]["value"]
                    == second["metrics"][metric]["value"]), (name, metric)


def test_traced_ledger_shows_known_costs(traced_runs):
    static = traced_runs["discover_static"][0]["metrics"]
    # union search embeds every query column once per candidate table
    assert static["discovery.table_union.embed_set_per_query"]["value"] > 1
    assert static["discovery.profiles.profiles_per_new_column"]["value"] == 1.0
    churn = traced_runs["ingest_churn"][0]["metrics"]
    # each union query after an ingest rebuilds the whole union index
    assert churn["discovery.table_union.add_table_per_ingest"]["value"] > 1
    assert churn["storage.object_store.bytes_written"]["value"] > 0
    serving = traced_runs["serving_mixed"][0]["metrics"]
    assert serving["serving.serve.calls"]["value"] > 0
    assert serving["exploration.sql.execute.calls"]["value"] > 0


def test_every_wrapped_function_is_restored(tmp_path):
    before = Ledger.installed()
    workload = WORKLOADS["ingest_churn"](2, True, tmp_path)
    metrics, tally = driver.run_traced(workload, 1.0)
    assert not tally.failures
    assert metrics["runtime.incremental.refresh.calls"][0] > 0
    after = Ledger.installed()
    assert after.keys() == before.keys()
    for name in before:
        assert after[name] is before[name], name


def test_ledger_restores_on_error():
    before = Ledger.installed()
    with pytest.raises(RuntimeError):
        with Ledger():
            assert Ledger.installed() != before
            raise RuntimeError("boom")
    assert Ledger.installed() == before


def test_same_seed_same_inputs_other_seed_different():
    for workload, build in (("discover_static", static_corpus),
                            ("ingest_churn", churn_corpus),
                            ("serving_mixed", serving_corpus)):
        shape = SHAPES[workload]["smoke"]
        first, again, other = build(4, shape), build(4, shape), build(5, shape)
        if workload == "discover_static":
            assert first.schedule(4, 50) == again.schedule(4, 50)
            assert first.schedule(4, 50) != other.schedule(5, 50)
            assert repr(first.datasets) == repr(again.datasets)
            assert repr(first.datasets) != repr(other.datasets)
        elif workload == "ingest_churn":
            assert first.base == again.base and first.base != other.base
            steps = [(s.name, s.data, s.query) for s in first.steps(12)]
            assert steps == [(s.name, s.data, s.query) for s in again.steps(12)]
            assert steps != [(s.name, s.data, s.query) for s in other.steps(12)]
        else:
            assert first.schedule(200) == again.schedule(200)
            assert first.schedule(200) != other.schedule(200)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOAD_NAMES[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_lakelint_is_clean():
    # with src/: the whole-tree rules check their manifests against it
    proc = subprocess.run(
        [sys.executable, "tools/lakelint.py", "src", *BENCHMARK["paths"]],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_only_seeded_rng_and_interval_timing():
    """The ``bench-determinism`` idiom, applied to the benchmark's files."""
    from repro.analysis.rules.determinism import BenchDeterminismRule
    from repro.analysis.walker import parse_module

    rule = BenchDeterminismRule()
    findings = []
    for path in sorted((ROOT / "lakebench").rglob("*.py")):
        module = parse_module(path, str(path.relative_to(ROOT)))
        findings.extend(rule.check_module(module))
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Attribute) and node.attr == "monotonic"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "time"):
                findings.append(f"{module.rel}:{node.lineno} time.monotonic")
    assert findings == []
