"""[exploration] The query cache vs recomputing every answer.

A 200-table generated lake answers an identical repeated mixed discovery
stream (related / union / joinable / keyword via ``discover_batch``)
under two configurations: ``cache=False`` and the shipping default
(``cache=True``).  Both answer every query serially on the calling
thread; the only difference is the epoch-keyed query cache.  The claims
to reproduce:

- **the cache pays** — >= 2x wall-clock speedup on the repeated stream
  with a cache hit rate above 0.5;
- **no answer drift** — the measured cached stream returns exactly the
  uncached answers (the equivalence suite proves this exhaustively; the
  bench re-asserts it on the timed stream so the artifact cannot
  describe two different workloads).

Results land in ``BENCH_parallel.json``.
"""

import pathlib

from repro.bench.parallel import ROUNDS, SEED, build_artifact, run_bench
from repro.bench.results import write_bench_json
from repro.bench.reporting import render_table, report_experiment

from conftest import add_report

RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"


def test_bench_parallel_discovery(benchmark):
    report = benchmark.pedantic(run_bench, iterations=1, rounds=1)

    cache = report["cached"]["cache"]
    rendered = render_table(
        f"Query cache: {report['tables']} tables, "
        f"{report['queries_per_round']} queries x {report['rounds']} rounds "
        f"(seed {report['seed']})",
        ["config", "seconds", "speedup", "cache hits", "hit rate"],
        [
            ["uncached (cache=False)", report["uncached"]["seconds"],
             "1.00", "-", "-"],
            ["cached (cache=True)", report["cached"]["seconds"],
             f"{report['speedup']:.2f}", cache["hits"],
             f"{cache['hit_rate']:.2f}"],
        ],
    )
    rendered += "\n" + report_experiment(
        "exploration",
        ">= 2x speedup on the repeated stream with cache hit rate > 0.5, "
        "answers identical to uncached",
        f"speedup x{report['speedup']:.2f}, "
        f"hit_rate={cache['hit_rate']:.2f}, "
        f"answers_equal={report['answers_equal']}",
    )
    add_report("BENCH_parallel", rendered)
    write_bench_json("parallel", build_artifact(report))

    # -- acceptance -----------------------------------------------------------
    assert report["tables"] == 200
    assert report["rounds"] == ROUNDS
    assert report["seed"] == SEED
    assert report["speedup"] >= 2.0
    assert cache["hit_rate"] > 0.5
    assert report["answers_equal"], "cached answers drifted from uncached"
