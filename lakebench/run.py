"""Run one lake-benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 lakebench/run.py --workload discover_static --seed 1 --seconds 15 --trace 0
    python3 lakebench/run.py --workload ingest_churn --seed 1 --seconds 15 --trace 1
    python3 lakebench/run.py --workload serving_mixed --seed 1 --seconds 2 --trace 0 --smoke

``--trace 0`` sets the lake up several times (``setup_s`` is the median),
then measures the workload for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` runs a fixed single-client schedule twice on two
identically set-up lakes, first plain and then with every layer call
wrapped by :class:`lakebench.ledger.Ledger`, and prints the per-layer
metrics.  ``--smoke`` shrinks every corpus.  Both modes check answers
against a serial uncached reference lake; the exit code is 0 only when
every answer was right and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_to_one_cpu() -> None:
    """Keep this process and every thread it starts on one CPU.

    With default settings the lake runs Python on one core at a time (the
    GIL), so one CPU is its whole capacity.  Unpinned, each serving request
    hands off between the client and a server worker on two CPUs, and the
    hand-off waits whenever the other CPU is busy elsewhere on a shared
    host.  On a 2-CPU VM, unpinned serving runs had about a quarter less
    throughput, up to twice the p95 latency, and varied far more.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for tests and quick checks")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"lakebench: no lake sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from lakebench import driver, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"lakebench: unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(workloads.WORKLOADS))}", file=sys.stderr)
        return 2
    workdir = ROOT / ".lakebench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke,
                                                      workdir)
        runner = driver.run_traced if args.trace else driver.run_untraced
        metrics, tally = runner(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # left alone while another run uses it
        except OSError:
            pass
    for failure in tally.failures[:20]:
        print(f"lakebench: FAILED {failure}", file=sys.stderr)
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
