"""The lake benchmark: three seeded workloads over the public lake API.

``python3 lakebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints one
JSON result line; see ``lakebench/README.md`` for the workloads, the
metrics and the per-layer ledger.
"""
