"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout and prints
one JSON result as its last line; ``--workload all`` runs the four in one
process.  See ``perfbench/README.md`` for why each workload exists, which
layers it loads and which end-to-end metric each layer metric should move.
"""
