"""The repository's benchmark: seeded workloads, correctness checks and
end-to-end metrics, plus a traced run that attributes time to layers.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
