"""Designer-session benchmark: end-to-end metrics and a per-layer trace.

See ``README.md`` in this directory; ``run.py`` runs one workload and
``python -m benchmarks.session`` runs, compares and repeats sets.
"""
