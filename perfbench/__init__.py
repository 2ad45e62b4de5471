"""The repository benchmark: engine cells, the fig4 sweep and a service mix.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload cell-approx --seed 1 --seconds 40 --trace 0

See ``perfbench/README.md`` for the workloads, the metric reference and
the output format.
"""
