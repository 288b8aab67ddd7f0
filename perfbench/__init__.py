"""Whole-stack benchmark of the LoRAFusion reproduction.

``perfbench/run.py`` is the one command; ``workloads`` builds the three
workloads, ``tracing`` attributes a traced run's wall time to the layers
of ``src/repro``.  See ``perfbench/README.md``.
"""
