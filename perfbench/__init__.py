"""Benchmark for navier-norms: three closed-loop workloads driven through the
public CLI and library entry points, with a separate traced run that times
each layer's public functions from outside the package.

Run ``python3 perfbench/run.py --help`` from the repository root; the
benchmark's own tests run with ``python3 -m pytest perfbench/tests``.
"""
