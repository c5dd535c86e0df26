"""End-to-end, layer-attributed benchmark for the whole TEA stack.

See ``bench_e2e/README.md`` for the metric catalogue and
``BENCHMARK.json`` for the contract the numbers are gated on.
"""
