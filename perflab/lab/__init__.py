"""perflab — the repo's benchmark: five workloads, two clocks, per-layer attribution.

Everything here measures from outside the engine: public
``Engine``/``Database``/``TpccDriver``/``Session`` calls, ``env.stats``,
``Latch.stats()``, pool/store counters and a ``cProfile`` pass. See
``perflab/README.md`` for what each number means and which layer should
move which end-to-end metric.
"""
