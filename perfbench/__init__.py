"""The repository benchmark: four workloads over the public API of
``repro.threshold``, ``repro.ft``, ``repro.pauliframe`` and ``repro.codes``.
Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``)."""
