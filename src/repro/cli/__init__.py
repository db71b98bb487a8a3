"""Command-line interface (``repro-b3``): :func:`repro.cli.main.main`.

Nothing is imported here, so ``python -m repro.cli.main`` runs the module
once, as ``__main__``, without importing it first.
"""
