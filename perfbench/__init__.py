"""Seeded benchmark for riccicrit; ``perfbench/run.py`` is the entry point."""
