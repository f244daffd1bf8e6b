"""Benchmark of virtlprm's documented CLI: see ``perfbench/README.md``."""
