"""Host-time benchmark for ADA; entry point ``perfbench/run.py``."""
