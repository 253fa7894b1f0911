"""Benchmark of the knotfloer census and surgery computations; see README.md."""
