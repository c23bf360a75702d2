"""satiot benchmark: workloads, seeded inputs, tracer (see README.md)."""
