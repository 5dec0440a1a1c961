"""End-to-end and per-layer benchmark of the CAF 2.0 runtime (see README.md)."""
