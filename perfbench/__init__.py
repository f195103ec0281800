"""End-to-end and per-layer benchmark of sirlimits; see README.md."""
