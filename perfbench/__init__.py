"""End-to-end and per-layer benchmark of the becck package (see README.md)."""
