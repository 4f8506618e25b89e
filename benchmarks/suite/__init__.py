"""The repository's one benchmark: four workloads, six end-to-end
metrics, and a per-layer traced run.  See README.md in this directory;
``BENCHMARK.json`` at the repository root names the command."""
