"""The repo's benchmark: four calibrated RLHF workloads (see ``bench/README.md``).

Everything here drives ``src/repro`` through its public API only; nothing
under ``src/`` imports this package.
"""
