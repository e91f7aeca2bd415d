"""Outside-in benchmark for the G-PBFT simulator (see perfbench/README.md)."""
