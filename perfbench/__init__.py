"""perfbench: the end-to-end and per-layer performance benchmark.

Four workloads drive the simulator through its public entry points and
report host speed (instructions and cells per second, per-instruction
time and its tail, set-up time, memory) beside the simulated guest
cycles and energy, checking every cell's output. A separate traced run
splits each cell's host time by layer. See ``perfbench/README.md``.
"""
