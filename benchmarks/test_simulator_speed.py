"""Microbenchmarks of the simulator substrate itself.

These are true pytest-benchmark measurements (multiple rounds): how
fast the CPU core interprets, how fast the toolchain builds, and what
SwapRAM's native-hook machinery costs in host time. Useful to catch
performance regressions that would make the evaluation unbearably slow.
Every run here is *metrics-detached* -- ``board.emit`` stays
``None`` -- so these numbers are the zero-overhead guard for the
opt-in hooks in ``repro.obs`` and ``repro.metrics``. For persistent
trajectory numbers, use ``python -m repro bench snapshot`` instead.
"""

import pytest

try:
    import pytest_benchmark  # noqa: F401 -- provides the `benchmark` fixture
except ImportError:
    pytest.skip(
        "pytest-benchmark is not installed; these microbenchmarks need "
        "its `benchmark` fixture (pip install pytest-benchmark)",
        allow_module_level=True,
    )

from repro.bench import get_benchmark
from repro.core import build_swapram
from repro.toolchain import PLANS, build_baseline, compile_program, link

TIGHT_LOOP = """
int main(void) {
    unsigned acc = 0;
    for (unsigned i = 0; i < 2000; i++) acc += i;
    __debug_out(acc & 0xFFFF);
    return 0;
}
"""


def test_cpu_interpreter_throughput(benchmark):
    def run():
        board = build_baseline(TIGHT_LOOP, PLANS["unified"])
        return board.run().instructions

    instructions = benchmark(run)
    assert instructions > 10_000


def test_compile_and_link_throughput(benchmark):
    source = get_benchmark("dijkstra").source

    def build():
        return link(compile_program(source), PLANS["unified"])

    linked = benchmark(build)
    assert linked.image.total_code_size() > 1000


def test_swapram_build_throughput(benchmark):
    source = get_benchmark("crc").source

    def build():
        return build_swapram(source, PLANS["unified"])

    system = benchmark(build)
    assert system.meta.functions


def test_swapram_runtime_overhead_host_side(benchmark):
    """Host cost of a SwapRAM run vs its baseline (same program)."""
    source = get_benchmark("rc4").source

    def run():
        return build_swapram(source, PLANS["unified"]).run().instructions

    instructions = benchmark.pedantic(run, rounds=2, iterations=1)
    assert instructions > 50_000
