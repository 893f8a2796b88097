"""The N-way differential runner.

One generated program is executed under every configuration in a
matrix -- pure-Python reference, baseline board, SwapRAM across memory
plans x replacement policies x cache limits, and the block cache -- and
every observable is cross-checked against the reference:

* the debug-port word stream (the paper's bit-identical-output claim);
* the final contents of every mutable global (arrays and scalars), read
  back out of simulated memory by symbol;
* the runtime accounting invariants of :mod:`repro.difftest.invariants`;
* cycle-count sanity across cache sizes: a system given strictly more
  cache than another run of itself should not be decisively slower.

Outcomes are per-configuration: ``ok``, ``DNF`` (the program does not
fit that plan -- expected for the SRAM-resident plans on eviction-sized
programs, and recorded, never silently dropped), or a
:class:`Divergence`. A report with zero divergences is a pass.

Cycle monotonicity deliberately has tolerance built in: software
caching is not monotone in cache size in general (a once-called
function costs copy time it never earns back; FIFO-style policies admit
Belady-like anomalies), so only a decisive inversion -- the larger
cache slower by more than ``CYCLE_TOLERANCE`` -- is flagged, and as an
``anomaly`` note rather than a hard divergence unless it exceeds
``CYCLE_HARD_TOLERANCE``.
"""

from dataclasses import dataclass, field

from repro import systems
from repro.core.policy import POLICIES
from repro.difftest.generator import generate_program
from repro.asm.assembler import AssemblyError
from repro.blockcache.transform import BlockTransformError
from repro.core.transform import TransformError
from repro.machine.cpu import SimulationError
from repro.minic.codegen import CompileError
from repro.toolchain.linker import PLANS

#: Instruction bound per simulated run; generated programs finish in
#: well under 100k instructions, so hitting this means runaway code.
MAX_INSTRUCTIONS = 2_000_000

#: Larger-cache-slower ratios: below the soft bound nothing is said,
#: between the bounds an anomaly note is recorded, above the hard bound
#: the run diverges. Legitimate inversions up to ~2.2x occur on fuzzed
#: workloads (caching a once-called function is pure copy overhead;
#: FIFO replacement admits Belady-like anomalies), so the hard bound
#: only catches pathological blowups.
CYCLE_TOLERANCE = 1.10
CYCLE_HARD_TOLERANCE = 3.00


@dataclass(frozen=True)
class ExecConfig:
    """One execution configuration in the differential matrix: a
    :class:`~repro.systems.RunSpec` still missing its program."""

    kind: str  # a repro.systems name: 'baseline' | 'swapram' | 'blockcache'
    plan: str = "unified"
    policy: str = None
    cache_limit: int = None

    @property
    def name(self):
        parts = [self.kind, self.plan]
        if self.policy is not None:
            parts.append(self.policy)
        if self.cache_limit is not None:
            parts.append(f"limit{self.cache_limit}")
        return "/".join(parts)

    def spec(self, source):
        """The run of *source* under this configuration."""
        return systems.RunSpec(
            source,
            self.kind,
            label=self.name,
            policy=self.policy,
            cache_limit=self.cache_limit,
            plan=self.plan,
            max_instructions=MAX_INSTRUCTIONS,
        )


@dataclass
class Divergence:
    """One observed difference from the reference (or broken invariant)."""

    seed: int
    config: str
    kind: str  # 'debug' | 'memory' | 'invariant' | 'crash' | 'build' | 'generator'
    detail: str

    def __str__(self):
        return f"[seed {self.seed}] {self.config}: {self.kind}: {self.detail}"


@dataclass
class DiffReport:
    """Everything one differential run observed."""

    seed: int
    source: str
    outcomes: dict = field(default_factory=dict)  # config name -> 'ok'|'DNF'
    divergences: list = field(default_factory=list)
    anomalies: list = field(default_factory=list)  # soft cycle-order notes
    cycles: dict = field(default_factory=dict)  # config name -> total cycles
    results: dict = field(default_factory=dict)  # config name -> RunResult.as_dict()

    @property
    def ok(self):
        return not self.divergences

    def summary(self):
        ran = sum(1 for outcome in self.outcomes.values() if outcome == "ok")
        dnf = sum(1 for outcome in self.outcomes.values() if outcome == "DNF")
        if self.ok:
            note = f", {dnf} DNF" if dnf else ""
            return f"seed {self.seed}: ok ({ran} configs{note})"
        return (
            f"seed {self.seed}: {len(self.divergences)} divergence(s), "
            f"first: {self.divergences[0]}"
        )


def quick_matrix():
    """The bounded matrix for pytest smoke runs: one config per system
    family plus one cache-limited SwapRAM run for the cycle check."""
    return [
        ExecConfig("baseline", "unified"),
        ExecConfig("swapram", "unified", "queue"),
        ExecConfig("swapram", "unified", "queue", cache_limit=0x180),
        ExecConfig("blockcache", "unified"),
    ]


def full_matrix():
    """The full matrix: every plan for the baseline, every plan x policy
    for SwapRAM plus shrinking cache limits, and the block cache."""
    configs = [ExecConfig("baseline", plan) for plan in PLANS]
    for plan in ("unified", "standard"):
        for policy in POLICIES:
            configs.append(ExecConfig("swapram", plan, policy))
    for limit in (0x300, 0x180, 0xC0):
        configs.append(ExecConfig("swapram", "unified", "queue", cache_limit=limit))
    configs.append(ExecConfig("blockcache", "unified"))
    configs.append(ExecConfig("blockcache", "standard"))
    return configs


def corrupt_one_reloc(system):
    """Fault-injection helper: corrupt one piece of caching metadata.

    Preferred fault: skew the first relocation entry of the first
    function that has any by one word, so the next time the runtime
    caches that function it writes a branch target two bytes off --
    modelling a metadata-generation bug. Relocation entries only exist
    for intra-function absolute branches, which hand-written assembly
    has but mini-C compiled code never produces (the compiler emits
    only PC-relative branches), so on reloc-free binaries the fault
    falls back to the sibling metadata the relocation pass also feeds:
    the function table's size word, truncated by one word, so the next
    cache copy of that function loses its final instruction.

    Used by the tests to prove the runner actually detects corruption.
    """
    for func in system.meta.functions:
        if func.relocs:
            func.relocs[0].target_offset = (func.relocs[0].target_offset + 2) & 0xFFFF
            return True
    runtime = system.runtime
    memory = system.board.memory
    preferred = [f for f in system.meta.functions if f.name == "dispatch"]
    for func in preferred + list(system.meta.functions):
        size_addr = runtime.functab_base + 4 * func.func_id + 2
        size = memory.read_word(size_addr)
        if size >= 6:
            memory.write_word(size_addr, size - 2)
            return True
    return False


def _pack(values, element_bytes, element_mask):
    data = bytearray()
    for value in values:
        value &= element_mask
        data.append(value & 0xFF)
        if element_bytes == 2:
            data.append((value >> 8) & 0xFF)
    return bytes(data)


def _compare_memory(program, ref, board):
    """Final mutable-global state vs the reference (by symbol)."""
    problems = []
    for array in program.mutable_arrays():
        expected = _pack(
            ref.arrays[array.name], array.element_bytes, array.element_mask
        )
        actual = bytes(board.bytes_at(array.name, len(expected)))
        if actual != expected:
            problems.append(
                f"array {array.name}: {actual.hex()} != {expected.hex()}"
            )
    for scalar in program.scalars:
        actual = board.word_at(scalar.name)
        expected = ref.scalars[scalar.name] & 0xFFFF
        if actual != expected:
            problems.append(
                f"scalar {scalar.name}: {actual:#x} != {expected:#x}"
            )
    return problems


def _check_cycle_order(report):
    """Larger cache decisively slower than smaller -> anomaly/divergence."""
    limited = {}
    for name, cycles in report.cycles.items():
        if not name.startswith("swapram/unified/queue"):
            continue
        limit = 0x10000
        if "limit" in name:
            limit = int(name.rsplit("limit", 1)[1])
        limited[limit] = (name, cycles)
    sizes = sorted(limited)
    for small, large in zip(sizes, sizes[1:]):
        small_name, small_cycles = limited[small]
        large_name, large_cycles = limited[large]
        if small_cycles == 0:
            continue
        ratio = large_cycles / small_cycles
        if ratio > CYCLE_HARD_TOLERANCE:
            report.divergences.append(
                Divergence(
                    report.seed,
                    large_name,
                    "invariant",
                    f"{large_cycles} cycles with more cache vs "
                    f"{small_cycles} ({small_name}): ratio {ratio:.2f} "
                    f"exceeds {CYCLE_HARD_TOLERANCE}",
                )
            )
        elif ratio > CYCLE_TOLERANCE:
            report.anomalies.append(
                f"{large_name} slower than {small_name} "
                f"({large_cycles} vs {small_cycles} cycles)"
            )


def run_differential(program_or_seed, configs=None, fault=None):
    """Run one program across the matrix and cross-check everything.

    *program_or_seed* is a :class:`~repro.difftest.ast.GenProgram` or an
    int seed for :func:`~repro.difftest.generator.generate_program`.
    *fault* (system -> None) is applied to every SwapRAM system after
    build and before run -- the fault-injection hook.
    """
    if isinstance(program_or_seed, int):
        program = generate_program(program_or_seed)
    else:
        program = program_or_seed
    configs = configs if configs is not None else quick_matrix()

    report = DiffReport(seed=program.seed, source=program.render())
    try:
        ref = program.evaluate()
    except Exception as exc:  # a generator bug, not a cache-runtime bug
        report.divergences.append(
            Divergence(program.seed, "reference", "generator", repr(exc))
        )
        return report

    def inject(system):
        fault(system)

    for config in configs:
        name = config.name
        attach = (inject,) if fault is not None and config.kind == "swapram" else ()
        try:
            outcome = systems.run(config.spec(report.source), attach)
        except SimulationError as exc:
            report.outcomes[name] = "crashed"
            report.divergences.append(
                Divergence(program.seed, name, "crash", repr(exc))
            )
            continue
        except (CompileError, TransformError, BlockTransformError,
                AssemblyError) as exc:
            report.outcomes[name] = "build-failed"
            report.divergences.append(
                Divergence(program.seed, name, "build", repr(exc))
            )
            continue
        if outcome.dnf == "fit":
            report.outcomes[name] = "DNF"
            continue
        if outcome.dnf:  # the instruction guard: runaway code
            report.outcomes[name] = "crashed"
            report.divergences.append(
                Divergence(program.seed, name, "crash", repr(outcome.error))
            )
            continue
        result, system = outcome.result, outcome.system

        report.outcomes[name] = "ok"
        report.results[name] = result.as_dict()
        report.cycles[name] = report.results[name]["total_cycles"]
        if result.debug_words != ref.debug_words:
            report.divergences.append(
                Divergence(
                    program.seed,
                    name,
                    "debug",
                    f"debug words {result.debug_words[:12]} != "
                    f"reference {ref.debug_words[:12]}",
                )
            )
        for problem in _compare_memory(program, ref, system.board):
            report.divergences.append(
                Divergence(program.seed, name, "memory", problem)
            )
        for violation in outcome.problems:
            report.divergences.append(
                Divergence(program.seed, name, "invariant", violation)
            )

    _check_cycle_order(report)
    return report
