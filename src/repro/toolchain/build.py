"""High-level build steps shared by every system under test.

``compile_program`` turns mini-C source into assembly and appends the
generated startup code; ``build_baseline`` links it for a memory plan
and returns a ready-to-run :class:`~repro.machine.board.Board` factory.
The SwapRAM, block-cache and data-cache builders
(``repro.core.system`` / ``repro.blockcache.system`` /
``repro.datacache.system``) reuse these pieces around their
transformation passes and return a :class:`System`.
"""

from dataclasses import dataclass

from repro.asm.parser import parse_asm
from repro.machine.board import Board
from repro.minic.codegen import compile_c
from repro.toolchain.linker import link

#: Startup code: set up the stack, call main, halt. The call to main is
#: an ordinary call so instrumentation passes can redirect it -- making
#: main itself cacheable -- while ``__start`` never runs again and is
#: blacklisted from caching.
_CRT0 = """
.func __start
    MOV #__stack_top, SP
    CALL #main
    MOV #1, &0x0202
.endfunc
"""


@dataclass
class System:
    """A loaded board plus the cache runtime attached to it.

    *runtime* is ``None`` for the baseline (see :mod:`repro.systems`,
    whose baseline entry wraps its board); *meta* is the
    instrumentation pass's metadata, ``None`` where there is none.
    """

    board: Board
    runtime: object = None
    linked: object = None
    meta: object = None

    def run(self, max_instructions=50_000_000):
        return self.board.run(max_instructions=max_instructions)

    @property
    def stats(self):
        return None if self.runtime is None else self.runtime.stats

    def size_report(self):
        """Figure 7 decomposition for this binary (bytes of NVM)."""
        sizes = self.linked.section_sizes
        runtime, metadata = (
            (0, 0) if self.runtime is None else self.runtime.nvm_bytes(sizes)
        )
        return {
            "application": sizes["text"],
            "runtime": runtime,
            "metadata": metadata,
            "const_data": sizes.get("rodata", 0),
        }


def add_startup(program):
    """Append ``__start`` and make it the entry point."""
    if program.has_function("__start"):
        return program
    crt0 = parse_asm(_CRT0).function("__start")
    crt0.blacklisted = True
    program.functions.insert(0, crt0)
    program.entry = "__start"
    return program


def _compile_uncached(source):
    program = compile_c(source)
    return add_startup(program)


def compile_program(source):
    """mini-C source -> assembly Program with startup code attached.

    Routed through the process-global
    :data:`~repro.toolchain.cache.BUILD_CACHE`: a source seen before
    (this process, or on disk via ``REPRO_BUILD_CACHE``) returns a
    private clone of the cached program without re-compiling.
    """
    from repro.toolchain.cache import BUILD_CACHE

    return BUILD_CACHE.get(source, _compile_uncached)


def build_baseline(source_or_program, plan, frequency_mhz=24, **board_kwargs):
    """Compile (if needed), link for *plan*, and return a loaded Board.

    This is the paper's baseline system: code runs from wherever the
    plan puts it, with only the hardware FRAM read cache helping.
    """
    if isinstance(source_or_program, str):
        program = compile_program(source_or_program)
    else:
        program = add_startup(source_or_program)
    linked = link(program, plan)
    board = Board(
        memory_map=linked.memory_map, frequency_mhz=frequency_mhz, **board_kwargs
    )
    board.load(linked.image)
    board.linked = linked
    return board
