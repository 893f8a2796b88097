"""Command-line flags every entry point shares, each declared once.

:func:`add_run_flags` declares the flags that describe one run --
``--system``, ``--plan``, ``--mhz``, ``--scale``, the knobs and the
limits -- with the defaults each command passes in, and
:func:`run_spec` turns the parsed arguments into a
:class:`~repro.systems.RunSpec`, so a bad program name or a knob the
system does not take exits 2 the same way everywhere.
:func:`add_campaign_flags` and :func:`use_build_cache` do the same for
the campaign commands' ``--jobs``, ``--build-cache`` and ``--trace``.
"""

from repro import systems
from repro.core.policy import POLICIES
from repro.toolchain import PLANS

#: :class:`~repro.systems.RunSpec` field -> ``(option, add_argument keywords)``.
RUN_FLAGS = {
    "system": ("--system", {"choices": systems.NAMES, "help": "execution system"}),
    "plan": ("--plan", {"choices": sorted(PLANS), "help": "memory placement plan"}),
    "mhz": ("--mhz", {"type": float, "help": "CPU clock in MHz"}),
    "scale": ("--scale", {"type": int, "help": "benchmark input scale"}),
    "policy": (
        "--policy",
        {"choices": sorted(POLICIES), "help": "SwapRAM replacement policy"},
    ),
    "cache_limit": (
        "--cache-limit",
        {"type": int, "help": "cap the SRAM cache (bytes)"},
    ),
    "thrash_guard": (
        "--thrash-guard",
        {
            "action": "store_true",
            "help": "enable the freeze-on-thrash extension (swapram only)",
        },
    ),
    "slot_bytes": (
        "--slot-bytes",
        {"type": int, "help": "block-cache slot size in bytes"},
    ),
    "max_instructions": (
        "--max-instructions",
        {"type": int, "help": "runaway guard"},
    ),
    "max_cycles": (
        "--max-cycles",
        {"type": int, "help": "cycle watchdog: exceeding it is a DNF (exit 2)"},
    ),
}


def add_run_flags(parser, **defaults):
    """Declare the single-run flags named in *defaults*, with those defaults."""
    for name, default in defaults.items():
        option, keywords = RUN_FLAGS[name]
        help_text = keywords["help"]
        if default not in (None, False):
            help_text += f" (default: {default})"
        parser.add_argument(
            option, **{**keywords, "default": default, "help": help_text}
        )


def run_spec(parser, args, program=None, **fields):
    """The :class:`~repro.systems.RunSpec` the parsed *args* describe.

    *program* is a benchmark name or a mini-C file path; without one,
    *fields* carry the ``source``. Fields override flags. A program
    that is neither, or a knob the system does not take, exits 2
    through ``parser.error``.
    """
    flags = {name: value for name, value in vars(args).items() if name in RUN_FLAGS}
    fields = {**flags, **fields}
    try:
        if program is None:
            return systems.RunSpec(**fields)
        return systems.RunSpec.of(program, **fields)
    except (OSError, ValueError) as error:
        parser.error(str(error))


def add_campaign_flags(parser, jobs_help, build_cache=True):
    """Declare ``--jobs``, ``--build-cache`` (unless not wanted) and ``--trace``."""
    parser.add_argument("--jobs", type=int, default=1, help=jobs_help)
    if build_cache:
        parser.add_argument(
            "--build-cache",
            default=None,
            metavar="DIR",
            help="persist compiled programs under DIR across runs "
            "(same as REPRO_BUILD_CACHE)",
        )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record orchestration-plane spans for the --jobs campaign "
        "(see docs/tracing.md)",
    )


def use_build_cache(args):
    """Persist compiled programs under ``--build-cache DIR``, when given."""
    if args.build_cache is not None:
        from repro.toolchain import BUILD_CACHE

        BUILD_CACHE.attach_disk(args.build_cache)
