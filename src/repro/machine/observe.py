"""The machine's one observation seam (see docs/observability.md).

An observer implements any subset of ``on_step()``, ``on_begin()``,
``on_fetch(address, words)``, ``on_read(address, byte)`` and
``on_write(address, value, byte)`` -- called before ``cpu.step``,
``bus.begin_instruction``, ``bus.fetch_word``/``account_fetch``,
``bus.read`` and ``bus.write`` do their own work -- and
``on_retire(attribution, region_kind, cycles)`` and ``on_hook(address,
cpu)``, called after ``counters.record_instruction`` and after a native
hook returns, and ``on_event(kind, **fields)``, which is ``board.emit``
(``None`` while no subscriber has it). Handlers only read machine
state, so their order cannot matter. Every :func:`observe`/
:func:`unobserve` rebuilds the entry points from ``board.observers``:
one wrapper where some subscriber handles an entry point, the class
method everywhere else.

Every entry point but ``on_event`` is per instruction: ``install`` sets
``board.per_instruction`` while some subscriber handles one, and only
then do ``Cpu.run`` and ``CostCharger.charge`` leave their fast paths
(block-compiled execution, batched charges) for the instruction-by-
instruction ones the wrappers sit on. A subscriber with nothing but
``on_event`` keeps the fast paths.
"""


def observe(board, observer):
    """Subscribe *observer* to *board*'s entry points (idempotent)."""
    if not any(subscriber is observer for subscriber in board.observers):
        board.observers.append(observer)
    install(board)
    return observer


def unobserve(board, observer):
    """Unsubscribe *observer* (idempotent)."""
    board.observers[:] = [
        subscriber for subscriber in board.observers if subscriber is not observer
    ]
    install(board)
    return observer


def install(board):
    """Rebuild the entry points; also call it after swapping a component."""
    cpu, bus = board.cpu, board.bus
    watched = False
    for target, name, event, wrap in (
        (cpu, "step", "on_step", _before),
        (bus, "begin_instruction", "on_begin", _before),
        (bus, "fetch_word", "on_fetch", _fetch_word),
        (bus, "account_fetch", "on_fetch", _account_fetch),
        (bus, "read", "on_read", _read),
        (bus, "write", "on_write", _write),
        (board.counters, "record_instruction", "on_retire", _retire),
    ):
        # Delete only a wrapper set here: a failed delattr, like reading
        # an instance's __dict__, makes every later attribute access on
        # the instance slower.
        if hasattr(getattr(target, name), "unobserved"):
            delattr(target, name)
        handler = _handler(board, event)
        if handler is not None:
            watched = True
            original = getattr(target, name)
            wrapper = wrap(original, handler)
            wrapper.unobserved = original
            setattr(target, name, wrapper)
    board.emit = _handler(board, "on_event")
    on_hook = _handler(board, "on_hook")
    board.per_instruction = watched or on_hook is not None
    # Blocks are compiled for one set of subscribers (see
    # repro.machine.block): the next run compiles them again.
    cpu._blocks.clear()
    cpu._block_env = None
    for address, hook in cpu.hooks.items():
        hook = getattr(hook, "unobserved", hook)
        cpu.hooks[address] = _hook(hook, address, on_hook) if on_hook else hook


def _handler(board, name):
    """The subscribers' *name* handlers as one callable, or ``None``."""
    handlers = [
        getattr(subscriber, name)
        for subscriber in board.observers
        if hasattr(subscriber, name)
    ]
    if len(handlers) < 2:
        return handlers[0] if handlers else None

    def fan_out(*args, **fields):
        for handler in handlers:
            handler(*args, **fields)

    return fan_out


def _before(original, handler):
    def wrapper():
        handler()
        return original()

    return wrapper


def _fetch_word(original, handler):
    def fetch_word(address):
        handler(address, 1)
        return original(address)

    return fetch_word


def _account_fetch(original, handler):
    def account_fetch(address, words):
        handler(address, words)
        original(address, words)

    return account_fetch


def _read(original, handler):
    def read(address, byte=False):
        handler(address, byte)
        return original(address, byte)

    return read


def _write(original, handler):
    def write(address, value, byte=False):
        handler(address, value, byte)
        original(address, value, byte)

    return write


def _retire(original, handler):
    def record_instruction(attribution, region_kind, cycles):
        original(attribution, region_kind, cycles)
        handler(attribution, region_kind, cycles)

    return record_instruction


def _hook(original, address, handler):
    def hook(cpu):
        original(cpu)
        handler(address, cpu)

    hook.unobserved = original
    return hook
