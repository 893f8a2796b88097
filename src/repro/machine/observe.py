"""The machine's one observation seam (see docs/observability.md).

An observer implements any subset of ``on_block()``,
``on_fetch(address, words)``, ``on_read(address, byte)``,
``on_write(address, value, byte)``, ``on_retire(attribution,
region_kind, cycles)``, ``on_hook(address, cpu)`` and ``on_event(kind,
**fields)``. Handlers only read machine state, so their order cannot
matter. Every :func:`observe`/:func:`unobserve` rebuilds the entry
points from ``board.observers``: one wrapper where some subscriber
handles an entry point, the class method everywhere else, and
``board.handlers`` maps each handled name to its handler.

* ``on_block`` runs before each block the block path enters
  (:mod:`repro.machine.block`) and before each ``cpu.step`` and native
  hook run outside one. Between two calls the PC stays in one function
  and SP does not rise, so a handler reads the counters where they are
  exact and sees every change of function and every return.
* ``on_fetch``, ``on_read`` and ``on_write`` run before
  ``bus.fetch_word``/``account_fetch``, ``bus.read`` and ``bus.write``
  do their own work, so above the data cache; ``on_retire`` runs after
  ``counters.record_instruction``. Blocks compiled while one of them is
  handled call it themselves: with each instruction's static pc, words
  and cycles, and before each data access, SRAM ones included, so the
  handlers see the step loop's sequence.
* ``on_hook`` runs after a native hook returns.
* ``on_event`` is ``board.emit`` (``None`` while no subscriber has it),
  called by the runtimes for each event they report.
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
    handlers = {}
    for name in ("on_block", "on_fetch", "on_read", "on_write", "on_retire", "on_hook"):
        handler = _handler(board, name)
        if handler is not None:
            handlers[name] = handler
    for target, name, event, wrap in (
        (cpu, "step", "on_block", _before),
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
        handler = handlers.get(event)
        if handler is not None:
            original = getattr(target, name)
            wrapper = wrap(original, handler)
            wrapper.unobserved = original
            setattr(target, name, wrapper)
    board.emit = _handler(board, "on_event")
    board.handlers = handlers
    # Blocks are compiled for one set of subscribers (see
    # repro.machine.block): the next run compiles them again.
    cpu._blocks.clear()
    cpu._block_env = None
    on_hook = handlers.get("on_hook")
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
