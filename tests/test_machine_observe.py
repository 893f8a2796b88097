"""Every observer, attached and detached in every order, sees the same run.

The observation seam (``repro.machine.observe``) rebuilds the machine's
entry points from the board's subscriber set, so no combination or
order of observers may change what any of them records -- or what the
machine does. The power fuses keep a run on the step loop, so the
orders are checked twice: with the fuses, on the step loop, and
without them, on the block path against the step loop.
"""

from itertools import permutations

import pytest

from repro import systems
from repro.core import build_swapram
from repro.machine import install_fused_counters
from repro.machine.cpu import Cpu
from repro.machine.observe import observe, unobserve
from repro.machine.tracelog import TraceLog
from repro.metrics import MetricsSession
from repro.obs import TraceSession
from repro.replay.capture import _Recorder
from repro.toolchain import PLANS

SOURCE = """
int square(int x) { return x * x; }
int twice(int x) { return x + x; }
int main(void) {
    int acc = 0;
    for (int i = 0; i < 3; i++) { acc = acc + square(i) + twice(i); }
    __debug_out(acc);
    return 0;
}
"""

ENTRY_POINTS = {
    "step",
    "fetch_word",
    "account_fetch",
    "read",
    "write",
    "record_instruction",
}

ATTACH = {
    "session": TraceSession.attach,
    "log": lambda system: TraceLog(system.board.bus, capacity=100_000).attach(),
    "capture": lambda system: observe(
        system.board,
        _Recorder(systems.spec("swapram").capture_kind, system.board, system.runtime),
    ),
    "metrics": MetricsSession.attach,
    "fuses": lambda system: install_fused_counters(system.board),
}

DETACH = {
    "session": lambda session, result: session.finish(result),
    "log": lambda log, result: log.detach(),
    "capture": lambda recorder, result: unobserve(recorder.board, recorder),
    "metrics": lambda metrics, result: metrics.finish(result),
    "fuses": lambda counters, result: None,  # unarmed: nothing to undo
}


def _observed_run(order, reverse_detach, step_loop=False):
    system = build_swapram(SOURCE, PLANS["unified"])
    board = system.board
    hooks = dict(board.cpu.hooks)
    observers = {name: ATTACH[name](system) for name in order}
    if step_loop:
        board.cpu._step_loop = True
    result = system.run()
    for name in reversed(order) if reverse_detach else order:
        DETACH[name](observers[name], result)

    for component in (board.cpu, board.bus, board.counters):
        assert not ENTRY_POINTS & vars(component).keys()
    assert board.cpu.hooks.keys() == hooks.keys()
    assert all(board.cpu.hooks[address] is hook for address, hook in hooks.items())
    assert board.observers == []

    session = observers["session"]
    return {
        "result": result.as_dict(),
        "stats": system.stats.as_dict(),
        "log": list(observers["log"].events),
        "records": observers["capture"].records,
        "profiles": {name: p.as_dict() for name, p in session.profiles.items()},
        "call_tree": session.call_tree.as_dict(),
        "timeline": [event.as_dict() for event in session.events],
        "metrics": {
            name: metric
            for name, metric in observers["metrics"].registry.as_dict().items()
            if not name.startswith("host.")
        },
    }


@pytest.mark.parametrize("reverse_detach", [False, True], ids=["fifo", "lifo"])
def test_every_attach_order_observes_the_same_run(reverse_detach):
    plain = build_swapram(SOURCE, PLANS["unified"])
    unobserved = plain.run().as_dict()
    orders = list(permutations(ATTACH))
    reference = _observed_run(orders[0], reverse_detach)
    assert reference["result"] == unobserved
    assert reference["stats"] == plain.stats.as_dict()
    assert reference["log"] and reference["records"] and reference["timeline"]
    for order in orders[1:]:
        assert _observed_run(order, reverse_detach) == reference, order


@pytest.mark.parametrize("reverse_detach", [False, True], ids=["fifo", "lifo"])
def test_every_attach_order_observes_the_same_run_on_the_block_path(
    reverse_detach, monkeypatch
):
    steps = [0]
    step = Cpu.step

    def counted(cpu):
        steps[0] += 1
        return step(cpu)

    monkeypatch.setattr(Cpu, "step", counted)
    plain = build_swapram(SOURCE, PLANS["unified"])
    unobserved = plain.run().as_dict()
    retired = plain.board.cpu.instructions_retired
    orders = list(permutations(name for name in ATTACH if name != "fuses"))
    steps[0] = 0
    reference = _observed_run(orders[0], reverse_detach, step_loop=True)
    assert steps[0] >= retired
    assert reference["result"] == unobserved
    assert reference["log"] and reference["records"] and reference["timeline"]
    for order in orders:
        steps[0] = 0
        observed = _observed_run(order, reverse_detach)
        assert steps[0] < retired, order  # the block path ran
        assert observed == reference, order
