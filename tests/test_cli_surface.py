"""The command-line surface: every ``repro`` parser's options, pinned.

``tests/cli_surface.json`` holds, for every subcommand parser, each
option's strings, default, choices, ``nargs`` and type. Moving flag
declarations into shared helpers must not change any of them; the one
deliberate change is listed in :data:`CHANGED`.
"""

import argparse
import json
from pathlib import Path

from repro import cli
from repro.analysis import cli as analysis_cli
from repro.datacache import cli as datacache_cli
from repro.difftest import cli as difftest_cli
from repro.faults import cli as faults_cli
from repro.metrics import cli as metrics_cli
from repro.obs import cli as obs_cli
from repro.replay import cli as replay_cli
from repro.sweep import cli as sweep_cli
from repro.tracing import cli as tracing_cli

TABLE = Path(__file__).with_name("cli_surface.json")

PARSERS = {
    "repro": cli._parser,
    "repro cache": analysis_cli._parser,
    "repro datacache": datacache_cli._parser,
    "repro difftest": difftest_cli._parser,
    "repro faults": faults_cli._parser,
    "repro bench": metrics_cli._parser,
    "repro trace": obs_cli._parser,
    "repro replay": replay_cli._parser,
    "repro sweep": sweep_cli._parser,
    "repro trace export": tracing_cli._parser,
}

#: ``(parser, option) -> {field: value}`` changed on purpose. Replay
#: capture used to default its knobs to values every system received,
#: so a knob the captured system does not take was silently dropped;
#: unset knobs are now ``None``, and a set one is refused like
#: everywhere else.
CHANGED = {
    ("repro replay capture", "--policy"): {"default": None},
    ("repro replay capture", "--slot-bytes"): {"default": None},
}


def _plain(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return repr(value)


def _walk(name, parser, table):
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                _walk(f"{name} {sub_name}", sub, table)
            continue
        key = action.option_strings[0] if action.option_strings else action.dest
        table.setdefault(name, {})[key] = {
            "options": list(action.option_strings),
            "default": _plain(action.default),
            "choices": _plain(None if action.choices is None else list(action.choices)),
            "nargs": _plain(action.nargs),
            "type": None if action.type is None else action.type.__name__,
        }


def surface():
    """``{parser name: {option: fields}}`` for every repro parser."""
    table = {}
    for name, build in PARSERS.items():
        _walk(name, build(), table)
    return table


def test_every_parser_keeps_its_options():
    expected = json.loads(TABLE.read_text())
    for (parser, option), fields in CHANGED.items():
        expected[parser][option].update(fields)
    assert surface() == expected
