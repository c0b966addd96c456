"""The CLI's option surface, pinned against ``cli_surface.json``.

Every action of the top parser and of each sub-command parser is compared
field by field, in order, so a changed flag, dest, default, type, choice,
metavar, requiredness or help string fails here.  The parsers' actions are
compared rather than argparse's formatted ``--help`` output, which depends
on the Python version and the terminal width.

After a deliberate change to the options, regenerate the pinned file with
``PYTHONPATH=src python tests/test_cli_surface.py > tests/cli_surface.json``.
"""

import argparse
import json
import sys
from pathlib import Path

from rayreg.cli import build_parser

_PINNED = Path(__file__).with_name("cli_surface.json")


def _action(action) -> dict:
    entry = {
        "kind": type(action).__name__,
        "flags": list(action.option_strings),
        "dest": action.dest,
        "default": repr(action.default),
        "type": getattr(action.type, "__name__", repr(action.type)),
        "choices": None if action.choices is None else list(action.choices),
        "metavar": action.metavar,
        "required": action.required,
        "help": action.help,
        "nargs": action.nargs,
        "const": repr(action.const),
    }
    if isinstance(action, argparse._SubParsersAction):
        entry["commands"] = {a.dest: a.help for a in action._choices_actions}
    return entry


def _parser(parser) -> dict:
    return {"description": parser.description, "actions": [_action(a) for a in parser._actions]}


def surface() -> dict:
    """Every parser the CLI builds, by prog, with its actions in order."""
    top = build_parser()
    parsers = {top.prog: _parser(top)}
    for action in top._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                parsers[sub.prog] = _parser(sub)
    return parsers


def test_option_surface_is_pinned():
    pinned = json.loads(_PINNED.read_text(encoding="utf-8"))
    current = surface()
    assert list(current) == list(pinned)
    for prog in pinned:
        assert current[prog] == pinned[prog], prog


if __name__ == "__main__":  # one action a line, so a diff of the pinned file shows the option
    blocks = []
    for prog, parser in surface().items():
        actions = ",\n   ".join(json.dumps(a) for a in parser["actions"])
        head = f'{json.dumps(prog)}: {{"description": {json.dumps(parser["description"])}'
        blocks.append(f' {head},\n  "actions": [\n   {actions}]}}')
    sys.stdout.write("{\n" + ",\n".join(blocks) + "\n}\n")
