"""Golden pin of the CLI's option contract.

``data/cli_contract.json`` records, for the parser of every command
(``ompdart FILE`` and each subcommand), its ``prog`` and, for each
argparse action, the flags, dest, default (as ``repr``), type name,
nargs, choices, required flag, metavar and action class.  Help text is
left out, so commands may share the wording of an option they declare
through one helper.  Positionals are compared in order, options as a
set: declaration order only moves lines within ``--help``.

The data was generated from the CLI as it stood before its parsers
became one command table; run this module as a script to regenerate
it::

    PYTHONPATH=src python tests/test_cli_contract.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import cli

GOLDEN = Path(__file__).with_name("data") / "cli_contract.json"

#: Command names; None is the bare ``ompdart FILE`` form.
COMMANDS = list(cli.COMMANDS)


def _action_record(action) -> dict:
    return {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "default": repr(action.default),
        "type": getattr(action.type, "__name__", repr(action.type)),
        "nargs": action.nargs,
        "choices": None if action.choices is None else list(action.choices),
        "required": action.required,
        "metavar": action.metavar,
        "action": type(action).__name__,
    }


def _contract() -> dict:
    return {
        "ompdart" if name is None else name: {
            "prog": parser.prog,
            "actions": [_action_record(a) for a in parser._actions],
        }
        for name, parser in ((n, cli.build_parser(n)) for n in COMMANDS)
    }


def _canonical(entry: dict) -> dict:
    actions = entry["actions"]
    return {
        "prog": entry["prog"],
        "positionals": [a for a in actions if not a["flags"]],
        "options": sorted(
            (a for a in actions if a["flags"]), key=lambda a: a["flags"]
        ),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_command_is_pinned(golden):
    assert set(_contract()) == set(golden)


@pytest.mark.parametrize(
    "name", ["ompdart" if n is None else n for n in COMMANDS]
)
def test_parser_matches_golden(golden, name):
    assert _canonical(_contract()[name]) == _canonical(golden[name])


@pytest.mark.parametrize("name", COMMANDS)
def test_version_names_the_command(name, capsys):
    argv = ["--version"] if name is None else [name, "--version"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    prog = "ompdart" if name is None else f"ompdart {name}"
    assert capsys.readouterr().out == f"{prog} {cli.__version__}\n"


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in filter(None, COMMANDS):
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out), name


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["batch", "x.c", "-j", "0"], "--jobs"),
        (["suite", "-j", "0"], "--jobs"),
        (["load", "--port", "1", "--tolerance", "-1"], "--tolerance"),
        (["suite", "--store-url", "http://127.0.0.1:1"], "--cache-dir"),
    ],
)
def test_shared_usage_checks_exit_2(argv, flag, capsys):
    """Checked in ``main`` before the command runs: no input is read,
    no suite runs and no connection opens."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ompdart {argv[0]}: error: ") and flag in err


def _regenerate() -> None:
    """Write the contract with one action per line."""
    entries = [
        f'  {json.dumps(name)}: {{"prog": {json.dumps(entry["prog"])}, '
        '"actions": [\n'
        + ",\n".join(f"    {json.dumps(a)}" for a in entry["actions"])
        + "\n  ]}"
        for name, entry in _contract().items()
    ]
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
