"""The README's library example runs as written, and its CLI usage block
and the checks it names match the program."""

import argparse
import contextlib
import io
import re
from pathlib import Path

import ritzbounds
from ritzbounds import cli, verify

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert '"eta_route": "schur_block"' in out.getvalue()


def usage_block():
    """The README's CLI usage block as ``{command: text}``."""
    (block,) = re.findall(r"## Command-line interface\n\n```\n(.*?)```", README.read_text(), flags=re.DOTALL)
    commands = {}
    for line in block.splitlines():
        if line.startswith("ritzbounds "):
            command, line = line.split()[1], line.split(None, 2)[2]
        commands[command] = commands.get(command, "") + " " + line
    return commands


def test_usage_block_lists_each_commands_options():
    # every long option of every command with its choices, as parsed
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        command: {
            option: tuple(action.choices or ())
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for command, parser in subparsers.choices.items()
    }
    documented = {
        command: {
            option: tuple(filter(None, choices.split(",")))
            for option, choices in re.findall(r"(--[a-z-]+)(?: \{([a-z,]+)\})?", text)
        }
        for command, text in usage_block().items()
    }
    assert documented == parsed


def test_named_checks_are_registered():
    # a backticked ``prefix.name`` with the prefix of a check that names
    # no attribute of the library module of that name is a check name
    named = {
        f"{prefix}.{name}"
        for prefix, name in re.findall(r"`(densela|defect|bounds|models|report)\.(\w+)`", README.read_text())
        if not hasattr(getattr(ritzbounds, prefix, None), name)
    }
    assert len(named) >= 7
    assert not named - set(verify.REGISTRY), sorted(named - set(verify.REGISTRY))
