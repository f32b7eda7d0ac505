"""Replay the CLI golden corpus through cli.main and compare byte for byte.

tests/golden/cli.json holds, for a fixed list of argv, the stdout, stderr
and exit code that cli.main produced when the file was recorded, plus the
option table of every parser and subparser.  Argument values and outputs
spell the directory of the golden input files as @GOLDEN@.

After a deliberate change to the CLI contract, re-record the outputs of the
same corpus with

    python tests/test_cli_golden.py
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from cubiclat import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"
TOKEN = "@GOLDEN@"
GOLDEN = json.loads(GOLDEN_FILE.read_text())


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([a.replace(TOKEN, str(GOLDEN_DIR)) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    unplace = lambda text: text.replace(str(GOLDEN_DIR), TOKEN)
    return {"argv": argv, "exit": code, "stdout": unplace(out.getvalue()), "stderr": unplace(err.getvalue())}


def option_table(parser):
    """Every flag of every (sub)parser with its default, choices and help."""
    table = {}

    def walk(p):
        rows = [{"description": p.description}]
        for a in p._actions:
            if isinstance(a, argparse._SubParsersAction):
                rows.append({c.dest: c.help for c in a._choices_actions} | {"choices": list(a.choices)})
                for sub in a.choices.values():
                    walk(sub)
                continue
            rows.append(
                {
                    "flags": a.option_strings,
                    "dest": a.dest,
                    "action": type(a).__name__,
                    "type": getattr(a.type, "__name__", None),
                    "default": a.default,
                    "choices": list(a.choices) if a.choices else None,
                    "required": a.required,
                    "help": a.help,
                }
            )
        table[p.prog] = rows

    walk(parser)
    return table


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[f"{i:03d}-{'-'.join(c['argv'][:2])}" for i, c in enumerate(GOLDEN["cases"])]
)
def test_output_matches_golden(case):
    assert replay(case["argv"]) == case


def test_options_match_golden():
    assert option_table(cli._build_parser()) == GOLDEN["options"]


if __name__ == "__main__":
    recorded = {
        "cases": [replay(c["argv"]) for c in GOLDEN["cases"]],
        "options": option_table(cli._build_parser()),
    }
    GOLDEN_FILE.write_text(json.dumps(recorded, indent=1) + "\n")
