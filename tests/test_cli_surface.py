"""The CLI's surface is held fixed: its flags, and every documented call.

``tests/golden/cli_surface.json`` records, per subcommand, each option's
strings, ``dest``, default, type, choices, ``nargs`` and action class, as
the parser stood before the bounds moved onto the settings.  A flag taken
away on purpose is listed under ``"moved"`` with its reason; any other
difference fails.  Record it again with::

    PYTHONPATH=src python tests/test_cli_surface.py > tests/golden/cli_surface.json

and then restore the ``"moved"`` list by hand.

The second half reads every ``python -m repro.cli ...`` line in CI and in
the fenced code blocks of ``README.md`` and ``docs/*.md``, and the parser
must accept each one, its values in bound: renaming a flag cannot leave a
caller behind.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser, check_flags, subcommands

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_surface.json"


def _option(action: argparse.Action) -> dict:
    return {
        "options": sorted(action.option_strings) or [action.dest],
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "action": type(action).__name__,
    }


def surface(parser: argparse.ArgumentParser) -> dict:
    """Subcommand -> its options, sorted by option strings."""
    return {
        name: sorted((_option(a) for a in command._actions), key=lambda o: o["options"])
        for name, command in sorted(subcommands(parser).items())
    }


class TestSurface:
    def test_flags_match_the_golden_apart_from_what_moved(self):
        golden = json.loads(GOLDEN.read_text())
        moved = {(m["subcommand"], tuple(m["options"])) for m in golden["moved"]}
        expected = {
            name: [o for o in options if (name, tuple(o["options"])) not in moved]
            for name, options in golden["subcommands"].items()
        }
        assert surface(build_parser()) == expected

    def test_what_moved_is_gone(self):
        golden = json.loads(GOLDEN.read_text())
        now = surface(build_parser())
        for m in golden["moved"]:
            assert m["reason"]
            assert m["options"] not in [o["options"] for o in now[m["subcommand"]]]


# -- documented invocations -------------------------------------------------------

_FENCE = re.compile(r"^```.*?$(.*?)^```", re.M | re.S)
_SHELL_BREAK = {"|", "||", "&&", ";", ">", ">>", "2>", "2>&1", "&"}


def _joined(text: str) -> list:
    """Lines of ``text`` with backslash continuations joined."""
    return text.replace("\\\n", " ").splitlines()


def documented_calls() -> list:
    """``(where, argv)`` for each ``python -m repro.cli`` call in CI and in
    the fenced blocks of the docs; ``argv`` stops at the first shell
    operator or comment."""
    sources = [(".github/workflows/ci.yml", _joined((ROOT / ".github/workflows/ci.yml").read_text()))]
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        lines = []
        for block in _FENCE.findall(doc.read_text()):
            lines += _joined(block)
        sources.append((str(doc.relative_to(ROOT)), lines))
    calls = []
    for where, lines in sources:
        for line in lines:
            if "python -m repro.cli" not in line:
                continue
            words = shlex.split(line.split("python -m repro.cli", 1)[1], comments=True)
            argv = []
            for word in words:
                if word in _SHELL_BREAK:
                    break
                argv.append(word)
            calls.append((where, argv))
    return calls


CALLS = documented_calls()


def test_every_source_is_read():
    where = {w for w, _ in CALLS}
    assert {".github/workflows/ci.yml", "README.md", "docs/ANALYSIS.md"} <= where
    assert len(CALLS) >= 30


@pytest.mark.parametrize(
    "where, argv", CALLS, ids=[f"{w}: {' '.join(a)}" for w, a in CALLS]
)
def test_documented_call_parses(where, argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    check_flags(subcommands(parser)[args.command], args)


if __name__ == "__main__":
    print(json.dumps({"moved": [], "subcommands": surface(build_parser())}, indent=1))
