"""README examples run as written.

Each ``hypercomplex ...`` line of the CLI section's ``sh`` block goes through
``cli.main`` and must exit 0; a ``# `` comment below it made only of numbers
is that command's exact stdout.  Every ``--option`` the README names is one
some subcommand takes.  The library quickstart is executed.
"""

import argparse
import pathlib
import re
import shlex

import pytest

from hypercomplex import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block after the ``## section`` heading."""
    start = README.index(f"\n## {section}\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(README, start)
    return match.group(1)


def _cli_examples() -> list[tuple[list[str], str | None]]:
    """(argv, expected stdout or None) per command of the CLI block."""
    examples = []
    for line in _block("CLI", "sh").replace("\\\n", " ").splitlines():
        if line.startswith("hypercomplex "):
            examples.append((shlex.split(line, comments=True)[1:], None))
        elif re.fullmatch(r"# [-+0-9.,e]+", line):
            argv, _ = examples[-1]
            examples[-1] = (argv, line[2:] + "\n")
    return examples


_EXAMPLES = _cli_examples()


def test_the_cli_block_pins_some_outputs():
    assert len(_EXAMPLES) >= 8
    assert [want for _, want in _EXAMPLES if want] == [
        "6,1.5708,1.0472\n", "0.333333333,-0.333333333,-0.333333333\n"]


@pytest.mark.parametrize("argv, want", _EXAMPLES, ids=[argv[0] for argv, _ in _EXAMPLES])
def test_cli_example_runs(capsys, tmp_path, monkeypatch, argv, want):
    monkeypatch.chdir(tmp_path)  # the fractal example writes its --out here
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if want is not None:
        assert out == want


def test_every_option_the_readme_names_is_accepted():
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {opt for p in sub.choices.values() for opt in p._option_string_actions}
    named = set(re.findall(r"(?<![-\w])--[a-z][-a-z]*", README))
    assert len(named) >= 10
    assert named <= accepted, sorted(named - accepted)


def test_library_quickstart_runs():
    exec(compile(_block("Library quickstart", "python"), "README.md", "exec"), {})
