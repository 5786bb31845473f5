"""README examples run as written: the library quick tour prints the fidelity
it promises, and the config-format block is a valid config naming every key."""

import contextlib
import io
import re
from pathlib import Path

from spinmaps import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the line ``heading``."""
    after = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", after, re.DOTALL).group(1)


def test_library_quick_tour_prints_its_fidelity():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("## Library quick tour", "python"), {})
    assert out.getvalue().startswith("0.9998")


def test_config_format_block_parses_and_names_every_key():
    block = fenced_block("### Config format", "ini")
    cli.parse_config_text(block, strict=True)
    named = set(re.findall(r"^(\w+)\s*=", block, re.MULTILINE))
    assert named == set(cli._KEYS)
