"""README examples run as written: the library quick tour prints the fidelity
it promises, the config-format block is a valid config naming every key and
schedule token, and the pulse-table block parses and names every spelling."""

import contextlib
import io
import re
from pathlib import Path

from spinmaps import cli, gateset

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


def test_config_format_block_names_every_schedule_token():
    block = fenced_block("### Config format", "ini")
    comments = " ".join(line.split("#", 1)[1] for line in block.splitlines() if "#" in line)
    listed = comments.split("tokens:", 1)[1].split("|")
    assert {item.split()[0] for item in listed} - {"REPEAT"} == set(cli._TOKEN_ARGS)


def test_pulse_table_format_block_parses_and_names_every_spelling():
    block = fenced_block("### Pulse-table format", "")
    assert {p.kind for p in gateset.parse_sequence(block).pulses} == set(gateset.PULSE_KINDS)
    assert set(re.findall(r"^(\w+)\(", block, re.MULTILINE)) == set(gateset._PULSES)
