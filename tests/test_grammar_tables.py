"""Each grammar is declared once: ``cli.py`` and ``gateset.py`` make no
``==``, ``!=``, ``in`` or ``not in`` comparison (nor a ``match`` case) against
a schedule token, a pulse-table spelling or a ``Pulse`` kind.  They look the
word up in ``cli._TOKEN_ARGS`` or ``gateset._PULSES`` instead."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from spinmaps import cli, gateset

SRC = Path(__file__).resolve().parents[1] / "src" / "spinmaps"
GRAMMAR_WORDS = set(cli._TOKEN_ARGS) | set(gateset._PULSES) | set(gateset.PULSE_KINDS)
EQUALITY_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def grammar_comparisons(source: str, words: set[str]) -> list[str]:
    """Each string constant from ``words`` inside an operand of an equality or
    membership comparison, or in a ``match`` case, as ``'word (line n)'``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(isinstance(op, EQUALITY_OPS) for op in node.ops):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        found.extend(f"{leaf.value} (line {node.lineno})"
                     for operand in operands for leaf in ast.walk(operand)
                     if isinstance(leaf, ast.Constant) and leaf.value in words)
    return found


@pytest.mark.parametrize("module", ["cli", "gateset"])
def test_no_comparison_against_a_grammar_word(module):
    assert grammar_comparisons((SRC / f"{module}.py").read_text(), GRAMMAR_WORDS) == []


def test_the_words_are_the_two_tables():
    assert {"SWEEP", "U", "STAB", "S_z", "REPUMP", "Sz", "Repump"} <= GRAMMAR_WORDS
    assert "REPEAT" not in GRAMMAR_WORDS  # a block keyword, not a token


def test_detects_comparisons_against_grammar_words():
    source = (
        'if kind == "SWEEP": pass\n'
        'if p.kind in ("Reset", "Repump"): pass\n'
        'if "S_z" != spelling: pass\n'
        'if kind not in {"QND"}: pass\n'
        'table = {"SWEEP": 1, "R": 2}\n'
        'if kind < "U" or kind == "REPEAT" or kind > "MS": pass\n'
        'match kind:\n'
        '    case "STAB" | "x": pass\n'
    )
    assert grammar_comparisons(source, GRAMMAR_WORDS) == [
        "SWEEP (line 1)", "Reset (line 2)", "Repump (line 2)", "S_z (line 3)",
        "QND (line 4)", "STAB (line 8)"]
