"""Pulse-table and run-step errors keep their exact text and line, every
pulse spelling survives a parse/serialize round trip, and an angle the
interpreter cannot resolve is a parse error of its own line."""

import json

import numpy as np
import pytest

from spinmaps.cli import InvariantViolation, main, parse_config_text, run_steps
from spinmaps.gateset import (
    PULSE_KINDS,
    SequenceSyntaxError,
    parse_sequence,
    sequence_unitary,
    serialize_sequence,
)
from spinmaps.register import qubit_register


def syntax_error(text: str) -> tuple[int, str]:
    with pytest.raises(SequenceSyntaxError) as err:
        parse_sequence(text)
    return err.value.line_no, str(err.value)


@pytest.mark.parametrize("pulse, message", [
    ("R(0.5)", "R takes (theta, phi)"),
    ("R(0.5, 0.0, 1.0)", "R takes (theta, phi)"),
    ("S_z()", "S_z takes (theta, ion)"),
    ("S_z(0.5)", "S_z takes (theta, ion)"),
    ("MS(0.25)", "MS takes (theta, phi)"),
    ("RESET()", "RESET takes (ion)"),
    ("RESET(0, 1)", "RESET takes (ion)"),
    ("REPUMP(0, 1)", "REPUMP takes (ion)"),
])
def test_arity_error_names_the_spelling_on_its_line(pulse, message):
    assert syntax_error(f"R(0.5, 0.0)\n# a comment\n{pulse}  # the pulse\n") == (
        3, f"line 3: {message}")


@pytest.mark.parametrize("pulse, message", [
    ("R(zero, 0.0)", "bad angle 'zero'"),
    ("MS(0.25, 1e)", "bad angle '1e'"),
    ("S_z(x, -1)", "bad angle 'x'"),
    ("S_z(1.0, j)", "bad ion index 'j'"),
    ("RESET(1.5)", "bad ion index '1.5'"),
    ("S_z(0.5, -1)", "negative ion index -1"),
    ("REPUMP(-2)", "negative ion index -2"),
    ("BOGUS(1)", "unrecognized pulse 'BOGUS(1)'"),
    ("reset(0)", "unrecognized pulse 'reset(0)'"),
    ("R(0.5, 0.0) MS(0.5, 0.0)", "unrecognized pulse 'R(0.5, 0.0) MS(0.5, 0.0)'"),
])
def test_argument_and_pulse_errors_keep_their_text(pulse, message):
    assert syntax_error(f"MS(0.5, 0.0)\n\n{pulse}\n") == (3, f"line 3: {message}")


def test_every_spelling_round_trips_with_negative_and_exponent_angles():
    text = "R(-0.5, 1e-07)\nS_z(-1.636, 3)\nMS(2.5e-05, -1.054)\nRESET(0)\nREPUMP(12)\n"
    seq = parse_sequence(text)
    assert {p.kind for p in seq.pulses} == set(PULSE_KINDS)
    assert serialize_sequence(seq) == text
    assert parse_sequence(serialize_sequence(seq)) == seq


def test_exponent_spellings_are_written_as_their_shortest_repr():
    seq = parse_sequence("R(-1E-3, +2e2)\nS_z(1.5e1, 0)\nMS(-2.5E+00, 0.125e-1)\n")
    assert serialize_sequence(seq) == "R(-0.001, 200.0)\nS_z(15.0, 0)\nMS(-2.5, 0.0125)\n"
    assert parse_sequence(serialize_sequence(seq)) == seq


@pytest.mark.parametrize("schedule, step", [("QND 3", 1), ("SWEEP; QND 3", 2)])
def test_empty_postselection_names_its_step_and_token(schedule, step):
    config = parse_config_text(f"N = 3\nm0 = 3\ninitial = 000\nschedule {{ {schedule} }}\n")
    with pytest.raises(InvariantViolation) as err:
        list(run_steps(config))
    assert str(err.value) == f"step {step} (QND 3): post-selection left no population"


def test_empty_postselection_exits_3_with_its_message(tmp_path, capsys):
    config = tmp_path / "empty.cfg"
    config.write_text("N = 3\nm0 = 3\ninitial = 000\nschedule { U; QND 3 }\n")
    assert main(["run", str(config), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "invariant violation: step 2 (QND 3): post-selection left no population\n")


# Tables whose angle is not finite or above 2**52 in magnitude, with the line
# and text of that angle.
BAD_ANGLES = [
    ("MS(0.5, 0.0)\nMS(0.5, inf)\n", 2, "inf"),
    ("R(1e308, 0.0)\n", 1, "1e308"),
    ("R(0.5, 0.0)\nR(inf, 0.0)\n", 2, "inf"),
    ("R(0.5, nan)\n", 1, "nan"),
    ("S_z(-inf, 0)\n", 1, "-inf"),
    ("R(0.5, 0.0)\nS_z(-4503599627370497, 1)\n", 2, "-4503599627370497"),
]


@pytest.mark.parametrize("text, line, angle", BAD_ANGLES)
def test_unresolvable_angle_is_an_error_of_its_line(text, line, angle):
    assert syntax_error(text) == (
        line, f"line {line}: angle {angle!r} must be finite, at most 2**52 in size")


def test_largest_angle_still_interprets():
    u = sequence_unitary(parse_sequence("R(4503599627370496, -4503599627370496)\n"
                                        "MS(4503599627370496, 0.5)\n"), qubit_register(2))
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-9


def test_verifier_reports_unresolvable_angles_per_file(tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    for k, (text, _, _) in enumerate(BAD_ANGLES):
        (tables / f"bad{k}.txt").write_text(text)
    assert main(["verify-sequences", str(tables), "--out", str(tmp_path)]) == 0
    report_text = (tmp_path / "sequence_report.json").read_text()
    assert "NaN" not in report_text and "Infinity" not in report_text
    for entry, (_, line, angle) in zip(json.loads(report_text)["files"], BAD_ANGLES):
        assert entry["parse_ok"] is False
        assert entry["error"].startswith(f"line {line}: angle {angle!r}")
    assert "Traceback" not in capsys.readouterr().err
