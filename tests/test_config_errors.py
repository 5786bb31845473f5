"""Exact ``ConfigError`` texts of the run-config grammar.

One case per raise site of ``parse_schedule``, ``parse_config_text``,
``_parse_bool`` and ``_validate_config``, plus configs with several faults,
which pin the fault that is reported first.
"""

import pytest

from spinmaps.cli import ConfigError, _parse_bool, parse_config_text, parse_schedule

HEAD = "N = 3\nm0 = 2\ninitial = 101\n"
SWEEP = "schedule { SWEEP }\n"


def config_error(text: str, strict: bool = False) -> str:
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, strict=strict)
    return str(err.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("SWEEP }", "schedule token 1: unmatched '}'"),
        ("REPEAT 1001 { REPEAT 1000 { SWEEP } }", "schedule exceeds 1000000 steps"),
        ("REPEAT 2 SWEEP", "schedule token 0: REPEAT k { ... } expected"),
        ("REPEAT x { SWEEP }", "schedule token 1: bad repeat count 'x'"),
        ("REPEAT 0 { SWEEP }", "schedule token 1: REPEAT count must be >= 1"),
        ("SWEEP; D", "schedule token 1: D needs an integer argument"),
        ("D x", "schedule token 1: bad argument 'x' for D"),
        ("SWEEP WOBBLE 3", "schedule token 1: unknown token 'WOBBLE'"),
        ("REPEAT 2 { SWEEP", "schedule ended inside a REPEAT block"),
    ],
)
def test_schedule_error_text(text, message):
    with pytest.raises(ConfigError) as err:
        parse_schedule(text)
    assert str(err.value) == message


def test_bool_error_text():
    with pytest.raises(ConfigError) as err:
        _parse_bool("maybe", "dump_states")
    assert str(err.value) == "key dump_states: expected a boolean, got 'maybe'"


@pytest.mark.parametrize(
    "text, message",
    [
        # the line layer of parse_config_text
        (HEAD + SWEEP + SWEEP, "line 5: duplicate schedule block"),
        (HEAD + "schedule SWEEP\n", "line 4: schedule block must open with '{'"),
        (HEAD + "schedule {\nSWEEP\n", "unterminated schedule block"),
        (HEAD + "schedule { SWEEP } extra\n", "line 4: unexpected 'extra' after the schedule block"),
        (HEAD + "just words\n" + SWEEP, "line 4: expected 'key = value', got 'just words'"),
        (HEAD + "m0 = 1\n" + SWEEP, "line 4: duplicate key 'm0'"),
        ("m0 = 2\ninitial = 101\n" + SWEEP, "missing required key 'N'"),
        (HEAD, "missing schedule block"),
        # the value parsers
        ("N = three\nm0 = 2\ninitial = 101\n" + SWEEP,
         "bad numeric value: invalid literal for int() with base 10: 'three'"),
        ("N = 3\nm0 = x\ninitial = 101\n" + SWEEP,
         "bad numeric value: invalid literal for int() with base 10: 'x'"),
        (HEAD + "theta = half\n" + SWEEP, "bad numeric value: could not convert string to float: 'half'"),
        (HEAD + "phi = x\n" + SWEEP, "bad numeric value: could not convert string to float: 'x'"),
        (HEAD + "epsilon_diss = x\n" + SWEEP, "bad numeric value: could not convert string to float: 'x'"),
        (HEAD + "epsilon_coh = x\n" + SWEEP, "bad numeric value: could not convert string to float: 'x'"),
        (HEAD + "boundary = ring\n" + SWEEP, "boundary must be open|periodic, got 'ring'"),
        (HEAD + "dump_states = maybe\n" + SWEEP, "key dump_states: expected a boolean, got 'maybe'"),
        # _validate_config
        ("N = 1\nm0 = 0\ninitial = 1\n" + SWEEP, "N must be at least 2"),
        ("N = 15\nm0 = 0\ninitial = 0\n" + SWEEP,
         "N = 15 exceeds the largest supported register, N = 14"),
        ("N = 3\nm0 = 4\ninitial = 101\n" + SWEEP, "m0 4 out of range for N=3"),
        (HEAD + "theta = 0.7\n" + SWEEP, "theta must lie in [0, 0.5] (units of pi)"),
        (HEAD + "phi = -0.1\n" + SWEEP, "phi must lie in [0, 0.5] (units of pi)"),
        (HEAD + "epsilon_diss = 2\n" + SWEEP, "epsilon_diss must lie in [0, 1]"),
        (HEAD + "epsilon_coh = 1.5\n" + SWEEP, "epsilon_coh must lie in [0, 1]"),
        (HEAD + "schedule { D 3 }\n", "schedule: D 3 out of range for N=3"),
        (HEAD + "schedule { D 0 }\n", "schedule: D 0 out of range for N=3"),
        (HEAD + "schedule { QND 4 }\n", "schedule: QND 4 out of range for N=3"),
        (HEAD + "schedule { REMOVE 5 }\n", "schedule: REMOVE 5 out of range for N=3"),
        (HEAD + "schedule { INJECT 5 }\n", "schedule: INJECT 5 out of range for N=3"),
        (HEAD + "schedule { STAB 5 }\n", "schedule: STAB 5 out of range for N=3"),
        (HEAD + "schedule { U 0.75 }\n", "schedule: U angle must lie in [0, 0.5] (units of pi)"),
        ("N = 3\nm0 = 2\ninitial = rainbow\n" + SWEEP,
         "initial state: unrecognized initial state 'rainbow'"),
    ],
)
def test_config_error_text(text, message):
    assert config_error(text) == message


def test_unknown_key_text(capsys):
    text = HEAD + "colour = red\n" + SWEEP
    assert config_error(text, strict=True) == "line 4: unknown key 'colour'"
    parse_config_text(text)
    assert capsys.readouterr().err == "warning: ignoring unknown config key 'colour'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # the boundary is checked before the boolean, wherever the lines sit
        (HEAD + "dump_states = maybe\nboundary = ring\n" + SWEEP,
         "boundary must be open|periodic, got 'ring'"),
        # values are parsed in key order (N, m0, theta, phi, epsilon_diss,
        # epsilon_coh), not in line order
        ("theta = half\nN = three\nm0 = 2\ninitial = 101\n" + SWEEP,
         "bad numeric value: invalid literal for int() with base 10: 'three'"),
        (HEAD + "epsilon_coh = y\nphi = x\n" + SWEEP,
         "bad numeric value: could not convert string to float: 'x'"),
        # numbers before the boundary, the boolean before the schedule
        (HEAD + "boundary = ring\nepsilon_coh = x\n" + SWEEP,
         "bad numeric value: could not convert string to float: 'x'"),
        (HEAD + "dump_states = maybe\nschedule { WOBBLE }\n",
         "key dump_states: expected a boolean, got 'maybe'"),
        # the schedule is parsed before anything is validated
        ("N = 1\nm0 = 0\ninitial = 1\nschedule { WOBBLE }\n",
         "schedule token 0: unknown token 'WOBBLE'"),
        # required keys before the schedule block, both before any value
        ("m0 = x\ninitial = 101\n", "missing required key 'N'"),
        ("N = x\nm0 = 2\ninitial = 101\n", "missing schedule block"),
        # line faults in line order, before any value fault
        ("N = x\nN = 4\nfoo\nm0 = 2\ninitial = 101\n" + SWEEP, "line 2: duplicate key 'N'"),
        ("N = x\nfoo\nN = 4\nm0 = 2\ninitial = 101\n" + SWEEP,
         "line 2: expected 'key = value', got 'foo'"),
        # validation in its own order: ranges, then schedule, then the state
        ("N = 3\nm0 = 4\ninitial = 1\ntheta = 0.7\nschedule { D 3 }\n", "m0 4 out of range for N=3"),
        (HEAD + "epsilon_coh = 2\nschedule { D 3 }\n", "epsilon_coh must lie in [0, 1]"),
        ("N = 3\nm0 = 2\ninitial = 1\nschedule { D 3 }\n", "schedule: D 3 out of range for N=3"),
    ],
)
def test_first_of_several_faults(text, message):
    assert config_error(text) == message


def test_strict_unknown_key_before_later_duplicate():
    text = HEAD + "colour = red\nN = 4\n" + SWEEP
    assert config_error(text, strict=True) == "line 4: unknown key 'colour'"
    assert config_error(text) == "line 5: duplicate key 'N'"
