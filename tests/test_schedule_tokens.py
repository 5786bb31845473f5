"""Every schedule token, in each of its argument forms, parses, runs on a
3-spin register and keeps its report label."""

import pytest

from spinmaps.cli import ConfigError, _TOKEN_ARGS, parse_config_text, parse_schedule, run_steps

HEAD = "N = 3\nm0 = 2\ninitial = 101\nphi = 0.25\n"

# (schedule text, parsed tokens, report labels)
FORMS = [
    ("SWEEP", (("SWEEP", None),), ["SWEEP"]),
    ("U", (("U", None),), ["U 0.25"]),
    ("U 0.5", (("U", 0.5),), ["U 0.5"]),
    ("U; SWEEP", (("U", None), ("SWEEP", None)), ["U 0.25", "SWEEP"]),
    ("D 2", (("D", 2),), ["D 2"]),
    ("QND 2", (("QND", 2),), ["QND 2"]),
    ("REMOVE 2", (("REMOVE", 2),), ["REMOVE 2"]),
    ("INJECT 2", (("INJECT", 2),), ["INJECT 2"]),
    ("STAB 2", (("STAB", 2),), ["STAB 2"]),
]


def test_forms_cover_the_token_table():
    assert {kind for _, tokens, _ in FORMS for kind, _ in tokens} == set(_TOKEN_ARGS)


@pytest.mark.parametrize("text, tokens, labels", FORMS)
def test_token_form_parses_runs_and_keeps_its_label(text, tokens, labels):
    assert parse_schedule(text) == tokens
    config = parse_config_text(HEAD + f"schedule {{ {text} }}\n")
    assert [report.label for report, _ in run_steps(config)] == labels


@pytest.mark.parametrize("kind", [k for k, parse in _TOKEN_ARGS.items() if parse is int])
def test_integer_argument_is_required(kind):
    with pytest.raises(ConfigError) as err:
        parse_schedule(f"SWEEP {kind}")
    assert str(err.value) == f"schedule token 1: {kind} needs an integer argument"
    with pytest.raises(ConfigError) as err:
        parse_schedule(f"SWEEP {kind} 1.5")
    assert str(err.value) == f"schedule token 2: bad argument '1.5' for {kind}"


def test_unknown_word_fails_with_its_position():
    with pytest.raises(ConfigError) as err:
        parse_schedule("SWEEP; U 0.5; REPEAT 2 { D 1; sweep }")
    assert str(err.value) == "schedule token 8: unknown token 'sweep'"
