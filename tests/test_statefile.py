"""State-dump float text: ``statefile._magnitude_texts`` spells every
magnitude byte for byte as ``json.dumps`` does, and spells nearly all of a
dump's magnitudes without it."""

import json
import random

import numpy as np
from hypothesis import given, settings, strategies as st

import spinmaps.statefile as statefile
from spinmaps.cli import dump_state, parse_config, run_to_files
from spinmaps.register import DensityOperator, qubit_register


def json_texts(mags: np.ndarray) -> np.ndarray:
    """The table each magnitude spelled by ``json.dumps`` gives: the reference."""
    spelled = json.dumps(mags.tolist())[1:-1].split(", ") if len(mags) else []
    texts = np.array(spelled, dtype=f"S{statefile._FLOAT_TEXT}")
    return texts.view(np.uint8).reshape(len(mags), statefile._FLOAT_TEXT)


def assert_spelled_as_json(values) -> None:
    mags = np.unique(np.abs(np.asarray(values, dtype=float)))
    got, want = statefile._magnitude_texts(mags), json_texts(mags)
    wrong = np.flatnonzero((got != want).any(axis=1))
    assert not len(wrong), [(mags[i], got[i].tobytes(), want[i].tobytes()) for i in wrong[:5]]


def neighbours(anchors, steps: int = 3) -> np.ndarray:
    """Each anchor and the ``steps`` doubles on either side of it."""
    out = [np.asarray(anchors, dtype=float)]
    for direction in (0.0, np.inf):
        x = out[0]
        for _ in range(steps):
            x = np.nextafter(x, direction)
            out.append(x)
    values = np.concatenate(out)
    return values[np.isfinite(values)]


class TestMagnitudeTexts:
    def test_random_finite_bit_patterns(self):
        bits = np.random.default_rng(29).integers(0, 0x7FF0000000000000, 10**6, dtype=np.uint64)
        assert_spelled_as_json(bits.view(float))

    def test_random_values_in_the_short_range(self):
        # Biased exponents 930..1022 cover [2**-93, 1), inside the range
        # where the formatter does not defer to json.dumps.
        rng = np.random.default_rng(30)
        bits = rng.integers(930, 1023, 10**6).astype(np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 1 << 52, 10**6, dtype=np.uint64)
        assert_spelled_as_json(bits.view(float))

    def test_neighbours_of_powers_and_range_ends(self):
        powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
        assert_spelled_as_json(neighbours([1e-4, 1e-5, 1e-28, 1.0, 2.0**-1022] + powers))

    def test_values_whose_rounding_carries_a_digit(self):
        carries = [0.09999999999999999, 9.999999999999999e-05, 0.9999999999999999,
                   9.999999999999999e-06, 0.0009999999999999998, 9.999999999999999e-29,
                   0.09999999999999998, 0.19999999999999998, 0.5999999999999999]
        assert_spelled_as_json(neighbours(carries, steps=2))
        # The largest double below each power of ten carries into the next.
        assert_spelled_as_json(np.nextafter([float(f"1e{k}") for k in range(-28, 1)], 0.0))

    def test_exact_ties_of_dyadic_values(self):
        # j / 2**18 for odd j has 18 decimal places, the last a 5: an exact
        # tie at the 17-digit rounding above 0.1 and at the first digit
        # dropped in [0.01, 0.1).  In [0.0625, 0.1) both neighbours of that
        # tie round-trip (the half gap is 6.9 units of the 17th digit), so
        # the text turns on repr's half-even choice.
        assert_spelled_as_json(np.arange(1, 1 << 18, 2) / 2.0**18)

    def test_special_values(self):
        specials = [0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, 1.7976931348623157e308]
        mags = np.array(specials)
        assert statefile._magnitude_texts(mags).tobytes() == json_texts(mags).tobytes()

    def test_empty_and_fallback_only_tables(self):
        for values in ([], [0.0], [0.0, 1.0], [0.5, 0.25]):
            assert_spelled_as_json(values)

    def test_short_values_and_every_text_length(self):
        values = [0.375, 0.75, 0.3, 0.1, 1e-05, 1.5e-05, 0.0001, 0.00012, 1e-28, 1.2345e-20]
        values += [float(f"0.{'1' * k}") for k in range(1, 18)]
        values += [float(f"1.{'3' * k}e-{e}") for k in range(17) for e in range(1, 29)]
        assert_spelled_as_json(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0), max_size=40))
    def test_hypothesis_floats(self, values):
        assert_spelled_as_json(values)


def stabilize_n8_config(tmp_path):
    """The ``stabilize-n8`` benchmark input for one pool state: a random pure
    N = 8 state as a ``file:`` start, two rounds of ``SWEEP; U; STAB``."""
    rng = random.Random(1003)
    vec = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(256)]
    norm = sum(abs(z) ** 2 for z in vec) ** 0.5
    vec = [z / norm for z in vec]
    matrix = [[(a * b.conjugate()).real, (a * b.conjugate()).imag] for a in vec for b in vec]
    state = {"layout": {"ion_dims": [2] * 8, "ancilla_index": None}, "matrix": matrix}
    (tmp_path / "initial_state.json").write_text(json.dumps(state) + "\n")
    (tmp_path / "run.cfg").write_text(
        f"N = 8\nm0 = 4\ninitial = file:{tmp_path / 'initial_state.json'}\ntheta = 0.5\n"
        "epsilon_diss = 0.02\nschedule {\n  REPEAT 2 { SWEEP; U 0.25; STAB 4 }\n}\n"
    )
    return parse_config(tmp_path / "run.cfg")


class TestDumpMagnitudes:
    def test_every_magnitude_of_the_stabilize_n8_states(self, tmp_path, monkeypatch):
        tables = []
        spell = statefile._magnitude_texts

        def recording(mags):
            tables.append((mags, spell(mags)))
            return tables[-1][1]

        monkeypatch.setattr(statefile, "_magnitude_texts", recording)
        run_to_files(stabilize_n8_config(tmp_path), tmp_path / "out", "run", dump_states=True)
        assert len(tables) == 6
        for mags, texts in tables:
            assert texts.tobytes() == json_texts(mags).tobytes()

    def test_nearly_every_magnitude_avoids_json(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        v /= np.linalg.norm(v)
        rho = DensityOperator(qubit_register(8), np.outer(v, v.conj()))
        spelled = []
        dumps = json.dumps

        def counting(obj, *args, **kwargs):
            if isinstance(obj, list):
                spelled.extend(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(statefile.json, "dumps", counting)
        dump_state(rho, tmp_path / "s.json")
        distinct = len(np.unique(np.abs(rho.matrix.view(float))))
        assert distinct > 60_000
        assert len(spelled) < distinct // 100
