import json
import numpy as np
import pytest
from pathlib import Path
from types import SimpleNamespace

from spinmaps.cli import (
    ConfigError,
    InvariantViolation,
    RunConfig,
    analytics_order_table,
    dump_state,
    initial_state,
    load_state,
    main,
    parse_config,
    parse_config_text,
    parse_schedule,
    reports_to_csv,
    run_steps,
    run_to_files,
)
from spinmaps.observables import dicke_state
from spinmaps.register import (
    DensityOperator,
    basis_state,
    qubit_register,
    sector_buffer,
    sector_views,
    system_with_ancilla,
)

PUMP_CFG = """\
# three sweeps of the two elementary maps
N = 3
m0 = 2
initial = 101
theta = 0.5
epsilon_diss = 0.0
schedule {
  REPEAT 3 { SWEEP }
}
"""


def collect_steps(config):
    """Every report and every state of a run, collected from ``run_steps``."""
    reports, states = [], []
    for report, rho in run_steps(config):
        reports.append(report)
        states.append(rho)
    return reports, states


class TestScheduleParsing:
    def test_repeat_block_expands(self):
        tokens = parse_schedule("REPEAT 2 { SWEEP; U 0.5 }")
        assert tokens == (("SWEEP", None), ("U", 0.5), ("SWEEP", None), ("U", 0.5))

    def test_nested_repeat(self):
        tokens = parse_schedule("REPEAT 2 { D 1; REPEAT 2 { D 2 } }")
        assert tokens == (("D", 1), ("D", 2), ("D", 2)) * 2

    def test_newline_separated(self):
        tokens = parse_schedule("SWEEP\nQND 2\nSTAB 1")
        assert tokens == (("SWEEP", None), ("QND", 2), ("STAB", 1))

    def test_bare_competition_token_uses_config_angle(self):
        assert parse_schedule("U\nSWEEP") == (("U", None), ("SWEEP", None))

    def test_malformed_token_is_located(self):
        with pytest.raises(ConfigError) as err:
            parse_schedule("SWEEP; WOBBLE 3")
        assert "WOBBLE" in str(err.value) and "token 1" in str(err.value)

    def test_bad_repeat_count(self):
        with pytest.raises(ConfigError):
            parse_schedule("REPEAT 0 { SWEEP }")
        with pytest.raises(ConfigError):
            parse_schedule("REPEAT x { SWEEP }")

    def test_unbalanced_braces(self):
        with pytest.raises(ConfigError):
            parse_schedule("REPEAT 2 { SWEEP")


class TestConfigParsing:
    def test_reproduction_config(self, tmp_path):
        path = tmp_path / "pump.cfg"
        path.write_text(PUMP_CFG)
        config = parse_config(path)
        assert config.n == 3 and config.m0 == 2
        assert config.initial == "101"
        assert config.schedule == (("SWEEP", None),) * 3

    def test_unknown_key_strict_vs_lenient(self, capsys):
        text = PUMP_CFG + "frobnicate = 1\n"
        with pytest.raises(ConfigError):
            parse_config_text(text, strict=True)
        parse_config_text(text, strict=False)
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("N = 3\nschedule { SWEEP }\n")

    def test_missing_schedule(self):
        with pytest.raises(ConfigError):
            parse_config_text("N = 3\nm0 = 1\ninitial = 100\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("N = 3\nN = 4\nm0 = 1\ninitial = 100\nschedule { SWEEP }\n")

    def test_schedule_site_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config_text("N = 3\nm0 = 1\ninitial = 100\nschedule { D 3 }\n")

    def test_epsilon_coh_defaults_to_a_fifth(self):
        config = parse_config_text(
            "N = 3\nm0 = 1\ninitial = 100\nepsilon_diss = 0.1\nschedule { SWEEP }\n"
        )
        assert config.eps_coh == pytest.approx(0.02)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")


class TestInitialStates:
    def base(self, initial, n=3):
        return RunConfig(n=n, m0=1, initial=initial, schedule=(("SWEEP", None),))

    def test_basis_string(self):
        rho = initial_state(self.base("101"))
        assert np.allclose(
            rho.matrix, basis_state(qubit_register(3), [1, 0, 1]).density().matrix
        )

    def test_dicke(self):
        rho = initial_state(self.base("dicke 2"))
        assert np.allclose(rho.matrix, dicke_state(2, 3).density().matrix)

    def test_equal_superposition(self):
        rho = initial_state(self.base("equal-superposition"))
        assert np.allclose(rho.matrix, np.full((8, 8), 1 / 8))

    def test_file_roundtrip(self, tmp_path):
        rho = dicke_state(1, 3).density()
        path = tmp_path / "state.json"
        dump_state(rho, path)
        config = self.base(f"file:{path}")
        loaded = initial_state(config)
        assert np.max(np.abs(loaded.matrix - rho.matrix)) <= 1e-15
        assert loaded.layout == rho.layout

    def test_wrong_length_basis_string(self):
        with pytest.raises(ConfigError):
            initial_state(self.base("10"))

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            initial_state(self.base("bogus"))


class TestExecution:
    def test_dark_state_convergence_run(self):
        config = parse_config_text(
            "N = 3\nm0 = 2\ninitial = 101\nschedule { REPEAT 6 { SWEEP } }\n"
        )
        reports, _ = collect_steps(config)
        assert len(reports) == 6
        assert reports[-1].dicke_fidelity >= 0.999

    def test_qnd_token_reports_success_probability(self):
        config = parse_config_text(
            "N = 3\nm0 = 1\ninitial = equal\nschedule { QND 1 }\n"
        )
        reports, _ = collect_steps(config)
        assert reports[0].success_prob == pytest.approx(3 / 8, abs=1e-12)
        assert reports[0].dicke_fidelity == pytest.approx(1.0, abs=1e-12)

    def test_impossible_postselection_flags_violation(self):
        config = parse_config_text(
            "N = 3\nm0 = 3\ninitial = 000\nschedule { QND 3 }\n"
        )
        with pytest.raises(InvariantViolation) as err:
            collect_steps(config)
        assert "step 1" in str(err.value)

    def test_stabilization_tokens_run_on_system_register(self):
        config = parse_config_text(
            "N = 3\nm0 = 1\ninitial = equal\nschedule { REMOVE 1; INJECT 1 }\n"
        )
        reports, _ = collect_steps(config)
        assert reports[0].populations == pytest.approx((1 / 8, 6 / 8, 1 / 8, 0.0), abs=1e-9)
        assert reports[1].populations[0] == pytest.approx(0.0, abs=1e-9)

    def test_competition_schedule(self):
        config = parse_config_text(
            "N = 3\nm0 = 2\ninitial = 101\nphi = 0.5\n"
            "schedule { REPEAT 2 { SWEEP }; U }\n"
        )
        reports, _ = collect_steps(config)
        assert reports[-1].dicke_fidelity < reports[-2].dicke_fidelity - 0.3


class TestOutputs:
    def test_csv_columns_and_determinism(self, tmp_path):
        config = parse_config_text(PUMP_CFG)
        r1, csv1 = run_to_files(config, tmp_path / "a", "run")
        r2, csv2 = run_to_files(config, tmp_path / "b", "run")
        b1, b2 = csv1.read_bytes(), csv2.read_bytes()
        assert b1 == b2
        header = b1.decode().splitlines()[0]
        assert header == "step,token,fidelity,purity,p_m0,p_0,p_1,p_2,p_3,offdiag,success_prob"
        j1 = (tmp_path / "a" / "run.json").read_bytes()
        j2 = (tmp_path / "b" / "run.json").read_bytes()
        assert j1 == j2

    def test_state_dump_roundtrip_is_lossless(self, tmp_path):
        config = parse_config_text(PUMP_CFG.replace("REPEAT 3", "REPEAT 2"))
        reports, _ = run_to_files(config, tmp_path, "dumped", dump_states=True)
        assert all(r.state_dump for r in reports)
        final = load_state(tmp_path / reports[-1].state_dump)
        _, states = collect_steps(config)
        assert np.max(np.abs(final.matrix - states[-1].matrix)) <= 1e-15

    def test_blank_success_column_without_qnd(self):
        config = parse_config_text(PUMP_CFG)
        reports, _ = collect_steps(config)
        text = reports_to_csv(reports, config)
        assert text.splitlines()[1].endswith(",")


class TestMainEntry:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "pump.cfg"
        cfg.write_text(PUMP_CFG)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "pump.csv").exists()
        assert main(["run", str(tmp_path / "missing.cfg")]) == 2
        bad = tmp_path / "bad.cfg"
        bad.write_text("N = 3\nm0 = 1\ninitial = 100\nschedule { D 9 }\n")
        assert main(["run", str(bad)]) == 2
        capsys.readouterr()

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "dead_end.cfg"
        cfg.write_text("N = 3\nm0 = 3\ninitial = 000\nschedule { QND 3 }\n")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 3
        assert "invariant" in capsys.readouterr().err

    def test_analytics_table(self, capsys):
        assert main(["analytics", "order", "--max-n", "3"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip().startswith("3   2")]
        assert len(lines) == 1
        assert "0.333333333333" in lines[0]
        assert "0.25" in lines[0]
        assert main(["analytics", "bogus"]) == 2
        capsys.readouterr()


class TestAnalyticsTable:
    def test_vacuum_rows_have_no_order(self):
        table = analytics_order_table(4)
        for line in table.splitlines()[1:]:
            cols = line.split()
            if cols[1] in ("0", cols[0]):  # m = 0 or m = N
                assert float(cols[2]) == 0.0

    def test_mixture_column_is_constant_quarter(self):
        table = analytics_order_table(6)
        for line in table.splitlines()[1:]:
            assert float(line.split()[3]) == 0.25


class TestOutKey:
    def test_config_out_directory_used_by_default(self, tmp_path):
        cfg = tmp_path / "pump.cfg"
        cfg.write_text(PUMP_CFG + f"out = {tmp_path / 'results'}\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "results" / "pump.csv").exists()

    def test_flag_overrides_config_out(self, tmp_path):
        cfg = tmp_path / "pump.cfg"
        cfg.write_text(PUMP_CFG + f"out = {tmp_path / 'ignored'}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "pump.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestStateFileBoundary:
    """Bad ``initial = file:`` states are configuration errors (exit 2)."""

    def run_with_state(self, tmp_path, capsys, payload_text, n=3):
        state = tmp_path / "state.json"
        state.write_text(payload_text)
        cfg = tmp_path / "from_file.cfg"
        cfg.write_text(f"N = {n}\nm0 = 1\ninitial = file:{state}\nschedule {{ SWEEP }}\n")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def dumped(self, tmp_path, rho):
        dump_state(rho, tmp_path / "dumped.json")
        return json.loads((tmp_path / "dumped.json").read_text())

    def test_malformed_json(self, tmp_path, capsys):
        code, err = self.run_with_state(tmp_path, capsys, '{"layout": {"ion_dims": [2, 2')
        assert code == 2
        assert "config error" in err and "state file" in err

    def test_missing_ancilla_index(self, tmp_path, capsys):
        payload = self.dumped(tmp_path, dicke_state(1, 3).density())
        del payload["layout"]["ancilla_index"]
        code, err = self.run_with_state(tmp_path, capsys, json.dumps(payload))
        assert code == 2
        assert "ancilla_index" in err

    def test_layout_past_int64_names_its_size(self, tmp_path, capsys):
        # its dimension 2**80 wrapped to 0 in int64, which hid the size
        payload = self.dumped(tmp_path, dicke_state(1, 3).density())
        payload["layout"]["ion_dims"] = [2] * 80
        code, err = self.run_with_state(tmp_path, capsys, json.dumps(payload))
        assert code == 2
        assert f"64 matrix entries for a {2**80} x {2**80} state" in err

    def test_state_with_more_spins_than_n(self, tmp_path, capsys):
        payload = self.dumped(tmp_path, dicke_state(1, 4).density())
        code, err = self.run_with_state(tmp_path, capsys, json.dumps(payload), n=3)
        assert code == 2
        assert "config error" in err and "expected" in err

    def test_state_layout_must_be_the_qubit_register(self, tmp_path):
        payload = self.dumped(tmp_path, dicke_state(1, 3).density())
        payload["layout"]["ancilla_index"] = 0
        (tmp_path / "anc.json").write_text(json.dumps(payload))
        config = RunConfig(n=3, m0=1, initial=f"file:{tmp_path / 'anc.json'}",
                           schedule=(("SWEEP", None),))
        with pytest.raises(ConfigError):
            initial_state(config)

    def test_entry_beyond_the_float_range(self, tmp_path, capsys):
        payload = self.dumped(tmp_path, dicke_state(1, 3).density())
        payload["matrix"][0] = [10**400, 0]
        code, err = self.run_with_state(tmp_path, capsys, json.dumps(payload))
        assert code == 2
        assert "config error" in err and "state file" in err

    def test_nesting_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        code, err = self.run_with_state(tmp_path, capsys, "[" * 100_000 + "]" * 100_000)
        assert code == 2
        assert "config error" in err and "state file" in err

    def test_load_state_rejects_wrong_entry_count(self, tmp_path):
        payload = self.dumped(tmp_path, dicke_state(1, 3).density())
        payload["matrix"] = payload["matrix"][:-1]
        (tmp_path / "short.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_state(tmp_path / "short.json")


from spinmaps.cli import MAX_SCHEDULE_STEPS  # noqa: E402


class TestScheduleLengthBound:
    def test_nested_repeat_over_the_bound_is_a_config_error(self):
        with pytest.raises(ConfigError, match="exceeds"):
            parse_schedule("REPEAT 1001 { REPEAT 1000 { SWEEP } }")

    def test_schedule_at_the_bound_is_accepted(self):
        tokens = parse_schedule("REPEAT 1000 { REPEAT 1000 { SWEEP } }")
        assert len(tokens) == MAX_SCHEDULE_STEPS

    def test_sibling_blocks_count_toward_the_bound(self):
        with pytest.raises(ConfigError, match="exceeds"):
            parse_schedule("REPEAT 600000 { SWEEP }; REPEAT 400001 { SWEEP }")

    def test_run_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(
            "N = 3\nm0 = 1\ninitial = 100\n"
            "schedule { REPEAT 1001 { REPEAT 1000 { SWEEP } } }\n"
        )
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert "exceeds" in capsys.readouterr().err


class TestNonFiniteInput:
    def test_state_file_with_nan_entry_exits_2(self, tmp_path, capsys):
        rho = dicke_state(1, 3).density()
        dump_state(rho, tmp_path / "dicke.json")
        payload = json.loads((tmp_path / "dicke.json").read_text())
        payload["matrix"][9] = [float("nan"), 0.0]
        code, err = TestStateFileBoundary().run_with_state(tmp_path, capsys, json.dumps(payload))
        assert code == 2
        assert "state file" in err and "deviates from Hermitian by nan" in err

    @pytest.mark.parametrize("phi", ["7", "-0.1", "nan"])
    def test_config_phi_outside_range(self, tmp_path, capsys, phi):
        with pytest.raises(ConfigError, match="phi"):
            parse_config_text(PUMP_CFG + f"phi = {phi}\n")
        cfg = tmp_path / "phi.cfg"
        cfg.write_text(PUMP_CFG + f"phi = {phi}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "phi" in capsys.readouterr().err


class TestScheduleBlockText:
    BASE = "N = 3\nm0 = 1\ninitial = 100\n"

    def test_second_schedule_block_is_rejected(self):
        text = self.BASE + "schedule { SWEEP }\nschedule { D 1; D 2 }\n"
        with pytest.raises(ConfigError, match="line 5: duplicate schedule block"):
            parse_config_text(text)

    def test_text_after_the_closing_brace_is_rejected(self):
        text = self.BASE + "schedule { SWEEP } theta = 0.1\n"
        with pytest.raises(ConfigError, match="line 4: unexpected 'theta = 0.1'"):
            parse_config_text(text)

    def test_text_after_a_multiline_block_is_rejected(self):
        text = self.BASE + "schedule {\n  SWEEP\n} SWEEP\n"
        with pytest.raises(ConfigError, match="line 6: unexpected 'SWEEP'"):
            parse_config_text(text)

    def test_comment_after_the_block_is_allowed(self):
        config = parse_config_text(self.BASE + "schedule { SWEEP }  # one sweep\ntheta = 0.1\n")
        assert config.schedule == (("SWEEP", None),) and config.theta == 0.1

    @pytest.mark.parametrize("tail", [
        "schedule { SWEEP }\nschedule { D 1; D 2 }\n",
        "schedule { SWEEP } theta = 0.1\n",
    ])
    def test_cli_exits_2(self, tmp_path, capsys, tail):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.BASE + tail)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "schedule block" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_schedule_prefixed_key_is_an_unknown_key(self, capsys):
        text = self.BASE + "schedule_x = 3\nschedule { SWEEP }\n"
        config = parse_config_text(text)
        assert config.schedule == (("SWEEP", None),)
        assert "unknown config key 'schedule_x'" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="line 4: unknown key 'schedule_x'"):
            parse_config_text(text, strict=True)

    def test_brace_directly_after_the_keyword(self):
        config = parse_config_text(self.BASE + "schedule{ SWEEP }\n")
        assert config.schedule == (("SWEEP", None),)

    def test_cli_strict_exits_2_on_schedule_prefixed_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(self.BASE + "schedule_x = 3\nschedule { SWEEP }\n")
        assert main(["run", str(cfg), "--strict", "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'schedule_x'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shipped_configs_parse_as_before(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        expected = {
            "competition_3spin": (("SWEEP", None), ("U", 0.5)) * 2 + (("QND", 2),),
            "pump_10spin_noisy": (("SWEEP", None),) * 30,
            "pump_3spin": (("D", 1), ("D", 2)) * 3,
            "stabilize_3spin": (("REMOVE", 1), ("INJECT", 1)),
        }
        assert sorted(p.stem for p in configs.glob("*.cfg")) == sorted(expected)
        for stem, schedule in expected.items():
            assert parse_config(configs / f"{stem}.cfg").schedule == schedule


class TestDumpStateBytes:
    """``dump_state`` writes the bytes of ``json.dumps`` over the per-entry
    float comprehension, on both forms and for every special float."""

    @staticmethod
    def comprehension_dump(rho):
        flat = rho.matrix.reshape(-1)
        payload = {
            "layout": {
                "ion_dims": list(rho.layout.ion_dims),
                "ancilla_index": rho.layout.ancilla_index,
            },
            "matrix": [[float(z.real), float(z.imag)] for z in flat],
        }
        return json.dumps(payload) + "\n"

    @staticmethod
    def random_dense(rng, layout):
        d = layout.dim
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a @ a.conj().T
        return DensityOperator(layout, a / np.trace(a).real)

    @staticmethod
    def random_blocked(rng, n):
        flat = sector_buffer(n)
        for block in sector_views(flat, n):
            g = rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)
            block[...] = g @ g.conj().T
        flat /= sum(np.trace(b) for b in sector_views(flat, n)).real
        return DensityOperator.from_sectors(qubit_register(n), flat)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_random_states(self, tmp_path, seed):
        rho = self.random_dense(np.random.default_rng(seed), qubit_register(1 + seed))
        dump_state(rho, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self.comprehension_dump(rho)
        assert load_state(tmp_path / "s.json").matrix.tobytes() == rho.matrix.tobytes()

    def test_signed_zeros_and_subnormals_round_trip(self, tmp_path):
        mat = np.array([[0.5, -0.0], [-0.0, 0.5]], dtype=complex)
        mat[0, 1] = complex(5e-324, -0.0)
        mat[1, 0] = complex(5e-324, 0.0)
        mat[1, 1] = complex(0.5, -0.0)
        rho = DensityOperator(qubit_register(1), mat)
        dump_state(rho, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self.comprehension_dump(rho)
        assert load_state(tmp_path / "s.json").matrix.tobytes() == mat.tobytes()

    def test_extreme_entries(self, tmp_path):
        # dump_state reads only the layout and the matrix; these entries are
        # not a valid state, so they are passed without validation.
        mat = np.array([[1e300, -0.0], [complex(2.5e-310, -1e300), complex(-0.0, 1e-320)]])
        rho = SimpleNamespace(layout=qubit_register(1), matrix=mat)
        dump_state(rho, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self.comprehension_dump(rho)

    def test_lower_triangle_not_the_bitwise_mirror(self, tmp_path):
        # Hermitian within 1e-10, but no stored entry below the diagonal is
        # the exact mirror of its partner, so no symmetry may be assumed.
        rng = np.random.default_rng(11)
        mat = self.random_dense(rng, qubit_register(4)).matrix.copy()
        lower = np.tril_indices(16, -1)
        mat[lower] *= 1 + 1e-12 * (1 + rng.random(len(lower[0])))
        rho = DensityOperator(qubit_register(4), mat)
        assert not np.any(mat[lower] == mat.T.conj()[lower])
        dump_state(rho, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self.comprehension_dump(rho)
        assert load_state(tmp_path / "s.json").matrix.tobytes() == mat.tobytes()

    def test_special_floats(self, tmp_path):
        nan = float("nan")
        values = [np.inf, -np.inf, nan, np.copysign(nan, -1.0), -0.0, 0.0, 5e-324,
                  -5e-324, 1e16, -1e16, 9.999e-05, -9.999e-05, 1e-4, -1e-4, 0.5, -2.0]
        assert np.signbit(values[3]) and not np.signbit(values[2])
        mat = np.empty((4, 4), dtype=complex)
        mat.real.flat, mat.imag.flat = values, values[::-1]
        rho = SimpleNamespace(layout=qubit_register(2), matrix=mat)
        dump_state(rho, tmp_path / "s.json")
        text = (tmp_path / "s.json").read_text()
        assert text == self.comprehension_dump(rho)
        assert "-NaN" not in text and "-Infinity" in text and "9.999e-05" in text

    def test_qutrit_ancilla_layout(self, tmp_path):
        rho = self.random_dense(np.random.default_rng(3), system_with_ancilla(3))
        dump_state(rho, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self.comprehension_dump(rho)
        loaded = load_state(tmp_path / "s.json")
        assert loaded.layout == rho.layout
        assert loaded.matrix.tobytes() == rho.matrix.tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_blocked_states_round_trip(self, tmp_path, n):
        rho = self.random_blocked(np.random.default_rng(n), n)
        dump_state(rho, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == self.comprehension_dump(rho)
        loaded = load_state(tmp_path / "s.json")
        assert loaded.sectors is not None
        assert loaded.sectors.tobytes() == rho.sectors.tobytes()

    def test_blocked_dump_never_builds_the_matrix(self, tmp_path, monkeypatch):
        rho = self.random_blocked(np.random.default_rng(9), 9)
        expected = self.comprehension_dump(rho)

        def no_matrix(self):
            raise AssertionError("the dense matrix was built")

        monkeypatch.setattr(DensityOperator, "matrix", property(no_matrix))
        dump_state(rho, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_text() == expected


class TestDeepRepeatNesting:
    DEEP = "REPEAT 1 { " * 1200 + "SWEEP" + " }" * 1200

    def test_parses_without_recursion(self):
        assert parse_schedule(self.DEEP) == (("SWEEP", None),)
        with pytest.raises(ConfigError, match="inside a REPEAT block"):
            parse_schedule(self.DEEP[:-2])

    def test_run_exits_0_and_unterminated_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(f"N = 3\nm0 = 1\ninitial = 100\nschedule {{ {self.DEEP} }}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        cfg.write_text(f"N = 3\nm0 = 1\ninitial = 100\nschedule {{ {self.DEEP[:-2]} }}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error: unterminated schedule block" in capsys.readouterr().err


class TestFileSystemInputs:
    """Paths the file system refuses end with exit code 2 and a message."""

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        code, err = self.run(capsys, "run", str(tmp_path))
        assert code == 2 and "config error" in err and str(tmp_path) in err

    def test_config_file_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(PUMP_CFG.encode() + b"# r\xe9sum\xe9\n")
        with pytest.raises(ConfigError, match="utf-8"):
            parse_config(cfg)
        code, err = self.run(capsys, "run", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2 and "utf-8" in err

    def test_initial_state_file_is_a_directory(self, tmp_path, capsys):
        cfg = tmp_path / "dir_state.cfg"
        cfg.write_text(f"N = 3\nm0 = 1\ninitial = file:{tmp_path}\nschedule {{ SWEEP }}\n")
        with pytest.raises(ConfigError, match="state file"):
            load_state(tmp_path)
        code, err = self.run(capsys, "run", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2 and "state file" in err

    def test_run_out_is_an_existing_file(self, tmp_path, capsys):
        cfg = tmp_path / "pump.cfg"
        cfg.write_text(PUMP_CFG)
        (tmp_path / "taken").write_text("")
        code, err = self.run(capsys, "run", str(cfg), "--out", str(tmp_path / "taken"))
        assert code == 2 and "config error" in err and "taken" in err

    def test_verify_out_is_an_existing_file(self, tmp_path, capsys):
        (tmp_path / "tables").mkdir()
        (tmp_path / "taken").write_text("")
        code, err = self.run(capsys, "verify-sequences", str(tmp_path / "tables"),
                             "--out", str(tmp_path / "taken"))
        assert code == 2 and "config error" in err and "taken" in err


import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402

import spinmaps.cli as cli_module  # noqa: E402
from spinmaps.cli import MAX_N, _config_echo  # noqa: E402

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def collect_then_write(config, out_dir, stem, dump_states=False):
    """The writer of the previous release, kept here as the reference: run the
    whole schedule, holding every state, then write dumps, CSV and JSON."""
    out_dir.mkdir(parents=True, exist_ok=True)
    reports, states = collect_steps(config)
    dump = dump_states or config.dump_states
    if dump:
        dumped = []
        for r, state in zip(reports, states):
            name = f"{stem}_state_{r.step:04d}.json"
            dump_state(state, out_dir / name)
            dumped.append(replace(r, state_dump=name))
        reports = dumped
    csv_path = out_dir / f"{stem}.csv"
    csv_path.write_text(reports_to_csv(reports, config))
    payload = {
        "config": _config_echo(config),
        "reports": [
            {
                "step": r.step,
                "token": r.label,
                "fidelity": r.dicke_fidelity,
                "purity": r.purity,
                "populations": list(r.populations),
                "offdiag": r.offdiag,
                "success_prob": r.success_prob,
                "state_dump": r.state_dump,
            }
            for r in reports
        ],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return reports, csv_path


def tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestStreamingRun:
    """``run_to_files`` holds one live state and writes each dump when its
    step is done; its files are those of the collect-then-write reference."""

    @pytest.mark.parametrize("dump", [False, True])
    @pytest.mark.parametrize(
        "stem", ["competition_3spin", "pump_10spin_noisy", "pump_3spin", "stabilize_3spin"]
    )
    def test_files_equal_the_collect_then_write_reference(self, tmp_path, stem, dump):
        config = parse_config(CONFIGS / f"{stem}.cfg")
        if config.n == 10:
            # Thirty N = 10 dumps are 1.3 GB, and the reference holds all thirty
            # states (0.5 GB), so this config runs its first two sweeps.
            config = replace(config, schedule=config.schedule[:2])
        streamed, csv_path = run_to_files(config, tmp_path / "stream", stem, dump)
        reference, _ = collect_then_write(config, tmp_path / "reference", stem, dump)
        assert streamed == reference
        assert csv_path == tmp_path / "stream" / f"{stem}.csv"
        files = tree_bytes(tmp_path / "stream")
        assert len(files) == 2 + (len(config.schedule) if dump else 0)
        assert files == tree_bytes(tmp_path / "reference")

    def test_run_steps_repeats_a_collected_run_bitwise(self):
        config = parse_config(CONFIGS / "competition_3spin.cfg")
        reports, states = collect_steps(config)
        steps = list(run_steps(config))
        assert [r for r, _ in steps] == reports
        for (_, rho), state in zip(steps, states):
            assert rho.matrix.tobytes() == state.matrix.tobytes()

    def test_traced_peak_is_flat_in_schedule_length(self, tmp_path):
        state_bytes = 16 * 4**8
        text = ("N = 8\nm0 = 3\ninitial = 01001001\nepsilon_diss = 0.02\n"
                "epsilon_coh = 0.004\nschedule {{ REPEAT {} {{ SWEEP; U 0.25 }} }}\n")
        run_to_files(parse_config_text(text.format(1)), tmp_path / "warm", "run", True)
        peaks = {}
        for repeat in (2, 8):
            config = parse_config_text(text.format(repeat))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run_to_files(config, tmp_path / f"r{repeat}", "run", dump_states=True)
                peaks[repeat] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert len(list((tmp_path / "r8").glob("run_state_*.json"))) == 16
        assert abs(peaks[8] - peaks[2]) < state_bytes, peaks

    def test_stab_step_peak_is_a_few_system_states(self, tmp_path):
        # The ancilla is carried as system-sized blocks, so a STAB step never
        # holds a register state (9 system states each).
        state_bytes = 16 * 4**8
        config = parse_config_text("N = 8\nm0 = 4\ninitial = equal\nschedule { STAB 4 }\n")
        run_to_files(config, tmp_path / "warm", "run")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_to_files(config, tmp_path / "run", "run")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 5 * state_bytes, peak / state_bytes

    def test_invariant_violation_keeps_the_completed_dumps_only(self, tmp_path, capsys):
        for name, schedule in (("good", "SWEEP; SWEEP"), ("bad", "SWEEP; SWEEP; QND 3")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "run.cfg").write_text(
                f"N = 3\nm0 = 2\ninitial = 101\nschedule {{ {schedule} }}\n"
            )
        out = {name: tmp_path / name / "out" for name in ("good", "bad")}
        argv = ["run", "--dump-states", "--out"]
        assert main(argv + [str(out["good"]), str(tmp_path / "good" / "run.cfg")]) == 0
        assert main(argv + [str(out["bad"]), str(tmp_path / "bad" / "run.cfg")]) == 3
        assert "step 3 (QND 3)" in capsys.readouterr().err
        dumps = ["run_state_0001.json", "run_state_0002.json"]
        assert sorted(tree_bytes(out["bad"])) == dumps
        good = tree_bytes(out["good"])
        assert sorted(good) == ["run.csv", "run.json"] + dumps
        assert tree_bytes(out["bad"]) == {name: good[name] for name in dumps}


class TestRegisterSizeCap:
    """An N above ``MAX_N`` is a configuration error raised before any state
    is built."""

    @pytest.mark.parametrize("n", [MAX_N + 1, 20, 64])
    def test_oversized_n_is_rejected_without_allocating(self, monkeypatch, n):
        def no_state(config):
            raise AssertionError("initial_state was called")

        monkeypatch.setattr(cli_module, "initial_state", no_state)
        text = f"N = {n}\nm0 = 1\ninitial = 1{'0' * (n - 1)}\nschedule {{ SWEEP }}\n"
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=rf"^N = {n} exceeds .* N = {MAX_N}$"):
                parse_config_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [20, 64])
    def test_cli_exits_2_and_names_n(self, tmp_path, capsys, n):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"N = {n}\nm0 = 1\ninitial = 1{'0' * (n - 1)}\nschedule {{ SWEEP }}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: N = {n} exceeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exits_2_with_a_message(self, tmp_path, capsys, monkeypatch):
        def no_memory(config):
            raise MemoryError("Unable to allocate 1.00 GiB for an array with shape (8192, 8192)")

        monkeypatch.setattr(cli_module, "initial_state", no_memory)
        cfg = tmp_path / "big.cfg"
        cfg.write_text("N = 13\nm0 = 1\ninitial = equal-superposition\nschedule { SWEEP }\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "out of memory: Unable to allocate 1.00 GiB" in capsys.readouterr().err


from spinmaps.register import _sector_plan  # noqa: E402


class TestBlockedRun:
    """A run from a sector-diagonal start (basis, Dicke or such a ``file:``
    state) is held in the blocked form through every token; an ``equal``
    start stays dense."""

    def test_initial_state_forms(self, tmp_path):
        text = "N = 4\nm0 = 2\ninitial = {}\nschedule {{ SWEEP }}\n"
        dump_state(basis_state(qubit_register(4), [0, 1, 1, 0]).density(), tmp_path / "s.json")
        for initial in ("0110", "dicke 2", f"file:{tmp_path / 's.json'}"):
            assert initial_state(parse_config_text(text.format(initial))).sectors is not None
        assert initial_state(parse_config_text(text.format("equal"))).sectors is None

    def test_tokens_keep_or_drop_the_blocked_form(self):
        config = parse_config_text(
            "N = 4\nm0 = 2\ninitial = 0110\nepsilon_diss = 0.02\n"
            "schedule { SWEEP; U 0.25; QND 2; D 1; QND 2; STAB 2 }\n")
        forms = [rho.sectors is not None for _, rho in run_steps(config)]
        assert forms == [True] * 6

    def test_chain_n10_run_peaks_below_one_and_a_half_dense_states(self, tmp_path):
        # The dense path peaks at 2.3 states, so this fails if the run falls back.
        config = parse_config_text(
            "N = 10\nm0 = 3\ninitial = 0100100100\ntheta = 0.5\nepsilon_diss = 0.02\n"
            "epsilon_coh = 0.004\nschedule {\n  REPEAT 2 { SWEEP; U 0.25 }\n  QND 3\n}\n")
        run_to_files(config, tmp_path / "warm", "run")
        _sector_plan.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_to_files(config, tmp_path / "run", "run")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (16 * 4**10) <= 1.5
        assert tree_bytes(tmp_path / "run") == tree_bytes(tmp_path / "warm")

    def test_no_step_of_an_n9_run_allocates_a_dense_state(self):
        # The second pass runs with the plan caches full.  STAB, REMOVE and
        # INJECT peaked at 4.1-4.3 dense states when they built the matrix.
        config = parse_config_text(
            "N = 9\nm0 = 4\ninitial = 010101010\nepsilon_diss = 0.02\n"
            "schedule { SWEEP; D 1; U 0.25; QND 4; STAB 4; REMOVE 4; INJECT 4 }\n")
        for _ in run_steps(config):
            pass
        peaks, forms = [], []
        steps = run_steps(config)
        tracemalloc.start()
        try:
            while True:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    _, rho = next(steps)
                except StopIteration:
                    break
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / (16 * 4**9))
                forms.append(rho.sectors is not None)
                del rho
        finally:
            tracemalloc.stop()
        assert forms == [True] * 7
        assert max(peaks) < 1.0, peaks


import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

_STARTUP_PROBE = """
import json, sys
from pathlib import Path
import spinmaps.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (
        ["scipy", "optimize"], ["scipy", "sparse"], ["scipy", "special"], ["scipy", "spatial"]))

out, config, tables = map(Path, sys.argv[1:])
cli.run_to_files(cli.parse_config(config), out, "pump_3spin")
after_run = loaded()
cli.verify_sequences(tables)
print(json.dumps([after_run, loaded()]))
"""


class TestStartupImports:
    def test_a_run_loads_no_optimizer_and_a_fit_loads_it(self, tmp_path):
        # scipy.optimize drags in scipy.sparse, scipy.special and scipy.spatial;
        # only frame fits need it, so a run must start without it.
        tables = tmp_path / "tables"
        tables.mkdir()
        # a table whose fit runs Nelder-Mead; swap.txt fits exactly at the zero frame
        table = Path(cli_module.__file__).parent / "data" / "pulse_tables" / "hamiltonian_3spin.txt"
        (tables / table.name).write_text(table.read_text())
        src = str(Path(cli_module.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, str(tmp_path / "run"),
             str(CONFIGS / "pump_3spin.cfg"), str(tables)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        after_run, after_fit = json.loads(proc.stdout)
        assert after_run == []
        assert "scipy.optimize" in after_fit
        assert (tmp_path / "run" / "pump_3spin.csv").is_file()
