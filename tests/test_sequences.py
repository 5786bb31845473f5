"""Checks for the shipped transcriptions of the hardware pulse tables."""

import numpy as np
import pytest
from math import pi
from pathlib import Path

from spinmaps.channels import Channel, choi, process_fidelity
from spinmaps.cli import verify_sequences
from spinmaps.gateset import (
    min_register_size,
    parse_sequence,
    sequence_channel,
    sequence_unitary,
    serialize_sequence,
)
from spinmaps.maps import DissipativeMapSpec, elementary_dissipative_map
from spinmaps.register import basis_bits, qubit_register

TABLES = Path(__file__).resolve().parents[1] / "src" / "spinmaps" / "data" / "pulse_tables"

EXPECTED_PULSE_COUNTS = {
    "decoupling.txt": 9,
    "ancilla_reset.txt": 4,
    "single_dissipative_map.txt": 19,
    "hamiltonian_3spin.txt": 7,
    "hamiltonian_4spin.txt": 11,
    "qnd_number_map.txt": 19,
    "removal_number_map.txt": 15,
    "injection_number_map.txt": 22,
    "swap.txt": 6,
}


def normalized_pulse_lines(text):
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append("".join(stripped.split()))
    return lines


class TestTableFiles:
    def test_all_nine_tables_present(self):
        names = sorted(p.name for p in TABLES.glob("*.txt"))
        assert names == sorted(EXPECTED_PULSE_COUNTS)

    @pytest.mark.parametrize("name,count", sorted(EXPECTED_PULSE_COUNTS.items()))
    def test_parses_with_expected_length(self, name, count):
        seq = parse_sequence((TABLES / name).read_text())
        assert len(seq) == count

    @pytest.mark.parametrize("name", sorted(EXPECTED_PULSE_COUNTS))
    def test_roundtrip_byte_equal_modulo_whitespace(self, name):
        text = (TABLES / name).read_text()
        seq = parse_sequence(text)
        assert parse_sequence(serialize_sequence(seq)) == seq
        assert normalized_pulse_lines(serialize_sequence(seq)) == normalized_pulse_lines(text)

    @pytest.mark.parametrize("name", sorted(set(EXPECTED_PULSE_COUNTS) - {"ancilla_reset.txt"}))
    def test_pulse_only_tables_interpret_to_unitaries(self, name):
        seq = parse_sequence((TABLES / name).read_text())
        layout = qubit_register(min_register_size(seq))
        u = sequence_unitary(seq, layout)
        assert np.max(np.abs(u.conj().T @ u - np.eye(layout.dim))) <= 1e-12

    def test_reset_table_interprets_to_cptp_channel(self):
        seq = parse_sequence((TABLES / "ancilla_reset.txt").read_text())
        layout = qubit_register(min_register_size(seq))
        ch = sequence_channel(seq, layout)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.allclose(total, np.eye(layout.dim), atol=1e-12)


class TestSwapTable:
    def test_reproduces_flip_flop_unitary(self):
        seq = parse_sequence((TABLES / "swap.txt").read_text())
        result = _TARGET_CHECKS["swap"](seq)
        assert result["fidelity"] >= 1 - 1e-9

    def test_swaps_an_excitation_between_ancilla_and_target(self):
        seq = parse_sequence((TABLES / "swap.txt").read_text())
        lay = qubit_register(3)
        u = sequence_unitary(seq, lay)
        src = np.zeros(8, dtype=complex)
        src[lay.index_of([0, 1, 0])] = 1.0  # excitation on the target ion
        out = u @ src
        dst = lay.index_of([1, 0, 0])
        assert abs(out[dst]) == pytest.approx(1.0, abs=1e-12)


class TestDissipativeMapTable:
    def test_with_reset_forms_three_ion_channel(self):
        text = (TABLES / "single_dissipative_map.txt").read_text() + "RESET(0)\n"
        seq = parse_sequence(text)
        lay = qubit_register(3)
        ch = sequence_channel(seq, lay)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.allclose(total, np.eye(8), atol=1e-12)


class TestVerifyDirectory:
    def test_report_structure_and_diagnostics(self, tmp_path):
        # run the full verifier on a trimmed directory to keep this fast:
        # one exact target, one diagnostic-free table, one parse failure
        src = tmp_path / "tables"
        src.mkdir()
        for name in ("swap.txt", "ancilla_reset.txt"):
            (src / name).write_text((TABLES / name).read_text())
        (src / "broken.txt").write_text("R(0.5, oops)\n")
        report = verify_sequences(src)
        by_name = {e["file"]: e for e in report["files"]}
        assert by_name["broken.txt"]["parse_ok"] is False
        assert "line 1" in by_name["broken.txt"]["error"]
        assert by_name["ancilla_reset.txt"]["channel_ok"] is True
        assert by_name["ancilla_reset.txt"]["roundtrip_ok"] is True
        swap = by_name["swap.txt"]
        assert swap["unitary_ok"] is True
        assert swap["reference"]["fidelity"] >= 1 - 1e-9

    def test_non_utf8_table_is_a_per_file_parse_failure(self, tmp_path):
        (tmp_path / "ancilla_reset.txt").write_text((TABLES / "ancilla_reset.txt").read_text())
        (tmp_path / "latin1.txt").write_bytes(b"R(0.5, 0.0)  # r\xe9sum\xe9\n")
        by_name = {e["file"]: e for e in verify_sequences(tmp_path)["files"]}
        assert by_name["latin1.txt"]["parse_ok"] is False
        assert "utf-8" in by_name["latin1.txt"]["error"]
        assert by_name["ancilla_reset.txt"]["channel_ok"] is True

    def test_empty_directory_gives_empty_report(self, tmp_path):
        report = verify_sequences(tmp_path)
        assert report["files"] == []


from itertools import permutations  # noqa: E402

import spinmaps.cli as cli_module  # noqa: E402
from spinmaps.cli import (  # noqa: E402
    MAX_TABLE_IONS,
    _flip_flop_target,
    _frame_objective,
    _permute_ions,
    _reduced_channel,
    _TARGET_CHECKS,
    main,
)
from spinmaps.maps import HamiltonianMapSpec, hamiltonian_map  # noqa: E402


def _z_phases(angles):
    """Diagonal of the per-qubit z frame prod_i exp(-i a_i/2 sigma^z_i), ion 0
    most significant, from the sign table at each call: the reference for the
    phase table that the objective builds once per fit."""
    return np.exp(0.5j * (1 - 2 * basis_bits(len(angles))) @ angles)


def kron_z_frame_diagonal(angles):
    """Diagonal of prod_i exp(-i a_i/2 sigma^z_i), built factor by factor."""
    phases = np.array([1.0], dtype=complex)
    for a in angles:
        phases = np.kron(phases, [np.exp(1j * a / 2), np.exp(-1j * a / 2)])
    return phases


def permutation_matrix(perm):
    """Qubit basis permutation sending ion i to slot perm[i], as a 0/1 matrix."""
    layout = qubit_register(len(perm))
    mat = np.zeros((layout.dim, layout.dim))
    for idx in range(layout.dim):
        occ = layout.occupation_of(idx)
        new_occ = [0] * len(perm)
        for i, slot in enumerate(perm):
            new_occ[slot] = occ[i]
        mat[layout.index_of(new_occ), idx] = 1.0
    return mat


class TestFrameFitPieces:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_phases_match_kron_built_frame(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            angles = rng.uniform(-pi, pi, n)
            diff = np.abs(_z_phases(angles) - kron_z_frame_diagonal(angles))
            assert np.max(diff) <= 1e-15

    @pytest.mark.parametrize("perm", list(permutations(range(3))))
    def test_ion_transpose_equals_permutation_matrix_bitwise(self, perm):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        p = permutation_matrix(perm)
        assert np.array_equal(_permute_ions(u, perm), p @ u @ p.T)
        assert np.array_equal(_permute_ions(u, np.argsort(perm)), p.T @ u @ p)


def framed_process_fidelity(ideal, kraus, x):
    """process_fidelity of the channel K -> Z_out K Z_in against ``ideal``, with
    x = (in angles, out angles) and the frames built as dense diagonals."""
    n = len(x) // 2
    z_in = np.diag(kron_z_frame_diagonal(x[:n]))
    z_out = np.diag(kron_z_frame_diagonal(x[n:]))
    layout = qubit_register(n)
    framed = Channel(layout, tuple(z_out @ k @ z_in for k in kraus))
    return process_fidelity(choi(framed), choi(Channel(layout, ideal)))


def bilinear_frame_fidelity(target, u, x):
    """|z_out . (conj(T) * U) . z_in|^2 / d^2: the unitary-table score the Kraus
    overlap replaced, kept here as its reference."""
    n = len(x) // 2
    overlap = _z_phases(x[n:]) @ (target.conj() * u) @ _z_phases(x[:n])
    return (np.abs(overlap) / u.shape[0]) ** 2


def random_kraus(rng, d, rank):
    """Kraus set of a random channel on dimension d: the blocks of a random isometry."""
    g = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    iso, _ = np.linalg.qr(g)
    return tuple(iso[d * k : d * (k + 1)] for k in range(rank))


def untabulated_objective(ideal, candidate, n, x):
    """The frame-fit score with the frame rebuilt from x at each call:
    (||M||_* / d)^2 by an SVD of M."""
    ideal, candidate = np.asarray(ideal), np.asarray(candidate)
    d = ideal.shape[-1]
    form = (ideal.conj()[:, None] * candidate[None]).reshape(len(ideal), len(candidate), d * d)
    return (np.linalg.svd(form @ _z_phases(np.roll(x, n)), compute_uv=False).sum() / d) ** 2


def random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


class TestKrausOverlapObjective:
    IDEAL = elementary_dissipative_map(DissipativeMapSpec(1)).kraus_ops

    @pytest.mark.parametrize("perm", list(permutations(range(3))))
    @pytest.mark.parametrize("prep", [1, 0])
    def test_matches_choi_process_fidelity_on_table_assignments(self, perm, prep):
        seq = parse_sequence((TABLES / "single_dissipative_map.txt").read_text())
        u = sequence_unitary(seq, qubit_register(3))
        kraus = _reduced_channel(u, perm[0], prep, perm[1:]).kraus_ops
        score = _frame_objective(self.IDEAL, kraus, 2)
        rng = np.random.default_rng(11)
        for x in [np.zeros(4)] + [rng.uniform(-pi, pi, 4) for _ in range(5)]:
            assert abs(score(x) - framed_process_fidelity(self.IDEAL, kraus, x)) <= 1e-12

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_choi_process_fidelity_on_random_pair_channels(self, rank):
        rng = np.random.default_rng(100 + rank)
        for trial in range(20):
            kraus = random_kraus(rng, 4, rank)
            ideal = self.IDEAL if trial % 2 else random_kraus(rng, 4, int(rng.integers(1, 5)))
            x = rng.uniform(-pi, pi, 4)
            score = _frame_objective(ideal, kraus, 2)(x)
            assert abs(score - framed_process_fidelity(ideal, kraus, x)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_operator_each_side_is_the_bilinear_form(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(20):
            target, u = random_unitary(rng, 2**n), random_unitary(rng, 2**n)
            x = rng.uniform(-pi, pi, 2 * n)
            expected = bilinear_frame_fidelity(target, u, x)
            assert abs(_frame_objective((target,), (u,), n)(x) - expected) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tabulated_frame_equals_the_rebuilt_frame(self, n):
        rng = np.random.default_rng(40 + n)
        for rank in (2, 3, 4):
            for _ in range(10):
                ideal = random_kraus(rng, 2**n, int(rng.integers(1, 5)))
                kraus = random_kraus(rng, 2**n, rank)
                x = rng.uniform(-pi, pi, 2 * n)
                expected = untabulated_objective(ideal, kraus, n, x)
                assert _frame_objective(ideal, kraus, n)(x) == expected
                single = (ideal[0],), (kraus[0],)
                assert _frame_objective(*single, n)(x) == untabulated_objective(*single, n, x)

    @pytest.mark.parametrize("table", ["swap", "hamiltonian_3spin"])
    def test_one_operator_each_side_on_the_shipped_targets(self, table):
        target = {"swap": _flip_flop_target(),
                  "hamiltonian_3spin": hamiltonian_map(HamiltonianMapSpec(pi / 2), 3).kraus_ops[0]}
        seq = parse_sequence((TABLES / f"{table}.txt").read_text())
        u = sequence_unitary(seq, qubit_register(3))
        rng = np.random.default_rng(5)
        for perm in permutations(range(3)):
            u_perm = _permute_ions(u, np.argsort(perm))
            score = _frame_objective((target[table],), (u_perm,), 3)
            for x in [np.zeros(6)] + [rng.uniform(-pi, pi, 6) for _ in range(3)]:
                expected = bilinear_frame_fidelity(target[table], u_perm, x)
                assert abs(score(x) - expected) <= 1e-14


class TestPinnedReferenceFits:
    def test_hamiltonian_3spin_fidelity_and_roles(self):
        seq = parse_sequence((TABLES / "hamiltonian_3spin.txt").read_text())
        result = _TARGET_CHECKS["hamiltonian_3spin"](seq)
        expected = ((1 + np.sqrt(2)) / (2 * np.sqrt(2))) ** 2
        assert result["fidelity"] == pytest.approx(expected, abs=1e-9)
        assert result["ion_permutation"] == [0, 1, 2]

    def test_single_map_fit_value_and_assignment(self):
        seq = parse_sequence((TABLES / "single_dissipative_map.txt").read_text())
        result = _TARGET_CHECKS["single_dissipative_map"](seq)
        assert result["fidelity"] == pytest.approx(0.32012160845091414, abs=1e-9)
        assert result["assignment"] == {"ancilla": 2, "prep": 1, "pair_order": [0, 1]}


class TestTargetCheckErrors:
    def verify_single(self, tmp_path, text):
        (tmp_path / "swap.txt").write_text(text)
        report = verify_sequences(tmp_path)
        (entry,) = report["files"]
        return entry

    def test_table_too_wide_for_target_register(self, tmp_path):
        entry = self.verify_single(tmp_path, "S_z(0.5, 5)\n")
        assert entry["parse_ok"] is True
        assert "reference" not in entry
        assert "ion 5" in entry["error"]

    def test_reset_in_unitary_target_table(self, tmp_path):
        entry = self.verify_single(tmp_path, "RESET(0)\n")
        assert entry["parse_ok"] is True
        assert "reference" not in entry
        assert "no unitary representation" in entry["error"]

    @pytest.mark.parametrize("text", ["S_z(0.5, 5)\n", "RESET(0)\n"])
    def test_cli_reports_and_exits_zero(self, tmp_path, capsys, text):
        tables = tmp_path / "tables"
        tables.mkdir()
        (tables / "swap.txt").write_text(text)
        assert main(["verify-sequences", str(tables), "--out", str(tmp_path)]) == 0
        assert "swap.txt: ok error:" in capsys.readouterr().out


class TestTableIonCap:
    @pytest.fixture(autouse=True)
    def nothing_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table wider than the cap was interpreted")

        for name in ("qubit_register", "sequence_unitary", "sequence_channel"):
            monkeypatch.setattr(cli_module, name, refuse)

    @pytest.mark.parametrize("line", [
        "S_z(0.5, 40)", f"S_z(0.5, {MAX_TABLE_IONS})", "RESET(40)", f"REPUMP({MAX_TABLE_IONS})"])
    def test_far_ion_is_a_per_file_error(self, tmp_path, line):
        (tmp_path / "wide.txt").write_text(line + "\n")
        (entry,) = verify_sequences(tmp_path)["files"]
        ions = int(line.rstrip(")").split(",")[-1].split("(")[-1]) + 1
        assert entry["parse_ok"] is True and entry["roundtrip_ok"] is True
        assert f"addresses {ions} ions" in entry["error"]
        assert f"at most {MAX_TABLE_IONS}" in entry["error"]
        assert not {"unitary_ok", "channel_ok", "reference"} & set(entry)

    def test_cli_reports_and_exits_zero(self, tmp_path, capsys):
        tables = tmp_path / "tables"
        tables.mkdir()
        (tables / "wide.txt").write_text("S_z(0.5, 40)\n")
        assert main(["verify-sequences", str(tables), "--out", str(tmp_path)]) == 0
        assert "wide.txt: ok error: table addresses 41 ions" in capsys.readouterr().out


from spinmaps.cli import MAX_RESET_TABLE_ENTRIES  # noqa: E402


class TestResetTableBudget:
    """A reset table whose multiplied-out channel would exceed the entry
    budget is a per-file error raised before anything is built."""

    def write(self, tmp_path, n_ions, resets):
        pulses = [f"S_z(0.5, {n_ions - 1})"] + [f"RESET({i % n_ions})" for i in range(resets)]
        (tmp_path / "resets.txt").write_text("\n".join(pulses) + "\n")

    def test_twelve_ions_three_resets_is_refused_unbuilt(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("an over-budget reset table was interpreted")

        for name in ("qubit_register", "sequence_unitary", "sequence_channel"):
            monkeypatch.setattr(cli_module, name, refuse)
        self.write(tmp_path, 12, 3)
        assert 2**3 * 4**12 > MAX_RESET_TABLE_ENTRIES
        (entry,) = verify_sequences(tmp_path)["files"]
        assert entry["parse_ok"] is True and entry["roundtrip_ok"] is True
        assert "3 resets on 12 ions" in entry["error"]
        assert f"{MAX_RESET_TABLE_ENTRIES} entries" in entry["error"]
        assert not {"unitary_ok", "channel_ok", "reference"} & set(entry)

    def test_cli_reports_and_exits_zero(self, tmp_path, capsys):
        tables = tmp_path / "tables"
        tables.mkdir()
        self.write(tables, 12, 3)
        assert main(["verify-sequences", str(tables), "--out", str(tmp_path)]) == 0
        assert "resets.txt: ok error: table has 3 resets" in capsys.readouterr().out

    def test_six_ions_six_resets_is_still_checked(self, tmp_path):
        self.write(tmp_path, 6, 6)
        (entry,) = verify_sequences(tmp_path)["files"]
        assert entry["channel_ok"] is True
        assert "error" not in entry
