import json
import os

import numpy as np
import pytest

from belldisc.circuit import BellKind, bell_prep, parse_circuit
from belldisc.cli import main, parse_noise_flag
from belldisc.refdata import ideal_state, load_matrix
from belldisc.sampler import IDEAL, NoiseModel
from belldisc.tomography import run_tomography


class TestParseNoiseFlag:
    def test_none(self):
        assert parse_noise_flag("none") is IDEAL

    def test_depol_only(self):
        nm = parse_noise_flag("depol:0.02,0.06")
        assert nm == NoiseModel(0.02, 0.06, 0.0)

    def test_readout_only(self):
        assert parse_noise_flag("readout:0.01") == NoiseModel(0.0, 0.0, 0.01)

    def test_combined(self):
        nm = parse_noise_flag("depol:0.02,0.06,readout:0.01")
        assert nm == NoiseModel(0.02, 0.06, 0.01)

    def test_combined_reversed_order(self):
        nm = parse_noise_flag("readout:0.01,depol:0.02,0.06")
        assert nm == NoiseModel(0.02, 0.06, 0.01)

    @pytest.mark.parametrize(
        "bad",
        [
            "depol:0.02",  # wrong arity
            "depol:0.1,0.2,0.3",  # wrong arity
            "readout:0.1,0.2",  # wrong arity
            "foo:0.1",  # unknown clause
            "depol:0.1,0.2,depol:0.3,0.4",  # duplicate
            "readout:0.1,readout:0.2",  # duplicate
            "none,readout:0.1",  # none is exclusive
            "0.3,depol:0.1,0.2",  # leading bare number
            "depol:a,b",  # non-numeric
            "readout:1.5",  # out of range
            "",  # empty
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_noise_flag(bad)


class TestDiscriminate:
    def test_noiseless_psi_plus(self, tmp_path, capsys):
        rc = main(
            ["discriminate", "--bell", "psi+", "--shots", "64", "--seed", "3",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "parity check, bell=psi+" in out
        assert "phase check, bell=psi+" in out
        assert "000" in out and "1.000000" in out

        counts_file = tmp_path / "discriminate_psi_plus_parity.counts.json"
        assert counts_file.exists()
        payload = json.loads(counts_file.read_text())
        assert payload["shots"] == 64 and payload["counts"] == {"000": 64}
        assert (tmp_path / "discriminate_psi_plus_phase.counts.json").exists()
        assert (tmp_path / "discriminate_psi_plus_parity.probs.txt").exists()

    def test_json_format(self, tmp_path, capsys):
        rc = main(
            ["discriminate", "--bell", "phi-", "--shots", "32", "--seed", "0",
             "--format", "json", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "discriminate_phi_minus_phase.probs.json").read_text())
        assert payload["bell"] == "phi-" and payload["check"] == "phase"
        assert payload["probabilities"] == {"111": 1.0}

    def test_csv_format(self, tmp_path, capsys):
        rc = main(
            ["discriminate", "--bell", "phi+", "--shots", "16", "--seed", "0",
             "--format", "csv", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "discriminate_phi_plus_parity.probs.csv").read_text().strip().split("\n")
        assert lines[0] == "outcome,count,probability"
        assert lines[1] == "011,16,1.000000"

    def test_missing_bell_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discriminate", "--shots", "8"])
        assert exc.value.code == 2

    def test_unknown_bell_token(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discriminate", "--bell", "omega+"])
        assert exc.value.code == 2

    def test_malformed_noise_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["discriminate", "--bell", "psi+", "--noise", "depol:0.1"])
        assert exc.value.code == 2


class TestTomo:
    def test_writes_report_and_matrix(self, tmp_path, capsys):
        rc = main(
            ["tomo", "--bell", "psi+", "--stage", "prep", "--shots", "128",
             "--seed", "5", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tomography psi_plus_0.prep" in out
        assert "fidelity_to_ideal" in out

        report = json.loads((tmp_path / "tomo_psi_plus_0_prep.report.json").read_text())
        assert report["label"] == "psi_plus_0.prep"
        assert report["shots"] == 128 and report["seed"] == 5
        assert 0.9 <= report["fidelity_to_ideal"] <= 1.01

        csv_lines = (tmp_path / "tomo_psi_plus_0_prep.rho_real.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 9  # header plus 8 rows

    def test_matrix_file_round_trips(self, tmp_path, capsys):
        rc = main(
            ["tomo", "--bell", "psi+", "--stage", "prep", "--shots", "128",
             "--seed", "5", "--out", str(tmp_path)]
        )
        assert rc == 0
        lm = load_matrix(tmp_path / "tomo_psi_plus_0_prep.matrix.json")
        assert lm.label == "psi_plus_0.prep"
        assert lm.source == "belldisc-simulation"
        # the CLI is a thin wrapper: same seed reproduces the same raw matrix
        report = run_tomography(
            bell_prep(BellKind.PSI_PLUS), ideal_state("psi_plus_0"), shots=128, seed=5
        )
        expected = np.round(report.raw.real, 6) + 1j * np.round(report.raw.imag, 6)
        assert np.array_equal(lm.matrix, expected)

    def test_env_seed_matches_flag(self, tmp_path, capsys, monkeypatch):
        flag_dir = tmp_path / "flag"
        env_dir = tmp_path / "env"
        assert main(["tomo", "--bell", "phi+", "--shots", "64", "--seed", "11",
                     "--out", str(flag_dir)]) == 0
        monkeypatch.setenv("BELLDISC_SEED", "11")
        assert main(["tomo", "--bell", "phi+", "--shots", "64",
                     "--out", str(env_dir)]) == 0
        name = "tomo_phi_plus_0_prep.matrix.json"
        assert (flag_dir / name).read_text() == (env_dir / name).read_text()

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLDISC_SEED", "eleven")
        rc = main(["tomo", "--bell", "psi+", "--shots", "16"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_parity_stage_uses_parity_bit_token(self, tmp_path, capsys):
        rc = main(
            ["tomo", "--bell", "phi-", "--stage", "parity", "--shots", "64",
             "--seed", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "tomo_phi_minus_1_parity.report.json").exists()

    def test_phase_stage_uses_phase_bit_token(self, tmp_path, capsys):
        rc = main(
            ["tomo", "--bell", "psi-", "--stage", "phase", "--shots", "64",
             "--seed", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "tomography psi_minus_1.phase" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"tomo_psi_minus_1_phase.{suffix}" for suffix in ("matrix.json", "report.json", "rho_real.csv")
        ]


@pytest.mark.parametrize("argv", [
    ["tomo", "--bell", "psi+", "--shots", "16"],
    ["transpile", "--circuit", "c.txt"],
])
def test_format_only_where_it_is_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_failed_rename_removes_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["reproduce", "--format", "csv", "--out", str(tmp_path / "out")]) == 1
    assert "rename refused" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


class TestReproduce:
    def test_all_rows_pass(self, capsys):
        rc = main(["reproduce"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 12
        assert "FAIL" not in out
        assert "all rows PASS" in out

    def test_csv_output(self, tmp_path, capsys):
        rc = main(["reproduce", "--format", "csv", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 13

    def test_json_output(self, tmp_path, capsys):
        rc = main(["reproduce", "--format", "json", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert len(payload) == 12
        assert payload[0]["label"] == "psi_plus_0.prep"


class TestTranspile:
    def test_parity_block_routes_to_twenty_gates(self, tmp_path, capsys):
        circuit_file = tmp_path / "parity.txt"
        circuit_file.write_text("CNOT 2 3\nCNOT 1 3\n")
        rc = main(["transpile", "--circuit", str(circuit_file), "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gates: 2 -> 20" in out
        assert "equivalent: yes" in out
        routed = parse_circuit((tmp_path / "transpiled.txt").read_text())
        assert routed.gate_count == 20

    def test_custom_map(self, tmp_path, capsys):
        map_file = tmp_path / "line.json"
        map_file.write_text(json.dumps({"n_physical": 3, "allowed": [[0, 1], [1, 2]]}))
        circuit_file = tmp_path / "c.txt"
        circuit_file.write_text("CNOT 1 0\n")
        rc = main(["transpile", "--circuit", str(circuit_file), "--map", str(map_file),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gates: 1 -> 5" in out  # reversed direction: H H CNOT H H
        assert "equivalent: yes" in out

    def test_unroutable_exits_one(self, tmp_path, capsys):
        circuit_file = tmp_path / "big.txt"
        circuit_file.write_text("CNOT 9 2\n")
        rc = main(["transpile", "--circuit", str(circuit_file), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_circuit_file(self, tmp_path, capsys):
        rc = main(["transpile", "--circuit", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_gate_line(self, tmp_path, capsys):
        circuit_file = tmp_path / "bad.txt"
        circuit_file.write_text("WIBBLE 0\n")
        rc = main(["transpile", "--circuit", str(circuit_file), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
