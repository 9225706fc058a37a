import json

import numpy as np
import pytest

from belldisc import qmath
from belldisc.circuit import BellKind, simulate
from belldisc.errors import BadDimensions, NonHermitianBeyondTolerance, ParseError
from belldisc.refdata import (
    EMBEDDED_LABELS,
    HERMITICITY_TOL,
    MATRIX_DIM,
    PUBLISHED_DEVIATION,
    PUBLISHED_FIDELITY,
    STAGES,
    ideal_state,
    load_matrix,
    matrix_json_dict,
    metrics_to_csv,
    reproduce_metrics,
    stage,
)


class TestEmbeddedDataset:
    def test_twelve_labels(self):
        assert len(EMBEDDED_LABELS) == 12
        assert len(set(EMBEDDED_LABELS)) == 12
        stages = [lab.rsplit(".", 1)[1] for lab in EMBEDDED_LABELS]
        assert stages.count("prep") == 4
        assert stages.count("phase") == 4
        assert stages.count("parity") == 4

    @pytest.mark.parametrize("label", EMBEDDED_LABELS)
    def test_load_and_sanity(self, label):
        lm = load_matrix(label)
        assert lm.label == label
        assert lm.matrix.shape == (MATRIX_DIM, MATRIX_DIM)
        assert lm.source == "ibm-5q-reference-run"
        asym = np.abs(lm.matrix - lm.matrix.conj().T).max()
        assert asym <= HERMITICITY_TOL
        assert lm.max_asymmetry == pytest.approx(asym, abs=1e-12)
        # stored digit for digit, so the trace only approximates 1
        assert abs(np.trace(lm.matrix).real - 1.0) < 0.05
        assert abs(np.trace(lm.matrix).imag) < 1e-9

    def test_spot_values(self):
        prep = load_matrix("psi_plus_0.prep").matrix
        assert prep[0, 0] == pytest.approx(0.4411)
        assert prep[0, 6] == pytest.approx(0.3657 - 0.0302j)

        minus = load_matrix("psi_minus_0.prep").matrix
        assert minus[0, 6] == pytest.approx(-0.3745 - 0.0067j)
        # kept digit for digit: a 1e-19 scale artifact in the printed source
        assert minus[1, 3].imag == pytest.approx(-2.16e-19, rel=1e-6)

        phase = load_matrix("phi_plus_0.phase").matrix
        assert phase[1, 4] == pytest.approx(0.0362 - 0.0215j)

    @pytest.mark.parametrize("label", EMBEDDED_LABELS)
    def test_purity_below_one(self, label):
        lm = load_matrix(label)
        assert qmath.purity(lm.matrix, herm_tol=HERMITICITY_TOL) < 1.0


class TestIdealState:
    def test_tokens(self):
        psi = ideal_state("psi_plus_0")
        assert psi.shape == (8,)
        expected = np.zeros(8)
        expected[0] = expected[6] = 1 / np.sqrt(2)  # |000> and |110>
        assert np.allclose(psi, expected)

        phi1 = ideal_state("phi_minus_1")
        expected = np.zeros(8)
        expected[3] = 1 / np.sqrt(2)  # |011>
        expected[5] = -1 / np.sqrt(2)  # |101>
        assert np.allclose(phi1, expected)

    @pytest.mark.parametrize("token", [
        "psi_plus", "psi_plus_2", "sigma_plus_0", "", "prep",
        "psi_plus_00", "psi_plus_+1", "psi_plus_-0", "psi_plus_ 1", "PSI_PLUS_0",
    ])
    def test_bad_tokens(self, token):
        with pytest.raises(ParseError):
            ideal_state(token)


class TestStages:
    def test_labels_are_the_embedded_labels(self):
        stages = [(name, *stage(kind, name)[:2]) for kind in BellKind for name in STAGES]
        assert sorted(label for _, label, _ in stages) == sorted(EMBEDDED_LABELS)
        for name, label, token in stages:
            lm = load_matrix(label)
            assert (lm.ideal, lm.stage) == (token, name), label

    @pytest.mark.parametrize("name", STAGES)
    @pytest.mark.parametrize("kind", BellKind)
    def test_circuit_prepares_the_ideal_state(self, kind, name):
        label, token, circuit = stage(kind, name)
        assert label == f"{token}.{name}"
        assert np.abs(simulate(circuit) - ideal_state(token)).max() <= 1e-12

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            stage(BellKind.PSI_PLUS, "combined")


class TestFileLoading:
    def test_round_trip_through_file(self, tmp_path):
        lm = load_matrix("phi_plus_1.parity")
        payload = matrix_json_dict(lm.label, lm.ideal, lm.matrix, lm.stage, lm.source)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        back = load_matrix(path)
        assert back.label == lm.label
        assert back.ideal == lm.ideal
        assert back.stage == lm.stage
        assert np.array_equal(back.matrix, np.round(lm.matrix, 6))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "nokey.json"
        payload = matrix_json_dict("x", "psi_plus_0", np.eye(8) / 8)
        del payload["im"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_wrong_dimensions(self, tmp_path):
        path = tmp_path / "7x8.json"
        payload = matrix_json_dict("x", "psi_plus_0", np.eye(8) / 8)
        payload["re"] = payload["re"][:7]
        path.write_text(json.dumps(payload))
        with pytest.raises(BadDimensions):
            load_matrix(path)

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "str.json"
        payload = matrix_json_dict("x", "psi_plus_0", np.eye(8) / 8)
        payload["re"][0][0] = "oops"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_matrix(path)

    def _write(self, tmp_path, payload: dict):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("ideal", ["psi_plus_00", "psi+", "", "psi_plus"])
    def test_unknown_ideal_token(self, tmp_path, ideal):
        path = self._write(tmp_path, matrix_json_dict("x", ideal, np.eye(8) / 8))
        with pytest.raises(ParseError, match="ideal-state token"):
            load_matrix(path)

    @pytest.mark.parametrize("label,ideal,stage_name", [
        ("psi_plus_0.parity", "psi_plus_0", "phase"),  # the stage disagrees
        ("psi_plus_0.parity", "phi_plus_0", "parity"),  # the ideal disagrees
        ("psi_plus_0.prep", "psi_plus_1", ""),  # both disagree
    ])
    def test_label_disagreeing_with_ideal_or_stage(self, tmp_path, label, ideal, stage_name):
        path = self._write(tmp_path, matrix_json_dict(label, ideal, np.eye(8) / 8, stage=stage_name))
        with pytest.raises(ParseError, match="disagrees"):
            load_matrix(path)

    def test_missing_stage_comes_from_the_label(self, tmp_path):
        payload = matrix_json_dict("psi_minus_1.phase", "psi_minus_1", np.eye(8) / 8, stage="phase")
        del payload["stage"]
        assert load_matrix(self._write(tmp_path, payload)).stage == "phase"
        payload["ideal"] = "psi_minus_0"
        with pytest.raises(ParseError, match="disagrees"):
            load_matrix(self._write(tmp_path, payload))

    @pytest.mark.parametrize("label", ["x", "run.7", "psi_plus_0.combined", "psi_plus_0"])
    def test_free_form_labels_load(self, tmp_path, label):
        payload = matrix_json_dict(label, "phi_minus_1", np.eye(8) / 8)
        del payload["stage"]
        lm = load_matrix(self._write(tmp_path, payload))
        assert (lm.label, lm.ideal, lm.stage) == (label, "phi_minus_1", "")

    def test_asymmetry_beyond_tolerance(self, tmp_path):
        m = np.eye(8, dtype=complex) / 8
        m[0, 1] = 0.01  # no conjugate partner
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(matrix_json_dict("x", "psi_plus_0", m)))
        with pytest.raises(NonHermitianBeyondTolerance):
            load_matrix(path)


class TestReproduceMetrics:
    def test_fidelities_match_published(self):
        rows = {r.label: r for r in reproduce_metrics()}
        assert set(rows) == set(PUBLISHED_FIDELITY)
        for label, published in PUBLISHED_FIDELITY.items():
            assert rows[label].fidelity == pytest.approx(published, abs=5e-4), label

    def test_prep_deviations_match_published(self):
        rows = {r.label: r for r in reproduce_metrics()}
        for label, (avg, mx) in PUBLISHED_DEVIATION.items():
            assert rows[label].avg_dev == pytest.approx(avg, abs=2e-3), label
            assert rows[label].max_dev == pytest.approx(mx, abs=2e-3), label

    def test_raw_convention_beats_projection(self):
        # the published scores are quoted on the raw matrices; projecting to
        # the physical cone visibly lowers this one, so the convention is
        # load-bearing and must not be swapped silently
        lm = load_matrix("psi_plus_0.parity")
        target = qmath.projector(lm.ideal_vector())
        raw_f = qmath.fidelity(target, lm.matrix, herm_tol=HERMITICITY_TOL)
        physical, clipped = qmath.make_physical(lm.matrix)
        assert clipped  # shot noise pushed some eigenvalues negative
        proj_f = qmath.fidelity(target, physical)
        assert raw_f == pytest.approx(0.8751, abs=5e-4)
        assert proj_f < raw_f - 0.01
        assert raw_f - proj_f < 0.1

    def test_csv_export(self):
        rows = reproduce_metrics()
        text = metrics_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "label,fidelity,avg_dev,max_dev,purity"
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "psi_plus_0.prep"
        assert float(first[1]) == pytest.approx(0.8890, abs=5e-4)
