from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belldisc import qmath, sampler, tomography
from belldisc.circuit import BellKind, Circuit, bell_prep, composite_state
from belldisc.errors import (
    DimensionMismatch,
    HasMeasurements,
    IncompleteTable,
    InconsistentShotTotals,
    MissingSetting,
    TooManyQubits,
    ZeroShots,
)
from belldisc.sampler import IDEAL, CountsHistogram, NoiseModel, sample_settings
from belldisc.tomography import (
    ExpectationTable,
    exact_expectations,
    expectations_from_counts,
    plan,
    reconstruct,
    run_tomography,
)
from conftest import circuits, noise_models, random_density

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestPlan:
    def test_three_qubit_plan(self):
        p = plan(3)
        assert len(p.settings) == 27
        assert p.settings[0] == "XXX" and p.settings[-1] == "ZZZ"
        assert list(p.settings) == sorted(p.settings)

    def test_bounds(self):
        with pytest.raises(ValueError):
            plan(0)
        with pytest.raises(TooManyQubits):
            plan(5)

    def test_sampling_shares_the_bound(self):
        c = Circuit(5).h(0)
        with pytest.raises(TooManyQubits):
            sample_settings(c, 8)
        with pytest.raises(TooManyQubits):
            run_tomography(c, np.eye(32) / 32, 8)
        assert tomography.MAX_TOMOGRAPHY_QUBITS is sampler.MAX_TOMOGRAPHY_QUBITS == 4


class TestExactExpectations:
    def test_bell_composite_correlators(self):
        rho = qmath.projector(composite_state(BellKind.PSI_PLUS, 0))
        table = exact_expectations(rho)
        assert table.values["XXI"] == pytest.approx(1.0, abs=1e-12)
        assert table.values["YYI"] == pytest.approx(-1.0, abs=1e-12)
        assert table.values["ZZI"] == pytest.approx(1.0, abs=1e-12)
        assert table.values["ZII"] == pytest.approx(0.0, abs=1e-12)
        assert table.values["IIZ"] == pytest.approx(1.0, abs=1e-12)
        assert table.values["III"] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            exact_expectations(np.eye(3) / 3)


class TestReconstruct:
    @given(seeds, st.integers(1, 4))
    @settings(deadline=None, max_examples=30)
    def test_round_trip_random_density(self, seed, n_qubits):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 2 ** n_qubits)
        back = reconstruct(exact_expectations(rho))
        assert np.abs(back - rho).max() <= 1e-9

    def test_round_trip_bell_states(self):
        for kind in BellKind:
            rho = qmath.projector(composite_state(kind, kind.parity_bit))
            back = reconstruct(exact_expectations(rho))
            assert np.abs(back - rho).max() <= 1e-12

    def test_missing_label_raises(self):
        table = exact_expectations(np.eye(2) / 2)
        broken = ExpectationTable(1, {k: v for k, v in table.values.items() if k != "Y"})
        with pytest.raises(IncompleteTable):
            reconstruct(broken)


def _histograms_for(n_bits: int, per_setting: dict[str, dict[str, int]], shots: int):
    return {
        setting: CountsHistogram(n_bits, shots, counts)
        for setting, counts in per_setting.items()
    }


class TestExpectationsFromCounts:
    def test_single_qubit_estimates(self):
        hists = _histograms_for(
            1,
            {"X": {"0": 100}, "Y": {"0": 25, "1": 75}, "Z": {"0": 50, "1": 50}},
            100,
        )
        table = expectations_from_counts(plan(1), hists)
        assert table.values["I"] == 1.0
        assert table.values["X"] == pytest.approx(1.0)
        assert table.values["Y"] == pytest.approx(-0.5)
        assert table.values["Z"] == pytest.approx(0.0)

    def test_identity_slots_read_from_z_filled_setting(self):
        settings_2q = {s: {"00": 80, "11": 20} for s in plan(2).settings}
        table = expectations_from_counts(plan(2), _histograms_for(2, settings_2q, 100))
        # IZ comes from the ZZ histogram: sign by bit 1 only
        assert table.values["IZ"] == pytest.approx(0.8 - 0.2)
        assert table.values["ZI"] == pytest.approx(0.8 - 0.2)
        assert table.values["ZZ"] == pytest.approx(1.0)

    def test_missing_setting(self):
        hists = _histograms_for(1, {"X": {"0": 10}, "Y": {"0": 10}}, 10)
        with pytest.raises(MissingSetting):
            expectations_from_counts(plan(1), hists)

    def test_inconsistent_shot_totals(self):
        hists = {
            "X": CountsHistogram(1, 10, {"0": 10}),
            "Y": CountsHistogram(1, 10, {"0": 10}),
            "Z": CountsHistogram(1, 20, {"0": 20}),
        }
        with pytest.raises(InconsistentShotTotals):
            expectations_from_counts(plan(1), hists)

    def test_wrong_width(self):
        hists = {s: CountsHistogram(2, 10, {"00": 10}) for s in plan(1).settings}
        with pytest.raises(DimensionMismatch):
            expectations_from_counts(plan(1), hists)

    def test_coefficients_bounded(self):
        rng = np.random.default_rng(8)
        shots = 500
        hists = {}
        for s in plan(2).settings:
            raw = rng.multinomial(shots, [0.25] * 4)
            hists[s] = CountsHistogram(
                2, shots, {format(i, "02b"): int(c) for i, c in enumerate(raw) if c}
            )
        table = expectations_from_counts(plan(2), hists)
        assert all(abs(v) <= 1.05 for v in table.values.values())


class TestRunTomography:
    def test_noiseless_bell_prep(self):
        kind = BellKind.PSI_PLUS
        ideal = composite_state(kind, 0)
        report = run_tomography(bell_prep(kind), ideal, shots=4096, seed=9)
        assert report.fidelity_to_ideal >= 0.995
        # eigenvalue clipping costs a little fidelity at this shot count
        assert qmath.fidelity(qmath.projector(ideal), report.physical) >= 0.98
        assert report.deviation.maximum <= 0.05
        assert abs(report.purity - 1.0) <= 0.05
        assert np.abs(report.raw - report.raw.conj().T).max() <= 1e-12

    def test_seed_pins_run(self):
        kind = BellKind.PHI_MINUS
        ideal = composite_state(kind, 0)
        a = run_tomography(bell_prep(kind), ideal, shots=512, seed=4)
        b = run_tomography(bell_prep(kind), ideal, shots=512, seed=4)
        assert np.array_equal(a.raw, b.raw)
        c = run_tomography(bell_prep(kind), ideal, shots=512, seed=5)
        assert not np.array_equal(c.raw, a.raw)

    def test_noise_degrades_fidelity(self):
        kind = BellKind.PSI_MINUS
        ideal = composite_state(kind, 0)
        noisy = run_tomography(
            bell_prep(kind), ideal, shots=4096, noise=NoiseModel(0.02, 0.05, 0.02), seed=1
        )
        assert 0.5 < noisy.fidelity_to_ideal < 0.99
        assert noisy.purity < 0.95

    def test_accepts_vector_or_matrix_ideal(self):
        kind = BellKind.PSI_PLUS
        vec = composite_state(kind, 0)
        a = run_tomography(bell_prep(kind), vec, shots=256, seed=2)
        b = run_tomography(bell_prep(kind), qmath.projector(vec), shots=256, seed=2)
        assert a.fidelity_to_ideal == b.fidelity_to_ideal

    def test_rejects_measured_circuit(self):
        c = bell_prep(BellKind.PSI_PLUS).measure(0)
        with pytest.raises(HasMeasurements, match="tomography appends its own measurements"):
            run_tomography(c, composite_state(BellKind.PSI_PLUS, 0))
        # run_tomography checks its own argument, the ideal, before sample_settings checks the circuit
        with pytest.raises(DimensionMismatch):
            run_tomography(c, np.eye(4) / 4)

    def test_rejects_wrong_ideal_shape(self):
        with pytest.raises(DimensionMismatch):
            run_tomography(bell_prep(BellKind.PSI_PLUS), np.eye(4) / 4, shots=64)

    @pytest.mark.parametrize("shots", [0, -5, 7.5, True, np.bool_(True), "64"])
    def test_rejects_bad_shots(self, shots):
        c = bell_prep(BellKind.PSI_PLUS)
        ideal = composite_state(BellKind.PSI_PLUS, 0)
        with pytest.raises(ZeroShots):
            run_tomography(c, ideal, shots=shots)
        # the circuit and the ideal are checked first, as before
        with pytest.raises(HasMeasurements):
            run_tomography(c.measure(0), ideal, shots=shots)
        with pytest.raises(DimensionMismatch):
            run_tomography(c, np.eye(4) / 4, shots=shots)

    def test_rejects_shots_past_the_int64_maximum(self):
        with pytest.raises(ZeroShots):
            run_tomography(bell_prep(BellKind.PSI_PLUS), composite_state(BellKind.PSI_PLUS, 0), shots=2**63)

    def test_numpy_integer_shots(self):
        kind = BellKind.PSI_MINUS
        a = run_tomography(bell_prep(kind), composite_state(kind, 0), shots=np.int64(256), seed=2)
        b = run_tomography(bell_prep(kind), composite_state(kind, 0), shots=256, seed=2)
        assert np.array_equal(a.raw, b.raw)
        assert json.loads(a.to_json())["shots"] == 256

    def test_numpy_integer_seed(self):
        kind = BellKind.PSI_MINUS
        a = run_tomography(bell_prep(kind), composite_state(kind, 0), shots=256, seed=np.int64(3))
        b = run_tomography(bell_prep(kind), composite_state(kind, 0), shots=256, seed=3)
        assert np.array_equal(a.raw, b.raw)
        assert type(a.seed) is int
        assert json.loads(a.to_json())["seed"] == 3

    def test_report_serialization(self):
        kind = BellKind.PHI_PLUS
        report = run_tomography(bell_prep(kind), composite_state(kind, 0), shots=256, seed=3)
        data = json.loads(report.to_json("phi_plus_0.prep", "phi_plus_0"))
        assert data["label"] == "phi_plus_0.prep"
        assert data["shots"] == 256 and data["n_qubits"] == 3
        assert len(data["raw"]["re"]) == 8 and len(data["physical"]["im"][0]) == 8
        # serialized entries are printed at 6 decimals
        assert data["raw"]["re"][0][0] == round(report.raw.real[0, 0], 6)
        assert 0.0 <= data["fidelity_to_ideal"] <= 1.0


class TestRawFromCounts:
    """``run_tomography`` goes from counts to the raw matrix in one tensor; the two-step path is its reference."""

    @given(
        c=circuits(max_qubits=4),
        noise=noise_models,
        shots=st.just(8192) | st.integers(1, 10**5),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(c=bell_prep(BellKind.PSI_PLUS), noise=NoiseModel(0.02, 0.05, 0.02), shots=8192, seed=3)
    @example(c=bell_prep(BellKind.PHI_MINUS), noise=IDEAL, shots=3, seed=0)
    @settings(deadline=None, max_examples=100)
    def test_raw_is_estimate_then_inversion(self, c, noise, shots, seed):
        n = c.n_qubits
        tomo_plan = plan(n)
        histograms = {
            setting: CountsHistogram(n, shots, {format(i, f"0{n}b"): int(k) for i, k in enumerate(row) if k})
            for setting, row in zip(tomo_plan.settings, sample_settings(c, shots, noise, seed), strict=True)
        }
        expected = reconstruct(expectations_from_counts(tomo_plan, histograms))
        raw = run_tomography(c, np.eye(2 ** n) / 2 ** n, shots, noise, seed).raw
        if shots == 8192:  # every count over shots 2^n is exact, in both paths
            assert np.array_equal(raw, expected)
        else:
            assert np.abs(raw - expected).max() <= 1e-12
