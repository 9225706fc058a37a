"""The tensor kernel and the batched tomography against the dense oracle.

``dense_oracle`` builds every gate as a full matrix, depolarizes with the
Pauli twirl and runs tomography one setting at a time; the package must agree
with it to 1e-12 where only the order of floating-point operations differs,
and exactly where the arithmetic is integer.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belldisc.circuit
import dense_oracle as oracle
from belldisc import qmath
from belldisc.circuit import (
    BellKind,
    Circuit,
    Gate,
    apply_matrix,
    bell_prep,
    combined_check,
    parity_check,
    phase_check,
    simulate,
    unitary_of,
)
from belldisc.refdata import EMBEDDED_LABELS, ideal_state
from belldisc.sampler import (
    IDEAL,
    CountsHistogram,
    NoiseModel,
    exact_distribution,
    final_density,
    sample,
    sample_settings,
    with_basis_change,
)
from belldisc.tomography import (
    exact_expectations,
    expectations_from_counts,
    plan,
    reconstruct,
    run_tomography,
)
from belldisc.transpile import (
    device_combined_block,
    device_parity_block,
    device_phase_block,
    transpile,
)
from conftest import circuits, noise_models, random_density, random_state

TOL = 1e-12


class TestKernelAgainstDenseOracle:
    @given(circuits())
    @settings(deadline=None, max_examples=60)
    def test_simulate_and_unitary(self, c):
        assert np.abs(simulate(c) - oracle.simulate(c)).max() <= TOL
        assert np.abs(unitary_of(c) - oracle.unitary_of(c)).max() <= TOL

    @given(circuits(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_simulate_from_initial_state(self, c, seed):
        psi = random_state(np.random.default_rng(seed), 2 ** c.n_qubits)
        assert np.abs(simulate(c, psi) - oracle.simulate(c, psi)).max() <= TOL

    @given(circuits(), noise_models)
    @settings(deadline=None, max_examples=60)
    def test_final_density(self, c, noise):
        assert np.abs(final_density(c, noise) - oracle.final_density(c, noise)).max() <= TOL

    @given(circuits(), noise_models, st.data())
    @settings(deadline=None, max_examples=60)
    def test_exact_distribution(self, c, noise, data):
        measured = data.draw(st.sets(st.integers(0, c.n_qubits - 1), min_size=1))
        c = c.measure(*measured)
        new, old = exact_distribution(c, noise), oracle.exact_distribution(c, noise)
        assert new.keys() == old.keys()
        assert max(abs(new[k] - old[k]) for k in new) <= TOL

    def test_simulate_does_not_alias_the_initial_state(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        out = simulate(Circuit(1), psi)
        out[0] = 0.0
        assert psi[0] == 1.0


ROUTED_BLOCKS = [transpile(b) for b in (device_parity_block(), device_phase_block(), device_combined_block())]


class TestFusedRoutedCircuits:
    """Routed circuits are long runs on one spoke-hub pair, holding both CNOT
    orientations and one-qubit gates on either side of the pair."""

    @given(
        st.one_of(st.sampled_from(ROUTED_BLOCKS), circuits(n_qubits=5, max_gates=6).map(transpile)),
        st.one_of(st.just(IDEAL), noise_models),
        st.data(),
    )
    @settings(deadline=None, max_examples=40)
    def test_against_dense_oracle(self, c, noise, data):
        assert np.abs(simulate(c) - oracle.simulate(c)).max() <= TOL
        assert np.abs(unitary_of(c) - oracle.unitary_of(c)).max() <= TOL
        assert np.abs(final_density(c, noise) - oracle.final_density(c, noise)).max() <= TOL
        c = c.measure(*data.draw(st.sets(st.integers(0, 4), min_size=1)))
        new, old = exact_distribution(c, noise), oracle.exact_distribution(c, noise)
        assert max(abs(new[k] - old[k]) for k in new) <= TOL


class TestKernelCalls:
    """One kernel call per fused run of gates, not one per gate."""

    @staticmethod
    def calls(run) -> int:
        axes_seen = []

        def counting(t, u, axes):
            axes_seen.append(axes)
            return apply_matrix(t, u, axes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(belldisc.circuit, "apply_matrix", counting)
            run()
        return len(axes_seen)

    def test_routed_block_unitary(self):
        routed = transpile(device_combined_block())
        assert self.calls(lambda: unitary_of(routed)) <= 8 < routed.gate_count

    @pytest.mark.parametrize("kind", list(BellKind))
    def test_noisy_routed_density(self, kind):
        c = bell_prep(kind, system=(2, 1), n_qubits=5).extend(transpile(device_combined_block()))
        assert self.calls(lambda: final_density(c, NOISE)) <= 9 < c.gate_count

    @given(
        circuits(n_qubits=2, max_gates=20),
        st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n)))),
        noise_models,
    )
    @settings(deadline=None, max_examples=40)
    def test_one_pair_is_one_call(self, pair_circuit, register, noise):
        n, order = register
        gates = tuple(
            Gate(g.kind, order[g.target], None if g.control is None else order[g.control])
            for g in pair_circuit.gates
        )
        c = Circuit(n, gates)
        expected = min(1, c.gate_count)
        assert self.calls(lambda: simulate(c)) == expected
        assert self.calls(lambda: unitary_of(c)) == expected
        assert self.calls(lambda: final_density(c, noise)) == expected

    @given(circuits(), noise_models)
    @settings(deadline=None, max_examples=60)
    def test_never_more_calls_than_gates(self, c, noise):
        assert self.calls(lambda: simulate(c)) <= c.gate_count
        assert self.calls(lambda: unitary_of(c)) <= c.gate_count
        assert self.calls(lambda: final_density(c, noise)) <= c.gate_count


class TestDepolarizing:
    @given(circuits(max_qubits=4), st.data())
    @settings(deadline=None, max_examples=40)
    def test_full_strength_leaves_touched_qubits_maximally_mixed(self, c, data):
        n = c.n_qubits
        k = data.draw(st.integers(1, min(n, 2)))
        touched = sorted(data.draw(st.permutations(range(n)))[:k])
        gate = Gate("CNOT", touched[1], touched[0]) if k == 2 else Gate("H", touched[0])
        noise = NoiseModel(1.0, 1.0)
        rho = final_density(c.append(gate), noise)
        kept = [q for q in range(n) if q not in touched]
        # rho -> Tr_S(rho) (x) I/2^k: the rest keeps its state, S is maximally mixed
        rest = qmath.partial_trace(final_density(c, noise), kept, n) if kept else np.ones((1, 1))
        expected = np.kron(rest, np.eye(2 ** k) / 2 ** k)
        order = kept + touched
        rho = rho.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
        assert np.abs(rho.reshape(2 ** n, 2 ** n) - expected).max() <= TOL


class TestEstimatorAgainstLoop:
    @given(st.integers(1, 4), st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_array_estimator_equals_label_loop(self, n, shots, seed):
        rng = np.random.default_rng(seed)
        tomo_plan = plan(n)
        histograms = {}
        for setting in tomo_plan.settings:
            counts = rng.multinomial(shots, rng.dirichlet(np.ones(2 ** n)))
            histograms[setting] = CountsHistogram(
                n, shots, {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c}
            )
        table = expectations_from_counts(tomo_plan, histograms)
        assert table.values == oracle.expectations_from_counts(n, histograms)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_exact_expectations_and_reconstruct(self, n, seed):
        rho = random_density(np.random.default_rng(seed), 2 ** n)
        table = exact_expectations(rho)
        expected = oracle.exact_expectations(rho)
        assert max(abs(table.values[k] - expected[k]) for k in expected) <= TOL
        assert np.abs(reconstruct(table) - oracle.reconstruct(table.values, n)).max() <= TOL


def _stage_circuits() -> list[tuple[str, Circuit, np.ndarray]]:
    """The 12 reference stages and the 4 combined checks, with their ideal states."""
    kinds = {kind.name.lower(): kind for kind in BellKind}
    out = []
    for label in EMBEDDED_LABELS:
        token, stage = label.split(".")
        c = bell_prep(kinds[token.rsplit("_", 1)[0]])
        if stage != "prep":
            c = c.extend(phase_check() if stage == "phase" else parity_check())
        out.append((label, c, ideal_state(token)))
    for kind in BellKind:
        c = bell_prep(kind, n_qubits=4).extend(combined_check())
        out.append((f"{kind.value}.combined", c, final_density(c)))
    return out


STAGES = _stage_circuits()
NOISE = NoiseModel(0.02, 0.05, 0.02)


class TestBatchedTomography:
    @pytest.mark.parametrize("label,circuit,ideal", STAGES, ids=[s[0] for s in STAGES])
    def test_settings_equal_per_setting_samples(self, label, circuit, ideal):
        for seed in (0, 7, 2**40 + 3):
            counts = sample_settings(circuit, 8192, NOISE, seed)
            for index, setting in enumerate(plan(circuit.n_qubits).settings):
                hist = sample(with_basis_change(circuit, setting), 8192, NOISE, seed, stream=index)
                expected = np.zeros(2 ** circuit.n_qubits, dtype=np.int64)
                for key, cnt in hist.counts.items():
                    expected[int(key, 2)] = cnt
                assert np.array_equal(counts[index], expected), setting

    @given(circuits(max_qubits=4), noise_models, st.integers(0, 2**64 - 1))
    @settings(deadline=None, max_examples=100)
    def test_random_settings_equal_per_setting_samples(self, circuit, noise, seed):
        n = circuit.n_qubits
        counts = sample_settings(circuit, 8192, noise, seed)
        for index, setting in enumerate(plan(n).settings):
            hist = sample(with_basis_change(circuit, setting), 8192, noise, seed, stream=index)
            expected = [hist.counts.get(format(i, f"0{n}b"), 0) for i in range(2 ** n)]
            assert counts[index].tolist() == expected, setting

    @pytest.mark.parametrize("label,circuit,ideal", STAGES[::5], ids=[s[0] for s in STAGES[::5]])
    def test_report_equals_dense_per_setting_run(self, label, circuit, ideal):
        new = run_tomography(circuit, ideal, 8192, NOISE, seed=3)
        old = oracle.run_tomography(circuit, ideal, 8192, NOISE, seed=3)
        # 8192 shots make every coefficient a dyadic rational, so the
        # inversion is exact in any summation order
        assert np.array_equal(new.raw, old.raw)
        assert new.to_json_dict(label) == old.to_json_dict(label)
