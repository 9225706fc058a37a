"""The tensor kernel and the batched tomography against the dense oracle.

``dense_oracle`` builds every gate as a full matrix, depolarizes with the
Pauli twirl and runs tomography one setting at a time; the package must agree
with it to 1e-12 where only the order of floating-point operations differs,
and exactly where the arithmetic is integer.  A state evolves in float64 until
its first S or SDG and a noisy state as real Pauli coefficients, so every path is drawn.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belldisc.circuit
import belldisc.sampler
import dense_oracle as oracle
from belldisc import qmath
from belldisc.circuit import (
    GATE_KINDS,
    GATE_MATRICES,
    BellKind,
    Circuit,
    Gate,
    apply_matrix,
    bell_prep,
    combined_check,
    evolve,
    lift,
    simulate,
    unitary_of,
)
from belldisc.refdata import EMBEDDED_LABELS, STAGES as STAGE_NAMES, ideal_state, stage
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
from conftest import REAL_KINDS, circuits, noise_models, probabilities, random_density, random_state

TOL = 1e-12
ANY_CIRCUIT = st.one_of(circuits(), circuits(kinds=REAL_KINDS))
# every gate kind carries some depolarizing noise, so the Pauli-coefficient path is taken
depolarizing = st.floats(1e-3, 1.0)
noisy_models = st.builds(NoiseModel, depolarizing, depolarizing, probabilities)


class TestKernelAgainstDenseOracle:
    @given(ANY_CIRCUIT)
    @settings(deadline=None, max_examples=60)
    def test_simulate_and_unitary(self, c):
        assert np.abs(simulate(c) - oracle.simulate(c)).max() <= TOL
        assert np.abs(unitary_of(c) - oracle.unitary_of(c)).max() <= TOL

    @given(ANY_CIRCUIT, noise_models, st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_returns_are_complex_and_fresh(self, c, noise, seed):
        psi = random_state(np.random.default_rng(seed), 2 ** c.n_qubits).real.copy()
        kept = psi.copy()
        for out in (simulate(c), simulate(c, psi), unitary_of(c), final_density(c, noise)):
            assert out.dtype == np.complex128
            assert not np.shares_memory(out, psi)
        assert np.array_equal(psi, kept)

    @given(circuits(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=30)
    def test_simulate_from_initial_state(self, c, seed):
        psi = random_state(np.random.default_rng(seed), 2 ** c.n_qubits)
        assert np.abs(simulate(c, psi) - oracle.simulate(c, psi)).max() <= TOL

    @given(ANY_CIRCUIT, noise_models)
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
    """Routed circuits are long runs on the hub and up to three spokes, holding both
    CNOT orientations and one-qubit gates on every qubit of the run."""

    @given(
        st.one_of(
            st.sampled_from(ROUTED_BLOCKS),
            circuits(n_qubits=5, max_gates=6).map(transpile),
            circuits(n_qubits=5, max_gates=6, kinds=REAL_KINDS).map(transpile),
        ),
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


def _relabelled(c: Circuit, n: int, order) -> Circuit:
    """``c``'s gates on an ``n``-qubit register, qubit q renamed order[q]."""
    return Circuit(n, tuple(
        Gate(g.kind, order[g.target], None if g.control is None else order[g.control]) for g in c.gates))


class TestKernelCalls:
    """One kernel call per fused run of gates, not one per gate, in float64 wherever the numbers are real."""

    @staticmethod
    def record(run) -> list[tuple[np.dtype, np.dtype, tuple[int, ...], int, int]]:
        """Each kernel call that ``run`` makes: state and matrix dtypes, axes, matrix side, values per axis."""
        seen = []

        def recording(t, u, axes):
            axes = tuple(axes)
            seen.append((t.dtype, u.dtype, axes, len(u), t.shape[axes[0]]))
            return apply_matrix(t, u, axes)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(belldisc.circuit, "apply_matrix", recording)
            run()
        return seen

    @classmethod
    def calls(cls, run) -> int:
        return len(cls.record(run))

    @classmethod
    def dtypes(cls, run) -> set[np.dtype]:
        return {dtype for call in cls.record(run) for dtype in call[:2]}

    def test_routed_block_unitary(self):
        # the block touches the hub and three spokes: four qubits, one 16x16 run
        routed = transpile(device_combined_block())
        assert self.calls(lambda: unitary_of(routed)) == 1 < routed.gate_count

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
        c = _relabelled(pair_circuit, *register)
        expected = min(1, c.gate_count)
        assert self.calls(lambda: simulate(c)) == expected
        assert self.calls(lambda: unitary_of(c)) == expected
        assert self.calls(lambda: final_density(c, noise)) == expected

    @given(
        circuits(n_qubits=4, max_gates=30),
        st.integers(4, 6).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n)))),
    )
    @settings(deadline=None, max_examples=40)
    def test_four_touched_qubits_are_one_call(self, four_qubit_circuit, register):
        c = _relabelled(four_qubit_circuit, *register)
        assert self.calls(lambda: simulate(c)) <= 1
        assert self.calls(lambda: unitary_of(c)) <= 1

    @given(circuits(max_gates=30), circuits(max_gates=30, kinds=REAL_KINDS), noisy_models)
    @settings(deadline=None, max_examples=40)
    def test_runs_are_maximal_and_at_most_16x16(self, c, real, noise):
        for run in (lambda: simulate(c), lambda: unitary_of(c), lambda: simulate(real),
                    lambda: unitary_of(real), lambda: final_density(c, noise)):
            seen = self.record(run)
            for _, _, axes, side, d in seen:
                assert side == d ** len(axes) <= 16
            for (_, _, first, _, d), (_, _, then, _, _) in zip(seen, seen[1:]):
                # the next run's gates would not have fit in this run's matrix
                assert d ** len(set(first) | set(then)) > 16

    @given(circuits(), noise_models)
    @settings(deadline=None, max_examples=60)
    def test_never_more_calls_than_gates(self, c, noise):
        assert self.calls(lambda: simulate(c)) <= c.gate_count
        assert self.calls(lambda: unitary_of(c)) <= c.gate_count
        assert self.calls(lambda: final_density(c, noise)) <= c.gate_count

    @given(circuits(kinds=REAL_KINDS))
    @settings(deadline=None, max_examples=60)
    def test_real_gates_evolve_in_float64(self, c):
        expected = {np.dtype(np.float64)} if c.gates else set()
        assert self.dtypes(lambda: simulate(c)) == expected
        assert self.dtypes(lambda: unitary_of(c)) == expected

    @given(circuits(max_qubits=4), noisy_models, st.data())
    @settings(deadline=None, max_examples=60)
    def test_noisy_states_evolve_in_float64(self, c, noise, data):
        expected = {np.dtype(np.float64)} if c.gates else set()
        measured = c.measure(*data.draw(st.sets(st.integers(0, c.n_qubits - 1), min_size=1)))
        assert self.dtypes(lambda: final_density(c, noise)) == expected
        assert self.dtypes(lambda: exact_distribution(measured, noise)) == expected
        assert self.dtypes(lambda: sample_settings(c, 64, noise)) == expected
        assert self.dtypes(lambda: sample_settings(c, 64, IDEAL)) == expected

    @classmethod
    def results(cls, run) -> list[np.dtype]:
        """The dtype each kernel call computes in: its state's and its matrix's, promoted."""
        return [np.result_type(t, u) for t, u, *_ in cls.record(run)]

    @given(circuits(kinds=REAL_KINDS), st.sampled_from(["S", "SDG"]), st.data())
    @settings(deadline=None, max_examples=60)
    def test_complex_gates_or_an_initial_state_evolve_in_complex128(self, c, kind, data):
        at = data.draw(st.integers(0, c.gate_count))
        q = data.draw(st.integers(0, c.n_qubits - 1))
        with_phase = Circuit(c.n_qubits, c.gates[:at] + (Gate(kind, q),) + c.gates[at:])
        # runs are grown gate by gate, so the phase gate's run is the last run of the circuit cut after it
        first = self.calls(lambda: simulate(Circuit(c.n_qubits, with_phase.gates[:at + 1]))) - 1
        for run in (lambda: simulate(with_phase), lambda: unitary_of(with_phase)):
            results = self.results(run)
            # real before that run; complex in it and in every later run, real gates or not
            assert results == [np.dtype(np.float64)] * first + [np.dtype(np.complex128)] * (len(results) - first)
        psi = qmath.ket("0" * c.n_qubits)
        for circuit in (c, with_phase):
            states = [t for t, *_ in self.record(lambda: simulate(circuit, psi))]
            assert states == [np.dtype(np.complex128)] * len(states)


def _gate(key: tuple) -> Gate:
    """The gate a lift key places: (kind, position) or (CNOT, control, target), positions as qubits."""
    kind, *positions = key
    return Gate(kind, positions[-1], positions[0] if kind == "CNOT" else None)


class TestLiftedTables:
    """The one table, every width, against the dense oracle's full gate matrix on that many qubits:
    H, X and CNOT entries are float64 and S and SDG entries complex128."""

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_lifted_gate_matrices_equal_the_dense_gate_unitary(self, dtype):
        tables = belldisc.circuit._UNITARIES
        kinds = REAL_KINDS if dtype is float else ("S", "SDG")
        assert sorted(tables) == [1, 2, 3, 4]
        for width, table in tables.items():
            assert len(table) == (len(GATE_KINDS) - 1) * width + width * (width - 1)
            for key, new in table.items():
                if key[0] not in kinds:
                    continue
                assert new.dtype == np.dtype(dtype)
                assert np.array_equal(new, oracle.gate_unitary(_gate(key), width)), key


# The lifted tables before float64 entries: every gate complex128, so a state evolves in complex128 throughout.
ALL_COMPLEX = lift({kind: m.astype(complex) for kind, m in GATE_MATRICES.items()})


class TestOneTable:
    """Real runs in float64 change no bit: the one table evolves as the all-complex table does."""

    @given(circuits(max_gates=30), st.lists(st.sampled_from(["S", "SDG"]), min_size=1, max_size=4), st.data())
    @settings(deadline=None, max_examples=80)
    def test_equals_evolving_over_the_all_complex_table(self, c, phases, data):
        gates = list(c.gates)
        for kind in phases:  # spliced in at random places
            gates.insert(data.draw(st.integers(0, len(gates))), Gate(kind, data.draw(st.integers(0, c.n_qubits - 1))))
        c = Circuit(c.n_qubits, tuple(gates))
        dim, shape = 2 ** c.n_qubits, (2,) * c.n_qubits
        psi = random_state(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), dim)
        expected = evolve(np.eye(dim, 1, dtype=complex).reshape(shape), c.gates, ALL_COMPLEX).reshape(-1)
        assert np.array_equal(simulate(c), expected)
        assert np.array_equal(simulate(c, psi), evolve(psi.reshape(shape), c.gates, ALL_COMPLEX).reshape(-1))
        u = evolve(np.eye(dim, dtype=complex).reshape(shape * 2), c.gates, ALL_COMPLEX).reshape(dim, dim)
        assert np.array_equal(unitary_of(c), u)


class TestPauliTransfer:
    """The real channel tables against the complex superoperator they replaced."""

    @given(st.sampled_from(GATE_KINDS), probabilities)
    @settings(deadline=None, max_examples=60)
    def test_channel_is_the_superoperator_in_the_pauli_basis(self, kind, p):
        u = GATE_MATRICES[kind]
        k = len(u).bit_length() - 1
        t = oracle.pauli_change_of_basis(k)
        expected = t @ oracle.superoperator(u, p) @ t.conj().T / 2 ** k
        new = belldisc.sampler._channels(NoiseModel(p, p), k)[(kind, *range(k))]
        assert new.dtype == np.float64
        assert np.abs(new - expected).max() <= 1e-15

    @given(probabilities)
    @settings(deadline=None, max_examples=20)
    def test_every_lifted_channel_is_its_dense_pauli_transfer_matrix(self, p):
        # R[:, j] = T vec(E(P_j)) / 2^w, with E the gate and the Pauli twirl on its qubits in a run of w
        for width in (1, 2):
            labels = ["".join(s) for s in itertools.product("IXYZ", repeat=width)]
            t = oracle.pauli_change_of_basis(width)
            interleaved = [a for q in range(width) for a in (q, width + q)]  # vec laid out as in superoperator
            table = belldisc.sampler._channels(NoiseModel(p, p), width)
            assert len(table) == 4 * width + width * (width - 1)
            for key, new in table.items():
                gate = _gate(key)
                u = oracle.gate_unitary(gate, width)
                columns = []
                for label in labels:
                    rho = oracle.twirl_depolarize(u @ qmath.pauli_operator(label) @ u.conj().T, gate.qubits, width, p)
                    columns.append(t @ rho.reshape((2,) * 2 * width).transpose(interleaved).ravel() / 2 ** width)
                assert np.abs(new - np.array(columns).T).max() <= 1e-15, key

    @given(noise_models)
    @settings(deadline=None, max_examples=30)
    def test_identity_row_is_e0(self, noise):
        for width in (1, 2):
            for key, channel in belldisc.sampler._channels(noise, width).items():
                assert np.array_equal(channel[0], np.eye(len(channel))[0]), key

    @given(circuits(), noisy_models)
    @settings(deadline=None, max_examples=60)
    def test_noisy_density_is_hermitian_with_unit_trace(self, c, noise):
        rho = final_density(c, noise)
        assert qmath.asymmetry(rho) <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= 1e-15


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
    """The 12 reference stages, in ``EMBEDDED_LABELS`` order, and the 4 combined checks, with their ideal states."""
    stages = {label: (c, ideal_state(token)) for label, token, c in (
        stage(kind, name) for kind in BellKind for name in STAGE_NAMES)}
    out = [(label, *stages[label]) for label in EMBEDDED_LABELS]
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


class TestPublicReplay:
    """``run_tomography`` is bitwise its steps taken one public call at a time.

    The traced mode of ``perfbench`` times each layer by replaying a tomography this
    way and requires the six scored fields of both reports to be equal bit for bit,
    not only to the 6 decimals that ``to_json_dict`` prints.
    """

    @pytest.mark.parametrize("label,circuit,ideal", STAGES, ids=[s[0] for s in STAGES])
    def test_report_equals_public_replay(self, label, circuit, ideal):
        report = run_tomography(circuit, ideal, 8192, NOISE, seed=3)
        ideal_m = qmath.projector(ideal) if ideal.ndim == 1 else ideal
        tomo_plan = plan(circuit.n_qubits)
        histograms = {
            setting: sample(with_basis_change(circuit, setting), 8192, NOISE, 3, stream=index)
            for index, setting in enumerate(tomo_plan.settings)
        }
        raw = reconstruct(expectations_from_counts(tomo_plan, histograms))
        physical, clipped = qmath.make_physical(raw)
        assert np.array_equal(report.raw, raw)
        assert np.array_equal(report.physical, physical)
        assert report.fidelity_to_ideal == qmath.fidelity(ideal_m, raw)
        assert report.deviation == qmath.deviation(ideal_m, raw)
        assert report.purity == qmath.purity(raw)
        assert report.clipped == clipped
