from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldisc import qmath
from belldisc.circuit import (
    BellKind,
    Circuit,
    Gate,
    bell_prep,
    bell_vector,
    combined_check,
    composite_state,
    discrimination_circuit,
    equivalent_up_to_phase,
    format_circuit,
    parity_check,
    parse_circuit,
    phase_check,
    reverse_epr,
    simulate,
    unitary_of,
)
from belldisc.errors import (
    BadQubitIndex,
    DimensionMismatch,
    HasMeasurements,
    HasMeasurementsBeforeEnd,
    ParseError,
)
from belldisc.sampler import with_basis_change
from conftest import circuits, random_circuit

ALL_KINDS = list(BellKind)


class TestGateAndCircuitValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("T", 0)

    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(BadQubitIndex):
            Gate("CNOT", 1, control=1)

    def test_cnot_needs_control(self):
        with pytest.raises(ValueError):
            Gate("CNOT", 1)

    def test_single_qubit_gate_rejects_control(self):
        with pytest.raises(ValueError):
            Gate("H", 1, control=0)

    def test_negative_qubit_index(self):
        with pytest.raises(BadQubitIndex):
            Gate("H", -1)

    def test_empty_register(self):
        with pytest.raises(BadQubitIndex):
            Circuit(0)

    def test_gate_outside_register(self):
        with pytest.raises(BadQubitIndex):
            Circuit(2).h(2)

    def test_measure_outside_register(self):
        with pytest.raises(BadQubitIndex):
            Circuit(2).measure(5)

    def test_gate_after_measurement_rejected(self):
        c = Circuit(2).h(0).measure(0)
        with pytest.raises(HasMeasurementsBeforeEnd):
            c.x(0)
        # untouched qubits are still writable
        assert c.x(1).gate_count == 2

    def test_extend_checks_register_size(self):
        with pytest.raises(DimensionMismatch):
            Circuit(2).extend(Circuit(3))

    def test_extend_concatenates_and_merges_markers(self):
        a = Circuit(2).h(0)
        b = Circuit(2).cnot(0, 1).measure(1)
        c = a.extend(b)
        assert [g.kind for g in c.gates] == ["H", "CNOT"]
        assert c.measured == frozenset({1})

    def test_circuits_are_immutable_values(self):
        c = Circuit(2).h(0)
        d = c.x(1)
        assert c.gate_count == 1 and d.gate_count == 2
        with pytest.raises(AttributeError):
            c.n_qubits = 5


class TestBuildOnce:
    """Building a circuit of g gates validates a constant number of circuits, not O(g)."""

    @staticmethod
    def builds(make) -> int:
        calls = []
        validate = Circuit.__post_init__

        def counting(circuit):
            calls.append(circuit)
            validate(circuit)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Circuit, "__post_init__", counting)
            make()
        return len(calls)

    @pytest.mark.parametrize("gates", [1, 10, 100])
    def test_extend_and_parse(self, gates):
        block = Circuit(3, tuple(Gate("CNOT", i % 3, (i + 1) % 3) for i in range(gates))).measure(0)
        head = Circuit(3).h(1)
        assert self.builds(lambda: head.extend(block)) == 1
        assert self.builds(lambda: parse_circuit(format_circuit(block))) == 1

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_with_basis_change(self, n):
        c = Circuit(n).h(0)
        assert self.builds(lambda: with_basis_change(c, "Y" * n)) == 2

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        circuits(n_qubits=n), circuits(n_qubits=n),
        st.sets(st.integers(0, n - 1)), st.sets(st.integers(0, n - 1)))))
    @settings(deadline=None, max_examples=80)
    def test_extend_equals_append_fold(self, args):
        a, b, a_measured, b_measured = args
        a, b = a.measure(*a_measured), b.measure(*b_measured)
        try:
            folded = a
            for g in b.gates:
                folded = folded.append(g)
            folded = folded.measure(*b.measured)
        except HasMeasurementsBeforeEnd as exc:
            with pytest.raises(HasMeasurementsBeforeEnd, match=re.escape(str(exc))):
                a.extend(b)
        else:
            assert a.extend(b) == folded


class TestSimulation:
    def test_hadamard(self):
        state = simulate(Circuit(1).h(0))
        assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_s_gates_are_inverse_phases(self):
        plus = Circuit(1).h(0)
        state = simulate(plus.s(0))
        assert np.allclose(state, [1 / np.sqrt(2), 1j / np.sqrt(2)])
        state = simulate(plus.s(0).sdg(0))
        assert np.allclose(state, simulate(plus))

    def test_cnot_msb_control_convention(self):
        # control qubit 0 is the most significant bit
        state = simulate(Circuit(2).x(0).cnot(0, 1))
        assert np.allclose(state, qmath.ket("11"))

    def test_initial_state_argument(self):
        state = simulate(Circuit(1).x(0), initial=qmath.ket("1"))
        assert np.allclose(state, qmath.ket("0"))

    def test_initial_state_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            simulate(Circuit(2), initial=qmath.ket("0"))

    def test_unitary_matches_simulation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = random_circuit(rng, 3, 10)
            u = unitary_of(c)
            assert np.allclose(u @ qmath.ket("000"), simulate(c), atol=1e-12)
            assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)

    def test_unitary_of_rejects_measured(self):
        with pytest.raises(HasMeasurements):
            unitary_of(Circuit(1).h(0).measure(0))


class TestEquivalentUpToPhase:
    def test_accepts_global_phase(self):
        u = unitary_of(Circuit(2).h(0).cnot(0, 1))
        assert equivalent_up_to_phase(u, np.exp(1j * 0.7) * u)

    def test_rejects_different_operators(self):
        u = unitary_of(Circuit(1).h(0))
        v = unitary_of(Circuit(1).x(0))
        assert not equivalent_up_to_phase(u, v)

    def test_rejects_shape_mismatch(self):
        assert not equivalent_up_to_phase(np.eye(2), np.eye(4))

    def test_round_off_among_tied_entries_keeps_verdict(self):
        # every entry has modulus 1/2; shrinking the positive ones by a relative
        # 1e-14 must not move the phase reference to an entry of opposite sign
        u = unitary_of(Circuit(2).h(0).h(1).cnot(0, 1))
        v = u.copy()
        v[v.real > 0] *= 1 - 1e-14
        assert equivalent_up_to_phase(u, v)
        assert equivalent_up_to_phase(v, -1j * u)


class TestBellStates:
    def test_kind_tokens_round_trip(self):
        for kind in ALL_KINDS:
            assert BellKind.from_token(kind.value) is kind
        with pytest.raises(ValueError):
            BellKind.from_token("psi")

    def test_bell_vectors_orthonormal(self):
        vecs = [bell_vector(k) for k in ALL_KINDS]
        gram = np.array([[abs(np.vdot(a, b)) for b in vecs] for a in vecs])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_parity_structure(self):
        # psi states live on even-parity kets, phi states on odd
        for kind in ALL_KINDS:
            v = bell_vector(kind)
            support = {i for i in range(4) if abs(v[i]) > 1e-12}
            assert support == ({0, 3} if kind.parity_bit == 0 else {1, 2})

    def test_prep_psi_minus(self):
        state = simulate(bell_prep(BellKind.PSI_MINUS))
        assert np.allclose(state, (qmath.ket("000") - qmath.ket("110")) / np.sqrt(2))

    def test_prep_phi_minus(self):
        state = simulate(bell_prep(BellKind.PHI_MINUS))
        assert np.allclose(state, (qmath.ket("010") - qmath.ket("100")) / np.sqrt(2))

    def test_prep_matches_composite_state(self):
        for kind in ALL_KINDS:
            assert np.allclose(simulate(bell_prep(kind)), composite_state(kind, 0), atol=1e-12)

    def test_composite_state_ancilla_bit(self):
        v = composite_state(BellKind.PSI_PLUS, 1)
        assert np.allclose(v, (qmath.ket("001") + qmath.ket("111")) / np.sqrt(2))
        with pytest.raises(ValueError):
            composite_state(BellKind.PSI_PLUS, 2)

    def test_reverse_epr_returns_phase_and_parity_bits(self):
        for kind in ALL_KINDS:
            c = bell_prep(kind, n_qubits=2).extend(reverse_epr(n_qubits=2))
            state = simulate(c)
            expected = qmath.ket(f"{kind.phase_bit}{kind.parity_bit}")
            assert np.allclose(state, expected, atol=1e-12), kind


class TestCheckBlocks:
    def test_parity_check_copies_parity(self):
        for kind in ALL_KINDS:
            c = bell_prep(kind).extend(parity_check())
            state = simulate(c)
            expected = composite_state(kind, kind.parity_bit)
            assert np.allclose(state, expected, atol=1e-12), kind

    def test_phase_check_copies_phase(self):
        for kind in ALL_KINDS:
            c = bell_prep(kind).extend(phase_check())
            state = simulate(c)
            expected = composite_state(kind, kind.phase_bit)
            assert np.allclose(state, expected, atol=1e-12), kind

    def test_combined_check_copies_both(self):
        for kind in ALL_KINDS:
            c = bell_prep(kind, n_qubits=4).extend(combined_check())
            state = simulate(c)
            expected = np.kron(
                np.kron(bell_vector(kind), qmath.ket(str(kind.phase_bit))),
                qmath.ket(str(kind.parity_bit)),
            )
            assert np.allclose(state, expected, atol=1e-12), kind

    def test_discrimination_circuit_layers(self):
        c = discrimination_circuit(BellKind.PHI_PLUS, "parity")
        # prep (3 gates incl. one X) + parity (2) + reverse EPR (2)
        assert c.gate_count == 7
        with pytest.raises(ValueError):
            discrimination_circuit(BellKind.PHI_PLUS, "bogus")


class TestTextFormat:
    def test_round_trip(self):
        c = bell_prep(BellKind.PHI_MINUS).extend(parity_check()).measure(0, 2)
        text = format_circuit(c)
        back = parse_circuit(text)
        assert back == c

    def test_known_serialization(self):
        c = Circuit(3).h(0).cnot(1, 2).measure(2)
        assert format_circuit(c) == "H 0\nCNOT 1 2\nMEAS 2\n"

    def test_parse_infers_register_size(self):
        c = parse_circuit("H 0\nCNOT 0 4\n")
        assert c.n_qubits == 5

    def test_parse_respects_explicit_size(self):
        assert parse_circuit("H 0", n_qubits=4).n_qubits == 4
        with pytest.raises(BadQubitIndex):
            parse_circuit("H 3", n_qubits=2)

    def test_parse_skips_comments_and_blanks(self):
        c = parse_circuit("# prep\n\nH 0  # hadamard\nCNOT 0 1\n")
        assert [g.kind for g in c.gates] == ["H", "CNOT"]

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_circuit("FOO 0")
        with pytest.raises(ParseError):
            parse_circuit("H x")
        with pytest.raises(ParseError):
            parse_circuit("CNOT 0")
        with pytest.raises(ParseError):
            parse_circuit("MEAS 0 1")
        with pytest.raises(ParseError):
            parse_circuit("")
        with pytest.raises(ParseError):
            parse_circuit("H -1")
        with pytest.raises(ParseError):
            parse_circuit("H 0 1")

    def test_gate_after_meas_rejected(self):
        with pytest.raises(HasMeasurementsBeforeEnd):
            parse_circuit("H 0\nMEAS 0\nX 0\n")
