from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldisc.circuit import BellKind, Circuit, Gate, bell_prep, combined_check, equivalent_up_to_phase, unitary_of
from belldisc.errors import BadQubitIndex, ParseError, UnroutableCircuit
from belldisc.sampler import IDEAL, NoiseModel, exact_distribution
from belldisc.transpile import (
    DEFAULT_MAP,
    DEVICE_PARITY_ANCILLA,
    DEVICE_PHASE_ANCILLA,
    DEVICE_SYSTEM,
    CouplingMap,
    device_combined_block,
    device_parity_block,
    device_phase_block,
    swap_conjugated_cnot,
    transpile,
)
from conftest import circuits, probabilities, random_circuit


def assert_respects_map(circuit: Circuit, cmap: CouplingMap) -> None:
    for g in circuit.gates:
        if g.kind == "CNOT":
            assert cmap.permits(g.control, g.target), g.text()


def assert_equivalent(original: Circuit, routed: Circuit) -> None:
    embedded = Circuit(routed.n_qubits, original.gates)
    assert equivalent_up_to_phase(unitary_of(embedded), unitary_of(routed), atol=1e-9)


class TestCouplingMap:
    def test_default_is_directed_star_into_hub(self):
        assert DEFAULT_MAP.n_physical == 5
        assert DEFAULT_MAP.allowed == frozenset({(0, 2), (1, 2), (3, 2), (4, 2)})
        assert DEFAULT_MAP.permits(0, 2) and not DEFAULT_MAP.permits(2, 0)
        assert DEFAULT_MAP.connected(2, 0) and not DEFAULT_MAP.connected(0, 1)

    def test_validation(self):
        with pytest.raises(BadQubitIndex):
            CouplingMap(2, frozenset({(0, 0)}))
        with pytest.raises(BadQubitIndex):
            CouplingMap(2, frozenset({(0, 5)}))
        for n_physical in (0, -3):
            with pytest.raises(BadQubitIndex, match="physical qubit count must be an integer of at least 1"):
                CouplingMap(n_physical, frozenset())

    @pytest.mark.parametrize("n_physical, allowed", [
        (5, {(0.5, 2)}),
        (5, {(0, 2.0)}),
        (5, {(True, 2)}),
        (2.5, {(0, 1)}),
        (True, frozenset()),
        (np.bool_(True), frozenset()),
    ])
    def test_rejects_non_integer_indices_without_truncating(self, n_physical, allowed):
        with pytest.raises(BadQubitIndex):
            CouplingMap(n_physical, frozenset(allowed))

    def test_stores_numpy_integers_as_int(self):
        cmap = CouplingMap(np.int64(5), frozenset({(np.int32(0), np.int64(2))}))
        assert cmap == CouplingMap(5, frozenset({(0, 2)}))
        assert type(cmap.n_physical) is int
        assert all(type(q) is int for pair in cmap.allowed for q in pair)

    def test_json_round_trip(self, tmp_path):
        data = DEFAULT_MAP.to_json_dict()
        assert CouplingMap.from_json_dict(data) == DEFAULT_MAP
        path = tmp_path / "map.json"
        path.write_text(json.dumps(data))
        assert CouplingMap.load(path) == DEFAULT_MAP

    def test_load_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ParseError):
            CouplingMap.load(path)
        path.write_text('{"allowed": []}')
        with pytest.raises(ParseError):
            CouplingMap.load(path)

    @pytest.mark.parametrize("payload", [
        {"n_physical": True, "allowed": []},
        {"n_physical": 5.9, "allowed": [[0, 2]]},
        {"n_physical": "5", "allowed": [[0, 2]]},
        {"n_physical": 5, "allowed": [[0.7, 2]]},
        {"n_physical": 5, "allowed": [[0, True]]},
        {"n_physical": 5, "allowed": [["0", 2]]},
    ])
    def test_rejects_non_integer_indices(self, payload, tmp_path):
        with pytest.raises(ParseError):
            CouplingMap.from_json_dict(payload)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            CouplingMap.load(path)


    @pytest.mark.parametrize("payload, message", [
        ({"n_physical": 3, "allowed": [[0, 7]]}, "qubit of pair (0, 7) must be an integer from 0 to 2, got 7"),
        ({"n_physical": 3, "allowed": [[1, 1]]}, "self-loop (1, 1) in coupling map"),
        ({"n_physical": 0, "allowed": []}, "physical qubit count must be an integer of at least 1, got 0"),
        ({"n_physical": -3, "allowed": []}, "physical qubit count must be an integer of at least 1, got -3"),
    ])
    def test_malformed_file_raises_parse_error_naming_the_path(self, payload, message, tmp_path):
        with pytest.raises(ParseError, match=re.escape(f"bad coupling map payload: {message}")):
            CouplingMap.from_json_dict(payload)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=re.escape(f"coupling map {path}: bad coupling map payload: {message}")):
            CouplingMap.load(path)


@st.composite
def coupling_maps(draw) -> CouplingMap:
    n = draw(st.integers(2, 6))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])))
    return CouplingMap(n, frozenset(pairs))


class TestRoutedCircuitIsChecked:
    """``transpile`` builds its result without ``__post_init__``: it must pass the public checks."""

    @given(coupling_maps(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_every_cnot_pair_on_random_maps(self, cmap, data):
        for control in range(cmap.n_physical):
            for target in range(cmap.n_physical):
                if control == target:
                    continue
                width = data.draw(st.integers(max(control, target) + 1, cmap.n_physical))
                measured = data.draw(st.sets(st.integers(0, width - 1)))
                circuit = Circuit(width).h(target).cnot(control, target).measure(*measured)
                try:
                    routed = transpile(circuit, cmap)
                except UnroutableCircuit as exc:
                    assert str(exc) == f"no single-intermediate route for CNOT {control} -> {target}"
                    continue
                assert Circuit(routed.n_qubits, routed.gates, routed.measured) == routed
                assert type(routed.gates) is tuple and routed.measured == circuit.measured
                # the register the old rescan of every emitted gate gave
                assert routed.n_qubits == max([width, *(q + 1 for g in routed.gates for q in g.qubits)])
                assert_respects_map(routed, cmap)

    @given(circuits(max_qubits=5, max_gates=10))
    @settings(deadline=None, max_examples=60)
    def test_random_circuits_on_the_star(self, circuit):
        routed = transpile(circuit)
        assert Circuit(routed.n_qubits, routed.gates, routed.measured) == routed
        assert routed.n_qubits == max([circuit.n_qubits, *(q + 1 for g in routed.gates for q in g.qubits)])


class TestRewriteRules:
    def test_allowed_cnot_kept(self):
        c = Circuit(5).cnot(0, 2)
        routed = transpile(c)
        assert routed.gates == c.gates

    def test_single_qubit_gates_untouched(self):
        c = Circuit(5).h(0).s(4).x(2)
        assert transpile(c).gates == c.gates

    def test_reversed_cnot_conjugated_with_hadamards(self):
        routed = transpile(Circuit(5).cnot(2, 0))
        kinds = [g.kind for g in routed.gates]
        assert kinds == ["H", "H", "CNOT", "H", "H"]
        cnot = routed.gates[2]
        assert (cnot.control, cnot.target) == (0, 2)
        assert_equivalent(Circuit(5).cnot(2, 0), routed)

    def test_spoke_to_spoke_routes_through_hub(self):
        original = Circuit(5).cnot(1, 3)
        routed = transpile(original)
        assert routed.gate_count == 15
        assert_respects_map(routed, DEFAULT_MAP)
        assert_equivalent(original, routed)

    def test_register_grows_when_routing_borrows_the_hub(self):
        routed = transpile(Circuit(2).cnot(0, 1))
        assert routed.n_qubits == 3  # borrowed the hub
        assert_respects_map(routed, DEFAULT_MAP)
        assert_equivalent(Circuit(3, Circuit(2).cnot(0, 1).gates), routed)

    def test_intermediate_tie_breaks_to_lowest_index(self):
        cmap = CouplingMap(4, frozenset({(0, 1), (1, 2), (0, 3), (3, 2)}))
        routed = transpile(Circuit(4).cnot(0, 2), cmap)
        used = {q for g in routed.gates for q in g.qubits}
        assert 1 in used and 3 not in used

    def test_unroutable_when_no_intermediate(self):
        cmap = CouplingMap(4, frozenset({(0, 1)}))
        with pytest.raises(UnroutableCircuit):
            transpile(Circuit(4).cnot(2, 3), cmap)

    def test_circuit_larger_than_map(self):
        with pytest.raises(UnroutableCircuit):
            transpile(Circuit(9).cnot(0, 8))

    def test_markers_carried_through(self):
        routed = transpile(Circuit(5).cnot(1, 3).measure(3))
        assert routed.measured == frozenset({3})


class TestDeviceBlocks:
    def test_parity_block_expands_to_twenty_gates(self):
        block = device_parity_block()
        assert block.gate_count == 2
        routed = transpile(block)
        assert routed.gate_count == 20
        assert_respects_map(routed, DEFAULT_MAP)
        assert_equivalent(block, routed)

    def test_phase_block_routes_equivalently(self):
        block = device_phase_block()
        routed = transpile(block)
        assert_respects_map(routed, DEFAULT_MAP)
        assert_equivalent(block, routed)
        # pinned output of the deterministic rules, not a published figure
        assert routed.gate_count == 18

    def test_combined_block_routes_equivalently(self):
        block = device_combined_block()
        routed = transpile(block)
        assert_respects_map(routed, DEFAULT_MAP)
        assert_equivalent(block, routed)

    def test_device_placement_constants(self):
        assert DEVICE_SYSTEM == (2, 1)
        assert DEVICE_PHASE_ANCILLA == 0 and DEVICE_PARITY_ANCILLA == 3


class TestSwapConjugation:
    def test_identity_exact(self):
        lhs = unitary_of(Circuit(5).cnot(1, 3))
        rhs = unitary_of(swap_conjugated_cnot(1, 3, via=2, n_qubits=5))
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_via_state_preserved(self):
        # |q2> = |1> must come back out untouched
        from belldisc.circuit import simulate

        prep = Circuit(5).x(2).x(1)
        via_route = prep.extend(swap_conjugated_cnot(1, 3, via=2, n_qubits=5))
        direct = prep.cnot(1, 3)
        assert np.allclose(simulate(via_route), simulate(direct), atol=1e-12)


class TestRandomSoundness:
    def test_random_circuits_on_star(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            c = random_circuit(rng, 4, 12)
            routed = transpile(c)
            assert_respects_map(routed, DEFAULT_MAP)
            assert_equivalent(c, routed)
            assert transpile(routed) == routed
        for block in (device_parity_block(), device_phase_block(), device_combined_block()):
            routed = transpile(block)
            assert transpile(routed) == routed


ROUTED_COMBINED = transpile(device_combined_block())


def _on_system(kind: BellKind, pair_circuit: Circuit, system: tuple[int, int], n: int) -> Circuit:
    """The Bell pair on ``system``, then a two-qubit circuit with its qubits 0 and 1 moved to ``system``."""
    gates = tuple(Gate(g.kind, system[g.target], None if g.control is None else system[g.control])
                  for g in pair_circuit.gates)
    return bell_prep(kind, system, n).extend(Circuit(n, gates))


class TestRoutedAncillaLaw:
    """Metamorphic relations of the combined check's two ancillas, read (phase, parity)."""

    @given(st.sampled_from(list(BellKind)), circuits(n_qubits=2, max_gates=8))
    @settings(deadline=None, max_examples=40)
    def test_routing_keeps_the_ancilla_law(self, kind, pair_circuit):
        routed = _on_system(kind, pair_circuit, DEVICE_SYSTEM, 5).extend(ROUTED_COMBINED)
        unrouted = _on_system(kind, pair_circuit, (0, 1), 4).extend(combined_check())
        new = exact_distribution(routed.measure(DEVICE_PHASE_ANCILLA, DEVICE_PARITY_ANCILLA), IDEAL)
        old = exact_distribution(unrouted.measure(2, 3), IDEAL)
        assert new.keys() == old.keys()
        assert max(abs(new[k] - old[k]) for k in new) <= 1e-12

    @given(probabilities)
    @settings(deadline=None, max_examples=40)
    def test_readout_noise_permutes_the_table_1_bits(self, r):
        noise = NoiseModel(readout_flip=r)
        laws = {
            kind: exact_distribution(
                bell_prep(kind, DEVICE_SYSTEM, 5).extend(ROUTED_COMBINED).measure(
                    DEVICE_PHASE_ANCILLA, DEVICE_PARITY_ANCILLA), noise)
            for kind in BellKind
        }
        for kind, law in laws.items():
            bits = kind.phase_bit << 1 | kind.parity_bit
            for other, other_law in laws.items():
                shift = bits ^ (other.phase_bit << 1 | other.parity_bit)
                for key, p in law.items():
                    assert abs(other_law[format(int(key, 2) ^ shift, "02b")] - p) <= 1e-12, (kind, other, key)
