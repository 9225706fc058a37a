from __future__ import annotations

import json

import numpy as np
import pytest

from belldisc.circuit import Circuit, equivalent_up_to_phase, unitary_of
from belldisc.errors import BadQubitIndex, ParseError, UnroutableCircuit
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
from conftest import random_circuit


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
