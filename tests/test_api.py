"""The public API of ``belldisc``: the names the package exports and how each is called.

Callers depend on both, so a change to either must be made on purpose, with these tables
updated in the same change.  Annotations are left out of the signatures: parameter names,
kinds, order and defaults are what a caller relies on.
"""
from __future__ import annotations

import __future__
import inspect
import types

import belldisc

EXPORTS = [
    "BellKind", "BelldiscError", "Circuit", "CountsHistogram",
    "CouplingMap", "DEFAULT_MAP", "DeviationReport", "EMBEDDED_LABELS",
    "ExpectationTable", "Gate", "IDEAL", "LabeledMatrix",
    "MetricsRow", "NoiseModel", "PAULI", "TomographyPlan",
    "TomographyReport", "bell_prep", "bell_vector", "combined_check",
    "composite_state", "deviation", "device_combined_block", "device_parity_block",
    "device_phase_block", "discrimination_circuit", "equivalent_up_to_phase", "exact_distribution",
    "exact_expectations", "expectations_from_counts", "fidelity", "final_density",
    "format_circuit", "ideal_state", "ket", "load_matrix",
    "make_physical", "metrics_to_csv", "parity_check", "parse_circuit",
    "partial_trace", "pauli_operator", "phase_check", "plan",
    "projector", "purity", "reconstruct", "reproduce_metrics",
    "reverse_epr", "run_tomography", "sample", "sample_settings",
    "simulate", "swap_conjugated_cnot", "tensor", "transpile",
    "unitary_of", "with_basis_change",
]

# calling an Enum or an exception class is the standard library's contract, not the package's
NO_SIGNATURE = {"BellKind", "BelldiscError"}

SIGNATURES = {
    "Circuit": "(n_qubits, gates=(), measured=<factory>)",
    "CountsHistogram": "(n_bits, shots, counts=<factory>)",
    "CouplingMap": "(n_physical, allowed)",
    "DeviationReport": "(average, maximum, dim)",
    "ExpectationTable": "(n_qubits, values)",
    "Gate": "(kind, target, control=None)",
    "LabeledMatrix": "(label, ideal, stage, source, max_asymmetry, matrix)",
    "MetricsRow": "(label, fidelity, avg_dev, max_dev, purity)",
    "NoiseModel": "(per_gate_depolarizing=0.0, per_cnot_depolarizing=0.0, readout_flip=0.0)",
    "TomographyPlan": "(n_qubits, settings)",
    "TomographyReport": "(raw, physical, fidelity_to_ideal, deviation, purity, clipped, n_qubits, shots, seed)",
    "bell_prep": "(kind, system=(0, 1), n_qubits=3)",
    "bell_vector": "(kind)",
    "combined_check": "(system=(0, 1), phase_ancilla=2, parity_ancilla=3, n_qubits=4)",
    "composite_state": "(kind, ancilla_bit)",
    "deviation": "(expected, actual)",
    "device_combined_block": "(n_qubits=5)",
    "device_parity_block": "(n_qubits=5)",
    "device_phase_block": "(n_qubits=5)",
    "discrimination_circuit": "(kind, check, system=(0, 1), ancilla=2, n_qubits=3)",
    "equivalent_up_to_phase": "(u1, u2, atol=1e-09)",
    "exact_distribution": (
        "(circuit, noise=NoiseModel(per_gate_depolarizing=0.0, per_cnot_depolarizing=0.0, "
        "readout_flip=0.0))"
    ),
    "exact_expectations": "(rho)",
    "expectations_from_counts": "(tomo_plan, histograms)",
    "fidelity": "(rho1, rho2, *, herm_tol=1e-06)",
    "final_density": (
        "(circuit, noise=NoiseModel(per_gate_depolarizing=0.0, per_cnot_depolarizing=0.0, "
        "readout_flip=0.0))"
    ),
    "format_circuit": "(circuit)",
    "ideal_state": "(token)",
    "ket": "(bits)",
    "load_matrix": "(name_or_path)",
    "make_physical": "(rho_raw)",
    "metrics_to_csv": "(rows)",
    "parity_check": "(system=(0, 1), ancilla=2, n_qubits=3)",
    "parse_circuit": "(text, n_qubits=None)",
    "partial_trace": "(rho, keep, n_qubits=None)",
    "pauli_operator": "(label)",
    "phase_check": "(system=(0, 1), ancilla=2, n_qubits=3)",
    "plan": "(n_qubits)",
    "projector": "(psi)",
    "purity": "(rho, *, herm_tol=1e-06)",
    "reconstruct": "(table)",
    "reproduce_metrics": "()",
    "reverse_epr": "(system=(0, 1), n_qubits=3)",
    "run_tomography": (
        "(circuit, ideal, shots=8192, noise=NoiseModel(per_gate_depolarizing=0.0, "
        "per_cnot_depolarizing=0.0, readout_flip=0.0), seed=0)"
    ),
    "sample": (
        "(circuit, shots, noise=NoiseModel(per_gate_depolarizing=0.0, per_cnot_depolarizing=0.0, "
        "readout_flip=0.0), seed=0, stream=0)"
    ),
    "sample_settings": (
        "(circuit, shots, noise=NoiseModel(per_gate_depolarizing=0.0, per_cnot_depolarizing=0.0, "
        "readout_flip=0.0), seed=0)"
    ),
    "simulate": "(circuit, initial=None)",
    "swap_conjugated_cnot": "(control, target, via, n_qubits)",
    "tensor": "(*operators)",
    "transpile": "(circuit, cmap=CouplingMap(n_physical=5, allowed=frozenset({(0, 2), (1, 2), (3, 2), (4, 2)})))",
    "unitary_of": "(circuit)",
    "with_basis_change": "(circuit, setting)",
}


def _signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_exported_names():
    exported = [name for name, value in vars(belldisc).items()
                if not name.startswith("_") and not isinstance(value, (types.ModuleType, __future__._Feature))]
    assert sorted(exported) == EXPORTS


def test_signatures():
    callables = {name for name in EXPORTS if callable(getattr(belldisc, name))}
    assert callables - NO_SIGNATURE == set(SIGNATURES) and NO_SIGNATURE <= callables
    assert {name: _signature(getattr(belldisc, name)) for name in SIGNATURES} == SIGNATURES
