"""Nondestructive Bell-state discrimination: circuits, sampling, tomography.

The package simulates the reference five-qubit-device experiment end to end:
Bell-pair preparation, ancilla-based parity/phase discrimination, routing
onto the device's directed star coupling map, shot-based noisy sampling,
full Pauli state tomography, and regression against the embedded published
reconstructions.
"""
from __future__ import annotations

from .circuit import (
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
from .errors import BelldiscError
from .qmath import (
    PAULI,
    DeviationReport,
    deviation,
    fidelity,
    ket,
    make_physical,
    partial_trace,
    pauli_operator,
    projector,
    purity,
    tensor,
)
from .refdata import (
    EMBEDDED_LABELS,
    LabeledMatrix,
    MetricsRow,
    ideal_state,
    load_matrix,
    metrics_to_csv,
    reproduce_metrics,
)
from .sampler import (
    IDEAL,
    CountsHistogram,
    NoiseModel,
    exact_distribution,
    final_density,
    sample,
    sample_settings,
    with_basis_change,
)
from .tomography import (
    ExpectationTable,
    TomographyPlan,
    TomographyReport,
    exact_expectations,
    expectations_from_counts,
    plan,
    reconstruct,
    run_tomography,
)
from .transpile import (
    DEFAULT_MAP,
    CouplingMap,
    device_combined_block,
    device_parity_block,
    device_phase_block,
    swap_conjugated_cnot,
    transpile,
)

__version__ = "0.1.0"
