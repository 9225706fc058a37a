"""Full Pauli state tomography by linear inversion.

The density matrix of an n-qubit state decomposes as

    rho = (1/2^n) sum_L  c_L  sigma_L,      c_L = <sigma_L>,

with L running over all 4^n Pauli labels.  Every coefficient is estimated
from one of the 3^n measurement settings over {X, Y, Z}: identity slots are
filled with Z (any basis works; Z is the canonical choice) and the sign of
each outcome is (-1)^(number of 1 bits at the non-identity positions), so
``c_{II...I}`` is 1.  Reconstruction is plain linear inversion;
:func:`belldisc.qmath.make_physical` supplies the clipped and renormalized
variant reported alongside the raw matrix.

:func:`run_tomography` takes all counts from one simulation as a (3^n, 2^n)
array.  The coefficients contract it with a (4, 3, 2) sign tensor per qubit;
inversion and :func:`exact_expectations` contract each qubit with the (4, 2, 2)
Pauli basis.  The dict-keyed functions adapt to the same array code.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import qmath
from .circuit import Circuit
from .errors import (
    DimensionMismatch,
    HasMeasurements,
    IncompleteTable,
    InconsistentShotTotals,
    MissingSetting,
    TooManyQubits,
)
from .refdata import matrix_parts
from .sampler import IDEAL, CountsHistogram, NoiseModel, sample_settings

MAX_TOMOGRAPHY_QUBITS = 4


@dataclass(frozen=True)
class TomographyPlan:
    n_qubits: int
    settings: tuple[str, ...]


def plan(n_qubits: int) -> TomographyPlan:
    """All 3^n measurement settings over {X, Y, Z}, lexicographic."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    if n_qubits > MAX_TOMOGRAPHY_QUBITS:
        raise TooManyQubits(f"{n_qubits} qubits would need 3^{n_qubits} settings")
    settings = tuple("".join(s) for s in itertools.product("XYZ", repeat=n_qubits))
    return TomographyPlan(n_qubits, settings)


def _labels(n_qubits: int) -> tuple[str, ...]:
    return tuple("".join(s) for s in itertools.product("IXYZ", repeat=n_qubits))


# _SIGNS[l, s, b] weighs outcome bit b of setting letter s (X, Y, Z) in the
# coefficient of Pauli letter l (I, X, Y, Z): a letter is read from its own
# setting with sign (-1)^b, and I from the Z setting with sign +1.
_SIGNS = np.array([
    [[0, 0], [0, 0], [1, 1]],
    [[1, -1], [0, 0], [0, 0]],
    [[0, 0], [1, -1], [0, 0]],
    [[0, 0], [0, 0], [1, -1]],
], dtype=np.int64)


def _estimate(counts: np.ndarray, shots: int) -> np.ndarray:
    """Coefficients in label order from (3^n, 2^n) setting counts."""
    n = counts.shape[1].bit_length() - 1
    signed = qmath.contract_qubits(counts.reshape((3,) * n + (2,) * n), _SIGNS, n, 2)
    return signed.reshape(-1) / shots


def _invert(coeffs: np.ndarray, n: int) -> np.ndarray:
    """rho = (1/2^n) sum_L c_L sigma_L for coefficients in label order."""
    basis = qmath.PAULI_BASIS.transpose(1, 2, 0)  # (row, column, letter)
    rho = qmath.contract_qubits(coeffs.reshape((4,) * n), basis, n, 1)
    return rho.reshape(2 ** n, 2 ** n) / 2 ** n


@dataclass(frozen=True)
class ExpectationTable:
    n_qubits: int
    values: dict[str, float]


def expectations_from_counts(
    tomo_plan: TomographyPlan, histograms: Mapping[str, CountsHistogram]
) -> ExpectationTable:
    """Estimate every Pauli coefficient from the per-setting histograms."""
    n = tomo_plan.n_qubits
    shot_totals = set()
    for setting in tomo_plan.settings:
        hist = histograms.get(setting)
        if hist is None:
            raise MissingSetting(f"no histogram for setting {setting}")
        if hist.n_bits != n:
            raise DimensionMismatch(f"histogram for {setting} has {hist.n_bits} bits, plan has {n}")
        shot_totals.add(hist.shots)
    if len(shot_totals) != 1:
        raise InconsistentShotTotals(f"shot totals differ across settings: {sorted(shot_totals)}")
    counts = np.zeros((len(tomo_plan.settings), 2 ** n), dtype=np.int64)
    for i, setting in enumerate(tomo_plan.settings):
        for key, cnt in histograms[setting].counts.items():
            counts[i, int(key, 2)] = cnt
    coeffs = _estimate(counts, shot_totals.pop())
    return ExpectationTable(n, dict(zip(_labels(n), coeffs.tolist())))


def exact_expectations(rho: np.ndarray) -> ExpectationTable:
    """Noise-free coefficients Tr(rho sigma_L); oracle for the estimator."""
    m = np.asarray(rho, dtype=complex)
    n = int(round(np.log2(m.shape[0])))
    if m.shape != (2 ** n, 2 ** n):
        raise DimensionMismatch(f"not a square power-of-two matrix: {m.shape}")
    # Tr(rho sigma) = sum_ij rho_ij sigma_ji, one qubit at a time
    basis = qmath.PAULI_BASIS.transpose(0, 2, 1)
    coeffs = qmath.contract_qubits(m.reshape((2,) * (2 * n)), basis, n, 2).real.reshape(-1)
    return ExpectationTable(n, dict(zip(_labels(n), coeffs.tolist())))


def reconstruct(table: ExpectationTable) -> np.ndarray:
    """Linear inversion: rho = (1/2^n) sum_L c_L sigma_L."""
    n = table.n_qubits
    labels = _labels(n)
    missing = [label for label in labels if label not in table.values]
    if missing:
        raise IncompleteTable(f"missing coefficient for {missing[0]}")
    return _invert(np.array([table.values[label] for label in labels], dtype=float), n)


@dataclass(frozen=True)
class TomographyReport:
    """Everything computed from one tomography run.

    ``fidelity_to_ideal`` follows the convention of the reference experiment:
    it is evaluated on the raw linear-inversion matrix (pure-state branch
    when the ideal is pure).  The projected matrix is carried alongside.
    """

    raw: np.ndarray
    physical: np.ndarray
    fidelity_to_ideal: float
    deviation: qmath.DeviationReport
    purity: float
    clipped: bool
    n_qubits: int
    shots: int
    seed: int

    def to_json_dict(self, label: str = "", ideal: str = "") -> dict:
        return {
            "label": label,
            "ideal": ideal,
            "n_qubits": self.n_qubits,
            "shots": self.shots,
            "seed": self.seed,
            "fidelity_to_ideal": round(self.fidelity_to_ideal, 6),
            "purity": round(self.purity, 6),
            "clipped": self.clipped,
            "deviation": {
                "average": round(self.deviation.average, 6),
                "maximum": round(self.deviation.maximum, 6),
            },
            "raw": matrix_parts(self.raw),
            "physical": matrix_parts(self.physical),
        }

    def to_json(self, label: str = "", ideal: str = "") -> str:
        return json.dumps(self.to_json_dict(label, ideal), indent=1)


def run_tomography(
    circuit: Circuit,
    ideal: np.ndarray,
    shots: int = 8192,
    noise: NoiseModel = IDEAL,
    seed: int = 0,
) -> TomographyReport:
    """Sample all settings, estimate coefficients, reconstruct and score.

    The per-setting sampling streams are derived from the setting index, so a
    root seed pins the whole run.  ``ideal`` may be a density matrix or a
    pure state vector.
    """
    if circuit.measured:
        raise HasMeasurements("tomography appends its own measurements")
    ideal_m = np.asarray(ideal, dtype=complex)
    if ideal_m.ndim == 1:
        ideal_m = qmath.projector(ideal_m)
    dim = 2 ** circuit.n_qubits
    if ideal_m.shape != (dim, dim):
        raise DimensionMismatch(f"ideal has shape {ideal_m.shape}, circuit needs {(dim, dim)}")

    plan(circuit.n_qubits)  # rejects registers too large for tomography
    raw = _invert(_estimate(sample_settings(circuit, shots, noise, seed), shots), circuit.n_qubits)
    physical, clipped = qmath.make_physical(raw)
    return TomographyReport(
        raw=raw,
        physical=physical,
        fidelity_to_ideal=qmath.fidelity(ideal_m, raw),
        deviation=qmath.deviation(ideal_m, raw),
        purity=qmath.purity(raw),
        clipped=clipped,
        n_qubits=circuit.n_qubits,
        shots=int(shots),
        seed=seed,
    )
