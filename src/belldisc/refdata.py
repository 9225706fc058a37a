"""Embedded reference dataset and regression against its published metrics.

The package ships the 12 experimentally reconstructed 8x8 density matrices of
the reference Bell-discrimination run (four prepared pairs, then the phase-
and parity-checked states), stored digit for digit as printed, including
their small asymmetries.  Hermiticity is therefore only required within 2e-3
here; the actual asymmetry of each matrix is recorded in its metadata instead
of being silently symmetrized away.

Labels look like ``psi_plus_0.prep``: the ideal state token (Bell pair plus
ancilla bit) and the stage (prep, phase or parity).  Fidelities are evaluated
on the raw matrices through the pure-state branch of
:func:`belldisc.qmath.fidelity`, which is the convention the published
numbers are quoted in.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import qmath
from .circuit import BellKind, composite_state
from .errors import BadDimensions, NonHermitianBeyondTolerance, ParseError

MATRIX_DIM = 8
HERMITICITY_TOL = 2e-3
FIDELITY_TOL = 5e-4
DEVIATION_TOL = 2e-3

PUBLISHED_FIDELITY: dict[str, float] = {
    "psi_plus_0.prep": 0.8890,
    "psi_minus_0.prep": 0.8994,
    "phi_plus_0.prep": 0.9091,
    "phi_minus_0.prep": 0.9060,
    "psi_plus_0.phase": 0.8707,
    "psi_minus_1.phase": 0.7114,
    "phi_plus_0.phase": 0.8794,
    "phi_minus_1.phase": 0.7493,
    "psi_plus_0.parity": 0.8751,
    "psi_minus_0.parity": 0.8751,
    "phi_plus_1.parity": 0.7224,
    "phi_minus_1.parity": 0.7576,
}
EMBEDDED_LABELS: tuple[str, ...] = tuple(PUBLISHED_FIDELITY)

# (average, maximum) entrywise deviation, published for the prepared pairs
PUBLISHED_DEVIATION: dict[str, tuple[float, float]] = {
    "psi_plus_0.prep": (0.018, 0.137),
    "psi_minus_0.prep": (0.018, 0.125),
    "phi_plus_0.prep": (0.018, 0.119),
    "phi_minus_0.prep": (0.020, 0.118),
}

_BELL_TOKENS = {kind.name.lower(): kind for kind in BellKind}


def ideal_state(token: str) -> np.ndarray:
    """Three-qubit state for a token like ``psi_plus_0`` (Bell pair, ancilla bit)."""
    try:
        bell, anc = token.rsplit("_", 1)
        return composite_state(_BELL_TOKENS[bell], int(anc))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"unknown ideal-state token {token!r}") from exc


@dataclass(frozen=True)
class LabeledMatrix:
    label: str
    ideal: str
    stage: str
    source: str
    max_asymmetry: float
    matrix: np.ndarray

    def ideal_vector(self) -> np.ndarray:
        return ideal_state(self.ideal)


def matrix_parts(matrix: np.ndarray) -> dict:
    """The ``re`` and ``im`` lists of the dataset's file format, 6 printed decimals."""
    m = np.asarray(matrix, dtype=complex)
    parts = (("re", m.real), ("im", m.imag))
    return {key: [[round(float(v), 6) for v in row] for row in part.tolist()] for key, part in parts}


def matrix_json_dict(
    label: str, ideal: str, matrix: np.ndarray, stage: str = "", source: str = ""
) -> dict:
    """Serialize a matrix in the dataset's file format."""
    m = np.asarray(matrix, dtype=complex)
    return {
        "label": label,
        "ideal": ideal,
        "stage": stage,
        "source": source,
        "max_asymmetry": float(np.abs(m - m.conj().T).max()),
        **matrix_parts(m),
    }


def _parse_matrix_payload(data: dict, origin: str) -> LabeledMatrix:
    for key in ("label", "ideal", "re", "im"):
        if key not in data:
            raise ParseError(f"{origin}: missing key {key!r}")
    re_part = data["re"]
    im_part = data["im"]
    for name, part in (("re", re_part), ("im", im_part)):
        if (
            not isinstance(part, list)
            or len(part) != MATRIX_DIM
            or any(not isinstance(row, list) or len(row) != MATRIX_DIM for row in part)
        ):
            raise BadDimensions(f"{origin}: {name!r} payload is not {MATRIX_DIM}x{MATRIX_DIM}")
    try:
        matrix = np.array(re_part, dtype=float) + 1j * np.array(im_part, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{origin}: non-numeric matrix entry: {exc}") from exc
    asym = float(np.abs(matrix - matrix.conj().T).max())
    if asym > HERMITICITY_TOL:
        raise NonHermitianBeyondTolerance(f"{origin}: asymmetry {asym:.3g} > {HERMITICITY_TOL}")
    label = str(data["label"])
    stage = str(data.get("stage", label.rsplit(".", 1)[-1] if "." in label else ""))
    return LabeledMatrix(
        label=label,
        ideal=str(data["ideal"]),
        stage=stage,
        source=str(data.get("source", "")),
        max_asymmetry=asym,
        matrix=matrix,
    )


def load_matrix(name_or_path: str | Path) -> LabeledMatrix:
    """Load an embedded matrix by label, or any file in the same format."""
    name = str(name_or_path)
    if name in EMBEDDED_LABELS:
        text = resources.files("belldisc").joinpath("data", f"{name}.json").read_text()
        origin = f"embedded:{name}"
    else:
        text = Path(name_or_path).read_text()
        origin = name
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{origin}: bad JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{origin}: payload is not an object")
    return _parse_matrix_payload(data, origin)


@dataclass(frozen=True)
class MetricsRow:
    label: str
    fidelity: float
    avg_dev: float
    max_dev: float
    purity: float


def reproduce_metrics() -> tuple[MetricsRow, ...]:
    """Recompute fidelity, deviations and purity for all 12 embedded matrices.

    All quantities are evaluated on the raw matrices: the pure-state fidelity
    branch, the complex-modulus deviation of every entry against the ideal
    projector, and Tr(rho^2).
    """
    rows = []
    for label in EMBEDDED_LABELS:
        lm = load_matrix(label)
        target = qmath.projector(lm.ideal_vector())
        dev = qmath.deviation(target, lm.matrix)
        rows.append(
            MetricsRow(
                label=label,
                fidelity=qmath.fidelity(target, lm.matrix, herm_tol=HERMITICITY_TOL),
                avg_dev=dev.average,
                max_dev=dev.maximum,
                purity=qmath.purity(lm.matrix, herm_tol=HERMITICITY_TOL),
            )
        )
    return tuple(rows)


def metrics_to_csv(rows: tuple[MetricsRow, ...]) -> str:
    lines = ["label,fidelity,avg_dev,max_dev,purity"]
    lines += [f"{r.label},{r.fidelity:.6f},{r.avg_dev:.6f},{r.max_dev:.6f},{r.purity:.6f}" for r in rows]
    return "\n".join(lines) + "\n"
