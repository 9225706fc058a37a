"""Dense linear algebra for few-qubit states.

Conventions used throughout the package:

* Qubit 0 is the leftmost symbol of a ket label and the most significant bit
  of a basis index.  ``pauli_operator("ZII")`` therefore acts on qubit 0 and
  equals ``diag(1, 1, 1, 1, -1, -1, -1, -1)``.
* States and operators are dense complex numpy arrays.  Nothing here is meant
  to scale past a handful of qubits.
* Tolerances: 1e-9 for algebraic identities, 1e-6 for physicality checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import (
    BadArgument,
    DimensionMismatch,
    GrosslyNonHermitian,
    NotHermitian,
    NotSquare,
    StronglyNonPositive,
    as_int,
)

PAULI: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# PAULI_BASIS[l] is the Pauli matrix of letter l in the label order I, X, Y, Z.
PAULI_BASIS = np.stack([PAULI[ch] for ch in "IXYZ"])
_HALF_BASIS = PAULI_BASIS.transpose(1, 2, 0) / 2  # (row, column, letter): one qubit's factor of density_from_pauli
_TRACE_BASIS = PAULI_BASIS.transpose(0, 2, 1)  # (letter, row, column): tr(P rho) = sum_rc P[c, r] rho[r, c]

ALGEBRAIC_TOL = 1e-9
PHYSICALITY_TOL = 1e-6
_PURE_TOL = 1e-12  # fidelity reads psi straight from a rho1 this close to |psi><psi|


def tensor(*operators: np.ndarray) -> np.ndarray:
    """Kronecker product of the given operators, left factor most significant."""
    if not operators:
        raise DimensionMismatch("tensor() needs at least one operator")
    return reduce(np.kron, [np.asarray(op, dtype=complex) for op in operators])


def pauli_operator(label: str) -> np.ndarray:
    """Return the 2^n x 2^n operator for a label over the alphabet I, X, Y, Z.

    The first character acts on qubit 0 (most significant position).
    """
    if not label or any(ch not in PAULI for ch in label):
        raise BadArgument(f"not a Pauli label: {label!r}")
    return tensor(*(PAULI[ch] for ch in label))


def contract_qubits(t: np.ndarray, op: np.ndarray, k_in: int) -> np.ndarray:
    """Contract ``op`` (output axes, then ``k_in`` input axes) into every qubit of ``t``.

    ``t`` has ``k_in`` groups of n = ``t.ndim // k_in`` axes, one per qubit (rho as (2,)*2n has
    rows and columns); the result has one such group per output axis.  Each qubit
    is one transpose, reshape and ``@`` of ``op`` as a matrix, its outputs moved last.
    """
    n = t.ndim // k_in
    k_out = op.ndim - k_in
    m = op.reshape(math.prod(op.shape[:k_out]), -1)
    t = t.transpose([g * n + q for q in range(n) for g in range(k_in)])  # qubit-major
    for _ in range(n):
        t = (m @ t.reshape(m.shape[1], -1)).T
    return t.reshape(op.shape[:k_out] * n).transpose([q * k_out + g for g in range(k_out) for q in range(n)])


def density_from_pauli(coeffs: np.ndarray) -> np.ndarray:
    """rho = sum_L c_L P_L / 2^n from its Pauli coefficients c_L = tr(P_L rho).

    ``coeffs`` is a (4,)*n tensor, axis q the letter of qubit q in ``PAULI_BASIS``
    order.  Each qubit's factor carries its 1/2, so the 1/2^n is exact.
    """
    n = coeffs.ndim
    return contract_qubits(coeffs, _HALF_BASIS, 1).reshape(2 ** n, 2 ** n)


def pauli_from_density(rho: np.ndarray) -> np.ndarray:
    """The (4,)*n tensor of c_L = tr(P_L rho) of a 2^n x 2^n matrix, the inverse of :func:`density_from_pauli`.

    The Pauli strings span all matrices, so a non-Hermitian ``rho`` has complex coefficients.
    """
    n = len(rho).bit_length() - 1
    return contract_qubits(rho.reshape((2,) * (2 * n)), _TRACE_BASIS, 2)


def ket(bits: str) -> np.ndarray:
    """Computational basis state for a bit string, e.g. ket("010")."""
    if not bits or any(b not in "01" for b in bits):
        raise BadArgument(f"not a bit string: {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a (normalized) state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def _as_square(a: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"{what} must be a square matrix, got shape {m.shape}")
    return m


def asymmetry(m: np.ndarray) -> float:
    """max |m - m^dagger| over the entries of a square matrix."""
    return float(np.abs(m - m.conj().T).max())


def _require_hermitian(m: np.ndarray, tol: float, what: str) -> None:
    asym = asymmetry(m)
    if asym > tol:
        raise NotHermitian(f"{what} is not Hermitian: max asymmetry {asym:.3g} > {tol:.3g}")


def purity(rho: np.ndarray, *, herm_tol: float = PHYSICALITY_TOL) -> float:
    """Tr(rho^2) as a real number.

    The input must be Hermitian within ``herm_tol``; the imaginary residue of
    the trace is bounded by the same tolerance (1e-9 for exact inputs).
    """
    m = _as_square(rho, "rho")
    _require_hermitian(m, herm_tol, "rho")
    t = complex(np.trace(m @ m))
    if abs(t.imag) > max(ALGEBRAIC_TOL, herm_tol):
        raise NotHermitian(f"Tr(rho^2) has imaginary residue {t.imag:.3g}")
    return float(t.real)


def fidelity(rho1: np.ndarray, rho2: np.ndarray, *, herm_tol: float = PHYSICALITY_TOL) -> float:
    """Uhlmann fidelity F(rho1, rho2) = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)).

    ``rho1`` must be a physical state: Hermitian and positive semidefinite
    (eigenvalues below -1e-6 raise :class:`StronglyNonPositive`).  ``rho2``
    must be Hermitian within ``herm_tol`` but may be a raw, slightly
    nonpositive reconstruction.  When ``rho1`` is pure the shortcut
    ``sqrt(<psi| rho2 |psi>)`` is used; this is the convention under which the
    reference fidelities of this experiment are quoted.

    A pure ``rho1`` is recognized without a diagonalization: psi is the column j
    of the symmetrized ``rho1`` with the largest diagonal entry, divided by its
    norm, and ``rho1`` counts as pure when no entry differs from |psi><psi| by
    more than 1e-12.  Any other ``rho1`` is diagonalized, and its largest
    eigenvector serves when Tr(rho1^2) > 1 - 1e-9.
    """
    a = _as_square(rho1, "rho1")
    b = _as_square(rho2, "rho2")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    _require_hermitian(a, herm_tol, "rho1")
    _require_hermitian(b, herm_tol, "rho2")

    h = (a + a.conj().T) / 2
    column = h[:, int(np.argmax(h.diagonal().real))]
    norm = np.linalg.norm(column)
    if norm > 0.0:
        psi = column / norm
        if np.abs(h - np.outer(psi, psi.conj())).max() <= _PURE_TOL:
            return _pure_fidelity(psi, b)

    evals, evecs = np.linalg.eigh(h)
    if evals.min() < -PHYSICALITY_TOL:
        raise StronglyNonPositive(f"rho1 has eigenvalue {evals.min():.3g} < -1e-6")
    if float(np.real(np.trace(a @ a))) > 1.0 - ALGEBRAIC_TOL:
        return _pure_fidelity(evecs[:, int(np.argmax(evals))], b)

    sqrt_a = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = sqrt_a @ b @ sqrt_a
    mu = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sqrt(np.clip(mu, 0.0, None)).sum())


def _pure_fidelity(psi: np.ndarray, b: np.ndarray) -> float:
    overlap = float(np.real(psi.conj() @ b @ psi))
    return float(np.sqrt(max(overlap, 0.0)))


@dataclass(frozen=True)
class DeviationReport:
    """Entrywise |difference| statistics between two matrices of dimension ``dim``."""

    average: float
    maximum: float
    dim: int


def deviation(expected: np.ndarray, actual: np.ndarray) -> DeviationReport:
    """Average and maximum complex modulus of the entrywise difference.

    The average runs over all dim^2 entries.  The modulus (not the real part)
    is what the reference percentages are quoted in.
    """
    e = _as_square(expected, "expected")
    a = _as_square(actual, "actual")
    if e.shape != a.shape:
        raise DimensionMismatch(f"shape mismatch: {e.shape} vs {a.shape}")
    diff = np.abs(e - a)
    return DeviationReport(float(diff.sum() / diff.size), float(diff.max()), e.shape[0])


def make_physical(rho_raw: np.ndarray) -> tuple[np.ndarray, bool]:
    """Map a raw reconstruction to a physical state by clipping its spectrum.

    Symmetrizes, clips negative eigenvalues to zero and renormalizes the
    trace to one.  Returns ``(rho, clipped)`` where ``clipped`` reports
    whether any eigenvalue was actually negative.  Idempotent within 1e-12.
    """
    m = _as_square(rho_raw, "rho_raw")
    asym = asymmetry(m)
    if asym > 1e-3:
        raise GrosslyNonHermitian(f"asymmetry {asym:.3g} > 1e-3")
    evals, evecs = np.linalg.eigh((m + m.conj().T) / 2)
    clipped = bool(evals.min() < -1e-12)
    evals = np.clip(evals, 0.0, None)
    total = float(evals.sum())
    if total <= 0.0:
        raise StronglyNonPositive("matrix has no positive weight to normalize")
    rho = (evecs * (evals / total)) @ evecs.conj().T
    return rho, clipped


def partial_trace(rho: np.ndarray, keep: Iterable[int], n_qubits: int | None = None) -> np.ndarray:
    """Reduced density matrix on the ``keep`` qubits (ascending index order).

    It is the slice of the Pauli coefficients with letter I (index 0) on every traced qubit.  ``keep``
    and ``n_qubits`` are integers: a bool, a float or a qubit outside the register raises :class:`DimensionMismatch`.
    """
    m = _as_square(rho, "rho")
    dim = m.shape[0]
    if n_qubits is None:
        n = int(round(np.log2(dim)))
    else:  # bounded before 2^n is formed, which for a huge n would not finish
        n = as_int(n_qubits, DimensionMismatch, "n_qubits", 0, dim.bit_length())
    if dim != 2 ** n:
        raise DimensionMismatch(f"dimension {dim} is not 2^{n}")
    kept = {as_int(q, DimensionMismatch, "kept qubit", 0, n) for q in keep}
    return density_from_pauli(pauli_from_density(m)[tuple(slice(None) if q in kept else 0 for q in range(n))])
