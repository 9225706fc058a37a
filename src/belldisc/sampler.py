"""Shot-based sampling of circuits under a simple hardware noise model.

Noise model: a depolarizing channel acts on the touched qubits after every
gate (one strength for single-qubit gates, one for CNOTs) and readout applies
an independent classical bit flip to each measured bit.  The depolarizing
strength ``p`` is the full-replacement probability,

    rho -> (1 - p) rho + p * (tr_S rho) (x) I/2^k,

equivalent to each of the 4^k - 1 non-identity Pauli errors occurring with
probability p / 4^k, so p = 1 leaves the touched qubits maximally mixed.

rho is evolved as a (4,)*n tensor, one (row, column) axis per qubit, by
:func:`belldisc.circuit.evolve`: each maximal run of gates on at most two
qubits, with their channels, is one matrix applied to its qubits' axes.  A
circuit whose gates carry no depolarizing noise is evolved as a 2^n state
vector.  Seeds and streams are taken modulo 2^64.  Readout flips
are folded into the probabilities: ``exact_distribution`` is the post-readout
law, and ``sample`` draws it in one multinomial draw keyed by ``(seed,
stream)``, its CDF rounded to multiples of 2^-32 so that laws differing only
by round-off draw the same counts.  ``sample_settings`` draws all Pauli
settings of a tomography from one evolution, count for count as ``sample``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import qmath
from .circuit import GATE_MATRICES, Circuit, Gate, evolve, lift, simulate
from .errors import (
    DimensionMismatch,
    IdentityInSetting,
    NoMeasurements,
    ParseError,
    ZeroShots,
)

_MASK64 = (1 << 64) - 1
_CDF_GRID = 2.0 ** 32  # absorbs round-off, and moves no CDF entry by more than 2^-33


@dataclass(frozen=True)
class NoiseModel:
    per_gate_depolarizing: float = 0.0
    per_cnot_depolarizing: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("per_gate_depolarizing", "per_cnot_depolarizing", "readout_flip"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def is_ideal(self) -> bool:
        return (
            self.per_gate_depolarizing == 0.0
            and self.per_cnot_depolarizing == 0.0
            and self.readout_flip == 0.0
        )


IDEAL = NoiseModel()


@dataclass(frozen=True)
class CountsHistogram:
    """Outcome counts over the measured bits, keys in qubit-index order."""

    n_bits: int
    shots: int
    counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_positive_int(self.n_bits):
            raise DimensionMismatch(f"histogram needs a positive integer number of bits, got {self.n_bits!r}")
        object.__setattr__(self, "n_bits", int(self.n_bits))
        object.__setattr__(self, "shots", _check_shots(self.shots))
        coerced: dict[str, int] = {}
        for key, cnt in dict(self.counts).items():
            if len(key) != self.n_bits or any(b not in "01" for b in key):
                raise ParseError(f"bad outcome key {key!r} for {self.n_bits} bits")
            if not isinstance(cnt, (int, np.integer)) or cnt < 0:
                raise ParseError(f"bad count {cnt!r} for outcome {key!r}")
            coerced[key] = int(cnt)
        object.__setattr__(self, "counts", coerced)
        if sum(coerced.values()) != self.shots:
            raise ParseError(f"counts sum to {sum(coerced.values())}, expected {self.shots} shots")

    def probability(self, outcome: str) -> float:
        return self.counts.get(outcome, 0) / self.shots

    def to_json_dict(self) -> dict:
        return {
            "n_bits": self.n_bits,
            "shots": self.shots,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountsHistogram":
        try:
            return cls(data["n_bits"], data["shots"], dict(data["counts"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad counts payload: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "CountsHistogram":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad counts JSON: {exc}") from exc
        return cls.from_json_dict(data)


def _is_positive_int(value) -> bool:
    return not isinstance(value, (bool, np.bool_)) and isinstance(value, (int, np.integer)) and value >= 1


def _check_shots(shots) -> int:
    if not _is_positive_int(shots):
        raise ZeroShots(f"shots must be a positive integer, got {shots!r}")
    return int(shots)


def _lifted(channels: dict[str, np.ndarray]) -> dict[int, tuple[tuple, np.ndarray]]:
    """:func:`lift` of channels re-laid per qubit (row q0, col q0, row q1, ...): keys, stack per width."""
    per_qubit = {}
    for kind, m in channels.items():
        k = len(m).bit_length() // 2
        order = [i + j * k for i in range(k) for j in range(2)]
        per_qubit[kind] = m.reshape((2,) * 4 * k).transpose(order + [2 * k + o for o in order]).reshape(m.shape)
    return {width: (tuple(table), np.stack(tuple(table.values()))) for width, table in lift(per_qubit).items()}


_CONJUGATION = _lifted({kind: np.kron(u, u.conj()) for kind, u in GATE_MATRICES.items()})
_REPLACEMENT = _lifted({
    kind: np.outer(np.eye(len(u)).ravel(), np.eye(len(u)).ravel()) / len(u)
    for kind, u in GATE_MATRICES.items()
})


def _depolarizing(noise: NoiseModel, kind: str) -> float:
    return noise.per_cnot_depolarizing if kind == "CNOT" else noise.per_gate_depolarizing


def _channels(noise: NoiseModel) -> dict[int, dict[tuple, np.ndarray]]:
    """Each gate kind followed by its depolarizing channel, lifted as :func:`lift` does.

    Full replacement after a gate forgets the gate, so the pair is
    (1 - p) U (x) U* + p |I>><<I| / 2^k, |I>> the identity flattened like rho.
    """
    out = {}
    for width, (keys, conjugation) in _CONJUGATION.items():
        p = np.array([_depolarizing(noise, kind) for kind, _ in keys])[:, None, None]
        out[width] = dict(zip(keys, (1.0 - p) * conjugation + p * _REPLACEMENT[width][1]))
    return out


def final_density(circuit: Circuit, noise: NoiseModel = IDEAL) -> np.ndarray:
    """Density matrix after the gates and their noise channels.

    Without depolarizing noise it is |psi><psi| of a 2^n state vector; otherwise rho
    is evolved as (4,)*n, axis q the (row, column) pair of qubit q, and made rows first on return.
    """
    if not any(_depolarizing(noise, g.kind) for g in circuit.gates):
        return qmath.projector(simulate(circuit))
    n = circuit.n_qubits
    rho = evolve(qmath.ket("00" * n).reshape((4,) * n), circuit.gates, _channels(noise))  # from |0..0><0..0|
    rows_first = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return rho.reshape((2,) * (2 * n)).transpose(rows_first).reshape(2 ** n, 2 ** n)


def _normalized(probs: np.ndarray) -> np.ndarray:
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=-1, keepdims=True)


def _readout(probs: np.ndarray, r: float) -> np.ndarray:
    """Post-readout law over the last axis: each of its bits flips independently with probability r."""
    if r == 0.0:
        return probs
    lead, m = probs.ndim - 1, probs.shape[-1].bit_length() - 1
    t = probs.reshape(probs.shape[:-1] + (2,) * m)
    for axis in range(lead, lead + m):
        t = (1.0 - r) * t + r * np.flip(t, axis=axis)
    return t.reshape(probs.shape)


def _law(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Post-readout probabilities of the measured bits."""
    n = circuit.n_qubits
    probs = np.real(np.diag(final_density(circuit, noise))).reshape((2,) * n)
    probs = probs.sum(axis=tuple(q for q in range(n) if q not in circuit.measured))
    return _readout(_normalized(probs.reshape(-1)), noise.readout_flip)


def exact_distribution(circuit: Circuit, noise: NoiseModel = IDEAL) -> dict[str, float]:
    """Infinite-shot outcome probabilities over the measured bits."""
    if not circuit.measured:
        raise NoMeasurements("circuit has no measured qubits")
    m = len(circuit.measured)
    return {format(i, f"0{m}b"): float(p) for i, p in enumerate(_law(circuit, noise))}


def _on_grid(probs: np.ndarray) -> np.ndarray:
    """Rows of ``probs`` whose CDFs are rounded to multiples of 1/_CDF_GRID.

    Every later step of the draw is then exact, so two laws that differ only
    by round-off draw the same counts (numpy's binomial takes another branch
    when its ratio passes 0.5, which equal probabilities sit on).
    """
    return np.diff(np.rint(np.cumsum(probs, axis=-1) * _CDF_GRID) / _CDF_GRID, axis=-1, prepend=0.0)


def _draw(probs: np.ndarray, shots: int, seed: int, streams) -> np.ndarray:
    """Counts (rows, 2^m) of ``shots`` draws from each row of ``probs``, keyed by (seed, streams[i]) mod 2^64."""
    return np.stack([
        np.random.Generator(np.random.Philox(key=seed & _MASK64 | (stream & _MASK64) << 64)).multinomial(shots, row)
        for stream, row in zip(streams, _on_grid(probs))
    ])


def sample(
    circuit: Circuit, shots: int, noise: NoiseModel = IDEAL, seed: int = 0, stream: int = 0
) -> CountsHistogram:
    """Draw ``shots`` outcomes from the post-readout law of :func:`exact_distribution`, in one draw."""
    if not circuit.measured:
        raise NoMeasurements("circuit has no measured qubits")
    shots = _check_shots(shots)
    counts = _draw(_law(circuit, noise)[None], shots, seed, [stream])[0]
    m = len(circuit.measured)
    hist = {format(i, f"0{m}b"): int(c) for i, c in enumerate(counts) if c}
    return CountsHistogram(m, shots, hist)


# Pre-measurement rotations of each basis, applied in this order.
_BASIS_CHANGE = {"X": ("H",), "Y": ("SDG", "H"), "Z": ()}


def sample_settings(
    circuit: Circuit, shots: int, noise: NoiseModel = IDEAL, seed: int = 0
) -> np.ndarray:
    """Counts (3^n, 2^n) of all Pauli settings in ``tomography.plan`` order, from one evolution.

    Row i equals ``sample(with_basis_change(circuit, setting_i), ..., stream=i)``:
    the noisy rotation of each qubit acts on it alone, so each qubit of rho is
    contracted with M[s, b, i, j] = <b| E_s(|i><j|) |b>.  Basis s rotates by U_s
    through g_s gates (0 for Z, 1 for X, 2 for Y), each depolarized by p = per_gate_depolarizing:
    M[s, b, i, j] = k U_s[b, i] conj(U_s[b, j]) + (1 - k) delta_ij / 2, k = (1 - p)^g_s.
    """
    shots = _check_shots(shots)
    n = circuit.n_qubits
    m = []
    for gates in _BASIS_CHANGE.values():
        u = np.eye(2)
        for kind in gates:
            u = GATE_MATRICES[kind] @ u
        k = (1.0 - noise.per_gate_depolarizing) ** len(gates)
        m.append(k * np.einsum("bi,bj->bij", u, u.conj()) + (1.0 - k) * np.eye(2) / 2)
    rho = final_density(circuit, noise).reshape((2,) * (2 * n))
    probs = _normalized(qmath.contract_qubits(rho, np.stack(m), n, 2).real.reshape(3 ** n, 2 ** n))
    return _draw(_readout(probs, noise.readout_flip), shots, seed, range(3 ** n))


def with_basis_change(circuit: Circuit, setting: str) -> Circuit:
    """Append the pre-measurement rotations for a Pauli setting and measure all.

    X appends H; Y appends S-dagger then H; Z appends nothing.  The setting
    must name a basis for every qubit: identity slots are not measurable.
    """
    if len(setting) != circuit.n_qubits:
        raise DimensionMismatch(
            f"setting {setting!r} has {len(setting)} letters for {circuit.n_qubits} qubits"
        )
    if "I" in setting:
        raise IdentityInSetting(f"setting {setting!r} contains identity")
    if any(ch not in "XYZ" for ch in setting):
        raise ValueError(f"setting {setting!r} has letters outside X, Y, Z")
    n = circuit.n_qubits
    rotations = tuple(Gate(kind, q) for q, ch in enumerate(setting) for kind in _BASIS_CHANGE[ch])
    return circuit.extend(Circuit(n, rotations, frozenset(range(n))))
