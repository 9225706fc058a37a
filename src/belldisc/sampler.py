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
vector.  Seeds and streams are integers taken modulo 2^64.  ``_readout`` folds
the flip of one bit into a law, on that bit's axis: ``exact_distribution`` is
the post-readout law, and ``sample`` draws it in one multinomial draw keyed by
``(seed, stream)``, its CDF rounded to multiples of 2^-32 so that laws differing
only by round-off draw the same counts.  ``sample_settings`` draws all Pauli
settings of a tomography from one evolution, count for count as ``sample``: each
qubit's (row, column) pair of rho is one matmul with the setting law of that
qubit, basis change and readout flip together, and one Philox bit generator is
re-keyed per setting.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Mapping

import numpy as np

from . import qmath
from .circuit import GATE_MATRICES, Circuit, Gate, evolve, lift, simulate
from .errors import (
    DimensionMismatch,
    IdentityInSetting,
    NoMeasurements,
    ParseError,
    TooManyQubits,
    ZeroShots,
)

_MASK64 = (1 << 64) - 1
_CDF_GRID = 2.0 ** 32  # absorbs round-off, and moves no CDF entry by more than 2^-33
MAX_TOMOGRAPHY_QUBITS = 4  # sample_settings holds a law of 6^n entries


@dataclass(frozen=True)
class NoiseModel:
    per_gate_depolarizing: float = 0.0
    per_cnot_depolarizing: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            p = getattr(self, f.name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {p}")

    @property
    def is_ideal(self) -> bool:
        return self == IDEAL


IDEAL = NoiseModel()


@dataclass(frozen=True)
class CountsHistogram:
    """Outcome counts over the measured bits, keys in qubit-index order."""

    n_bits: int
    shots: int
    counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _is_int(self.n_bits) or self.n_bits < 1:
            raise DimensionMismatch(f"histogram needs a positive integer number of bits, got {self.n_bits!r}")
        object.__setattr__(self, "n_bits", int(self.n_bits))
        object.__setattr__(self, "shots", _check_shots(self.shots))
        coerced: dict[str, int] = {}
        for key, cnt in dict(self.counts).items():
            if len(key) != self.n_bits or any(b not in "01" for b in key):
                raise ParseError(f"bad outcome key {key!r} for {self.n_bits} bits")
            if not _is_int(cnt) or cnt < 0:
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


def _is_int(value) -> bool:
    return not isinstance(value, (bool, np.bool_)) and isinstance(value, (int, np.integer))


def _check_shots(shots) -> int:
    if not _is_int(shots) or shots < 1:
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


def _channels(noise: NoiseModel, width: int) -> dict[tuple, np.ndarray]:
    """Each gate kind followed by its depolarizing channel, in a run of ``width`` qubits as :func:`lift` keys it.

    Full replacement after a gate forgets the gate, so the pair is
    (1 - p) U (x) U* + p |I>><<I| / 2^k, |I>> the identity flattened like rho.
    """
    keys, conjugation = _CONJUGATION[width]
    p = np.array([_depolarizing(noise, kind) for kind, _ in keys])[:, None, None]
    return dict(zip(keys, (1.0 - p) * conjugation + p * _REPLACEMENT[width][1]))


def final_density(circuit: Circuit, noise: NoiseModel = IDEAL) -> np.ndarray:
    """Density matrix after the gates and their noise channels.

    Without depolarizing noise it is |psi><psi| of a 2^n state vector; otherwise rho
    is evolved as (4,)*n, axis q the (row, column) pair of qubit q, and made rows first on return.
    """
    if not any(_depolarizing(noise, g.kind) for g in circuit.gates):
        return qmath.projector(simulate(circuit))
    n = circuit.n_qubits
    channels = {width: _channels(noise, width) for width in _CONJUGATION}
    rho = evolve(qmath.ket("00" * n).reshape((4,) * n), circuit.gates, channels)  # from |0..0><0..0|
    rows_first = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return rho.reshape((2,) * (2 * n)).transpose(rows_first).reshape(2 ** n, 2 ** n)


def _readout(t: np.ndarray, r: float, axis: int) -> np.ndarray:
    """The law ``t`` after the bit indexed by ``axis`` is read out, flipping with probability r."""
    return (1.0 - r) * t + r * np.flip(t, axis)


def _law(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Post-readout probabilities of the measured bits."""
    if not circuit.measured:
        raise NoMeasurements("circuit has no measured qubits")
    n = circuit.n_qubits
    probs = np.real(np.diag(final_density(circuit, noise))).reshape((2,) * n)
    probs = probs.sum(axis=tuple(q for q in range(n) if q not in circuit.measured))
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    for axis in range(probs.ndim):
        probs = _readout(probs, noise.readout_flip, axis)
    return probs.reshape(-1)


def exact_distribution(circuit: Circuit, noise: NoiseModel = IDEAL) -> dict[str, float]:
    """Infinite-shot outcome probabilities over the measured bits."""
    m = len(circuit.measured)
    return {format(i, f"0{m}b"): float(p) for i, p in enumerate(_law(circuit, noise))}


def _on_grid(probs: np.ndarray) -> np.ndarray:
    """Rows of ``probs`` whose CDFs are rounded to multiples of 1/_CDF_GRID.

    Every later step of the draw is then exact, so two laws that differ only
    by round-off draw the same counts (numpy's binomial takes another branch
    when its ratio passes 0.5, which equal probabilities sit on).
    """
    cdf = np.cumsum(probs, axis=-1)
    cdf *= _CDF_GRID
    np.rint(cdf, out=cdf)
    cdf /= _CDF_GRID
    cdf[..., 1:] -= cdf[..., :-1]  # numpy buffers the overlapping operands, so each step takes the old CDF
    return cdf


def _key(name: str, value) -> int:
    if not _is_int(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _draw(probs: np.ndarray, shots: int, seed: int, streams) -> np.ndarray:
    """Counts (rows, 2^m) of ``shots`` draws from each row of ``probs``, keyed by (seed, streams[i]) mod 2^64.

    One Philox is re-keyed for each row from a state of plain ints (key, a zero counter, an empty
    buffer and no carried uint32; the setter reads ints and arrays alike, and ints faster), so
    row i draws exactly what a fresh ``Generator(Philox(key=seed | stream << 64))`` draws.  Each
    row's counts are written in place into one preallocated array.  Seed and streams are ints,
    checked where they enter ``sample`` and ``sample_settings``.
    """
    philox = np.random.Philox(0)  # every field of its state is set before each draw
    rng, grid = np.random.Generator(philox), _on_grid(probs)
    counts = np.empty(grid.shape, np.int64)
    key = [seed & _MASK64, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i, stream in enumerate(streams):
        key[1] = stream & _MASK64
        philox.state = state
        counts[i] = rng.multinomial(shots, grid[i])
    return counts


def sample(
    circuit: Circuit, shots: int, noise: NoiseModel = IDEAL, seed: int = 0, stream: int = 0
) -> CountsHistogram:
    """Draw ``shots`` outcomes from the post-readout law of :func:`exact_distribution`, in one draw."""
    counts = _draw(_law(circuit, noise)[None], _check_shots(shots), _key("seed", seed), [_key("stream", stream)])[0]
    m = len(circuit.measured)
    return CountsHistogram(m, shots, {format(i, f"0{m}b"): int(c) for i, c in enumerate(counts) if c})


# Pre-measurement rotations of each basis, applied in this order.
_BASIS_CHANGE = {"X": ("H",), "Y": ("SDG", "H"), "Z": ()}
_DIAGONAL = np.eye(4)[[0, 3]]  # rows (b, b) of a one-qubit (row, column) axis: Z-basis outcome b


def sample_settings(
    circuit: Circuit, shots: int, noise: NoiseModel = IDEAL, seed: int = 0
) -> np.ndarray:
    """Counts (3^n, 2^n) of all Pauli settings in ``tomography.plan`` order, from one evolution.

    Row i equals ``sample(with_basis_change(circuit, setting_i), ..., stream=i)``: the noisy
    rotation and readout of each qubit act on it alone, so each qubit's (row, column) pair of rho
    is one matmul with M[s, b, i, j] = <b| E_s(|i><j|) |b>, read out on its axis b by ``_readout``.
    E_s is basis s's rotations, each with its noise, as the one-qubit :func:`_channels` that
    ``evolve`` applies: M[s, b] is the Z-outcome row (b, b) multiplied through them.
    """
    n = circuit.n_qubits
    if n > MAX_TOMOGRAPHY_QUBITS:
        raise TooManyQubits(f"{n} qubits would need 3^{n} settings")
    shots = _check_shots(shots)
    single = _channels(noise, 1)
    m = np.array([reduce(lambda e, kind: e @ single[kind, 0], gates[::-1], _DIAGONAL)
                  for gates in _BASIS_CHANGE.values()]).reshape(3, 2, 2, 2)
    rho = final_density(circuit, noise).reshape((2,) * (2 * n))
    law = qmath.contract_qubits(rho, _readout(m, noise.readout_flip, 1), n, 2)
    return _draw(law.real.reshape(3 ** n, 2 ** n), shots, _key("seed", seed), range(3 ** n))


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
    if any(ch not in _BASIS_CHANGE for ch in setting):
        raise ValueError(f"setting {setting!r} has letters outside {', '.join(_BASIS_CHANGE)}")
    n = circuit.n_qubits
    rotations = tuple(Gate(kind, q) for q, ch in enumerate(setting) for kind in _BASIS_CHANGE[ch])
    return circuit.extend(Circuit(n, rotations, frozenset(range(n))))
