"""Shot-based sampling of circuits under a simple hardware noise model.

Noise model: a depolarizing channel acts on the touched qubits after every
gate (one strength for single-qubit gates, one for CNOTs) and readout applies
an independent classical bit flip to each measured bit.  The depolarizing
strength ``p`` is the full-replacement probability,

    rho -> (1 - p) rho + p * (tr_S rho) (x) I/2^k,

equivalent to each of the 4^k - 1 non-identity Pauli errors occurring with
probability p / 4^k, so p = 1 leaves the touched qubits maximally mixed.

A noisy rho is evolved as its real Pauli coefficients c_L = tr(P_L rho), a
(4,)*n tensor with one axis per qubit (letters I, X, Y, Z), by
:func:`belldisc.circuit.evolve`: each gate and its channel is one real Pauli
transfer matrix, and each maximal run of them on at most two qubits is one
matrix of at most 16x16, as a state vector's runs of four qubits are, applied
to its qubits' axes.  A :class:`NoiseModel` builds these matrices, and the setting
law below, once, on first use, and holds them.  Here rho = sum_L c_L P_L / 2^n is formed only by
``final_density``, with or without noise, through :func:`belldisc.qmath.density_from_pauli`,
which ``tomography.reconstruct`` also calls; a Z outcome b of a qubit has probability
(c_I +- c_Z) / 2 on its axis.  The law of a circuit whose gates carry no depolarizing
noise comes from a 2^n state vector instead, as |psi|^2.  Seeds and streams are integers
taken modulo 2^64.  ``_readout`` is one bit's 2x2 readout matrix F, which
:func:`belldisc.qmath.contract_qubits` applies to every measured bit's axis: ``exact_distribution`` is
the post-readout law, and ``sample`` draws it in one multinomial draw keyed by
``(seed, stream)``, its CDF rounded to multiples of 2^-32 so that laws differing
only by round-off draw the same counts.  ``sample_settings`` draws all Pauli
settings of a tomography from one evolution, count for count as ``sample``: each
qubit's axis of the Pauli coefficients is one matmul with the setting law of that
qubit, basis change and readout flip together, and one Philox bit generator is
re-keyed per setting.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from typing import Mapping

import numpy as np

from . import qmath
from .circuit import GATE_MATRICES, Circuit, Gate, evolve, lift, simulate
from .errors import (
    BadArgument,
    BadSeed,
    DimensionMismatch,
    HasMeasurements,
    IdentityInSetting,
    NoMeasurements,
    ParseError,
    TooManyQubits,
    ZeroShots,
    as_int,
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
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
                raise BadArgument(f"{f.name} must be in [0, 1], got {p!r}")

    @property
    def is_ideal(self) -> bool:
        return self == IDEAL

    @cached_property
    def _tables(self) -> dict[int, dict[tuple, np.ndarray]]:
        """:func:`_channels` of every run width, as :func:`evolve` takes them; built on first use, held by the model."""
        return {width: _channels(self, width) for width in _PAULI_TRANSFER}

    @cached_property
    def _setting_law(self) -> np.ndarray:
        """F @ M of :func:`sample_settings`, the (3, 2, 4) law of one qubit's settings; built on first use."""
        rotate = self._tables[1]
        m = [reduce(lambda e, kind: e @ rotate[kind, 0], gates[::-1], _OUTCOMES) for gates in _BASIS_CHANGE.values()]
        law = _readout(self.readout_flip) @ np.array(m)
        law.flags.writeable = False
        return law


IDEAL = NoiseModel()


@dataclass(frozen=True)
class CountsHistogram:
    """Outcome counts over the measured bits, keys in qubit-index order."""

    n_bits: int
    shots: int
    counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_bits", as_int(self.n_bits, DimensionMismatch, "n_bits", 1))
        object.__setattr__(self, "shots", _check_shots(self.shots))
        coerced: dict[str, int] = {}
        for key, cnt in dict(self.counts).items():
            if len(key) != self.n_bits or any(b not in "01" for b in key):
                raise ParseError(f"bad outcome key {key!r} for {self.n_bits} bits")
            ok = type(cnt) is int and cnt >= 0  # a plain count is stored as it is, with no message formatted
            coerced[key] = cnt if ok else as_int(cnt, ParseError, f"count of outcome {key!r}", 0)
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


def _check_shots(shots) -> int:
    """``shots`` as an int from 1 to 2^63 - 1, what an int64 count and numpy's multinomial hold."""
    return as_int(shots, ZeroShots, "shots", 1, 2 ** 63)


def _pauli_transfer(u: np.ndarray) -> np.ndarray:
    """R[i, j] = tr(P_i U P_j U^+) / 2^k over the k-qubit Pauli strings: column j is U P_j U^+ / 2^k in the Pauli basis.

    Every gate kind is a Clifford, so R is a signed permutation: rounding takes off only the
    round-off of H's 1/sqrt(2) entries, and the identity row stays e_0, so the trace stays 1.
    """
    d = len(u)
    basis = np.eye(d * d).reshape((d * d,) + (4,) * (d.bit_length() - 1))  # e_j, each a (4,)*k tensor
    columns = [qmath.pauli_from_density(u @ qmath.density_from_pauli(e) @ u.conj().T) for e in basis]
    return np.rint(np.array(columns).real.reshape(d * d, d * d).T)


def _stacked(matrices: dict[str, np.ndarray]) -> dict[int, tuple[tuple, np.ndarray]]:
    """:func:`lift` of ``matrices``: its keys and its stacked matrices, per run width."""
    return {width: (tuple(table), np.stack(tuple(table.values()))) for width, table in lift(matrices).items()}


_PAULI_TRANSFER = _stacked({kind: _pauli_transfer(u) for kind, u in GATE_MATRICES.items()})
# |I><I| on the touched qubits: keeps the trace and forgets the rest
_REPLACEMENT = _stacked({kind: np.diag(np.eye(len(u) ** 2)[0]) for kind, u in GATE_MATRICES.items()})
_OUTCOMES = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]]) / 2  # Z outcome b: (c_I +- c_Z) / 2


def _depolarizing(noise: NoiseModel, kind: str) -> float:
    return noise.per_cnot_depolarizing if kind == "CNOT" else noise.per_gate_depolarizing


def _pure(circuit: Circuit, noise: NoiseModel) -> bool:
    """Whether no gate of the circuit carries depolarizing noise, so its state stays a vector."""
    noise_free = not (noise.per_gate_depolarizing or noise.per_cnot_depolarizing)  # decided without reading a gate
    return noise_free or not any(_depolarizing(noise, g.kind) for g in circuit.gates)


def _channels(noise: NoiseModel, width: int) -> dict[tuple, np.ndarray]:
    """Each gate kind followed by its depolarizing channel, in a run of ``width`` qubits as :func:`lift` keys it.

    Full replacement after a gate forgets the gate, so the pair's Pauli transfer
    matrix is (1 - p) R_U + p |I><I|.
    """
    keys, transfer = _PAULI_TRANSFER[width]
    p = np.array([_depolarizing(noise, kind) for kind, *_ in keys])[:, None, None]
    channels = (1.0 - p) * transfer + p * _REPLACEMENT[width][1]
    channels.flags.writeable = False  # a model holds its tables, and every evolution shares them
    return dict(zip(keys, channels))


def _coefficients(circuit: Circuit, tables: dict[int, dict[tuple, np.ndarray]]) -> np.ndarray:
    """The Pauli coefficients c_L = tr(P_L rho) after the noisy gates: a real (4,)*n tensor, axis q the letter of qubit q."""
    n = circuit.n_qubits
    c = np.zeros((4,) * n)
    c[(slice(None, None, 3),) * n] = 1.0  # |0..0><0..0|: 1 for every L in {I, Z}^n
    return evolve(c, circuit.gates, tables)


def final_density(circuit: Circuit, noise: NoiseModel = IDEAL) -> np.ndarray:
    """Density matrix after the gates and their noise channels, with or without noise:
    :func:`belldisc.qmath.density_from_pauli` of the real Pauli coefficients of :func:`_coefficients`.
    """
    return qmath.density_from_pauli(_coefficients(circuit, noise._tables))


def _readout(r: float) -> np.ndarray:
    """F[b', b], the probability that a bit b is read out as b', flipping with probability r."""
    return np.array([[1.0 - r, r], [r, 1.0 - r]])


def _law(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Post-readout probabilities of the measured bits."""
    if not circuit.measured:
        raise NoMeasurements("circuit has no measured qubits")
    n = circuit.n_qubits
    if _pure(circuit, noise):
        psi = simulate(circuit).reshape((2,) * n)
        probs = (psi * psi.conj()).real.sum(axis=tuple(q for q in range(n) if q not in circuit.measured))
    else:  # the unmeasured qubits traced out: their letter I
        c = _coefficients(circuit, noise._tables)[tuple(slice(None) if q in circuit.measured else 0 for q in range(n))]
        probs = qmath.contract_qubits(c, _OUTCOMES, 1)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return qmath.contract_qubits(probs, _readout(noise.readout_flip), 1).reshape(-1)


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
    seed, stream = as_int(seed, BadSeed, "seed"), as_int(stream, BadSeed, "stream")
    counts = _draw(_law(circuit, noise)[None], _check_shots(shots), seed, [stream])[0]
    m = len(circuit.measured)
    return CountsHistogram(m, shots, {format(i, f"0{m}b"): int(c) for i, c in enumerate(counts) if c})


# Pre-measurement rotations of each basis, applied in this order.
_BASIS_CHANGE = {"X": ("H",), "Y": ("SDG", "H"), "Z": ()}


def sample_settings(
    circuit: Circuit, shots: int, noise: NoiseModel = IDEAL, seed: int = 0
) -> np.ndarray:
    """Counts (3^n, 2^n) of all Pauli settings in ``tomography.plan`` order, from one evolution.

    Row i equals ``sample(with_basis_change(circuit, setting_i), ..., stream=i)``: the noisy
    rotation and readout of each qubit act on it alone, so each qubit's axis of the Pauli
    coefficients is one matmul with M[s, b, l], the probability of outcome b in basis s
    per unit of coefficient l, read out as F @ M with F of ``_readout``.  M[s, b] is the
    Z-outcome row (c_I +- c_Z) / 2 multiplied through basis s's rotations, each with its
    noise, as the one-qubit :func:`_channels` that ``evolve`` applies.  The circuit must be unmeasured.
    """
    if circuit.measured:
        raise HasMeasurements("tomography appends its own measurements")
    n = circuit.n_qubits
    if n > MAX_TOMOGRAPHY_QUBITS:
        raise TooManyQubits(f"{n} qubits would need 3^{n} settings")
    shots = _check_shots(shots)
    law = qmath.contract_qubits(_coefficients(circuit, noise._tables), noise._setting_law, 1)
    return _draw(law.reshape(3 ** n, 2 ** n), shots, as_int(seed, BadSeed, "seed"), range(3 ** n))


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
        raise BadArgument(f"setting {setting!r} has letters outside {', '.join(_BASIS_CHANGE)}")
    n = circuit.n_qubits
    rotations = tuple(Gate(kind, q) for q, ch in enumerate(setting) for kind in _BASIS_CHANGE[ch])
    return circuit.extend(Circuit(n, rotations, frozenset(range(n))))
