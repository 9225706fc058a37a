"""Shot-based sampling of circuits under a simple hardware noise model.

Noise model: a depolarizing channel acts on the touched qubits after every
gate (one strength for single-qubit gates, one for CNOTs) and readout applies
an independent classical bit flip to each measured bit.  The depolarizing
strength ``p`` is the full-replacement probability,

    rho -> (1 - p) rho + p * (tr_S rho) (x) I/2^k,

equivalent to each of the 4^k - 1 non-identity Pauli errors occurring with
probability p / 4^k, so p = 1 leaves the touched qubits maximally mixed.

Every gate kind is a Clifford and every channel a Pauli channel, so a Pauli
observable carried back through a gate and its channel, U^+ D(P) U, is one
signed Pauli string, scaled by 1 - p unless P is the identity on the gate's
qubits.  :func:`_back` carries many observables at once, as bits of Python
integers; on |0..0> one's expectation is its signed weight when its image has
no X or Y letter, else 0.  The law of the measured bits asks for the 2^m
Z-strings on them, a Z outcome b having probability (c_I +- c_Z) / 2, so its
cost does not grow with the register.  ``final_density`` asks for all 4^n
strings, the Pauli coefficients c_L = tr(P_L rho) as a real (4,)*n tensor
(letters I, X, Y, Z), and sums rho = sum_L c_L P_L / 2^n in
:func:`belldisc.qmath.density_from_pauli`, as ``tomography.reconstruct`` does.  Seeds and streams are integers
taken modulo 2^64.  ``_readout`` is one bit's 2x2 readout matrix F, which
:func:`belldisc.qmath.contract_qubits` applies to every measured bit's axis: ``exact_distribution`` is
the post-readout law, and ``sample`` draws it in one multinomial draw keyed by
``(seed, stream)``, its CDF rounded to multiples of 2^-32 so that laws differing
only by round-off draw the same counts.  ``sample_settings`` draws all Pauli
settings of a tomography from one set of coefficients, count for count as ``sample``: each
qubit's axis of the Pauli coefficients is one matmul with the setting law of that
qubit, basis change and readout flip together, which a :class:`NoiseModel` builds
once, on first use, and holds; one Philox bit generator is re-keyed per setting.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from typing import Mapping

import numpy as np

from . import qmath
from .circuit import Circuit, Gate
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
_MEASURE = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2  # Z outcome b of one qubit per unit of <I> and <Z>: (c_I +- c_Z) / 2


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
    def _setting_law(self) -> np.ndarray:
        """F @ M of :func:`sample_settings`, the (3, 2, 4) law of one qubit's settings from I and Z carried back
        through each basis's noisy rotations; built on first use."""
        m = np.zeros((len(_BASIS_CHANGE), 2, 4))
        for s, kinds in enumerate(_BASIS_CHANGE.values()):
            (x,), (z,), masks, factors = _back([Gate(kind, 0) for kind in kinds], [0], [0b10], self)  # bit 0 I, bit 1 Z
            weight = _weights(2, masks, factors)
            for k in range(2):
                m[s, :, (x >> k & 1 ^ z >> k & 1) + 2 * (z >> k & 1)] = _MEASURE[:, k] * weight[k]
        law = _readout(self.readout_flip) @ m
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


def _depolarizing(noise: NoiseModel, kind: str) -> float:
    return noise.per_cnot_depolarizing if kind == "CNOT" else noise.per_gate_depolarizing


def _repeated(block: int, period: int, count: int) -> int:
    """The ``period``-bit mask ``block`` repeated over ``count`` bits."""
    return block * (((1 << count) - 1) // ((1 << period) - 1))


def _back(gates, x: list[int], z: list[int], noise: NoiseModel) -> tuple[list[int], list[int], list[int], list[float]]:
    """Carry Pauli observables back through the noisy ``gates``: their images' x and z masks, and their weights' factors.

    Observable k is bit k of x[q] and z[q], its letter on qubit q (x ^ z) + 2z in I, X, Y, Z order.  In reverse,
    each gate maps P to U^+ P U by the stabilizer-tableau rules of Aaronson and Gottesman, and its channel
    scales a P that is not the identity on the gate's qubits, before or after the gate alike, by 1 - p.  Weight
    k is the product of the factors whose mask has bit k set: -1 for the sign mask, then one per channel.
    """
    x, z, sign, masks, factors = list(x), list(z), 0, [], []
    for g in reversed(gates):
        kind, t, c = g.kind, g.target, g.control
        p = _depolarizing(noise, kind)
        if p:
            masks.append(x[t] | z[t] if c is None else x[t] | z[t] | x[c] | z[c])
            factors.append(1.0 - p)
        if kind == "H":
            sign ^= x[t] & z[t]
            x[t], z[t] = z[t], x[t]
        elif kind == "X":
            sign ^= z[t]
        elif kind != "CNOT":  # S^+ P S is SDG's forward rule, and SDG^+ P SDG is S's
            sign ^= x[t] & (z[t] if kind == "SDG" else ~z[t])
            z[t] ^= x[t]
        else:
            sign ^= x[c] & z[t] & ~(x[t] ^ z[c])
            x[t] ^= x[c]
            z[c] ^= z[t]
    return x, z, [sign] + masks, [-1.0] + factors


def _weights(count: int, masks: list[int], factors: list[float]) -> np.ndarray:
    """Observable k's product of the ``factors`` whose mask has bit k set, multiplied in order."""
    size = (count + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), np.uint8).reshape(len(masks), size)
    bits = np.unpackbits(raw, axis=1, count=count, bitorder="little").view(bool)
    return np.where(bits, np.array(factors)[:, None], 1.0).prod(axis=0)


def _on_zero(gates, x: list[int], z: list[int], count: int, noise: NoiseModel) -> np.ndarray:
    """<P_k> after the noisy ``gates`` from |0..0>: P_k's weight if its image has no X or Y letter, else 0."""
    x, _, masks, factors = _back(gates, x, z, noise)
    zero = reduce(int.__or__, x, 0)
    masks[0] &= ~zero  # a zero takes no sign, so it is +0.0
    return _weights(count, [zero] + masks, [0.0] + factors)


def _coefficients(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """The Pauli coefficients c_L = tr(P_L rho) after the noisy gates: a real (4,)*n tensor, axis q the letter of qubit q.

    Observable k is the string at flat index k, so qubit q's letter holds for runs of s = 4^(n-1-q)
    observables: X and Y (letters 1 and 2) set its x bit, Y and Z (2 and 3) its z bit.
    """
    n, count = circuit.n_qubits, 4 ** circuit.n_qubits
    strides = [4 ** (n - 1 - q) for q in range(n)]
    x = [_repeated(((1 << 2 * s) - 1) << s, 4 * s, count) for s in strides]
    z = [_repeated(((1 << 2 * s) - 1) << 2 * s, 4 * s, count) for s in strides]
    return _on_zero(circuit.gates, x, z, count, noise).reshape((4,) * n)


def final_density(circuit: Circuit, noise: NoiseModel = IDEAL) -> np.ndarray:
    """Density matrix after the gates and their noise channels, with or without noise:
    :func:`belldisc.qmath.density_from_pauli` of the real Pauli coefficients of :func:`_coefficients`.
    """
    return qmath.density_from_pauli(_coefficients(circuit, noise))


def _readout(r: float) -> np.ndarray:
    """F[b', b], the probability that a bit b is read out as b', flipping with probability r."""
    return np.array([[1.0 - r, r], [r, 1.0 - r]])


def _law(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Post-readout probabilities of the measured bits, from the 2^m Z-strings on them (Z on the i-th where k has bit m-1-i)."""
    if not circuit.measured:
        raise NoMeasurements("circuit has no measured qubits")
    m, z = len(circuit.measured), [0] * circuit.n_qubits
    count = 2 ** m
    for i, q in enumerate(sorted(circuit.measured)):
        s = 2 ** (m - 1 - i)
        z[q] = _repeated(((1 << s) - 1) << s, 2 * s, count)
    e = _on_zero(circuit.gates, [0] * circuit.n_qubits, z, count, noise).reshape((2,) * m)
    probs = np.clip(qmath.contract_qubits(e, _readout(noise.readout_flip) @ _MEASURE, 1).reshape(-1), 0.0, None)
    return probs / probs.sum()


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
    """Counts (3^n, 2^n) of all Pauli settings in ``tomography.plan`` order, from one set of Pauli coefficients.

    Row i equals ``sample(with_basis_change(circuit, setting_i), ..., stream=i)``: the noisy
    rotation and readout of each qubit act on it alone, so each qubit's axis of the Pauli
    coefficients is one matmul with M[s, b, l], the probability of outcome b in basis s
    per unit of coefficient l, read out as F @ M with F of ``_readout``.  M[s, b] is the
    Z-outcome row (c_I +- c_Z) / 2 multiplied through basis s's rotations, each with its
    noise, as :func:`_back` carries them.  The circuit must be unmeasured.
    """
    if circuit.measured:
        raise HasMeasurements("tomography appends its own measurements")
    n = circuit.n_qubits
    if n > MAX_TOMOGRAPHY_QUBITS:
        raise TooManyQubits(f"{n} qubits would need 3^{n} settings")
    shots = _check_shots(shots)
    law = qmath.contract_qubits(_coefficients(circuit, noise), noise._setting_law, 1)
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
