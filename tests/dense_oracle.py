"""Dense reference implementations that the package's kernels are tested against.

Every gate here is a full 2^n x 2^n matrix, depolarizing conjugates rho by all
4^k Pauli strings on the touched qubits, tomography re-simulates the circuit
once per setting and estimates each coefficient with a loop over outcome
strings, and fidelity diagonalizes its first argument every time.  This is
slow and obviously correct; the package's tensor kernels, batched tomography
and pure-state fidelity must agree with it.  ``superoperator`` is a gate and
its channel acting on rho's entries, the complex form whose real Pauli-basis
image the package's channel tables must be, and ``partial_trace`` is the index
contraction that the package's Pauli-coefficient slice replaced.  ``sample_per_shot`` draws the
same law shot by shot, so the law tests can check both draws.  Nothing under
``src/`` imports this module.
"""
from __future__ import annotations

import itertools

import numpy as np

from belldisc import qmath
from belldisc.circuit import Circuit, Gate
from belldisc.errors import DimensionMismatch, NotHermitian, NotSquare, StronglyNonPositive
from belldisc.sampler import IDEAL, CountsHistogram, NoiseModel, with_basis_change
from belldisc.tomography import TomographyReport, plan

_MASK64 = (1 << 64) - 1
ONE_QUBIT = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def gate_unitary(gate: Gate, n: int) -> np.ndarray:
    if gate.kind != "CNOT":
        return qmath.tensor(*(ONE_QUBIT[gate.kind] if q == gate.target else np.eye(2)
                              for q in range(n)))
    dim = 2 ** n
    u = np.zeros((dim, dim), dtype=complex)
    cbit = n - 1 - gate.control
    tbit = n - 1 - gate.target
    for b in range(dim):
        dst = b ^ (1 << tbit) if (b >> cbit) & 1 else b
        u[dst, b] = 1.0
    return u


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    n = circuit.n_qubits
    state = qmath.ket("0" * n) if initial is None else np.asarray(initial, dtype=complex).ravel()
    for g in circuit.gates:
        state = gate_unitary(g, n) @ state
    return state


def unitary_of(circuit: Circuit) -> np.ndarray:
    u = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        u = gate_unitary(g, circuit.n_qubits) @ u
    return u


def superoperator(u: np.ndarray, p: float) -> np.ndarray:
    """A gate and its depolarizing channel on rho's entries, laid out (row q0, column q0, row q1, ...).

    (1 - p) U (x) U* + p |I>><<I| / d, with |I>> the identity flattened like rho:
    full replacement after a gate forgets the gate.
    """
    d = len(u)
    k = d.bit_length() - 1
    identity = np.eye(d).ravel()
    m = (1.0 - p) * np.kron(u, u.conj()) + p * np.outer(identity, identity) / d
    order = [i + j * k for i in range(k) for j in range(2)]
    return m.reshape((2,) * 4 * k).transpose(order + [2 * k + o for o in order]).reshape(m.shape)


def pauli_change_of_basis(k: int) -> np.ndarray:
    """T with c = T vec(rho): row L holds tr(P_L rho) = sum_rc P_L[c, r] rho[r, c], vec laid out as in ``superoperator``."""
    one = np.stack([qmath.PAULI[ch].T.ravel() for ch in "IXYZ"])
    return qmath.tensor(*[one] * k)


def twirl_depolarize(rho: np.ndarray, qubits: tuple[int, ...], n: int, p: float) -> np.ndarray:
    """(1-p) rho + p * (average of P rho P over the Pauli group on ``qubits``)."""
    ops = []
    for combo in itertools.product("IXYZ", repeat=len(qubits)):
        label = ["I"] * n
        for q, ch in zip(qubits, combo):
            label[q] = ch
        ops.append(qmath.pauli_operator("".join(label)))
    mixed = sum(op @ rho @ op for op in ops) / len(ops)
    return (1.0 - p) * rho + p * mixed


def final_density(circuit: Circuit, noise: NoiseModel = IDEAL) -> np.ndarray:
    n = circuit.n_qubits
    rho = qmath.projector(qmath.ket("0" * n))
    for g in circuit.gates:
        u = gate_unitary(g, n)
        rho = u @ rho @ u.conj().T
        p = noise.per_cnot_depolarizing if g.kind == "CNOT" else noise.per_gate_depolarizing
        if p > 0.0:
            rho = twirl_depolarize(rho, g.qubits, n, p)
    return rho


def partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced matrix on the ``keep`` qubits (ascending order): one einsum that ties each traced row axis to its column."""
    kept = sorted(set(keep))
    t = np.asarray(rho, dtype=complex).reshape((2,) * (2 * n))
    row = list(range(n))
    col = list(range(n, 2 * n))
    for q in range(n):
        if q not in kept:
            col[q] = row[q]
    out = [row[q] for q in kept] + [col[q] for q in kept]
    d = 2 ** len(kept)
    return np.einsum(t, row + col, out).reshape(d, d)


def _measured_probs(rho: np.ndarray, measured: tuple[int, ...], n: int) -> np.ndarray:
    probs = np.real(np.diag(rho)).reshape((2,) * n)
    drop = tuple(q for q in range(n) if q not in measured)
    if drop:
        probs = probs.sum(axis=drop)
    probs = np.clip(probs.reshape(-1), 0.0, None)
    return probs / probs.sum()


def _post_readout(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    measured = tuple(sorted(circuit.measured))
    m = len(measured)
    probs = _measured_probs(final_density(circuit, noise), measured, circuit.n_qubits)
    if noise.readout_flip > 0.0:
        t = probs.reshape((2,) * m)
        for axis in range(m):
            t = (1.0 - noise.readout_flip) * t + noise.readout_flip * np.flip(t, axis=axis)
        probs = t.reshape(-1)
    return probs


def exact_distribution(circuit: Circuit, noise: NoiseModel = IDEAL) -> dict[str, float]:
    m = len(circuit.measured)
    return {format(i, f"0{m}b"): float(p) for i, p in enumerate(_post_readout(circuit, noise))}


def _histogram(counts: np.ndarray, shots: int) -> CountsHistogram:
    m = counts.size.bit_length() - 1
    return CountsHistogram(m, shots, {format(i, f"0{m}b"): int(c) for i, c in enumerate(counts) if c})


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed & _MASK64 | (stream & _MASK64) << 64))


def sample(circuit: Circuit, shots: int, noise: NoiseModel = IDEAL, seed: int = 0,
           stream: int = 0) -> CountsHistogram:
    """One multinomial draw from the post-readout law, its CDF rounded to multiples of 2^-32."""
    cdf = np.round(np.cumsum(_post_readout(circuit, noise)) * 2.0 ** 32) / 2.0 ** 32
    pvals = np.concatenate(([cdf[0]], cdf[1:] - cdf[:-1]))
    return _histogram(_rng(seed, stream).multinomial(shots, pvals), shots)


def sample_per_shot(circuit: Circuit, shots: int, noise: NoiseModel = IDEAL, seed: int = 0,
                    stream: int = 0) -> CountsHistogram:
    """One uniform per shot looked up in the pre-readout CDF, then one per shot and bit for readout flips."""
    measured = tuple(sorted(circuit.measured))
    m = len(measured)
    probs = _measured_probs(final_density(circuit, noise), measured, circuit.n_qubits)
    rng = _rng(seed, stream)
    u = rng.random(shots)
    outcomes = np.zeros(shots, dtype=np.int64)
    for edge in np.cumsum(probs)[:-1]:
        outcomes += u >= edge
    if noise.readout_flip > 0.0:
        flips = rng.random((shots, m)) < noise.readout_flip
        outcomes ^= flips.astype(np.int64) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    return _histogram(np.bincount(outcomes, minlength=2 ** m), shots)


def labels(n: int) -> list[str]:
    return ["".join(s) for s in itertools.product("IXYZ", repeat=n)]


def expectations_from_counts(n: int, histograms: dict[str, CountsHistogram]) -> dict[str, float]:
    """One coefficient per label: signed outcome counts of the label's setting."""
    values: dict[str, float] = {}
    for label in labels(n):
        if label == "I" * n:
            values[label] = 1.0
            continue
        hist = histograms[label.replace("I", "Z")]
        positions = [i for i, ch in enumerate(label) if ch != "I"]
        acc = 0
        for outcome, cnt in hist.counts.items():
            sign = -1 if sum(int(outcome[i]) for i in positions) % 2 else 1
            acc += sign * cnt
        values[label] = acc / hist.shots
    return values


def exact_expectations(rho: np.ndarray) -> dict[str, float]:
    n = int(round(np.log2(rho.shape[0])))
    return {
        label: float(np.real(np.trace(rho @ qmath.pauli_operator(label)))) for label in labels(n)
    }


def reconstruct(values: dict[str, float], n: int) -> np.ndarray:
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    for label in labels(n):
        rho += values[label] * qmath.pauli_operator(label)
    return rho / dim


def setting_histograms(circuit: Circuit, shots: int, noise: NoiseModel, seed: int,
                       sampler=sample) -> dict[str, CountsHistogram]:
    """Each setting's histogram from its own basis-changed circuit, stream = setting index."""
    return {
        setting: sampler(with_basis_change(circuit, setting), shots, noise, seed, stream=index)
        for index, setting in enumerate(plan(circuit.n_qubits).settings)
    }


def run_tomography(circuit: Circuit, ideal: np.ndarray, shots: int = 8192,
                   noise: NoiseModel = IDEAL, seed: int = 0) -> TomographyReport:
    ideal_m = np.asarray(ideal, dtype=complex)
    if ideal_m.ndim == 1:
        ideal_m = qmath.projector(ideal_m)
    n = circuit.n_qubits
    histograms = setting_histograms(circuit, shots, noise, seed)
    raw = reconstruct(expectations_from_counts(n, histograms), n)
    physical, clipped = qmath.make_physical(raw)
    return TomographyReport(
        raw=raw,
        physical=physical,
        fidelity_to_ideal=qmath.fidelity(ideal_m, raw),
        deviation=qmath.deviation(ideal_m, raw),
        purity=qmath.purity(raw),
        clipped=clipped,
        n_qubits=n,
        shots=shots,
        seed=seed,
    )


def _square(a: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"{what} must be a square matrix, got shape {m.shape}")
    return m


def fidelity(rho1: np.ndarray, rho2: np.ndarray, *, herm_tol: float = qmath.PHYSICALITY_TOL) -> float:
    """Uhlmann fidelity with ``rho1`` always diagonalized; its largest eigenvector serves when it is pure."""
    a, b = _square(rho1, "rho1"), _square(rho2, "rho2")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    for what, m in (("rho1", a), ("rho2", b)):
        if np.abs(m - m.conj().T).max() > herm_tol:
            raise NotHermitian(f"{what} is not Hermitian")
    evals, evecs = np.linalg.eigh((a + a.conj().T) / 2)
    if evals.min() < -qmath.PHYSICALITY_TOL:
        raise StronglyNonPositive(f"rho1 has eigenvalue {evals.min():.3g}")
    if float(np.real(np.trace(a @ a))) > 1.0 - qmath.ALGEBRAIC_TOL:
        psi = evecs[:, int(np.argmax(evals))]
        return float(np.sqrt(max(float(np.real(psi.conj() @ b @ psi)), 0.0)))
    sqrt_a = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = sqrt_a @ b @ sqrt_a
    mu = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return float(np.sqrt(np.clip(mu, 0.0, None)).sum())
