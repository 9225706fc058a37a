"""Shared test helpers and the acceptance-criteria terminal summary."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from belldisc.circuit import Circuit, Gate
from belldisc.sampler import NoiseModel

ACCEPTANCE_LINES: list[str] = []


def record(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    a = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_circuit(rng: np.random.Generator, n_qubits: int, max_gates: int) -> Circuit:
    c = Circuit(n_qubits)
    n_gates = int(rng.integers(1, max_gates + 1))
    for _ in range(n_gates):
        kind = rng.choice(["H", "X", "S", "SDG", "CNOT"])
        if kind == "CNOT" and n_qubits >= 2:
            control, target = rng.choice(n_qubits, size=2, replace=False)
            c = c.cnot(int(control), int(target))
        elif kind != "CNOT":
            c = c.append(Gate(kind, int(rng.integers(n_qubits))))
    return c


REAL_KINDS = ("H", "X", "CNOT")  # the gates whose matrices are real: these circuits evolve in float64


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 12, n_qubits: int | None = None,
             kinds: tuple[str, ...] = ("H", "X", "S", "SDG", "CNOT")) -> Circuit:
    n = n_qubits or draw(st.integers(1, max_qubits))
    kinds = [kind for kind in kinds if kind != "CNOT" or n > 1]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        if kind == "CNOT":
            control, target = draw(st.permutations(range(n)))[:2]
            gates.append(Gate("CNOT", target, control))
        else:
            gates.append(Gate(kind, draw(st.integers(0, n - 1))))
    return Circuit(n, tuple(gates))


probabilities = st.floats(0.0, 1.0)
# noise-free gates about half the time, so laws with no channel at all are drawn too
gate_strengths = st.one_of(st.just(0.0), probabilities)
noise_models = st.builds(NoiseModel, gate_strengths, gate_strengths, probabilities)
