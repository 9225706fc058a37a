"""Gate-level circuit model, ideal simulation and the experiment's circuits.

A circuit is an immutable sequence of gates from the set {H, X, S, SDG, CNOT}
on ``n_qubits`` wires plus a set of terminal measurement markers.  Markers are
terminal by construction: appending a gate to a measured qubit raises.

Bit and ket conventions follow :mod:`belldisc.qmath` (qubit 0 = leftmost =
most significant).  Bell-pair labels follow the convention of this experiment:
``psi+- = (|00> +- |11>)/sqrt(2)`` (even parity) and
``phi+- = (|01> +- |10>)/sqrt(2)`` (odd parity).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import qmath
from .errors import (
    BadQubitIndex,
    DimensionMismatch,
    HasMeasurements,
    HasMeasurementsBeforeEnd,
    ParseError,
)

GATE_KINDS = ("H", "X", "S", "SDG", "CNOT")

# CNOT's rows and columns are ordered (control, target), qubit order.
GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
}


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    control: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CNOT":
            if self.control is None:
                raise ValueError("CNOT needs a control qubit")
            if self.control == self.target:
                raise BadQubitIndex("CNOT control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} takes no control qubit")
        for q in self.qubits:
            if q < 0:
                raise BadQubitIndex(f"negative qubit index {q}")

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)

    def text(self) -> str:
        if self.kind == "CNOT":
            return f"CNOT {self.control} {self.target}"
        return f"{self.kind} {self.target}"


def _check_unmeasured(gates, measured: set[int] | frozenset[int]) -> None:
    """Raise at the first gate that touches an already measured qubit."""
    for g in gates:
        touched = set(g.qubits) & measured
        if touched:
            raise HasMeasurementsBeforeEnd(f"qubit(s) {sorted(touched)} already measured")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()
    measured: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise BadQubitIndex("a circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "measured", frozenset(self.measured))
        for g in self.gates:
            for q in g.qubits:
                if q >= self.n_qubits:
                    raise BadQubitIndex(f"gate {g.text()!r} outside register of {self.n_qubits}")
        for q in self.measured:
            if not 0 <= q < self.n_qubits:
                raise BadQubitIndex(f"measured qubit {q} outside register of {self.n_qubits}")

    # -- construction (every method returns a new circuit) --

    def append(self, gate: Gate) -> "Circuit":
        _check_unmeasured((gate,), self.measured)
        return Circuit(self.n_qubits, self.gates + (gate,), self.measured)

    def h(self, q: int) -> "Circuit":
        return self.append(Gate("H", q))

    def x(self, q: int) -> "Circuit":
        return self.append(Gate("X", q))

    def s(self, q: int) -> "Circuit":
        return self.append(Gate("S", q))

    def sdg(self, q: int) -> "Circuit":
        return self.append(Gate("SDG", q))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.append(Gate("CNOT", target, control))

    def measure(self, *qubits: int) -> "Circuit":
        return Circuit(self.n_qubits, self.gates, self.measured | set(qubits))

    def extend(self, other: "Circuit") -> "Circuit":
        """Concatenate another circuit on the same register; the result is validated once."""
        if other.n_qubits != self.n_qubits:
            raise DimensionMismatch(
                f"cannot extend a {self.n_qubits}-qubit circuit with a {other.n_qubits}-qubit one"
            )
        _check_unmeasured(other.gates, self.measured)
        return Circuit(self.n_qubits, self.gates + other.gates, self.measured | other.measured)

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "CNOT")


# -- simulation --

def apply_matrix(t: np.ndarray, u: np.ndarray, axes) -> np.ndarray:
    """The simulation kernel: multiply ``u`` into the given axes of a tensor.

    ``u`` acts on the index those axes form, the first axis most significant;
    the other axes are carried along.
    """
    order = list(axes)
    order += [a for a in range(t.ndim) if a not in order]
    out = (u @ t.transpose(order).reshape(len(u), -1)).reshape(t.shape)
    return out.transpose(sorted(range(t.ndim), key=order.__getitem__))


def lift(matrices: dict[str, np.ndarray]) -> dict[int, dict[tuple, np.ndarray]]:
    """Each gate kind's matrix embedded in a run of one or two qubits, the first most significant.

    Keyed by run width, then by (kind, run position of the gate's first qubit:
    a CNOT's control).  A qubit takes 2 values, or 4 for a channel (row, column).
    """
    d, eye, cnot = len(matrices["H"]), np.eye(len(matrices["H"])), matrices["CNOT"]
    one = {(kind, 0): m for kind, m in matrices.items() if kind != "CNOT"}
    two = {(kind, 0): np.kron(m, eye) for (kind, _), m in one.items()}
    two |= {(kind, 1): np.kron(eye, m) for (kind, _), m in one.items()}
    two["CNOT", 0], two["CNOT", 1] = cnot, cnot.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(cnot.shape)
    return {1: one, 2: two}


_UNITARIES = lift(GATE_MATRICES)


def evolve(t: np.ndarray, gates, lifted: dict[int, dict[tuple, np.ndarray]]) -> np.ndarray:
    """Apply ``gates`` to the leading axes of ``t``, axis q being qubit q; further axes are carried along.

    The gates are split into maximal runs on at most two qubits, and each run's
    product of ``lifted`` matrices is one :func:`apply_matrix` call.
    """
    runs, qubits = [], []
    for g in gates:
        new = [q for q in g.qubits if q not in qubits]
        if runs and len(qubits) + len(new) <= 2:
            qubits += new
            members.append(g)
        else:
            qubits, members = list(g.qubits), [g]
            runs.append((qubits, members))
    for qubits, members in runs:
        table = lifted[len(qubits)]
        product = table[members[0].kind, members[0].qubits[0] != qubits[0]]
        for g in members[1:]:
            product = table[g.kind, g.qubits[0] != qubits[0]].dot(product)
        t = apply_matrix(t, product, qubits)
    return t


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Final state vector, evolved as a (2,)*n tensor; measurement markers are ignored."""
    dim = 2 ** circuit.n_qubits
    if initial is None:
        state = qmath.ket("0" * circuit.n_qubits)
    else:
        state = np.array(initial, dtype=complex).reshape(-1)
        if state.shape[0] != dim:
            raise DimensionMismatch(f"initial state has dim {state.shape[0]}, circuit needs {dim}")
    return evolve(state.reshape((2,) * circuit.n_qubits), circuit.gates, _UNITARIES).reshape(-1)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full unitary of a measurement-free circuit: the identity evolved, its column axes carried along."""
    if circuit.measured:
        raise HasMeasurements("circuit has measurement markers")
    n = circuit.n_qubits
    u = evolve(np.eye(2 ** n, dtype=complex).reshape((2,) * (2 * n)), circuit.gates, _UNITARIES)
    return u.reshape(2 ** n, 2 ** n)


def equivalent_up_to_phase(u1: np.ndarray, u2: np.ndarray, atol: float = qmath.ALGEBRAIC_TOL) -> bool:
    """Whether two operators agree up to a global phase.

    The phase is arg tr(A^+ B), a sum over all entries that round-off cannot
    flip the way it can flip the pick of one largest entry among equals.
    """
    a = np.asarray(u1, dtype=complex)
    b = np.asarray(u2, dtype=complex)
    if a.shape != b.shape:
        return False
    z = np.vdot(a, b)
    if abs(z) > 0.0:
        a = a * (z / abs(z))
    return bool(np.abs(a - b).max() <= atol)


# -- Bell pairs and the experiment's circuit blocks --

class BellKind(Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @property
    def parity_bit(self) -> int:
        """Parity-check ancilla outcome: 0 for psi (even parity), 1 for phi."""
        return 1 if self in (BellKind.PHI_PLUS, BellKind.PHI_MINUS) else 0

    @property
    def phase_bit(self) -> int:
        """Phase-check ancilla outcome: 0 for +, 1 for -."""
        return 1 if self in (BellKind.PSI_MINUS, BellKind.PHI_MINUS) else 0

    @classmethod
    def from_token(cls, token: str) -> "BellKind":
        for kind in cls:
            if kind.value == token:
                return kind
        raise ValueError(f"unknown Bell label {token!r}")


def bell_vector(kind: BellKind) -> np.ndarray:
    """Two-qubit Bell state in this experiment's labeling."""
    sign = -1.0 if kind.phase_bit else 1.0
    if kind.parity_bit:
        return (qmath.ket("01") + sign * qmath.ket("10")) / np.sqrt(2)
    return (qmath.ket("00") + sign * qmath.ket("11")) / np.sqrt(2)


def composite_state(kind: BellKind, ancilla_bit: int) -> np.ndarray:
    """Bell pair on qubits (0, 1) joined by an ancilla qubit in |0> or |1>."""
    if ancilla_bit not in (0, 1):
        raise ValueError("ancilla_bit must be 0 or 1")
    return np.kron(bell_vector(kind), qmath.ket(str(ancilla_bit)))


def bell_prep(kind: BellKind, system: tuple[int, int] = (0, 1), n_qubits: int = 3) -> Circuit:
    """Prepare a Bell pair on the system qubits from |0...0>.

    X gates load the bit pattern |phase_bit, parity_bit>, then H + CNOT turn
    it into the corresponding Bell pair.
    """
    a, b = system
    c = Circuit(n_qubits)
    if kind.phase_bit:
        c = c.x(a)
    if kind.parity_bit:
        c = c.x(b)
    return c.h(a).cnot(a, b)


def reverse_epr(system: tuple[int, int] = (0, 1), n_qubits: int = 3) -> Circuit:
    """Inverse of the Bell basis change: maps a Bell pair back to |phase_bit, parity_bit>."""
    a, b = system
    return Circuit(n_qubits).cnot(a, b).h(a)


def parity_check(system: tuple[int, int] = (0, 1), ancilla: int = 2, n_qubits: int = 3) -> Circuit:
    """Copy the pair's parity onto the ancilla: CNOTs from both system qubits."""
    a, b = system
    return Circuit(n_qubits).cnot(a, ancilla).cnot(b, ancilla)


def phase_check(system: tuple[int, int] = (0, 1), ancilla: int = 2, n_qubits: int = 3) -> Circuit:
    """Copy the pair's phase onto the ancilla: H, ancilla-controlled CNOTs, H."""
    a, b = system
    return Circuit(n_qubits).h(ancilla).cnot(ancilla, a).cnot(ancilla, b).h(ancilla)


def combined_check(
    system: tuple[int, int] = (0, 1),
    phase_ancilla: int = 2,
    parity_ancilla: int = 3,
    n_qubits: int = 4,
) -> Circuit:
    """Phase check followed by parity check on two separate ancillas."""
    c = phase_check(system, phase_ancilla, n_qubits)
    return c.extend(parity_check(system, parity_ancilla, n_qubits))


def discrimination_circuit(
    kind: BellKind,
    check: str,
    system: tuple[int, int] = (0, 1),
    ancilla: int = 2,
    n_qubits: int = 3,
) -> Circuit:
    """Prep + one check block + reverse EPR, as run for the outcome histograms."""
    if check == "parity":
        block = parity_check(system, ancilla, n_qubits)
    elif check == "phase":
        block = phase_check(system, ancilla, n_qubits)
    else:
        raise ValueError(f"check must be 'parity' or 'phase', got {check!r}")
    c = bell_prep(kind, system, n_qubits).extend(block)
    return c.extend(reverse_epr(system, n_qubits))


# -- text format --

def format_circuit(circuit: Circuit) -> str:
    """One gate per line (``H 0``, ``CNOT 1 2``), measurement markers last."""
    lines = [g.text() for g in circuit.gates]
    lines += [f"MEAS {q}" for q in sorted(circuit.measured)]
    return "\n".join(lines) + "\n"


def parse_circuit(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the text format back into a circuit.

    The register size is inferred from the largest index unless given.  Blank
    lines and ``#`` comments are allowed.  A gate following a MEAS marker on
    the same qubit raises :class:`HasMeasurementsBeforeEnd`.
    """
    gates: list[Gate] = []
    measured: set[int] = set()
    max_index = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        mnemonic = parts[0].upper()
        try:
            args = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad qubit index in {raw!r}") from exc
        if mnemonic == "MEAS":
            if len(args) != 1:
                raise ParseError(f"line {lineno}: MEAS takes one qubit")
        elif mnemonic == "CNOT":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: CNOT takes control and target")
        elif mnemonic in GATE_KINDS:
            if len(args) != 1:
                raise ParseError(f"line {lineno}: {mnemonic} takes one qubit")
        else:
            raise ParseError(f"line {lineno}: unknown mnemonic {parts[0]!r}")
        if any(a < 0 for a in args):
            raise ParseError(f"line {lineno}: negative qubit index")
        max_index = max(max_index, *args)
        if mnemonic == "MEAS":
            measured.add(args[0])
            continue
        gate = Gate("CNOT", args[1], args[0]) if mnemonic == "CNOT" else Gate(mnemonic, args[0])
        _check_unmeasured((gate,), measured)
        gates.append(gate)
    if max_index < 0:
        raise ParseError("empty circuit text")
    n = n_qubits if n_qubits is not None else max_index + 1
    return Circuit(n, tuple(gates), frozenset(measured))
