"""Gate-level circuit model, ideal simulation and the experiment's circuits.

A circuit is an immutable sequence of gates from the set {H, X, S, SDG, CNOT}
on ``n_qubits`` wires plus a set of terminal measurement markers.  Markers are
terminal by construction: appending a gate to a measured qubit raises.
``Circuit(...)`` and :func:`parse_circuit` check every gate and marker; the
builders (``append``, ``extend``, ``measure`` and ``transpile``) check only
what they add, and build the result from parts already checked.

Bit and ket conventions follow :mod:`belldisc.qmath` (qubit 0 = leftmost =
most significant).  Bell-pair labels follow the convention of this experiment:
``psi+- = (|00> +- |11>)/sqrt(2)`` (even parity) and
``phi+- = (|01> +- |10>)/sqrt(2)`` (odd parity).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import qmath
from .errors import (
    BadArgument,
    BadQubitIndex,
    DimensionMismatch,
    HasMeasurements,
    HasMeasurementsBeforeEnd,
    ParseError,
    as_int,
)

GATE_KINDS = ("H", "X", "S", "SDG", "CNOT")
# The qubit indices each mnemonic of the text format takes: how many, and how an error names them.
_OPERANDS = {kind: (1, "one qubit") for kind in GATE_KINDS + ("MEAS",)} | {"CNOT": (2, "control and target")}

# CNOT's rows and columns are ordered (control, target), qubit order.  H, X and CNOT are float64, S and SDG complex128.
GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=float),
    "S": np.array([[1, 0], [0, 1j]]),
    "SDG": np.array([[1, 0], [0, -1j]]),
    "CNOT": np.eye(4)[[0, 1, 3, 2]],
}


@dataclass(frozen=True)
class Gate:
    """One gate of ``kind`` on ``target``, controlled by ``control`` for a CNOT.

    Qubit indices are non-negative integers under :func:`belldisc.errors.as_int`: a numpy integer
    is stored as its ``int``, and a bool, a float or any other value raises :class:`BadQubitIndex`.
    """

    kind: str
    target: int
    control: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise BadArgument(f"unknown gate kind {self.kind!r}")
        if self.kind == "CNOT":
            if self.control is None:
                raise BadArgument("CNOT needs a control qubit")
            if type(self.control) is not int or self.control < 0:  # a plain index is stored as it is
                object.__setattr__(self, "control", as_int(self.control, BadQubitIndex, "qubit index", 0))
            if self.control == self.target:
                raise BadQubitIndex("CNOT control and target must differ")
        elif self.control is not None:
            raise BadArgument(f"{self.kind} takes no control qubit")
        if type(self.target) is not int or self.target < 0:
            object.__setattr__(self, "target", as_int(self.target, BadQubitIndex, "qubit index", 0))

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)

    def text(self) -> str:
        return " ".join([self.kind, *map(str, self.qubits)])


def _check_register(gates, n_qubits: int) -> None:
    """Raise at the first gate with a qubit outside a register of ``n_qubits``."""
    for g in gates:
        for q in g.qubits:
            if q >= n_qubits:
                raise BadQubitIndex(f"gate {g.text()!r} outside register of {n_qubits}")


def _check_measured(qubits, n_qubits: int) -> frozenset[int]:
    """The measured qubits as a frozenset of ints from 0 to ``n_qubits`` - 1, under :func:`as_int`."""
    measured = frozenset(qubits)
    if any(type(q) is not int or not 0 <= q < n_qubits for q in measured):
        measured = frozenset(as_int(q, BadQubitIndex, "measured qubit", 0, n_qubits) for q in measured)
    return measured


def _check_unmeasured(gates, measured: set[int] | frozenset[int]) -> None:
    """Raise at the first gate that touches an already measured qubit."""
    if not measured:
        return
    for g in gates:
        touched = set(g.qubits) & measured
        if touched:
            raise HasMeasurementsBeforeEnd(f"qubit(s) {sorted(touched)} already measured")


@dataclass(frozen=True)
class Circuit:
    """``gates`` in order on a register of ``n_qubits``, then measurement markers on ``measured``.

    The register size and the measured qubits follow the rule of :class:`Gate`'s indices:
    numpy integers are stored as ``int``, and bools and floats raise :class:`BadQubitIndex`.
    """

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    measured: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if type(self.n_qubits) is not int or self.n_qubits < 1:
            object.__setattr__(self, "n_qubits", as_int(self.n_qubits, BadQubitIndex, "register size", 1))
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_register(self.gates, self.n_qubits)
        object.__setattr__(self, "measured", _check_measured(self.measured, self.n_qubits))

    @classmethod
    def _checked(cls, n_qubits: int, gates: tuple[Gate, ...], measured: frozenset[int]) -> "Circuit":
        """A circuit of parts that already pass ``__post_init__`` together, built without it."""
        circuit = object.__new__(cls)
        vars(circuit).update(n_qubits=n_qubits, gates=gates, measured=measured)
        return circuit

    # -- construction (every method returns a new circuit, checking only what it adds) --

    def append(self, gate: Gate) -> "Circuit":
        _check_unmeasured((gate,), self.measured)
        _check_register((gate,), self.n_qubits)
        return Circuit._checked(self.n_qubits, self.gates + (gate,), self.measured)

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
        return Circuit._checked(self.n_qubits, self.gates, self.measured | _check_measured(qubits, self.n_qubits))

    def extend(self, other: "Circuit") -> "Circuit":
        """Concatenate another circuit on the same register; checks only the sizes and the gates after measurements."""
        if other.n_qubits != self.n_qubits:
            raise DimensionMismatch(
                f"cannot extend a {self.n_qubits}-qubit circuit with a {other.n_qubits}-qubit one"
            )
        _check_unmeasured(other.gates, self.measured)
        return Circuit._checked(self.n_qubits, self.gates + other.gates, self.measured | other.measured)

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
    out = u.dot(t.transpose(order).reshape(len(u), -1)).reshape(t.shape)
    return out.transpose(sorted(range(t.ndim), key=order.__getitem__))


_MAX_RUN_SIDE = 16  # a run's matrix is at most 16x16: four qubits of a state, two of Pauli coefficients


def lift(matrices: dict[str, np.ndarray]) -> dict[int, dict[tuple, np.ndarray]]:
    """Each gate kind's matrix embedded in a run of w qubits, for every w whose matrix is at most 16x16.

    Keyed by run width w, then by (kind, run position of each of the gate's
    qubits: a CNOT's control first); the run's first qubit is the most
    significant.  A qubit takes d = 2 values, or 4 for a Pauli transfer matrix
    (letters I, X, Y, Z), so widths run 1-4 or 1-2.  Each entry is the gate
    applied to a float64 identity, so it keeps its matrix's dtype.
    """
    d, tables, width = len(matrices["H"]), {}, 1
    while d ** width <= _MAX_RUN_SIDE:
        eye = np.eye(d ** width).reshape((d,) * 2 * width)  # the gate acts on its row axes
        tables[width] = {
            (kind, *positions): apply_matrix(eye, m, positions).reshape(d ** width, -1)
            for kind, m in matrices.items()
            for positions in itertools.permutations(range(width), _OPERANDS[kind][0])
        }
        width += 1
    return tables


_UNITARIES = lift(GATE_MATRICES)


def evolve(t: np.ndarray, gates, lifted: dict[int, dict[tuple, np.ndarray]]) -> np.ndarray:
    """Apply ``gates`` to the leading axes of ``t``, axis q being qubit q; further axes are carried along.

    The gates are split into maximal runs on at most ``max(lifted)`` qubits (four
    for a state, two for Pauli coefficients), and each run's product of ``lifted``
    matrices is one :func:`apply_matrix` call; numpy's promotion keeps them real until a run holds a complex matrix.
    """
    cap, runs, where = max(lifted), [], {}  # where: the current run's qubits, each with its position
    for g in gates:
        c, q = g.control, g.target
        if q not in where or c is not None and c not in where:
            touched = (q,) if c is None else (c, q)
            new = [b for b in touched if b not in where]
            if runs and len(where) + len(new) <= cap:
                for b in new:
                    where[b] = len(where)
            else:
                where, keys = {b: i for i, b in enumerate(touched)}, []
                runs.append((where, keys))
        keys.append((g.kind, where[q]) if c is None else (g.kind, where[c], where[q]))
    for where, keys in runs:
        table = lifted[len(where)]
        product = table[keys[0]]
        for key in keys[1:]:
            product = table[key].dot(product)
        t = apply_matrix(t, product, list(where))
    return t


def simulate(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Final state vector, evolved as a (2,)*n tensor; measurement markers are ignored.

    From |0...0> the state is float64 until the run holding the first S or SDG; the result is complex either way.
    """
    dim = 2 ** circuit.n_qubits
    state = np.eye(dim, 1) if initial is None else np.array(initial, dtype=complex).reshape(-1)  # |0...0> by default
    if state.shape[0] != dim:
        raise DimensionMismatch(f"initial state has dim {state.shape[0]}, circuit needs {dim}")
    psi = evolve(state.reshape((2,) * circuit.n_qubits), circuit.gates, _UNITARIES)
    return psi.reshape(-1).astype(complex, copy=False)


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full unitary of a measurement-free circuit: the identity evolved, its column axes carried along.

    The identity is float64 until the run holding the first S or SDG; the result is complex either way.
    """
    if circuit.measured:
        raise HasMeasurements("circuit has measurement markers")
    n = circuit.n_qubits
    u = evolve(np.eye(2 ** n).reshape((2,) * (2 * n)), circuit.gates, _UNITARIES)
    return u.reshape(2 ** n, 2 ** n).astype(complex, copy=False)


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

    @property
    def token(self) -> str:
        """The pair's name in file names and ideal-state tokens: ``psi_plus``."""
        return self.name.lower()

    @classmethod
    def from_token(cls, token: str) -> "BellKind":
        return cls(token)


def bell_vector(kind: BellKind) -> np.ndarray:
    """Two-qubit Bell state in this experiment's labeling."""
    sign = -1.0 if kind.phase_bit else 1.0
    if kind.parity_bit:
        return (qmath.ket("01") + sign * qmath.ket("10")) / np.sqrt(2)
    return (qmath.ket("00") + sign * qmath.ket("11")) / np.sqrt(2)


def composite_state(kind: BellKind, ancilla_bit: int) -> np.ndarray:
    """Bell pair on qubits (0, 1) joined by an ancilla in |ancilla_bit>, the integer 0 or 1 (a bool or float raises)."""
    return np.kron(bell_vector(kind), qmath.ket(str(as_int(ancilla_bit, BadArgument, "ancilla_bit", 0, 2))))


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


CHECKS = {"parity": parity_check, "phase": phase_check}


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
    if check not in CHECKS:
        raise BadArgument(f"check must be 'parity' or 'phase', got {check!r}")
    c = bell_prep(kind, system, n_qubits).extend(CHECKS[check](system, ancilla, n_qubits))
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
        if mnemonic not in _OPERANDS:
            raise ParseError(f"line {lineno}: unknown mnemonic {parts[0]!r}")
        arity, operands = _OPERANDS[mnemonic]
        if len(args) != arity:
            raise ParseError(f"line {lineno}: {mnemonic} takes {operands}")
        if any(a < 0 for a in args):
            raise ParseError(f"line {lineno}: negative qubit index")
        max_index = max(max_index, *args)
        if mnemonic == "MEAS":
            measured.add(args[0])
            continue
        gate = Gate(mnemonic, *reversed(args))  # the text lists Gate.qubits; Gate takes them target first
        _check_unmeasured((gate,), measured)
        gates.append(gate)
    if max_index < 0:
        raise ParseError("empty circuit text")
    n = n_qubits if n_qubits is not None else max_index + 1
    return Circuit(n, tuple(gates), frozenset(measured))
