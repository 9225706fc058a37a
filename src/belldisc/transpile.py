"""Routing onto a directed coupling map.

The map says which ordered pairs (control, target) support a native CNOT;
single-qubit gates are unconstrained.  Three rewrite rules are applied per
CNOT, in priority order:

1. the pair is allowed: keep the gate;
2. only the reversed pair is allowed: conjugate with Hadamards
   (H c; H t; CNOT t c; H c; H t);
3. otherwise route through a single intermediate m with
   SWAP(m, t); CNOT(c, m); SWAP(m, t), where each SWAP expands into the
   cheaper of the two alternating 3-CNOT patterns and every constituent CNOT
   is direction-fixed by the first two rules.  The intermediate minimizes the
   emitted gate count, ties broken toward the lowest index.

Anything else raises :class:`UnroutableCircuit`.  The default map is the
five-qubit star of the reference device: hub = physical qubit 2, native
CNOTs point spoke -> hub.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .circuit import Circuit, Gate, combined_check, parity_check, phase_check
from .errors import BadQubitIndex, ParseError, UnroutableCircuit, as_int


@dataclass(frozen=True)
class CouplingMap:
    n_physical: int
    allowed: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = as_int(self.n_physical, BadQubitIndex, "physical qubit count", 1)
        object.__setattr__(self, "n_physical", n)
        pairs = frozenset(
            tuple(as_int(q, BadQubitIndex, f"qubit of pair {pair}", 0, n) for q in pair) for pair in self.allowed
        )
        object.__setattr__(self, "allowed", pairs)
        for c, t in pairs:
            if c == t:
                raise BadQubitIndex(f"self-loop ({c}, {t}) in coupling map")

    def permits(self, control: int, target: int) -> bool:
        return (control, target) in self.allowed

    def connected(self, a: int, b: int) -> bool:
        return (a, b) in self.allowed or (b, a) in self.allowed

    @classmethod
    def star(cls, n_physical: int = 5, hub: int = 2) -> "CouplingMap":
        spokes = [q for q in range(n_physical) if q != hub]
        return cls(n_physical, frozenset((q, hub) for q in spokes))

    def to_json_dict(self) -> dict:
        return {"n_physical": self.n_physical, "allowed": sorted(list(p) for p in self.allowed)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CouplingMap":
        """The map of a JSON payload; any fault in it, a bad index or pair too, raises :class:`ParseError`."""
        try:
            return cls(data["n_physical"], frozenset(tuple(p) for p in data["allowed"]))
        except (KeyError, TypeError, ValueError, BadQubitIndex) as exc:
            raise ParseError(f"bad coupling map payload: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "CouplingMap":
        """The map of a JSON file; a malformed file raises :class:`ParseError` naming the path."""
        try:
            return cls.from_json_dict(json.loads(Path(path).read_text()))
        except (json.JSONDecodeError, ParseError) as exc:
            raise ParseError(f"coupling map {path}: {exc}") from exc


DEFAULT_MAP = CouplingMap.star()

# canonical placement of the discrimination circuits on the star device
DEVICE_SYSTEM = (2, 1)
DEVICE_PHASE_ANCILLA = 0
DEVICE_PARITY_ANCILLA = 3


def _direct_or_reversed(control: int, target: int, cmap: CouplingMap) -> list[Gate] | None:
    if cmap.permits(control, target):
        return [Gate("CNOT", target, control)]
    if cmap.permits(target, control):
        return [
            Gate("H", control),
            Gate("H", target),
            Gate("CNOT", control, target),
            Gate("H", control),
            Gate("H", target),
        ]
    return None


def _swap(a: int, b: int, cmap: CouplingMap) -> list[Gate] | None:
    ab = _direct_or_reversed(a, b, cmap)
    ba = _direct_or_reversed(b, a, cmap)
    if ab is None or ba is None:
        return None
    first = ab + ba + ab
    second = ba + ab + ba
    return first if len(first) <= len(second) else second


def _route_cnot(control: int, target: int, cmap: CouplingMap) -> tuple[list[Gate], int]:
    """The gates that realize CNOT(control, target) on the map, and the highest qubit they touch."""
    direct = _direct_or_reversed(control, target, cmap)
    if direct is not None:
        return direct, max(control, target)
    best: list[Gate] | None = None
    for mid in range(cmap.n_physical):
        if mid in (control, target):
            continue
        swap = _swap(mid, target, cmap)
        inner = _direct_or_reversed(control, mid, cmap)
        if swap is None or inner is None:
            continue
        candidate = swap + inner + swap
        if best is None or len(candidate) < len(best):
            best, via = candidate, mid
    if best is None:
        raise UnroutableCircuit(f"no single-intermediate route for CNOT {control} -> {target}")
    return best, max(control, target, via)


def transpile(circuit: Circuit, cmap: CouplingMap = DEFAULT_MAP) -> Circuit:
    """Rewrite every CNOT to respect the coupling map.

    The result acts identically on the original qubits (routing restores any
    borrowed intermediate), so it is unitarily equivalent to the input
    embedded in the physical register.
    """
    if circuit.n_qubits > cmap.n_physical:
        raise UnroutableCircuit(
            f"circuit uses {circuit.n_qubits} qubits, map has {cmap.n_physical}"
        )
    out: list[Gate] = []
    n = circuit.n_qubits  # grows when a route borrows an intermediate, always below n_physical
    for g in circuit.gates:
        if g.kind == "CNOT":
            route, top = _route_cnot(g.control, g.target, cmap)
            out += route
            n = max(n, top + 1)
        else:
            out.append(g)
    return Circuit._checked(n, tuple(out), circuit.measured)


def swap_conjugated_cnot(control: int, target: int, via: int, n_qubits: int) -> Circuit:
    """SWAP(via, target); CNOT(control, via); SWAP(via, target) with plain CNOT SWAPs.

    Acts exactly as CNOT(control, target) and leaves ``via`` untouched; this
    is the identity the routed parity block relies on.
    """
    c = Circuit(n_qubits)
    c = c.cnot(via, target).cnot(target, via).cnot(via, target)
    c = c.cnot(control, via)
    return c.cnot(via, target).cnot(target, via).cnot(via, target)


def device_parity_block(n_qubits: int = 5) -> Circuit:
    """Parity check in the canonical device placement (2 CNOTs before routing)."""
    return parity_check(DEVICE_SYSTEM, DEVICE_PARITY_ANCILLA, n_qubits)


def device_phase_block(n_qubits: int = 5) -> Circuit:
    """Phase check in the canonical device placement."""
    return phase_check(DEVICE_SYSTEM, DEVICE_PHASE_ANCILLA, n_qubits)


def device_combined_block(n_qubits: int = 5) -> Circuit:
    """Phase + parity check in the canonical device placement."""
    return combined_check(DEVICE_SYSTEM, DEVICE_PHASE_ANCILLA, DEVICE_PARITY_ANCILLA, n_qubits)
