"""Every input check raises a :class:`BelldiscError`, and argument checks stay ``ValueError``s."""
from __future__ import annotations

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import belldisc
from belldisc import qmath
from belldisc.circuit import BellKind, Circuit, Gate, composite_state, discrimination_circuit
from belldisc.cli import parse_noise_flag
from belldisc.errors import BadArgument, BelldiscError
from belldisc.refdata import stage
from belldisc.sampler import NoiseModel, with_basis_change
from belldisc.tomography import plan

# Each call reaches one argument check: the checks that raised a plain ValueError,
# then the bool and non-number arguments that NoiseModel and plan accepted or
# answered with a bare TypeError.
BAD_ARGUMENTS = {
    "unknown noise clause": lambda: parse_noise_flag("bogus:0.1"),
    "none combined": lambda: parse_noise_flag("none,readout:0.1"),
    "non-numeric noise": lambda: parse_noise_flag("readout:high"),
    "noise arity": lambda: parse_noise_flag("depol:0.02"),
    "duplicate noise clause": lambda: parse_noise_flag("readout:0.1,readout:0.2"),
    "plan(0)": lambda: plan(0),
    "unknown gate kind": lambda: Gate("T", 0),
    "CNOT without control": lambda: Gate("CNOT", 1),
    "control on a one-qubit gate": lambda: Gate("H", 0, 1),
    "ancilla bit": lambda: composite_state(BellKind.PSI_PLUS, 2),
    "check name": lambda: discrimination_circuit(BellKind.PSI_PLUS, "combined"),
    "probability out of range": lambda: NoiseModel(1.5),
    "setting letter": lambda: with_basis_change(Circuit(2), "XQ"),
    "stage name": lambda: stage(BellKind.PSI_PLUS, "combined"),
    "Pauli label": lambda: qmath.pauli_operator("IQ"),
    "bit string": lambda: qmath.ket("012"),
    "NoiseModel(True)": lambda: NoiseModel(True),
    "NoiseModel(numpy bool)": lambda: NoiseModel(readout_flip=np.bool_(True)),
    "NoiseModel('0.1')": lambda: NoiseModel("0.1"),
    "NoiseModel(None)": lambda: NoiseModel(per_cnot_depolarizing=None),
    "plan(True)": lambda: plan(True),
    "plan(2.5)": lambda: plan(2.5),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_are_caught_as_both_bases(call):
    with pytest.raises(BelldiscError) as caught:
        call()
    assert isinstance(caught.value, ValueError)
    assert isinstance(caught.value, BadArgument)


def test_numbers_stay_accepted():
    assert NoiseModel(np.float32(0.5), 1, np.int64(0)).per_cnot_depolarizing == 1
    assert plan(np.int64(2)).n_qubits == 2 and type(plan(np.int64(2)).n_qubits) is int


# The one builtin raise that stays: seeds and streams that are not integers are a
# TypeError, which tests/test_sampler.py pins.
BUILTIN_RAISES_KEPT = {("sampler.py", "_key", "TypeError")}


def _builtin_raises(path: Path) -> set[tuple[str, str, str]]:
    """(file, enclosing function, exception) for each ``raise`` of a builtin exception class."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else None
                cls = getattr(builtins, name, None) if name else None
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    found.add((path.name, function, name))
            visit(child, function)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_package_raises_no_builtin_exception():
    sources = sorted(Path(belldisc.__file__).parent.glob("*.py"))
    assert sources
    raised = set().union(*map(_builtin_raises, sources))
    assert raised == BUILTIN_RAISES_KEPT
