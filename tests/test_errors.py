"""Every input check raises a :class:`BelldiscError`, argument checks stay ``ValueError``s, one rule checks integers."""
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
from belldisc.errors import (
    BadArgument,
    BadQubitIndex,
    BelldiscError,
    DimensionMismatch,
    ParseError,
    ZeroShots,
)
from belldisc.refdata import stage
from belldisc.sampler import CountsHistogram, NoiseModel, sample, sample_settings, with_basis_change
from belldisc.tomography import plan
from belldisc.transpile import CouplingMap

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


_MEASURED = Circuit(1, (Gate("H", 0),), frozenset({0}))

# Every integer argument of the package, as a call taking the value 1 and reading back
# what it stored or returned; the error it raises; and the name its message gives.
INTEGER_ARGUMENTS = {
    "Gate target": (lambda v: Gate("H", v).target, BadQubitIndex, "qubit index"),
    "Gate control": (lambda v: Gate("CNOT", 0, v).control, BadQubitIndex, "qubit index"),
    "Circuit register size": (lambda v: Circuit(v).n_qubits, BadQubitIndex, "register size"),
    "Circuit measured qubit": (lambda v: min(Circuit(2, (), frozenset({v})).measured), BadQubitIndex, "measured qubit"),
    "CouplingMap size": (lambda v: CouplingMap(v, frozenset()).n_physical, BadQubitIndex, "physical qubit count"),
    "CouplingMap pair": (lambda v: min(CouplingMap(2, frozenset({(0, v)})).allowed)[1], BadQubitIndex, "qubit of pair"),
    "coupling map JSON": (
        lambda v: min(CouplingMap.from_json_dict({"n_physical": 2, "allowed": [[0, v]]}).allowed)[1],
        ParseError,
        "bad coupling map payload",
    ),
    "histogram n_bits": (lambda v: CountsHistogram(v, 1, {"1": 1}).n_bits, DimensionMismatch, "n_bits"),
    "histogram count": (lambda v: CountsHistogram(1, 1, {"1": v}).counts["1"], ParseError, "count"),
    "histogram shots": (lambda v: CountsHistogram(1, v, {"1": 1}).shots, ZeroShots, "shots"),
    "sample shots": (lambda v: sample(_MEASURED, v).shots, ZeroShots, "shots"),
    "sample_settings shots": (lambda v: sample_settings(Circuit(1), v).tolist(), ZeroShots, "shots"),
    "sample seed": (lambda v: sample(_MEASURED, 64, seed=v).counts, (BelldiscError, TypeError), "seed"),
    "sample stream": (lambda v: sample(_MEASURED, 64, stream=v).counts, (BelldiscError, TypeError), "stream"),
    "sample_settings seed": (
        lambda v: sample_settings(Circuit(1), 64, seed=v).tolist(), (BelldiscError, TypeError), "seed"
    ),
    "plan": (lambda v: plan(v).n_qubits, BadArgument, "n_qubits"),
    "partial_trace keep": (lambda v: qmath.partial_trace(np.eye(4) / 4, [v]).tolist(), DimensionMismatch, "kept qubit"),
    "partial_trace n_qubits": (
        lambda v: qmath.partial_trace(np.eye(2) / 2, [0], v).tolist(), DimensionMismatch, "n_qubits"
    ),
    "composite_state ancilla_bit": (
        lambda v: composite_state(BellKind.PSI_PLUS, v).tolist(), BadArgument, "ancilla_bit"
    ),
}
NOT_INTEGERS = [True, np.True_, 1.0, np.float64(1), "1", None]
NONE_IS_THE_DEFAULT = {"Gate control", "partial_trace n_qubits"}  # no control qubit; a size read from the matrix
OUT_OF_RANGE = {
    "Gate target": [-1],
    "Gate control": [-1],
    "Circuit register size": [0],
    "Circuit measured qubit": [-1, 2],
    "CouplingMap size": [0, -3],
    "CouplingMap pair": [-1, 2],
    "coupling map JSON": [-1, 2],
    "histogram n_bits": [0],
    "histogram count": [-1],
    "histogram shots": [0, 2**63],
    "sample shots": [0, 2**63],
    "sample_settings shots": [0, 2**63],
    "plan": [0],
    "partial_trace keep": [-1, 2],
    "composite_state ancilla_bit": [-1, 2],
}


@pytest.mark.parametrize("argument, value", [
    pytest.param(argument, value, id=f"{argument}-{value!r}")
    for argument in INTEGER_ARGUMENTS
    for value in NOT_INTEGERS + OUT_OF_RANGE.get(argument, [])
    if not (value is None and argument in NONE_IS_THE_DEFAULT)
])
def test_integer_rule_rejects(argument, value):
    call, error, name = INTEGER_ARGUMENTS[argument]
    with pytest.raises(error, match=name) as caught:
        call(value)
    assert isinstance(caught.value, BelldiscError)


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_integer_rule_takes_numpy_integers_as_int(argument, integer):
    call = INTEGER_ARGUMENTS[argument][0]
    got, expected = call(integer(1)), call(1)
    assert got == expected and type(got) is type(expected)


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
    assert raised == set()


def _integer_tests(path: Path) -> set[tuple[str, int, str]]:
    """(file, line, what) for each ``isinstance`` test against an integer type and each ``_is_int`` definition."""
    integer_types = {"int", "Integral", "numbers.Integral", "np.integer", "numpy.integer"}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_is_int":
            found.add((path.name, node.lineno, "def _is_int"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            found |= {(path.name, node.lineno, ast.unparse(c)) for c in classes if ast.unparse(c) in integer_types}
    return found


def test_only_errors_py_decides_what_an_integer_is():
    sources = [p for p in sorted(Path(belldisc.__file__).parent.glob("*.py")) if p.name != "errors.py"]
    assert sources
    assert set().union(*map(_integer_tests, sources)) == set()
