"""Output checks for the benchmark workloads.

Each check returns a list of ``(layer, message)`` failures; an empty list
means the output is correct.  The targets are written out here rather than
imported from the package, so that editing a package constant cannot retune
the benchmark.
"""
from __future__ import annotations

import numpy as np

PUBLISHED_FIDELITY = {
    "psi_plus_0.prep": 0.8890,
    "psi_minus_0.prep": 0.8994,
    "phi_plus_0.prep": 0.9091,
    "phi_minus_0.prep": 0.9060,
    "psi_plus_0.phase": 0.8707,
    "psi_minus_1.phase": 0.7114,
    "phi_plus_0.phase": 0.8794,
    "phi_minus_1.phase": 0.7493,
    "psi_plus_0.parity": 0.8751,
    "psi_minus_0.parity": 0.8751,
    "phi_plus_1.parity": 0.7224,
    "phi_minus_1.parity": 0.7576,
}
FIDELITY_TOL = 5e-4

# (average, maximum) entrywise deviation of the prepared pairs
PUBLISHED_DEVIATION = {
    "psi_plus_0.prep": (0.018, 0.137),
    "psi_minus_0.prep": (0.018, 0.125),
    "phi_plus_0.prep": (0.018, 0.119),
    "phi_minus_0.prep": (0.020, 0.118),
}
DEVIATION_TOL = 2e-3

# At 8192 shots the raw-matrix fidelity scatters around its infinite-shot
# value with a standard deviation of about 0.002 (3 and 4 qubits, this noise
# model); 0.015 is about seven of those.
SHOT_FIDELITY_TOL = 0.015

PROBABILITY_TOL = 1e-12


def tomography(fidelity: float, infinite_shot_fidelity: float) -> list[tuple[str, str]]:
    gap = abs(fidelity - infinite_shot_fidelity)
    if not gap <= SHOT_FIDELITY_TOL:
        return [("tomography", f"raw fidelity {fidelity:.6f} is {gap:.2e} from the "
                               f"infinite-shot {infinite_shot_fidelity:.6f}")]
    return []


def identical_reports(report, reference) -> list[tuple[str, str]]:
    """Every field of two tomography reports equal bit for bit."""
    same = (
        np.array_equal(report.raw, reference.raw)
        and np.array_equal(report.physical, reference.physical)
        and report.fidelity_to_ideal == reference.fidelity_to_ideal
        and report.deviation == reference.deviation
        and report.purity == reference.purity
        and report.clipped == reference.clipped
    )
    return [] if same else [("tomography", "report differs from the run with the same seed")]


def routed(
    equivalent: bool, ideal: dict[str, float], noisy: dict[str, float], outcome: str
) -> list[tuple[str, str]]:
    failures = []
    if equivalent is not True:
        failures.append(("circuit", f"routed block not equivalent (verdict {equivalent!r})"))
    if not abs(ideal.get(outcome, 0.0) - 1.0) <= PROBABILITY_TOL:
        failures.append(("sampler", f"ideal P({outcome}) = {ideal.get(outcome, 0.0)!r}, expected 1"))
    total = sum(noisy.values())
    if not abs(total - 1.0) <= PROBABILITY_TOL:
        failures.append(("sampler", f"noisy distribution sums to {total!r}"))
    if not noisy or max(noisy, key=noisy.get) != outcome:
        failures.append(("sampler", f"noisy peak is not {outcome}"))
    return failures


def regression(
    label: str, fidelity: float, avg_dev: float | None = None, max_dev: float | None = None
) -> list[tuple[str, str]]:
    """Published fidelity of ``label``, and its published deviations when given."""
    failures = []
    gap = abs(fidelity - PUBLISHED_FIDELITY[label])
    if not gap <= FIDELITY_TOL:
        failures.append(("refdata", f"{label}: fidelity {fidelity:.6f} off the published value by {gap:.1e}"))
    if avg_dev is not None and label in PUBLISHED_DEVIATION:
        avg_t, max_t = PUBLISHED_DEVIATION[label]
        if not (abs(avg_dev - avg_t) <= DEVIATION_TOL and abs(max_dev - max_t) <= DEVIATION_TOL):
            failures.append(("refdata", f"{label}: deviation {avg_dev:.4f}/{max_dev:.4f} "
                                        f"vs published {avg_t}/{max_t}"))
    return failures


def cli(command: str, returncode: int, stdout: str, parsed_ok: bool) -> list[tuple[str, str]]:
    """``parsed_ok``: the command's output file parsed back (True where it has none)."""
    failures = []
    if returncode != 0:
        failures.append(("cli", f"{command} exited {returncode}"))
    if not parsed_ok:
        failures.append(("cli", f"{command} output file did not parse"))
    expected = {"transpile": "equivalent: yes", "reproduce": "all rows PASS"}.get(command)
    if expected is not None and expected not in stdout:
        failures.append(("cli", f"{command} did not print {expected!r}"))
    return failures
