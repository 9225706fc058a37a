"""Every benchmark check must be able to fail, and every failure must be counted.

    python3 -m pytest -q perfbench/test_checks.py

Each test feeds a deliberately wrong input (a perturbed matrix, a wrong
expected outcome, a broken routing, a failing command) and expects the check
to report it, or the pass runner to count it in ``failed``.
"""
from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Tally, run_pass  # noqa: E402

from belldisc import (  # noqa: E402
    BellKind,
    Circuit,
    bell_prep,
    ideal_state,
    load_matrix,
    projector,
    run_tomography,
)
from belldisc import deviation as deviation_of  # noqa: E402
from belldisc import fidelity as fidelity_of  # noqa: E402


def counted_failures(workload, api) -> Tally:
    tally = Tally()
    run_pass(workload, 0, api, tally)
    return tally


# -- the checks themselves --

def test_tomography_check_rejects_a_fidelity_off_the_infinite_shot_value():
    assert checks.tomography(0.90, 0.90 + checks.SHOT_FIDELITY_TOL / 2) == []
    assert checks.tomography(0.90, 0.90 + 2 * checks.SHOT_FIDELITY_TOL)
    assert checks.tomography(float("nan"), 0.90)


def test_identical_reports_rejects_a_perturbed_matrix():
    circuit = bell_prep(BellKind.PSI_PLUS)
    ideal = ideal_state("psi_plus_0")
    report = run_tomography(circuit, ideal, shots=256, noise=workloads.NOISE, seed=5)
    again = run_tomography(circuit, ideal, shots=256, noise=workloads.NOISE, seed=5)
    assert checks.identical_reports(again, report) == []
    raw = report.raw.copy()
    raw[0, 0] = np.nextafter(raw[0, 0].real, 2.0)
    assert checks.identical_reports(dataclasses.replace(report, raw=raw), report)
    assert checks.identical_reports(dataclasses.replace(report, purity=report.purity + 1e-15), report)
    other_seed = run_tomography(circuit, ideal, shots=256, noise=workloads.NOISE, seed=6)
    assert checks.identical_reports(other_seed, report)


def test_routed_check_rejects_each_wrong_output():
    good_ideal = {"00": 0.0, "01": 0.0, "10": 1.0, "11": 0.0}
    good_noisy = {"00": 0.1, "01": 0.1, "10": 0.6, "11": 0.2}
    assert checks.routed(True, good_ideal, good_noisy, "10") == []
    assert checks.routed(False, good_ideal, good_noisy, "10")
    assert checks.routed(True, good_ideal, good_noisy, "01")  # wrong expected outcome
    assert checks.routed(True, {**good_ideal, "10": 1.0 - 1e-9}, good_noisy, "10")
    assert checks.routed(True, good_ideal, {**good_noisy, "00": 0.2}, "10")  # sums to 1.1
    assert checks.routed(True, good_ideal, {"00": 0.5, "01": 0.1, "10": 0.3, "11": 0.1}, "10")


def test_regression_check_rejects_a_perturbed_matrix():
    label = "psi_plus_0.prep"
    lm = load_matrix(label)
    target = projector(lm.ideal_vector())
    dev = deviation_of(target, lm.matrix)
    fid = fidelity_of(target, lm.matrix, herm_tol=2e-3)
    assert checks.regression(label, fid, dev.average, dev.maximum) == []
    perturbed = lm.matrix + 0.05 * np.eye(8)
    bad_fid = fidelity_of(target, perturbed, herm_tol=2e-3)
    bad_dev = deviation_of(target, perturbed)
    assert checks.regression(label, bad_fid)
    assert checks.regression(label, fid, bad_dev.average, bad_dev.maximum)


def test_cli_check_rejects_each_wrong_output():
    assert checks.cli("transpile", 0, "gates: 6 -> 38; equivalent: yes", True) == []
    assert checks.cli("transpile", 0, "gates: 6 -> 38; equivalent: NO", True)
    assert checks.cli("reproduce", 0, "some rows FAIL", True)
    assert checks.cli("discriminate", 1, "", True)
    assert checks.cli("tomo", 0, "", False)


# -- failures reach the counter --

def test_raised_exception_is_counted_against_its_layer():
    tracer = Tracer()
    api = workloads.make_api(tracer)
    broken = SimpleNamespace(**vars(api))
    broken.transpile = tracer.wrap("transpile.route", lambda *a: 1 / 0)
    tally = Tally()
    run_pass(workloads.RoutedExact(seed=1), 0, broken, tally, tracer)
    assert tally.attempted == 4 and tally.failed == 4
    assert tally.failed_by_layer["transpile"] == 4


def test_broken_routing_fails_the_equivalence_check():
    """A routed block that really differs must count, whatever the check function does."""
    api = workloads.make_api()
    broken = SimpleNamespace(**vars(api))
    broken.transpile = lambda block, cmap: (lambda c: Circuit(c.n_qubits, c.gates[:-1]))(
        api.transpile(block, cmap)
    )
    tally = counted_failures(workloads.RoutedExact(seed=1), broken)
    assert tally.failed == 4 and tally.failed_by_layer["circuit"] == 4


def test_perturbed_published_matrix_fails_the_regression():
    api = workloads.make_api()
    broken = SimpleNamespace(**vars(api))

    def load_perturbed(label):
        lm = api.load_matrix(label)
        return dataclasses.replace(lm, matrix=lm.matrix + 0.01 * np.eye(8))

    broken.load_matrix = load_perturbed
    tally = counted_failures(workloads.TomoNoisy(seed=1), broken)
    # three reference stages in the pass; the combined check has no published matrix
    assert tally.attempted == 4 and tally.failed == 3
    assert tally.failed_by_layer["refdata"] == 3


def test_wrong_infinite_shot_target_fails_the_tomography():
    workload = workloads.TomoNoisy(seed=1)
    first = workload.by_kind[0][0]
    workload.by_kind[0][0] = dataclasses.replace(
        first, infinite_shot_fidelity=first.infinite_shot_fidelity + 0.05
    )
    tally = counted_failures(workload, workloads.make_api())
    assert tally.attempted == 4 and tally.failed == 1


def test_rerun_that_differs_fails_the_tomography():
    workload = workloads.TomoNoisy(seed=1)
    api = workloads.make_api()
    assert counted_failures(workload, api).failed == 0
    workload.by_kind[0] = [dataclasses.replace(u, seed=u.seed + 1) for u in workload.by_kind[0]]
    assert counted_failures(workload, api).failed == 4


def test_failing_command_fails_the_cli(tmp_path):
    workload = workloads.Cli(seed=1, scratch=tmp_path)
    try:
        api = workloads.make_api()
        broken = SimpleNamespace(**vars(api))
        broken.run_cli = lambda argv, out_dir, env: subprocess.CompletedProcess(argv, 1, "", "")
        tally = counted_failures(workload, broken)
        assert tally.attempted == 4 and tally.failed == 4
    finally:
        workload.close()


@pytest.mark.parametrize("command", ["discriminate", "tomo"])
def test_unparsable_output_file_fails_the_cli(tmp_path, command):
    workload = workloads.Cli(seed=1, scratch=tmp_path)
    try:
        unit = next(u for u in workload.unit_list if u.command == command)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "discriminate_psi_minus_parity.counts.json").write_text("{not json")
        (out_dir / "tomo_psi_plus_0_parity.matrix.json").write_text("{}")
        done = subprocess.CompletedProcess([], 0, "", "")
        assert checks.cli(command, 0, "", True) == []
        assert workload.check(unit, (str(out_dir), done))
    finally:
        workload.close()
