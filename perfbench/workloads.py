"""The four benchmark workloads and the layer-wrapped view of the package.

Every workload is a closed loop with one caller: a pass starts when the
previous one has finished, so no layer ever has a queue or a waiting time.

A workload builds its inputs from the seed in ``__init__`` (this is what
``setup_s`` times), splits each pass into units of work, runs one unit
through an ``api`` namespace and checks its output.  The untraced ``api``
holds the package's public functions themselves; the traced one wraps each
of them in a span named after the layer it belongs to, so that the layers are
timed from the outside.  Only names exported by ``belldisc`` (and
``belldisc.cli.main``) are used.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import belldisc
from belldisc import (
    DEFAULT_MAP,
    EMBEDDED_LABELS,
    IDEAL,
    BellKind,
    Circuit,
    CountsHistogram,
    ExpectationTable,
    NoiseModel,
    TomographyReport,
    bell_prep,
    combined_check,
    device_combined_block,
    equivalent_up_to_phase,
    exact_distribution,
    exact_expectations,
    expectations_from_counts,
    final_density,
    format_circuit,
    ideal_state,
    load_matrix,
    make_physical,
    parity_check,
    phase_check,
    plan,
    projector,
    reconstruct,
    run_tomography,
    sample,
    with_basis_change,
)
from belldisc import deviation as deviation_of
from belldisc import fidelity as fidelity_of
from belldisc import purity as purity_of
from belldisc.cli import main as cli_main

import checks

# The README's example noise model, ``depol:0.02,0.05,readout:0.02``.
NOISE = NoiseModel(per_gate_depolarizing=0.02, per_cnot_depolarizing=0.05, readout_flip=0.02)
NOISE_FLAG = "depol:0.02,0.05,readout:0.02"
SHOTS = 8192
# The embedded matrices are stored as printed and are Hermitian only to 2e-3.
REFDATA_HERM_TOL = 2e-3

BELL_TOKENS = {
    "psi_plus": BellKind.PSI_PLUS,
    "psi_minus": BellKind.PSI_MINUS,
    "phi_plus": BellKind.PHI_PLUS,
    "phi_minus": BellKind.PHI_MINUS,
}
# ancilla outcome (phase bit, parity bit) of each Bell pair, Table 1
TABLE1_ANCILLAS = {
    BellKind.PSI_PLUS: "00",
    BellKind.PSI_MINUS: "10",
    BellKind.PHI_PLUS: "01",
    BellKind.PHI_MINUS: "11",
}


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


# -- the api: public functions, optionally wrapped in layer spans --

def _channels(circuit: Circuit, noise: NoiseModel) -> int:
    return sum(
        1 for g in circuit.gates
        if (noise.per_cnot_depolarizing if g.kind == "CNOT" else noise.per_gate_depolarizing) > 0.0
    )


def run_cli(argv: list[str], out_dir: str, env: dict[str, str]) -> subprocess.CompletedProcess:
    """``python -m belldisc.cli argv --out out_dir`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "belldisc.cli", *argv, "--out", out_dir],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _dir_usage(path: str) -> tuple[int, int]:
    files = [p for p in Path(path).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def make_api(tracer=None) -> SimpleNamespace:
    """The package functions the workloads call; with a tracer, each in a span."""

    def gates_built(counts, out, *args, **kwargs):
        counts["circuit.gates_built"] += out.gate_count

    def appended(counts, out, circuit, *args, **kwargs):
        counts["circuit.gates_built"] += out.gate_count - circuit.gate_count

    def routed(counts, out, circuit, *args, **kwargs):
        counts["transpile.cnots_routed"] += circuit.cnot_count
        counts["transpile.gates_emitted"] += out.gate_count

    def simulated(counts, circuit, noise, call):
        counts["sampler.gates_applied"] += circuit.gate_count
        counts["sampler.channels_applied"] += _channels(circuit, noise)
        sampler_calls.append((call, circuit, noise))

    def sampled(counts, out, circuit, shots, noise, *args, **kwargs):
        simulated(counts, circuit, noise, "sample")
        counts["sampler.shots_drawn"] += shots

    def distributed(counts, out, circuit, noise):
        simulated(counts, circuit, noise, "exact")
        counts["sampler.distributions"] += 1

    def estimated(counts, out, tomo_plan, histograms):
        counts["tomography.settings_run"] += len(tomo_plan.settings)
        counts["tomography.labels_estimated"] += len(out.values)

    def projected(counts, out, *args):
        counts["qmath.projections"] += 1
        counts["qmath.clipped"] += int(out[1])

    def loaded(counts, out, name):
        counts["refdata.matrices_loaded"] += 1
        counts["refdata.bytes_parsed"] += matrix_bytes[name]

    def unitary(counts, out, *args):
        counts["circuit.unitaries"] += 1

    def ran_cli(counts, out, argv, out_dir, env):
        files, size = _dir_usage(out_dir)
        counts["cli.files_written"] += files
        counts["cli.bytes_written"] += size

    table = {
        "bell_prep": ("circuit.build", bell_prep, gates_built),
        "device_combined_block": ("circuit.build", device_combined_block, gates_built),
        "extend": ("circuit.build", Circuit.extend, appended),
        "measure": ("circuit.build", Circuit.measure, None),
        "embed": ("circuit.build", lambda n, gates: Circuit(n, gates), gates_built),
        "with_basis_change": ("circuit.build", with_basis_change, appended),
        "unitary_of": ("circuit.verify", belldisc.unitary_of, unitary),
        "equivalent_up_to_phase": ("circuit.verify", equivalent_up_to_phase, None),
        "transpile": ("transpile.route", belldisc.transpile, routed),
        "sample": ("sampler.sample", sample, sampled),
        "exact_distribution": ("sampler.exact", exact_distribution, distributed),
        "plan": ("tomography.plan", plan, None),
        "expectations_from_counts": ("tomography.estimate", expectations_from_counts, estimated),
        "reconstruct": ("tomography.invert", reconstruct, None),
        "make_physical": ("qmath.project", make_physical, projected),
        "fidelity": ("qmath.score", fidelity_of, None),
        "deviation": ("qmath.score", deviation_of, None),
        "purity": ("qmath.score", purity_of, None),
        "load_matrix": ("refdata.load", load_matrix, loaded),
        "run_cli": ("cli.process", run_cli, ran_cli),
    }
    if tracer is None:
        return SimpleNamespace(traced=False, **{k: fn for k, (_, fn, _) in table.items()})
    sampler_calls: list = []
    data = resources.files("belldisc").joinpath("data")
    matrix_bytes = {label: len(data.joinpath(f"{label}.json").read_bytes()) for label in EMBEDDED_LABELS}
    wrapped = {k: tracer.wrap(name, fn, count) for k, (name, fn, count) in table.items()}
    return SimpleNamespace(traced=True, tracer=tracer, sampler_calls=sampler_calls, **wrapped)


def probe_sampler(api) -> None:
    """Split the pass's sampler time: the same circuits through ``final_density``.

    ``sampler.density.*`` evolves each circuit under the noise the pass used,
    ``sampler.gates`` under no noise; the draws are ``sample`` minus the
    density of the same circuits.
    """
    tracer = api.tracer
    for call, circuit, noise in api.sampler_calls:
        with tracer.span(f"sampler.density.{call}"):
            final_density(circuit, noise)
        with tracer.span("sampler.gates"):
            final_density(circuit, IDEAL)
    api.sampler_calls.clear()


# -- workloads --

class Workload:
    name = ""
    work_unit = ""  # what work_per_s counts
    work_per_pass = 0

    def units(self, index: int) -> list:
        raise NotImplementedError

    def label(self, unit) -> str:
        return str(unit)

    def run(self, unit, api):
        raise NotImplementedError

    def check(self, unit, out) -> list[tuple[str, str]]:
        raise NotImplementedError

    def probe(self, api) -> None:
        """Traced-run measurements taken outside the pass."""
        probe_sampler(api)

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class TomoUnit:
    name: str
    circuit: Circuit
    ideal: np.ndarray
    ideal_matrix: np.ndarray
    seed: int
    infinite_shot_fidelity: float


def infinite_shot_fidelity(circuit: Circuit, ideal_matrix: np.ndarray, noise: NoiseModel) -> float:
    """Fidelity of the raw matrix that tomography converges to as shots grow.

    The Pauli coefficients of the noisy state lose a factor (1 - 2r) per
    measured non-identity qubit to readout flips, and (1 - p) per basis-change
    gate that qubit gets (one H for X, S-dagger and H for Y) to depolarizing.
    """
    per_letter = {
        "I": 1.0,
        "Z": 1.0 - 2.0 * noise.readout_flip,
        "X": (1.0 - 2.0 * noise.readout_flip) * (1.0 - noise.per_gate_depolarizing),
        "Y": (1.0 - 2.0 * noise.readout_flip) * (1.0 - noise.per_gate_depolarizing) ** 2,
    }
    exact = exact_expectations(final_density(circuit, noise))
    values = {
        label: value * float(np.prod([per_letter[ch] for ch in label]))
        for label, value in exact.values.items()
    }
    return fidelity_of(ideal_matrix, reconstruct(ExpectationTable(exact.n_qubits, values)))


class TomoNoisy(Workload):
    """Noisy 8192-shot tomography of the 12 reference stages and 4 combined checks.

    A pass is the four tomographies of one Bell pair (its prep, phase and
    parity stages on 3 qubits, and its combined check on 4 qubits); four
    consecutive passes cover all 16 circuits.  Every pass of a unit uses the
    same seed, so each repeat is a re-run that must match the first bit for
    bit.  Each reference stage is then compared with its published matrix,
    which is scored against the ideal as the published regression does.
    """

    name = "tomo_noisy"
    work_unit = "tomographies"
    work_per_pass = 4

    def __init__(self, seed: int) -> None:
        seeds = iter(derived_seeds(seed, 16))
        self.by_kind: list[list[TomoUnit]] = []
        for token, kind in BELL_TOKENS.items():
            group = []
            for label in EMBEDDED_LABELS:
                if not label.startswith(token + "_"):
                    continue
                ideal_token, stage = label.split(".")
                circuit = bell_prep(kind)
                if stage != "prep":
                    circuit = circuit.extend(phase_check() if stage == "phase" else parity_check())
                group.append(self._unit(label, circuit, ideal_state(ideal_token), next(seeds)))
            circuit = bell_prep(kind, n_qubits=4).extend(combined_check())
            group.append(self._unit(f"{token}.combined", circuit, final_density(circuit), next(seeds)))
            self.by_kind.append(group)
        self.reference: dict[str, TomographyReport] = {}

    @staticmethod
    def _unit(name: str, circuit: Circuit, ideal: np.ndarray, seed: int) -> TomoUnit:
        ideal_matrix = projector(ideal) if ideal.ndim == 1 else np.asarray(ideal, dtype=complex)
        return TomoUnit(
            name, circuit, ideal, ideal_matrix, seed,
            infinite_shot_fidelity(circuit, ideal_matrix, NOISE),
        )

    def units(self, index: int) -> list[TomoUnit]:
        return self.by_kind[index % len(self.by_kind)]

    def label(self, unit: TomoUnit) -> str:
        return unit.name

    def run(self, unit: TomoUnit, api):
        report = self._tomography(unit, api)
        if unit.name not in EMBEDDED_LABELS:
            return report, None
        published = api.load_matrix(unit.name).matrix
        return report, (
            api.fidelity(unit.ideal_matrix, published, herm_tol=REFDATA_HERM_TOL),
            api.deviation(unit.ideal_matrix, published),
            api.deviation(published, report.raw),
        )

    @staticmethod
    def _tomography(unit: TomoUnit, api) -> TomographyReport:
        if not api.traced:
            return run_tomography(unit.circuit, unit.ideal, SHOTS, NOISE, unit.seed)
        # run_tomography's steps, one public call at a time
        tomo_plan = api.plan(unit.circuit.n_qubits)
        histograms = {
            setting: api.sample(
                api.with_basis_change(unit.circuit, setting), SHOTS, NOISE, unit.seed, stream=index
            )
            for index, setting in enumerate(tomo_plan.settings)
        }
        table = api.expectations_from_counts(tomo_plan, histograms)
        raw = api.reconstruct(table)
        physical, clipped = api.make_physical(raw)
        return TomographyReport(
            raw=raw,
            physical=physical,
            fidelity_to_ideal=api.fidelity(unit.ideal_matrix, raw),
            deviation=api.deviation(unit.ideal_matrix, raw),
            purity=api.purity(raw),
            clipped=clipped,
            n_qubits=unit.circuit.n_qubits,
            shots=SHOTS,
            seed=unit.seed,
        )

    def check(self, unit: TomoUnit, out) -> list[tuple[str, str]]:
        report, published = out
        reference = self.reference.setdefault(unit.name, report)
        failures = (
            checks.tomography(report.fidelity_to_ideal, unit.infinite_shot_fidelity)
            + checks.identical_reports(report, reference)
        )
        if published is not None:
            fidelity, deviation, _ = published
            failures += checks.regression(unit.name, fidelity, deviation.average, deviation.maximum)
        return failures


class RoutedExact(Workload):
    """Route the combined check onto the star, verify it, and take exact distributions."""

    name = "routed_exact"
    work_unit = "routed blocks"
    work_per_pass = 4

    def __init__(self, seed: int) -> None:
        self.kinds = list(BellKind)
        random.Random(seed).shuffle(self.kinds)

    def units(self, index: int) -> list[BellKind]:
        return self.kinds

    def label(self, kind: BellKind) -> str:
        return kind.value

    def run(self, kind: BellKind, api):
        block = api.device_combined_block()
        routed = api.transpile(block, DEFAULT_MAP)
        embedded = api.embed(routed.n_qubits, block.gates)
        same = api.equivalent_up_to_phase(api.unitary_of(embedded), api.unitary_of(routed))
        prepared = api.bell_prep(kind, system=(2, 1), n_qubits=5)
        circuit = api.measure(api.extend(prepared, routed), 0, 3)
        return same, api.exact_distribution(circuit, IDEAL), api.exact_distribution(circuit, NOISE)

    def check(self, kind: BellKind, out) -> list[tuple[str, str]]:
        same, ideal, noisy = out
        return checks.routed(same, ideal, noisy, TABLE1_ANCILLAS[kind])


@dataclass(frozen=True)
class CliUnit:
    command: str
    argv: list[str]


class Cli(Workload):
    """The four subcommands, each in a fresh ``python -m belldisc.cli`` process."""

    name = "cli"
    work_unit = "commands"
    work_per_pass = 4

    def __init__(self, seed: int, scratch: Path) -> None:
        scratch.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
        circuit_file = self.root / "combined.txt"
        circuit_file.write_text(format_circuit(device_combined_block()))
        cli_seed = str(derived_seeds(seed, 1)[0])
        self.unit_list = [
            CliUnit("discriminate", ["discriminate", "--bell", "psi-", "--seed", cli_seed]),
            CliUnit("tomo", ["tomo", "--bell", "psi+", "--stage", "parity", "--shots", str(SHOTS),
                             "--noise", NOISE_FLAG, "--seed", cli_seed]),
            CliUnit("reproduce", ["reproduce", "--format", "csv"]),
            CliUnit("transpile", ["transpile", "--circuit", str(circuit_file)]),
        ]
        src = str(Path(belldisc.__file__).resolve().parent.parent)
        self.env = {k: v for k, v in os.environ.items() if k != "BELLDISC_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def units(self, index: int) -> list[CliUnit]:
        return self.unit_list

    def label(self, unit: CliUnit) -> str:
        return unit.command

    def run(self, unit: CliUnit, api):
        out_dir = tempfile.mkdtemp(prefix=unit.command + "-", dir=self.root)
        return out_dir, api.run_cli(unit.argv, out_dir, self.env)

    def check(self, unit: CliUnit, out) -> list[tuple[str, str]]:
        out_dir, proc = out
        try:
            parsed_ok = self._parses(unit.command, Path(out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return checks.cli(unit.command, proc.returncode, proc.stdout, parsed_ok)

    @staticmethod
    def _parses(command: str, out_dir: Path) -> bool:
        try:
            if command == "discriminate":
                for check in ("parity", "phase"):
                    path = out_dir / f"discriminate_psi_minus_{check}.counts.json"
                    if CountsHistogram.from_json(path.read_text()).shots <= 0:
                        return False
            elif command == "tomo":
                load_matrix(out_dir / "tomo_psi_plus_0_parity.matrix.json")
        except (belldisc.BelldiscError, OSError):
            return False
        return True

    def probe(self, api) -> None:
        """``cli.main``: the same argv in this process; ``cli.import``: a fresh import."""
        tracer = api.tracer
        for unit in self.unit_list:
            out_dir = tempfile.mkdtemp(prefix="main-", dir=self.root)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    with tracer.span("cli.main"):
                        cli_main([*unit.argv, "--out", out_dir])
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
        for name, code in (("cli.bare", "pass"), ("cli.import", "import belldisc")):
            with tracer.span(name):
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=60)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TomoNoisy, RoutedExact, Cli)}


def make(name: str, seed: int, scratch: Path) -> Workload:
    if name == Cli.name:
        return Cli(seed, scratch)
    return WORKLOADS[name](seed)
