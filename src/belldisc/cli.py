"""Command line front end.

    belldisc discriminate --bell psi+ --shots 8192 --seed 7 --noise none
    belldisc tomo --bell psi- --stage phase --noise depol:0.02,0.06,readout:0.01
    belldisc reproduce --format csv --out results
    belldisc transpile --circuit parity.txt --map map.json

Exit codes: 0 success, 1 runtime or regression failure, 2 bad flags.  Output
files are written atomically (temp file then rename).  The default seed comes
from the BELLDISC_SEED environment variable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .circuit import (
    BellKind,
    bell_prep,
    discrimination_circuit,
    equivalent_up_to_phase,
    format_circuit,
    parity_check,
    parse_circuit,
    phase_check,
    unitary_of,
    Circuit,
)
from .errors import BelldiscError, ParseError
from .qmath import projector
from .refdata import (
    DEVIATION_TOL,
    FIDELITY_TOL,
    PUBLISHED_DEVIATION,
    PUBLISHED_FIDELITY,
    ideal_state,
    matrix_json_dict,
    metrics_to_csv,
    reproduce_metrics,
)
from .sampler import IDEAL, NoiseModel, sample
from .tomography import run_tomography
from .transpile import DEFAULT_MAP, CouplingMap, transpile

BELL_TOKENS = tuple(kind.value for kind in BellKind)
STAGES = ("prep", "phase", "parity")


def parse_noise_flag(text: str) -> NoiseModel:
    """Grammar: ``none`` | ``depol:p1,p2`` | ``readout:r``, comma-chained."""
    spec = text.strip()
    if spec == "none":
        return IDEAL
    clauses: list[list[str]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty clause in noise spec {text!r}")
        if part[0].isalpha():
            clauses.append([part])
        elif clauses:
            clauses[-1].append(part)
        else:
            raise ValueError(f"noise spec {text!r} starts with a bare number")
    kwargs: dict[str, float] = {}
    for clause in clauses:
        head, sep, first = clause[0].partition(":")
        args = ([first] if sep else []) + clause[1:]
        try:
            values = [float(a) for a in args]
        except ValueError as exc:
            raise ValueError(f"non-numeric argument in noise clause {clause!r}") from exc
        if head == "depol":
            if len(values) != 2:
                raise ValueError("depol takes two probabilities: depol:p_gate,p_cnot")
            new = {"per_gate_depolarizing": values[0], "per_cnot_depolarizing": values[1]}
        elif head == "readout":
            if len(values) != 1:
                raise ValueError("readout takes one probability: readout:r")
            new = {"readout_flip": values[0]}
        elif head == "none":
            raise ValueError("'none' cannot be combined with other clauses")
        else:
            raise ValueError(f"unknown noise clause {head!r}")
        for key, val in new.items():
            if key in kwargs:
                raise ValueError(f"duplicate noise clause for {key}")
            kwargs[key] = val
    return NoiseModel(**kwargs)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("BELLDISC_SEED", "")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ParseError(f"BELLDISC_SEED={env!r} is not an integer") from exc


def _probability_table_text(title: str, hist_counts: dict[str, int], shots: int) -> str:
    lines = [title, "  outcome  count  probability"]
    for outcome in sorted(hist_counts):
        cnt = hist_counts[outcome]
        lines.append(f"  {outcome:<8s} {cnt:>6d}  {cnt / shots:.6f}")
    return "\n".join(lines) + "\n"


def cmd_discriminate(args: argparse.Namespace) -> int:
    kind = BellKind.from_token(args.bell)
    seed = _resolve_seed(args)
    token = kind.name.lower()
    out = Path(args.out)
    for stream, check in enumerate(("parity", "phase")):
        circ = discrimination_circuit(kind, check).measure(0, 1, 2)
        hist = sample(circ, args.shots, args.noise, seed, stream=stream)
        title = (
            f"{check} check, bell={kind.value}, shots={args.shots}, "
            f"seed={seed}, noise={args.noise_text}"
        )
        print(_probability_table_text(title, hist.counts, hist.shots), end="")
        base = out / f"discriminate_{token}_{check}"
        _atomic_write(
            base.with_suffix(".counts.json"), json.dumps(hist.to_json_dict(), indent=1) + "\n"
        )
        probs = {k: hist.counts[k] / hist.shots for k in sorted(hist.counts)}
        if args.format == "json":
            payload = {"check": check, "bell": kind.value, "shots": hist.shots, "probabilities": probs}
            _atomic_write(base.with_suffix(".probs.json"), json.dumps(payload, indent=1) + "\n")
        elif args.format == "csv":
            rows = ["outcome,count,probability"]
            rows += [f"{k},{hist.counts[k]},{probs[k]:.6f}" for k in sorted(hist.counts)]
            _atomic_write(base.with_suffix(".probs.csv"), "\n".join(rows) + "\n")
        else:
            _atomic_write(base.with_suffix(".probs.txt"), _probability_table_text(title, hist.counts, hist.shots))
    return 0


def _stage_circuit(kind: BellKind, stage: str) -> tuple[Circuit, int]:
    circ = bell_prep(kind)
    if stage == "prep":
        return circ, 0
    if stage == "phase":
        return circ.extend(phase_check()), kind.phase_bit
    if stage == "parity":
        return circ.extend(parity_check()), kind.parity_bit
    raise ValueError(f"unknown stage {stage!r}")


def cmd_tomo(args: argparse.Namespace) -> int:
    kind = BellKind.from_token(args.bell)
    seed = _resolve_seed(args)
    circ, ancilla_bit = _stage_circuit(kind, args.stage)
    ideal_token = f"{kind.name.lower()}_{ancilla_bit}"
    label = f"{ideal_token}.{args.stage}"
    report = run_tomography(circ, ideal_state(ideal_token), args.shots, args.noise, seed)

    print(f"tomography {label}: shots={args.shots}, seed={seed}, noise={args.noise_text}")
    print(f"  fidelity_to_ideal = {report.fidelity_to_ideal:.6f}")
    print(f"  purity            = {report.purity:.6f}")
    print(f"  deviation avg/max = {report.deviation.average:.6f} / {report.deviation.maximum:.6f}")
    print(f"  clipped           = {report.clipped}")

    out = Path(args.out)
    base = out / f"tomo_{ideal_token}_{args.stage}"
    _atomic_write(base.with_suffix(".report.json"), report.to_json(label, ideal_token) + "\n")
    matrix_payload = matrix_json_dict(
        label, ideal_token, report.raw, stage=args.stage, source="belldisc-simulation"
    )
    _atomic_write(base.with_suffix(".matrix.json"), json.dumps(matrix_payload, indent=1) + "\n")

    lines = ["row," + ",".join(str(i) for i in range(1, 9))]
    lines += [f"{i}," + ",".join(f"{v:.6f}" for v in row) for i, row in enumerate(report.raw.real, start=1)]
    _atomic_write(base.with_suffix(".rho_real.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = reproduce_metrics()
    all_ok = True
    print(
        f"{'label':<22s} {'fidelity':>9s} {'target':>7s} {'avg_dev':>8s} {'max_dev':>8s} "
        f"{'purity':>7s}  status"
    )
    for row in rows:
        fid_target = PUBLISHED_FIDELITY[row.label]
        ok = abs(row.fidelity - fid_target) <= FIDELITY_TOL
        dev_note = ""
        if row.label in PUBLISHED_DEVIATION:
            avg_t, max_t = PUBLISHED_DEVIATION[row.label]
            ok = (ok and abs(row.avg_dev - avg_t) <= DEVIATION_TOL
                  and abs(row.max_dev - max_t) <= DEVIATION_TOL)
            dev_note = f" (dev targets {avg_t:.3f}/{max_t:.3f})"
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        print(
            f"{row.label:<22s} {row.fidelity:9.4f} {fid_target:7.4f} {row.avg_dev:8.4f} "
            f"{row.max_dev:8.4f} {row.purity:7.4f}  {status}{dev_note}"
        )
    if args.format == "csv":
        _atomic_write(Path(args.out) / "metrics.csv", metrics_to_csv(rows))
    elif args.format == "json":
        metrics = ("fidelity", "avg_dev", "max_dev", "purity")
        payload = [{"label": r.label, **{k: round(getattr(r, k), 6) for k in metrics}} for r in rows]
        _atomic_write(Path(args.out) / "metrics.json", json.dumps(payload, indent=1) + "\n")
    print("all rows PASS" if all_ok else "some rows FAIL")
    return 0 if all_ok else 1


def cmd_transpile(args: argparse.Namespace) -> int:
    try:
        text = Path(args.circuit).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read circuit file: {exc}") from exc
    circ = parse_circuit(text)
    cmap = CouplingMap.load(args.map) if args.map else DEFAULT_MAP
    routed = transpile(circ, cmap)

    verdict = "not checked"
    if not circ.measured:
        embedded = Circuit(routed.n_qubits, circ.gates)
        same = equivalent_up_to_phase(unitary_of(embedded), unitary_of(routed))
        verdict = "yes" if same else "NO"
    print(
        f"gates: {circ.gate_count} -> {routed.gate_count}; "
        f"cnots: {circ.cnot_count} -> {routed.cnot_count}; equivalent: {verdict}"
    )
    _atomic_write(Path(args.out) / "transpiled.txt", format_circuit(routed))
    return 0 if verdict != "NO" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belldisc",
        description="Bell-state discrimination circuits, noisy sampling, tomography and regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, sampling: bool, formats: bool) -> None:
        if sampling:
            p.add_argument("--shots", type=int, default=8192, help="samples per histogram")
            p.add_argument("--noise", type=parse_noise_flag, default=IDEAL,
                           help="none | depol:p_gate,p_cnot | readout:r (comma-chained)")
            p.add_argument("--seed", type=int, default=None,
                           help="root seed (default: $BELLDISC_SEED or 0)")
        p.add_argument("--out", default=".", help="output directory")
        if formats:
            p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_disc = sub.add_parser("discriminate", help="run both check circuits and histogram the outcomes")
    p_disc.add_argument("--bell", required=True, choices=BELL_TOKENS)
    add_common(p_disc, sampling=True, formats=True)
    p_disc.set_defaults(func=cmd_discriminate)

    p_tomo = sub.add_parser("tomo", help="full tomography of one experiment stage")
    p_tomo.add_argument("--bell", required=True, choices=BELL_TOKENS)
    p_tomo.add_argument("--stage", choices=STAGES, default="prep")
    add_common(p_tomo, sampling=True, formats=False)
    p_tomo.set_defaults(func=cmd_tomo)

    p_rep = sub.add_parser("reproduce", help="regression of the embedded dataset metrics")
    add_common(p_rep, sampling=False, formats=True)
    p_rep.set_defaults(func=cmd_reproduce)

    p_tr = sub.add_parser("transpile", help="route a circuit file onto a coupling map")
    p_tr.add_argument("--circuit", required=True, help="circuit text file")
    p_tr.add_argument("--map", default=None, help="coupling map JSON (default: 5-qubit star)")
    add_common(p_tr, sampling=False, formats=False)
    p_tr.set_defaults(func=cmd_transpile)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "noise"):
        args.noise_text = (
            "none" if args.noise.is_ideal else
            f"depol:{args.noise.per_gate_depolarizing},{args.noise.per_cnot_depolarizing},"
            f"readout:{args.noise.readout_flip}"
        )
    try:
        return args.func(args)
    except (BelldiscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
