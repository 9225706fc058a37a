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
    discrimination_circuit,
    equivalent_up_to_phase,
    format_circuit,
    parse_circuit,
    unitary_of,
    Circuit,
)
from .errors import BadArgument, BelldiscError, ParseError, ZeroShots
from .qmath import projector
from .refdata import (
    DEVIATION_TOL,
    FIDELITY_TOL,
    PUBLISHED_DEVIATION,
    PUBLISHED_FIDELITY,
    STAGES,
    ideal_state,
    matrix_json_dict,
    metrics_to_csv,
    reproduce_metrics,
    stage,
)
from .sampler import IDEAL, CountsHistogram, NoiseModel, _check_shots, sample
from .tomography import run_tomography
from .transpile import DEFAULT_MAP, CouplingMap, transpile

BELL_TOKENS = tuple(kind.value for kind in BellKind)
# Each --noise clause and the NoiseModel fields its values set, in order.
_NOISE_CLAUSES = {"depol": ("per_gate_depolarizing", "per_cnot_depolarizing"), "readout": ("readout_flip",)}


def parse_noise_flag(text: str) -> NoiseModel:
    """Grammar: ``none`` | ``depol:p1,p2`` | ``readout:r``, comma-chained."""
    spec = text.strip()
    if spec == "none":
        return IDEAL
    clauses: list[tuple[str, list[str]]] = []
    for part in map(str.strip, spec.split(",")):
        if part[:1].isalpha() or not clauses:  # a clause starts at a letter, or at the start
            head, sep, first = part.partition(":")
            clauses.append((head, [first] if sep else []))
        else:
            clauses[-1][1].append(part)
    kwargs: dict[str, float] = {}
    for head, args in clauses:
        fields = _NOISE_CLAUSES.get(head)
        if fields is None:
            raise BadArgument("'none' cannot be combined with other clauses" if head == "none"
                             else f"unknown noise clause {head!r}")
        try:
            values = [float(a) for a in args]
        except ValueError as exc:
            raise BadArgument(f"non-numeric argument in noise clause {head!r}") from exc
        if len(values) != len(fields):
            raise BadArgument(f"{head} takes {len(fields)} value(s): {head}:{','.join(fields)}")
        if not kwargs.keys().isdisjoint(fields):
            raise BadArgument(f"duplicate noise clause {head!r}")
        kwargs.update(zip(fields, values))
    return NoiseModel(**kwargs)


def _noise_text(noise: NoiseModel) -> str:
    """The shortest spec that :func:`parse_noise_flag` reads back as ``noise``: no clause of zeros."""
    clauses = {head: [getattr(noise, f) for f in fields] for head, fields in _NOISE_CLAUSES.items()}
    return ",".join(f"{head}:{','.join(map(str, v))}" for head, v in clauses.items() if any(v)) or "none"


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


def _probability_table_text(title: str, hist: CountsHistogram) -> str:
    lines = [title, "  outcome  count  probability"]
    lines += [f"  {k:<8s} {hist.counts[k]:>6d}  {hist.probability(k):.6f}" for k in sorted(hist.counts)]
    return "\n".join(lines) + "\n"


def cmd_discriminate(args: argparse.Namespace) -> int:
    kind = BellKind.from_token(args.bell)
    seed = _resolve_seed(args)
    out = Path(args.out)
    for stream, check in enumerate(("parity", "phase")):
        circ = discrimination_circuit(kind, check).measure(0, 1, 2)
        hist = sample(circ, args.shots, args.noise, seed, stream=stream)
        title = (
            f"{check} check, bell={kind.value}, shots={args.shots}, "
            f"seed={seed}, noise={_noise_text(args.noise)}"
        )
        table = _probability_table_text(title, hist)
        print(table, end="")
        base = out / f"discriminate_{kind.token}_{check}"
        _atomic_write(
            base.with_suffix(".counts.json"), json.dumps(hist.to_json_dict(), indent=1) + "\n"
        )
        probs = {k: hist.probability(k) for k in sorted(hist.counts)}
        if args.format == "json":
            payload = {"check": check, "bell": kind.value, "shots": hist.shots, "probabilities": probs}
            _atomic_write(base.with_suffix(".probs.json"), json.dumps(payload, indent=1) + "\n")
        elif args.format == "csv":
            rows = ["outcome,count,probability"]
            rows += [f"{k},{hist.counts[k]},{probs[k]:.6f}" for k in sorted(hist.counts)]
            _atomic_write(base.with_suffix(".probs.csv"), "\n".join(rows) + "\n")
        else:
            _atomic_write(base.with_suffix(".probs.txt"), table)
    return 0


def cmd_tomo(args: argparse.Namespace) -> int:
    kind = BellKind.from_token(args.bell)
    seed = _resolve_seed(args)
    label, ideal_token, circ = stage(kind, args.stage)
    report = run_tomography(circ, ideal_state(ideal_token), args.shots, args.noise, seed)

    print(f"tomography {label}: shots={args.shots}, seed={seed}, noise={_noise_text(args.noise)}")
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

    lines = ["row," + ",".join(str(i) for i in range(1, len(report.raw) + 1))]
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

    def noise_flag(text: str) -> NoiseModel:
        try:
            return parse_noise_flag(text)
        except ValueError as exc:  # argparse prints the message of this class only
            raise argparse.ArgumentTypeError(str(exc)) from exc

    def shots_flag(text: str) -> int:
        try:
            return _check_shots(int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        except ZeroShots as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    def add_common(p: argparse.ArgumentParser, sampling: bool, formats: bool) -> None:
        if sampling:
            p.add_argument("--shots", type=shots_flag, default=8192, help="samples per histogram")
            p.add_argument("--noise", type=noise_flag, default=IDEAL,
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
    try:
        return args.func(args)
    except (BelldiscError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
