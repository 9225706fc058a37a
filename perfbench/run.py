"""belldisc benchmark: end-to-end metrics per workload, or per-layer figures traced.

    python3 perfbench/run.py --workload tomo_noisy --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 36

Run from the root of a checkout: the package is imported from ``src/``.
With ``--trace 0`` the run starts several fresh worker processes one after the
other, each setting up, running one cold pass and then passes for its share
of ``--seconds``, and prints every ``end_to_end`` metric of
``BENCHMARK.json``.  Spreading the run over several processes samples set-up
and cold passes across the whole run, not only at its start, which matters
on a machine whose speed drifts over periods of seconds.  With ``--trace 1`` one worker interleaves untraced and
traced passes and the run prints every ``per_layer`` metric.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--all`` runs both modes on every workload and prints the
tables only.  Exit code 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("tomo_noisy", "routed_exact", "cli")
LAUNCHES = 4  # fresh worker processes per untraced run
RUN_TIMEOUT_S = 170
TAIL_BEYOND = 10

# Which traced span a per-layer metric depends on; without it the metric does
# not apply to the workload.
METRIC_SPAN = {
    "circuit.build_s": "circuit.build", "circuit.gates_built": "circuit.build",
    "circuit.verify_s": "circuit.verify", "circuit.unitaries": "circuit.verify",
    "transpile.route_s": "transpile.route", "transpile.cnots_routed": "transpile.route",
    "transpile.gates_emitted": "transpile.route",
    "sampler.sample_s": "sampler.sample", "sampler.draw_s": "sampler.sample",
    "sampler.shots_drawn": "sampler.sample",
    "sampler.exact_s": "sampler.exact", "sampler.distributions": "sampler.exact",
    "tomography.estimate_s": "tomography.estimate", "tomography.settings_run": "tomography.estimate",
    "tomography.labels_estimated": "tomography.estimate", "tomography.invert_s": "tomography.invert",
    "qmath.project_s": "qmath.project", "qmath.projections": "qmath.project",
    "qmath.clipped": "qmath.project", "qmath.clipped_frac": "qmath.project",
    "qmath.score_s": "qmath.score",
    "refdata.load_s": "refdata.load", "refdata.matrices_loaded": "refdata.load",
    "refdata.bytes_parsed": "refdata.load",
    "cli.process_s": "cli.process", "cli.files_written": "cli.process",
    "cli.bytes_written": "cli.process", "cli.main_s": "cli.process", "cli.import_s": "cli.process",
}
SIMULATING = ("sampler.sample", "sampler.exact")


class BenchmarkError(Exception):
    pass


def launch(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Start one fresh worker and return its result; it must end by ``deadline``."""
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    launch_ns = time.monotonic_ns()
    proc = subprocess.run(argv + ["--launch-ns", str(launch_ns)], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchmarkError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchmarkError(f"{n} passes leave no percentile with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def provenance(workload: str, seed: int, worker: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": worker["openblas_threads"],
        "src_py_lines": src_lines,
        "load": "closed loop, one caller, no threads of its own: no layer queues or waits",
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict, list[str]]:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workers = [launch(workload, seed, seconds / LAUNCHES, 0, deadline) for _ in range(LAUNCHES)]
    main = workers[-1]
    passes = [p for w in workers for p in w["passes_s"]]
    tail_s, tail_pct, n = tail(passes)
    rss_key = "children_peak_rss_kb" if workload == "cli" else "peak_rss_kb"
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    values = {
        "work_per_s": main["work_per_pass"] * len(passes) / sum(passes),
        "pass_p50_s": statistics.median(passes),
        "pass_tail_s": tail_s,
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "cold_pass_s": statistics.median(w["cold_pass_s"] for w in workers),
        "peak_rss_mb": max(w[rss_key] for w in workers) / 1024.0,
    }
    notes = {
        "work_per_s": f"{main['work_unit']} per second",
        "pass_p50_s": f"median of {n} passes in {len(workers)} processes",
        "pass_tail_s": f"p{tail_pct:.1f} of {n} passes",
        "setup_s": f"median of {len(workers)} fresh processes",
        "cold_pass_s": f"median of {len(workers)} fresh processes",
        "peak_rss_mb": "largest cli child process" if workload == "cli" else "largest workload process",
    }
    units = {"work_per_s": "1/s", "peak_rss_mb": "MB"}
    gated = {m["name"] for m in spec["end_to_end"]}
    printed = {**values, "failed_frac": failed / attempted}
    lines = [f"{name:<14s} {value:.6g} {units.get(name, 's')}  ({notes[name]})"
             + ("" if name in gated else "  [not gated]") for name, value in values.items()]
    lines.append(f"{'failed_frac':<14s} {failed / attempted:.6g}  ({failed} of {attempted} operations)"
                 "  [gated as failed/attempted]")
    values = {name: value for name, value in values.items() if name in gated}
    messages = [msg for w in workers for msg in w["failure_messages"]]
    result = {"values": values, "printed": printed, "attempted": attempted, "failed": failed}
    return result, main, lines + messages


def per_layer(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict, list[str]]:
    main = launch(workload, seed, seconds, 1, time.monotonic() + RUN_TIMEOUT_S)
    layer = main["layer"]
    seen = set(main["spans_seen"])
    values, lines = {}, []
    for m in spec["per_layer"]:
        name = m["name"]
        needs = METRIC_SPAN.get(name)
        if name.endswith(".failed"):
            value = main["failed_by_layer"].get(name[: -len(".failed")], 0)
        elif name == "qmath.clipped_frac":
            projections = layer.get("qmath.projections", 0.0)
            value = layer.get("qmath.clipped", 0.0) / projections if projections else 0.0
        else:
            value = layer.get(name, 0.0)
        values[name] = value
        if name.endswith(".failed") or name.startswith("trace."):
            applies = True
        elif name.endswith(".self_s"):
            prefix = name.split(".")[0] + "."
            applies = any(s.startswith(prefix) for s in seen)
            needs = f"the {prefix[:-1]} layer"
        elif needs is None:  # the sampler figures that any simulation gives
            applies = any(s in seen for s in SIMULATING)
            needs = " or ".join(SIMULATING)
        else:
            applies = needs in seen
        if applies:
            extra = f"  (of {layer.get('qmath.projections', 0):.0f} projections)" \
                if name == "qmath.clipped_frac" else ""
            lines.append(f"{name:<28s} {value:.6g} {m['unit']}{extra}")
        else:
            lines.append(f"{name:<28s} n/a: this workload makes no call into {needs}")
    lines.append(f"per traced pass, medians of {layer['trace.passes']} traced passes; "
                 f"unattributed failures: {main['failed_by_layer'].get('unattributed', 0)}")
    lines.append("traced unit medians: " + ", ".join(
        f"{label} {s * 1e3:.3g} ms" for label, s in main["unit_s"].items()))
    lines += main["failure_messages"]
    return {"values": values, "attempted": main["attempted"], "failed": main["failed"]}, main, lines


def run_one(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    measure = per_layer if trace else end_to_end
    result, main, lines = measure(workload, seed, seconds, spec)
    prov = provenance(workload, seed, main)
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {trace})")
    for line in lines:
        print("  " + line)
    print("  provenance " + json.dumps(prov))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    record = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in result["values"].items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**record, "printed": result.get("printed"), "provenance": prov,
                    "spans_file": main.get("spans_file")}, indent=1) + "\n"
    )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give either --workload or --all")
    if not (ROOT / "src" / "belldisc" / "__init__.py").is_file():
        print(f"error: no belldisc package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.all:
            records = [run_one(w, args.seed, args.seconds, t, spec) for w in WORKLOADS for t in (0, 1)]
            ok = all(r["correct"] for r in records)
            print("all checks passed" if ok else "some checks FAILED")
            return 0 if ok else 1
        record = run_one(args.workload, args.seed, args.seconds, args.trace, spec)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
