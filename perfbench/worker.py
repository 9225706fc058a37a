"""One fresh benchmark process: set up a workload, run it, print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --launch-ns T

``T`` is ``time.monotonic_ns()`` read by the parent just before it started
this interpreter, so ``setup_s`` covers interpreter start, ``import belldisc``
and building the inputs.  The first pass runs next, untraced (``cold_pass_s``).
Then passes repeat until ``S`` seconds have gone.  With ``--trace 1`` each
cycle is an untraced pass followed by the same pass with every public call in
a span, then the probes that split the sampler and cli times; per-layer
figures are taken per traced pass and reported as medians.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

from tracing import LAYERS, Tracer, layer_of, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPANS_KEPT_PASSES = 20  # traced passes whose spans are written out in full
MIN_PASSES = 3  # per process; an untraced run pools several processes


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer: Counter[str] = Counter()
        self.messages: list[str] = []

    def record(self, failures: list[tuple[str, str]]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for layer, message in failures:
                self.failed_by_layer[layer] += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{layer}: {message}")


def run_pass(workload, index: int, api, tally: Tally, tracer=None) -> float:
    """Run and check pass ``index``; return its wall time in seconds (checks excluded)."""
    units = workload.units(index)
    outputs = []
    start = time.perf_counter_ns()
    if tracer is None:
        for unit in units:
            try:
                outputs.append(workload.run(unit, api))
            except Exception as exc:
                outputs.append(exc)
        elapsed = time.perf_counter_ns() - start
    else:
        with tracer.span("pass") as record:
            for unit in units:
                try:
                    with tracer.span("unit." + workload.label(unit)):
                        outputs.append(workload.run(unit, api))
                except Exception as exc:
                    outputs.append(exc)
        elapsed = record[3] - record[2]
    for unit, out in zip(units, outputs):
        if isinstance(out, Exception):
            tally.record([(getattr(out, "bench_layer", "unattributed"), f"raised {out!r}")])
        else:
            try:
                tally.record(workload.check(unit, out))
            except Exception as exc:
                tally.record([("unattributed", f"check raised {exc!r}")])
    return elapsed / 1e9


def layer_figures(tracer, pass_root: int, probe_root: int, counts: Counter) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed by per-layer metric name."""
    inside = {
        name: s for name, s in self_times(tracer.spans, pass_root).items() if layer_of(name) in LAYERS
    }
    probed = self_times(tracer.spans, probe_root)
    pass_s = (tracer.spans[pass_root][3] - tracer.spans[pass_root][2]) / 1e9
    fig: dict[str, float] = {f"{name}_s": s for name, s in inside.items()}
    for layer in LAYERS:
        fig[f"{layer}.self_s"] = sum(s for name, s in inside.items() if layer_of(name) == layer)
    fig.update({key: float(value) for key, value in counts.items()})
    density_sample = probed.get("sampler.density.sample", 0.0)
    density = density_sample + probed.get("sampler.density.exact", 0.0)
    if density:
        fig["sampler.density_s"] = density
        fig["sampler.gates_s"] = probed.get("sampler.gates", 0.0)
        fig["sampler.noise_s"] = density - fig["sampler.gates_s"]
    if density_sample:
        fig["sampler.draw_s"] = fig["sampler.sample_s"] - density_sample
    if "cli.main" in probed:
        fig["cli.main_s"] = probed["cli.main"]
        fig["cli.import_s"] = probed["cli.import"] - probed["cli.bare"]
    fig["trace.unattributed_frac"] = 1.0 - sum(inside.values()) / pass_s
    fig["trace.pass_s"] = pass_s
    return fig


def openblas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line)
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    except (OSError, StopIteration):
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch-ns", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.make(args.workload, args.seed, OUT)
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9
    try:
        return report(args, workloads, workload, setup_s)
    finally:
        workload.close()


def report(args, workloads, workload, setup_s: float) -> int:
    tally = Tally()
    plain = workloads.make_api()
    cold_pass_s = run_pass(workload, 0, plain, tally)
    result = {
        "setup_s": setup_s,
        "cold_pass_s": cold_pass_s,
        "numpy": numpy.__version__,
        "openblas_threads": openblas_threads(),
        "work_unit": workload.work_unit,
        "work_per_pass": workload.work_per_pass,
    }

    passes: list[float] = []
    traced_figures: list[dict[str, float]] = []
    unit_s: dict[str, list[float]] = {}
    kept_spans: list[list] = []
    spans_seen: set[str] = set()
    tracer = Tracer() if args.trace else None
    traced_api = workloads.make_api(tracer) if args.trace else None
    deadline = time.perf_counter() + args.seconds
    index = 1
    while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
        passes.append(run_pass(workload, index, plain, tally))
        if tracer is not None:
            tracer.spans.clear()
            before = Counter(tracer.counts)
            run_pass(workload, index, traced_api, tally, tracer)
            counts = tracer.counts - before
            with tracer.span("probe") as probe:
                workload.probe(traced_api)
            traced_figures.append(layer_figures(tracer, 0, probe[0], counts))
            spans_seen.update(span[1] for span in tracer.spans)
            for _, name, start, end, _ in tracer.spans:
                if name.startswith("unit."):
                    unit_s.setdefault(name[len("unit."):], []).append((end - start) / 1e9)
            if len(traced_figures) <= SPANS_KEPT_PASSES:
                kept_spans += [[len(traced_figures), *span] for span in tracer.spans]
        index += 1

    result.update(
        passes_s=passes,
        attempted=tally.attempted,
        failed=tally.failed,
        failed_by_layer=dict(tally.failed_by_layer),
        failure_messages=tally.messages,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        children_peak_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        names = sorted({name for fig in traced_figures for name in fig})
        result["layer"] = {
            name: statistics.median(fig.get(name, 0.0) for fig in traced_figures) for name in names
        }
        result["layer"]["trace.passes"] = len(traced_figures)
        result["spans_seen"] = sorted(spans_seen)
        result["unit_s"] = {label: statistics.median(v) for label, v in unit_s.items()}
        result["layer"]["trace.overhead_frac"] = (
            result["layer"]["trace.pass_s"] / statistics.median(passes) - 1.0
        )
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_file, "w") as handle:
            handle.write(json.dumps({"columns": ["traced_pass", "id", "name", "start_ns", "end_ns", "parent"]}) + "\n")
            for span in kept_spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counts": dict(tracer.counts)}) + "\n")
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
