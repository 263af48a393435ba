"""Run one benchmark workload against the ``repro`` sources of this checkout.

    python3 perfbench/run.py --workload estimate-fullscale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload, one table

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same loop untraced for half the time and traced for the other half
and reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with its unit, the host record and, for
traced runs, the per-layer table.  The same record is written to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3  # set-up runs per measurement: this process plus fresh interpreters
CPU_ROTATION_S = 0.25  # how long the measuring thread stays on one CPU
WORKLOAD_NAMES = ("estimate-fullscale", "serve-replay", "sweep-calibration")
SERVICE_COUNTERS = (
    "fastpath.factor_hit_ratio", "fastpath.ipf_hit_ratio", "fastpath.warm_solved",
    "fastpath.invalidations", "binner.records_late", "binner.records_skipped", "rolling.refits",
)


def load_program():
    """Import ``repro`` from this checkout's ``src``; return the import time in seconds."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no repro sources at {package.parent}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - started
    if Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {package}")
    return elapsed


def metric_specs() -> dict:
    """Metric name -> spec, from BENCHMARK.json (the single source of names and units)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def host_record() -> dict:
    """Where the numbers came from: CPUs, numpy/BLAS build, BLAS threads, a fixed kernel time."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = int(function())
                break
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((256, 256)), rng.standard_normal((256, 256))
    kernel = []
    for _ in range(30):
        started = time.perf_counter()
        for _ in range(10):
            a @ b
        kernel.append(time.perf_counter() - started)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "cpu_rotation_s": CPU_ROTATION_S,
        "calibration_kernel": "10 x (256x256 @ 256x256) float64 matmul, median of 30",
        "calibration_kernel_ms": 1e3 * statistics.median(kernel),
    }


class CpuRotation:
    """Move the calling thread round the CPUs it may use, one every ``CPU_ROTATION_S``.

    On a shared host each CPU slows down on its own, for spells of seconds
    to minutes, when another tenant's work lands on the core it shares; the
    scheduler leaves a busy single thread where it is, so an unrotated run
    measures whichever CPU it happened to start on.  Rotating makes every
    run sample each CPU alike.  Threads the program already started (the
    BLAS pool) keep their own placement.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.thread_id = threading.get_native_id()
        self.stop = threading.Event()
        self.rotator = threading.Thread(target=self._rotate, name="cpu-rotation", daemon=True)

    def _rotate(self) -> None:
        step = 0
        while not self.stop.wait(CPU_ROTATION_S):
            step += 1
            os.sched_setaffinity(self.thread_id, {self.cpus[step % len(self.cpus)]})

    def __enter__(self):
        os.sched_setaffinity(self.thread_id, {self.cpus[0]})
        self.rotator.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.rotator.join()
        os.sched_setaffinity(self.thread_id, self.cpus)
        return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values, q: float = 0.9):
    """``(quantile, value)``: ``q`` or the highest quantile with >= 10 samples beyond it."""
    import numpy as np

    n = len(values)
    q = min(q, (n - 10) / n) if n > 10 else None
    return (None, None) if q is None else (q, float(np.quantile(values, q)))


def set_up(workload, import_s: float) -> tuple[float, list[float]]:
    """Set the workload up here and in fresh interpreters; median and all samples."""
    started = time.perf_counter()
    workload.setup()
    samples = [import_s + time.perf_counter() - started]
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload.name, "--seed", str(workload.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]))
    return statistics.median(samples), samples


def per_layer(workload, table: dict, untraced, traced, routing_builds: list, import_s: float,
              first_traced_replay: int, shared: dict) -> dict:
    """The per-layer metrics of one traced run (see README.md for each)."""
    ops = max(table["ops"], 1)
    layers, counters = table["layers"], table["counters"]
    metrics = {f"{layer}.busy_ms_per_op": 1e3 * row["self_s"] / ops for layer, row in layers.items()}

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics["tomogravity.us_per_bin"] = 1e6 * ratio(layers["tomogravity"]["self_s"], counters["tomogravity.bins"])
    metrics["tomogravity.bins_per_op"] = counters["tomogravity.bins"] / ops
    metrics["ipf.us_per_bin"] = 1e6 * ratio(layers["ipf"]["self_s"], counters["ipf.bins"])
    metrics["ipf.iterations_per_bin"] = ratio(counters["ipf.iterations"], counters["ipf.bins"])
    metrics["fit.calls_per_op"] = counters["fit.calls"] / ops
    metrics["fit.als_iterations_per_call"] = ratio(counters["fit.iterations"], counters["fit.calls"])
    metrics["synthesis.bins_per_op"] = counters["synthesis.bins"] / ops
    metrics["ingest.records_per_s"] = ratio(counters["parse.records"], layers["parse"]["self_s"])
    # Service state of the first traced replay (deterministic per seed); 0 where no service runs.
    metrics.update(dict.fromkeys(SERVICE_COUNTERS, 0.0))
    metrics.update(workload.service_counters(first_traced_replay))
    q, tail_s = tail(untraced.op_seconds)  # latency is measured with tracing off
    metrics["service.chunk_ms_p90"] = 1e3 * tail_s if workload.name == "serve-replay" and q else 0.0
    for kind, value in shared.items():
        metrics[f"shared.{kind}_hit_ratio"] = value
    metrics["setup.import_s"] = import_s
    metrics["routing.build_s"] = sum(routing_builds)
    metrics["routing.builds"] = len(routing_builds)
    metrics["trace.overhead_frac"] = untraced.throughput / traced.throughput - 1.0
    metrics["trace.coverage_frac"] = table["coverage"]
    return {name: float(value) for name, value in metrics.items()}


def shared_hits(registry) -> dict:
    """Hit ratios of the sweep's shared-state memos, from the repro_sweep_shared_* counters."""
    hits = {}
    for kind in ("system", "baseline", "fit"):
        requests = registry.counter("repro_sweep_shared_requests_total", kind=kind).value
        builds = registry.counter("repro_sweep_shared_builds_total", kind=kind).value
        hits[kind] = 1.0 - builds / requests if requests else 0.0
    return hits


def run_workload(args) -> int:
    import_s = load_program()
    import layers
    import workloads
    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer

    specs = metric_specs()
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_only:
        started = time.perf_counter()
        workload.setup()
        print(json.dumps({"setup_s": import_s + time.perf_counter() - started}))
        return 0

    host = host_record()
    try:
        workload.prepare_inputs()
        setup_tracer = Tracer(worker="setup")
        with layers.LayerWrappers([e for e in layers.ENTRY_POINTS if e[2] == "routing"]), \
                use_tracer(setup_tracer):
            setup_s, setup_samples = set_up(workload, import_s)
        routing_builds = [event["duration_s"] for event in setup_tracer.drain()
                          if event.get("name", "").startswith(layers.SPAN_PREFIX + "routing.")]

        calls = workloads.EstimatorCalls(workload.rng)
        with calls, CpuRotation():
            if not args.trace:
                measured = workload.run(args.seconds, calls)
                checks = [measured]
            else:
                untraced = workload.run(args.seconds / 2, calls)
                first_traced_replay = len(getattr(workload, "statuses", ()))
                tracer, registry = Tracer(worker="bench"), MetricsRegistry()
                with layers.LayerWrappers(), use_tracer(tracer), use_metrics(registry):
                    traced = workload.run(args.seconds / 2, calls)
                table = layers.layer_table(tracer.drain(), {workload.op_name})
                checks = [untraced, traced]
        rss = peak_rss_mb()
    finally:
        workload.cleanup()

    attempted = sum(m.attempted for m in checks)
    failed = sum(m.failed for m in checks)
    errors = list(workload.errors.values())
    named = {}  # per-workload names of the same figures, for the human-readable record
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "op_ms_p50": 1e3 * statistics.median(measured.op_seconds),
            "throughput_per_s": measured.throughput,
            # A run whose every output failed its checks has no estimate to score:
            # report the error of estimating nothing (1.0); `correct` is false anyway.
            "rel_l2_error_mean": statistics.fmean(errors) if errors else 1.0,
            "peak_rss_mb": rss,
        }
        specs_used = specs["end_to_end"]
        q, tail_s = tail(measured.op_seconds)
        named = {
            "estimate-fullscale": {"scenario_s_p50": metrics["op_ms_p50"] / 1e3},
            "serve-replay": {"serve_bins_per_s": measured.throughput,
                             "chunk_latency_ms_p50": metrics["op_ms_p50"]},
            "sweep-calibration": {"sweep_cells_per_s": measured.throughput},
        }[workload.name]
        if q is not None and workload.name == "serve-replay":
            named[f"chunk_latency_ms_p{round(100 * q)}"] = 1e3 * tail_s
        named["failed_ops_frac"] = failed / max(attempted, 1)
        named["samples"] = len(measured.op_seconds)
        op_seconds = measured.op_seconds
    else:
        metrics = per_layer(workload, table, untraced, traced, routing_builds, import_s,
                            first_traced_replay, shared_hits(registry))
        specs_used = specs["per_layer"]
        op_seconds = traced.op_seconds
    missing = sorted(set(specs_used) - set(metrics))
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")
    metrics = {name: metrics[name] for name in specs_used}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": host, "setup_samples_s": setup_samples, "metrics": metrics, "named": named,
        "work_unit": workload.work_unit, "op_seconds": op_seconds,
        "problems": [p for m in checks for p in m.problems],
    }
    if args.trace:
        record["layer_table"] = table
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host))
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}")
    if args.trace:
        print(layers.format_table(table))
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {specs_used[name]['unit']}")
    for name, value in named.items():
        print(f"  {name:<34}{value:>16.6g}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": specs_used[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every end-to-end metric."""
    specs = metric_specs()["end_to_end"]
    results = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(child.stdout[: child.stdout.rstrip().rfind("\n") + 1])
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return child.returncode
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    names = list(results)
    metric_names = list(specs) if not args.trace else list(results[names[0]]["metrics"])
    print(f"\n{'metric':<34}{'unit':<8}" + "".join(f"{n:>22}" for n in names))
    for metric in metric_names:
        unit = results[names[0]]["metrics"][metric]["unit"]
        print(f"{metric:<34}{unit:<8}" + "".join(
            f"{results[n]['metrics'][metric]['value']:>22.6g}" for n in names))
    print(f"{'failed_ops_frac':<34}{'1':<8}" + "".join(
        f"{results[n]['failed'] / results[n]['attempted']:>22.6g}" for n in names))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
