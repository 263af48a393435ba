"""The benchmark's own sensitivity test: does it flag a slower tomogravity layer?

    python3 perfbench/sensitivity.py --seeds 1,2,3,4,5 --slowdowns 0.1,0.15,0.2,0.3

For every seed it runs estimate-fullscale untraced (exactly as the benchmark
command does) twice on the unmodified program, the reference pair for the
HEAD-against-HEAD check, and once per slowdown with the tomogravity layer
slowed down.  The slowdown is injected here only, never in the program: a
wrapper at the name the pipeline looks the kernel up by
(``repro.estimation.pipeline.tomogravity_estimate``) times each call and then
spins for ``slowdown`` times that long, so the layer takes ``1 + slowdown``
times its own wall time.

A set of runs is *flagged* against the reference runs when, for some
end-to-end metric of BENCHMARK.json, its median is worse than the reference
median by more than the metric's bound, the rule that rejects a change.  The
report gives the smallest slowdown flagged and whether HEAD against HEAD
flagged anything; it is also written to ``.perfbench-out/sensitivity.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "estimate-fullscale"


def slow_down_tomogravity(slowdown: float) -> None:
    """Wrap the pipeline's tomogravity kernel so each call takes ``1 + slowdown`` times as long."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.estimation.pipeline as pipeline

    kernel = pipeline.tomogravity_estimate

    def slowed(*args, **kwargs):
        started = time.perf_counter()
        result = kernel(*args, **kwargs)
        until = time.perf_counter() + slowdown * (time.perf_counter() - started)
        while time.perf_counter() < until:
            pass
        return result

    pipeline.tomogravity_estimate = slowed


def run_once(seed: int, seconds: float, slowdown: float) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child", str(slowdown),
               "--seeds", str(seed), "--seconds", str(seconds)]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"sensitivity: seed {seed} slowdown {slowdown} failed its output checks")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def flagged(reference: list[dict], candidate: list[dict], specs: list[dict]) -> list[str]:
    """Metrics whose candidate median is worse than the reference median by more than the bound."""
    worse = []
    for spec in specs:
        base = statistics.median(run[spec["name"]] for run in reference)
        new = statistics.median(run[spec["name"]] for run in candidate)
        change = (new - base) / base if spec["better"] == "lower" else (base - new) / base
        if change > spec["bound"]:
            worse.append(f"{spec['name']} {change:+.1%}")
    return worse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--slowdowns", default="0.1,0.15,0.2,0.3")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--child", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]

    if args.child is not None:
        if args.child:
            slow_down_tomogravity(args.child)
        sys.path.insert(0, str(HERE))
        import run

        return run.main(["--workload", WORKLOAD, "--seed", str(seeds[0]),
                         "--seconds", str(args.seconds), "--trace", "0"])

    specs = [spec for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
             if spec["name"] != "setup_s"]
    slowdowns = [float(value) for value in args.slowdowns.split(",")]
    runs: dict[str, list[dict]] = {"head-a": [], "head-b": [], **{str(s): [] for s in slowdowns}}
    for seed in seeds:  # interleaved, so host drift hits every arm alike
        runs["head-a"].append(run_once(seed, args.seconds, 0.0))
        for slowdown in slowdowns:
            runs[str(slowdown)].append(run_once(seed, args.seconds, slowdown))
        runs["head-b"].append(run_once(seed, args.seconds, 0.0))

    reference = runs["head-a"]
    report = {"workload": WORKLOAD, "seeds": seeds, "seconds": args.seconds, "arms": {}}
    for arm, results in runs.items():
        if arm == "head-a":
            continue
        medians = {spec["name"]: statistics.median(r[spec["name"]] for r in results) for spec in specs}
        report["arms"][arm] = {"medians": medians, "flagged": flagged(reference, results, specs)}
    report["reference_medians"] = {
        spec["name"]: statistics.median(r[spec["name"]] for r in reference) for spec in specs}
    flagged_at = [s for s in slowdowns if report["arms"][str(s)]["flagged"]]
    report["smallest_flagged_slowdown"] = min(flagged_at) if flagged_at else None
    report["head_vs_head_flagged"] = report["arms"]["head-b"]["flagged"]
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    (ROOT / ".perfbench-out" / "sensitivity.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"{'arm':<10}" + "".join(f"{spec['name']:>20}" for spec in specs) + "  flagged")
    print(f"{'head-a':<10}" + "".join(f"{report['reference_medians'][s['name']]:>20.6g}" for s in specs))
    for arm, entry in report["arms"].items():
        print(f"{arm:<10}" + "".join(f"{entry['medians'][s['name']]:>20.6g}" for s in specs)
              + "  " + (", ".join(entry["flagged"]) or "-"))
    print(f"smallest tomogravity slowdown flagged: {report['smallest_flagged_slowdown']}; "
          f"HEAD against HEAD flagged: {report['head_vs_head_flagged'] or 'nothing'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
