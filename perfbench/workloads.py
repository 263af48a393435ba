"""The three workloads, each a closed loop over ``repro``'s public API.

Every workload takes the run's seed, builds its inputs from it, sets the
program up, then repeats its unit of work until the time budget is spent,
always finishing the current rotation (estimate-fullscale), replay
(serve-replay) or grid (sweep-calibration) so every run measures the same
mix.  After each unit of work, outside the timed region, the outputs are
checked against the benchmark's own oracle (:mod:`oracle`).

See README.md in this directory for why these three were chosen and which
layer each one stresses.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

SAMPLED_BINS_PER_CALL = 2


@dataclass
class Measurement:
    """What one timed loop produced."""

    op_seconds: list = field(default_factory=list)  # one latency sample per operation
    work: float = 0.0  # throughput numerator (bins or cells)
    timed_s: float = 0.0  # summed duration of the timed calls
    round_rates: list = field(default_factory=list)  # work per timed second, one per round
    attempted: int = 0  # operations whose outputs were checked
    failed: int = 0  # operations with at least one failed check
    problems: list = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Median over the rounds of work per timed second."""
        return statistics.median(self.round_rates)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


class EstimatorCalls:
    """Record every ``TMEstimator`` call the program makes (inputs and result).

    Installed at the class attribute the pipeline's callers look up.  For
    streamed calls it also copies the estimate rows of a few seeded sample
    bins through a ``chunk_sink`` (chained to the caller's own sink), since
    streamed runs never materialise the whole estimate.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls: list[dict] = []

    def __enter__(self):
        from repro.estimation.pipeline import TMEstimator

        self._cls = TMEstimator
        self._estimate = TMEstimator.estimate
        self._estimate_stream = TMEstimator.estimate_stream
        calls, rng, estimate, estimate_stream = self.calls, self.rng, self._estimate, self._estimate_stream

        def capture_estimate(estimator, system, prior, **kwargs):
            result = estimate(estimator, system, prior, **kwargs)
            calls.append({"system": system, "prior": prior, "kwargs": kwargs, "result": result})
            return result

        def capture_stream(estimator, system, prior_stream, **kwargs):
            n_bins = system.n_timesteps
            sampled = sorted(set(rng.integers(0, n_bins, SAMPLED_BINS_PER_CALL).tolist()))
            rows: dict[int, np.ndarray] = {}
            downstream = kwargs.get("chunk_sink")

            def sink(t0, block):
                for t in sampled:
                    if t0 <= t < t0 + block.shape[0]:
                        rows[t] = np.array(block[t - t0])
                if downstream is not None:
                    downstream(t0, block)

            kwargs["chunk_sink"] = sink
            result = estimate_stream(estimator, system, prior_stream, **kwargs)
            kwargs["chunk_sink"] = downstream
            calls.append({"system": system, "prior_stream": prior_stream, "kwargs": kwargs,
                          "result": result, "sampled": sampled, "rows": rows})
            return result

        TMEstimator.estimate = capture_estimate
        TMEstimator.estimate_stream = capture_stream
        return self

    def __exit__(self, *exc):
        self._cls.estimate = self._estimate
        self._cls.estimate_stream = self._estimate_stream
        return False

    def take(self) -> list[dict]:
        calls, self.calls[:] = list(self.calls), []
        return calls


def stream_rows(stream, wanted) -> dict[int, np.ndarray]:
    """Rows ``wanted`` of a chunk stream (re-iterated from its start)."""
    wanted = set(wanted)
    rows = {}
    for t0, block in stream.chunks():
        for t in list(wanted):
            if t0 <= t < t0 + block.shape[0]:
                rows[t] = np.array(block[t - t0])
                wanted.discard(t)
        if not wanted:
            break
    return rows


def check_bin(system, t: int, prior_row, estimate_row, **ipf_kwargs) -> bool:
    """Program estimate of bin ``t`` against the oracle's, from the same inputs."""
    expected = oracle.estimate_bin(
        np.asarray(prior_row, dtype=float).reshape(-1),
        np.asarray(system.routing.matrix),
        system.link_loads[t], system.ingress[t], system.egress[t],
        **ipf_kwargs,
    )
    return oracle.close(np.asarray(estimate_row).reshape(expected.shape), expected)


class Workload:
    """Common shape: inputs, set-up, closed loop until the deadline, checks."""

    name = ""
    op_name = ""  # span name of the timed call, for the per-layer table
    work_unit = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self.rng = np.random.default_rng([self.seed, 7])

    def prepare_inputs(self) -> None:
        """Write the inputs the program will read (not part of set-up time)."""

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, calls: EstimatorCalls) -> Measurement:
        """Whole rounds until the deadline: stop where the run ends nearest to it."""
        measurement = Measurement()
        started = time.perf_counter()
        while True:
            work, timed_s = measurement.work, measurement.timed_s
            self.one_round(measurement, calls)
            measurement.round_rates.append(
                (measurement.work - work) / (measurement.timed_s - timed_s))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(measurement.round_rates) / 2 >= seconds:
                return measurement

    def one_round(self, measurement: Measurement, calls: EstimatorCalls) -> None:
        raise NotImplementedError

    def service_counters(self, replay: int) -> dict:
        """Per-replay counters of the serve daemon (only serve-replay runs one)."""
        return {}

    def cleanup(self) -> None:
        """Remove large files this workload wrote."""


class EstimateFullscale(Workload):
    """Repeated ``ScenarioRunner.run`` on paper-scale Geant and Totem weeks."""

    name = "estimate-fullscale"
    op_name = "bench.scenarios.run"
    work_unit = "estimated bins"
    DATASETS = ("geant", "totem")
    PRIORS = ("measured", "stable_fp", "stable_f")
    MAX_BINS = 144

    def setup(self) -> None:
        from repro import Scenario, ScenarioRunner
        from repro.synthesis import load_dataset
        from repro.topology import build_routing_matrix

        self.runner = ScenarioRunner()
        weeks = {}
        for dataset in self.DATASETS:
            weeks[dataset] = max(
                max(ScenarioRunner.resolve_weeks(Scenario(dataset=dataset, prior=prior))) + 1
                for prior in self.PRIORS
            )
            # Same keyword set as the runner's call, so the runs hit this cache entry.
            data = load_dataset(dataset, n_weeks=weeks[dataset], bins_per_week=None,
                                full_scale=True, seed=None)
            build_routing_matrix(data.topology)
        self.scenarios = [
            Scenario(dataset=dataset, prior=prior, full_scale=True, max_bins=self.MAX_BINS,
                     n_weeks=weeks[dataset], seed=self.seed)
            for dataset in self.DATASETS for prior in self.PRIORS
        ]
        self.errors: dict[str, float] = {}

    def one_round(self, measurement: Measurement, calls: EstimatorCalls) -> None:
        for scenario in self.scenarios:
            started = time.perf_counter()
            result = self.runner.run(scenario)
            elapsed = time.perf_counter() - started
            measurement.op_seconds.append(elapsed)
            measurement.timed_s += elapsed
            bins = int(result.errors.shape[0])
            measurement.work += 2 * bins  # the IC-prior estimate and its gravity baseline
            self.check(scenario, result, calls.take(), measurement)

    def check(self, scenario, result, captured, measurement: Measurement) -> None:
        measurement.attempted += 1
        label = f"{scenario.label} seed {self.seed}"
        if len(captured) != 2:
            measurement.fail(f"{label}: expected 2 estimator calls, saw {len(captured)}")
            return
        main = captured[-1]
        truth = main["kwargs"]["ground_truth"].values
        estimate = result.estimate.values
        errors = np.array([oracle.rel_l2(truth[t], estimate[t]) for t in range(truth.shape[0])])
        self.errors.setdefault(scenario.label, float(errors.mean()))
        if not np.allclose(errors, np.asarray(result.errors), rtol=1e-9, atol=0.0):
            measurement.fail(f"{label}: reported per-bin errors disagree with the estimate")
            return
        if main["result"].estimate is not result.estimate or not np.all(np.isfinite(result.improvement)):
            measurement.fail(f"{label}: result is not the main estimate, or improvement not finite")
            return
        for call in captured:
            values = call["result"].estimate.values
            for t in sorted(set(self.rng.integers(0, values.shape[0], SAMPLED_BINS_PER_CALL).tolist())):
                if not check_bin(call["system"], t, call["prior"].values[t], values[t]):
                    measurement.fail(f"{label}: bin {t} differs from the oracle")
                    return


class SweepCalibration(Workload):
    """Serial streamed ``run_cells`` grids with overlapping calibration weeks."""

    name = "sweep-calibration"
    op_name = "bench.scenarios.run_cells"
    work_unit = "cells"
    DATASETS = ("geant", "totem")
    PRIORS = ("stable_fp", "measured", "stable_f", "gravity")
    CALIBRATION_WEEKS = (0, 1, 2)
    LATER_TARGET = 3  # weeks after calibration, beyond either dataset's default gap
    MAX_BINS = 2
    CHECK_EVERY = 3  # each grid checks every third estimator call, rotating through all of them

    def setup(self) -> None:
        from repro import Scenario, ScenarioRunner
        from repro.synthesis import open_dataset_stream
        from repro.topology import build_routing_matrix

        self.runner = ScenarioRunner()
        base = Scenario(dataset=self.DATASETS[0], prior=self.PRIORS[0], full_scale=True,
                        stream=True, max_bins=self.MAX_BINS, seed=self.seed)
        self.cells = [
            base.replace(dataset=dataset, prior=prior, calibration_week=week)
            for dataset in self.DATASETS for prior in self.PRIORS for week in self.CALIBRATION_WEEKS
        ] + [
            # Overlapping windows: a later target week calibrated on a week an
            # earlier cell already fitted, so the shared fit memo is exercised.
            base.replace(dataset=dataset, prior="stable_fp", calibration_week=week,
                         target_week=week + self.LATER_TARGET)
            for dataset in self.DATASETS for week in self.CALIBRATION_WEEKS
        ]
        for dataset in self.DATASETS:
            weeks = max(max(ScenarioRunner.resolve_weeks(cell)) + 1
                        for cell in self.cells if cell.dataset == dataset)
            data = open_dataset_stream(dataset, n_weeks=weeks, bins_per_week=None,
                                       full_scale=True, seed=None, chunk_bins=None)
            data.checkpoint_noise()
            build_routing_matrix(data.topology)
        self.errors: dict[str, float] = {}
        self.grids = 0

    def one_round(self, measurement: Measurement, calls: EstimatorCalls) -> None:
        started = time.perf_counter()
        sweep = self.runner.run_cells(self.cells, jobs=1)
        elapsed = time.perf_counter() - started
        measurement.op_seconds.append(elapsed)
        measurement.timed_s += elapsed
        measurement.work += len(self.cells)
        captured = calls.take()
        measurement.attempted += len(self.cells)
        problems = [f"{cell.label} week {cell.calibration_week}: cell failed: {message}"
                    for cell, message in sweep.failures]
        for result in sweep.results:
            errors = np.asarray(result.errors)
            key = f"{result.scenario.label}/w{result.scenario.calibration_week}"
            if errors.shape != (self.MAX_BINS,) or not np.all(np.isfinite(errors)):
                problems.append(f"{key}: error series missing or not finite")
                continue
            self.errors.setdefault(key, float(errors.mean()))
        checked = captured[self.grids % self.CHECK_EVERY::self.CHECK_EVERY]
        self.grids += 1
        problems += [f"seed {self.seed}: a streamed estimate differs from the oracle"
                     for call in checked if not self.check_call(call)]
        # Each failed check counts against one cell of the grid.
        for problem in problems[: len(self.cells)]:
            measurement.fail(problem)

    @staticmethod
    def check_call(call) -> bool:
        rows = call["rows"]
        if set(rows) != set(call["sampled"]):
            return False
        errors = call["result"].errors
        priors = stream_rows(call["prior_stream"], rows)
        truths = stream_rows(call["kwargs"]["ground_truth_stream"], rows)
        for t, estimate in rows.items():
            if not check_bin(call["system"], t, priors[t], estimate):
                return False
            if not np.isclose(oracle.rel_l2(truths[t], estimate), errors[t], rtol=1e-9, atol=0.0):
                return False
        return True


class ServeReplay(Workload):
    """Unpaced replay of a seeded flow trace through ``FileReplaySource`` -> ``IngestService``."""

    name = "serve-replay"
    op_name = "bench.service.run"
    work_unit = "published bins"
    BIN_SECONDS = 300.0
    BINS = 3 * 288  # three reduced-scale Geant weeks of 5-minute bins
    RECORDS_PER_PAIR = 2
    CHUNK_BINS = 16  # `repro serve` default
    BATCH_RECORDS = 1024  # `repro serve` default
    REFIT_EVERY = 96
    FORWARD_FRACTION = 0.25

    @property
    def trace_path(self) -> Path:
        return self.workdir / f"trace-seed{self.seed}.csv"

    def prepare_inputs(self) -> None:
        from repro.topology import geant_topology

        nodes = geant_topology().nodes
        self.truth = write_trace(self.trace_path, nodes, self.rng, bins=self.BINS,
                                 records_per_pair=self.RECORDS_PER_PAIR,
                                 bin_seconds=self.BIN_SECONDS, forward=self.FORWARD_FRACTION)
        self.records = self.BINS * len(nodes) ** 2 * self.RECORDS_PER_PAIR

    def setup(self) -> None:
        from repro.topology import geant_topology

        self.topology = geant_topology()
        self.replays = 0
        self.service, self.source, self.estimator, self.sink = self._service()
        self.fast_path: list[dict] = []
        self.statuses: list[dict] = []
        self.errors: dict[str, float] = {}

    def _service(self):
        from repro.estimation.pipeline import TMEstimator
        from repro.ingest import FileReplaySource, IngestService

        sink = self.workdir / f"sink-seed{self.seed}-{self.replays}.jsonl"
        estimator = TMEstimator(fast_path=True)
        source = ChunkTimedSource(
            FileReplaySource(self.trace_path, self.topology.nodes, batch_records=self.BATCH_RECORDS),
            self.CHUNK_BINS,
        )
        service = IngestService(
            source, self.topology, estimator=estimator, bin_seconds=self.BIN_SECONDS,
            chunk_bins=self.CHUNK_BINS, prior="stable_fp", refit_every=self.REFIT_EVERY,
            sink=str(sink),
        )
        source.service = service
        return service, source, estimator, sink

    def one_round(self, measurement: Measurement, calls: EstimatorCalls) -> None:
        if self.service is None:
            self.service, self.source, self.estimator, self.sink = self._service()
        started = time.perf_counter()
        status = self.service.run()
        elapsed = time.perf_counter() - started
        measurement.timed_s += elapsed
        measurement.work += status.bins_published
        measurement.op_seconds.extend(self.source.chunk_seconds)
        self.fast_path.append(self.estimator.fast_path_stats())
        self.statuses.append(status.to_dict())
        self.check(status, calls.take(), measurement)
        self.sink.unlink()
        self.replays += 1
        self.service = None

    def check(self, status, captured, measurement: Measurement) -> None:
        label = f"replay {self.replays} seed {self.seed}"
        n = self.truth.shape[1]
        published = []
        with self.sink.open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                published.append((record["bin"], np.asarray(record["estimate"], dtype=float)))
        measurement.attempted += self.BINS
        bad = set()  # published bins that failed a check; a replay-wide failure fails them all

        def fail(message, bins=range(self.BINS)):
            if len(measurement.problems) < 20:
                measurement.problems.append(message)
            bad.update(bins)

        for index, (bin_index, estimate) in enumerate(published):
            if bin_index != index or estimate.shape != (n, n) or not np.all(np.isfinite(estimate)):
                fail(f"{label}: published bin {index} is out of order, misshapen or not finite", [index])
        if len(published) != self.BINS or status.bins_published != self.BINS:
            fail(f"{label}: published {len(published)} bins, the trace has {self.BINS}")
        if status.records_seen != self.records or status.records_seen != (
                status.records_binned + status.records_dropped_late + status.records_skipped):
            fail(f"{label}: record accounting broken: {status.to_dict()}")
        if bad:
            measurement.failed += len(bad)
            return
        estimates = np.stack([estimate for _, estimate in published])
        errors = [oracle.rel_l2(self.truth[t], estimates[t]) for t in range(self.BINS)]
        self.errors.setdefault("replay", float(np.mean(errors)))
        offset = 0
        for call in captured:
            system = call["system"]
            size = system.n_timesteps
            truth = self.truth[offset:offset + size]
            measured = truth.reshape(size, n * n) @ np.asarray(system.routing.matrix).T
            chunk = range(offset, offset + size)
            if not (oracle.close(system.link_loads, measured, 1e-12)
                    and oracle.close(system.ingress, truth.sum(axis=2), 1e-12)
                    and oracle.close(system.egress, truth.sum(axis=1), 1e-12)):
                fail(f"{label}: chunk at bin {offset} measured the wrong traffic", chunk)
            prior = np.concatenate([block for _, block in call["prior_stream"].chunks()])
            for t in sorted(set(self.rng.integers(0, size, SAMPLED_BINS_PER_CALL).tolist())):
                # Warm-started IPF stops within tolerance of the fixed point
                # from another side than a cold start: compare to the fixed point.
                if not check_bin(system, t, prior[t], estimates[offset + t],
                                 tolerance=1e-14, max_iterations=5000):
                    fail(f"{label}: bin {offset + t} differs from the oracle", [offset + t])
            offset += size
        if offset != self.BINS:
            fail(f"{label}: estimator saw {offset} bins, the trace has {self.BINS}")
        measurement.failed += len(bad)

    def service_counters(self, replay: int) -> dict:
        fast, status = self.fast_path[replay], self.statuses[replay]
        factor, ipf = fast["factor_cache"], fast["ipf_cache"]
        factor_hits = factor["hits_equal"] + factor["hits_scaled"]
        ipf_hits = ipf["hits_equal"] + ipf["hits_scaled"]
        return {
            "fastpath.factor_hit_ratio": factor_hits / (factor_hits + factor["misses"]),
            "fastpath.ipf_hit_ratio": ipf_hits / (ipf_hits + ipf["solved"]),
            "fastpath.warm_solved": ipf["warm_solved"],
            "fastpath.invalidations": factor["invalidations"],
            "binner.records_late": status["records_dropped_late"],
            "binner.records_skipped": status["records_skipped"],
            "rolling.refits": status["prior"]["refits"],
        }

    def cleanup(self) -> None:
        for path in (self.trace_path, getattr(self, "sink", None)):
            if path is not None and path.exists():
                path.unlink()


class ChunkTimedSource:
    """Wraps a flow source; times each chunk from hand-over to the next request.

    The service pulls the next batch only after handling the last one (a
    closed loop), so the time between handing a batch over and the next
    request is the service's handling time of that batch.  Batches whose
    handling published bins closed one or more chunks; each gets an equal
    share of that interval.
    """

    def __init__(self, inner, chunk_bins: int):
        self.inner = inner
        self.chunk_bins = chunk_bins
        self.service = None
        self.chunk_seconds: list[float] = []

    @property
    def nodes(self):
        return self.inner.nodes

    def batches(self):
        for batch in self.inner.batches():
            before = self.service.status.bins_published
            handed_over = time.perf_counter()
            yield batch
            elapsed = time.perf_counter() - handed_over
            chunks = -(-(self.service.status.bins_published - before) // self.chunk_bins)
            if chunks:
                self.chunk_seconds.extend([elapsed / chunks] * chunks)


def write_trace(path: Path, nodes, rng: np.random.Generator, *, bins: int, records_per_pair: int,
                bin_seconds: float, forward: float) -> np.ndarray:
    """Write a seeded IC-model flow trace as CSV; return its per-bin OD matrices.

    Traffic follows the independent-connection model with forward fraction
    ``forward``: ``X_ij(t) = f A_i(t) P_j + (1 - f) A_j(t) P_i``, with
    lognormal node activity on a daily cycle, lognormal preferences and 10%
    lognormal per-entry noise (so no two bins are exact rescalings of each
    other, as in a real feed); ``rng`` draws the activity noise, the
    per-entry noise and the records.  Each OD volume is split over
    ``records_per_pair`` records at uniform times inside its bin, shuffled
    within the bin.  The returned matrices are the sums of the written
    volumes, read back exactly as the program parses them.
    """
    n = len(nodes)
    names = np.asarray(nodes)
    # The network's shape (node sizes, preferences, daily phases) is fixed, so
    # every seed replays the same kind of traffic; the seed draws the rest.
    shape = np.random.default_rng(2006)
    base = shape.lognormal(0.0, 1.0, n) * 1e7
    preference = shape.lognormal(0.0, 0.8, n)
    preference /= preference.sum()
    day = 288.0
    phase = shape.uniform(0, 2 * np.pi, n)
    t = np.arange(bins)[:, None]
    activity = base * (1.3 + np.sin(2 * np.pi * t / day + phase)) * rng.lognormal(0.0, 0.05, (bins, n))
    truth = np.empty((bins, n, n))
    src = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("time,src,dst,bytes\n")
        for b in range(bins):
            matrix = (forward * activity[b][:, None] * preference[None, :]
                      + (1 - forward) * preference[:, None] * activity[b][None, :])
            matrix *= rng.lognormal(0.0, 0.1, (n, n))
            shares = rng.dirichlet(np.ones(records_per_pair), size=n * n)
            volumes = (matrix.reshape(-1)[:, None] * shares).reshape(-1)
            times = (b + rng.uniform(0.0, 1.0, volumes.shape[0])) * bin_seconds
            order = rng.permutation(volumes.shape[0])
            pair = np.repeat(np.arange(n * n), records_per_pair)[order]
            handle.write("".join(
                f"{time_!r},{s},{d},{v!r}\n"
                for time_, s, d, v in zip(times[order].tolist(), names[src[pair]].tolist(),
                                          names[dst[pair]].tolist(), volumes[order].tolist())
            ))
            truth[b] = np.bincount(pair, weights=volumes[order], minlength=n * n).reshape(n, n)
    return truth


WORKLOADS = {cls.name: cls for cls in (EstimateFullscale, ServeReplay, SweepCalibration)}

