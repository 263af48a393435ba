"""Tests for the parallel grid sweep (ScenarioRunner.sweep with jobs > 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scenarios import Scenario, ScenarioRunner
from repro.scenarios.runner import _run_sweep_batch

SMALL = {"bins_per_week": 36, "max_bins": 4}


def _run_one_cell(baseline, scenario, key):
    """Run a single cell through the worker batch entry point."""
    outcomes, trace_events = _run_sweep_batch(
        (baseline, None, True, [(0, scenario, key)], None)
    )
    assert trace_events == []  # untraced parent -> no span events shipped back
    [(_, result, message)] = outcomes
    return result, message


class TestRunSweepBatch:
    def test_success_returns_result(self):
        scenario = Scenario(dataset="geant", prior="stable_f", **SMALL)
        result, message = _run_one_cell("gravity", scenario, None)
        assert message is None
        assert result.errors.shape[0] == 4

    def test_failure_returns_message(self):
        # The stable-f closed form is singular at f = 0.5, so this cell fails.
        scenario = Scenario(
            dataset="geant", prior="stable_f", measured_forward_fraction=0.5, **SMALL
        )
        result, message = _run_one_cell("gravity", scenario, None)
        assert result is None
        assert "ValidationError" in message

    def test_batch_preserves_indices_and_shares_state(self):
        cells = [
            Scenario(dataset="geant", prior=prior, n_weeks=2, target_week=1, **SMALL)
            for prior in ("gravity", "stable_f")
        ]
        items = [(index + 5, cell, None) for index, cell in enumerate(cells)]
        outcomes, _ = _run_sweep_batch(("gravity", None, True, items, None))
        assert [index for index, _, _ in outcomes] == [5, 6]
        assert all(message is None for _, _, message in outcomes)


class TestParallelSweep:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        kwargs = dict(
            priors=("stable_f", "gravity"),
            datasets=("geant",),
            base=dict(SMALL),
        )
        serial = ScenarioRunner().sweep(jobs=1, **kwargs)
        parallel = ScenarioRunner().sweep(jobs=2, **kwargs)
        return serial, parallel

    def test_parallel_matches_serial_bitwise(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert len(serial.results) == len(parallel.results) == 2
        assert not serial.failures and not parallel.failures
        for left, right in zip(serial.results, parallel.results):
            assert left.scenario == right.scenario
            assert np.array_equal(left.errors, right.errors)
            assert np.array_equal(left.prior_errors, right.prior_errors)

    def test_grid_order_is_preserved(self, serial_and_parallel):
        _, parallel = serial_and_parallel
        labels = [result.scenario.prior for result in parallel.results]
        assert labels == ["stable_f", "gravity"]

    def test_jobs_none_uses_cpu_count(self):
        result = ScenarioRunner().sweep(
            priors=("stable_f",),
            datasets=("geant",),
            base=dict(SMALL),
            jobs=None,
        )
        assert len(result.results) == 1

    def test_failures_are_collected_not_raised(self):
        result = ScenarioRunner().sweep(
            priors=("stable_f", "gravity"),
            datasets=("geant",),
            base=dict(SMALL),
            measured_forward_fraction=0.5,
            jobs=2,
        )
        # The stable-f cell dies on the singular f = 0.5; gravity survives.
        assert len(result.results) == 1
        assert len(result.failures) == 1
        assert result.failures[0][0].prior == "stable_f"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioRunner().sweep(priors=(), datasets=("geant",), jobs=2)


class TestPreSynthesizedDatasets:
    """The parent synthesizes each dataset column once and ships it to workers."""

    def test_run_uses_shipped_dataset(self):
        # Ship a dataset generated with a *different* seed than the scenario
        # names; if run() honoured the scenario's own synthesis path instead
        # of the shipped arrays, the errors would match the default seed.
        from repro.synthesis.datasets import load_dataset

        scenario = Scenario(dataset="geant", prior="stable_f", n_weeks=2, **SMALL)
        default_result = ScenarioRunner().run(scenario)
        shipped = load_dataset("geant", n_weeks=2, bins_per_week=36, seed=777)
        shipped_result = ScenarioRunner().run(scenario, dataset=shipped)
        assert not np.allclose(default_result.errors, shipped_result.errors)

    def test_run_rejects_too_short_shipped_dataset(self):
        from repro.synthesis.datasets import load_dataset

        scenario = Scenario(
            dataset="geant", prior="stable_f", calibration_week=1, target_week=2, **SMALL
        )
        shipped = load_dataset("geant", n_weeks=1, bins_per_week=36)
        with pytest.raises(ValidationError, match="weeks"):
            ScenarioRunner().run(scenario, dataset=shipped)

    def test_worker_cell_prefers_shipped_dataset(self):
        from repro.scenarios.runner import _init_sweep_worker
        from repro.synthesis.datasets import load_dataset

        cell = Scenario(dataset="geant", prior="stable_f", n_weeks=2, **SMALL)
        key = ScenarioRunner._dataset_key(cell)
        assert key == ("geant", 2, 36, False, None)
        shipped = load_dataset("geant", n_weeks=2, bins_per_week=36, seed=777)
        _init_sweep_worker({key: shipped})
        try:
            result, message = _run_one_cell("gravity", cell, key)
            assert message is None
            baseline, _ = _run_one_cell("gravity", cell, None)
            assert not np.allclose(result.errors, baseline.errors)
        finally:
            _init_sweep_worker({})

    def test_streaming_cells_ship_plan_keys(self):
        cell = Scenario(dataset="geant", prior="stable_f", n_weeks=2, stream=True, **SMALL)
        key = ScenarioRunner._dataset_key(cell)
        assert key is not None and key[0] == "stream"
        # Streamed and in-memory columns must never collide in the worker map.
        assert key != ScenarioRunner._dataset_key(cell.replace(stream=False))
        assert ScenarioRunner._dataset_key(cell.replace(n_weeks=None)) is None

    def test_parallel_sweep_ships_column_synthesis(self):
        # End to end: a 2-prior column over one dataset, two workers.  The
        # results must be identical to the serial (cache-backed) sweep.
        kwargs = dict(priors=("stable_f", "gravity"), datasets=("geant",), base=dict(SMALL))
        serial = ScenarioRunner().sweep(jobs=1, **kwargs)
        parallel = ScenarioRunner().sweep(jobs=2, **kwargs)
        assert len(parallel.results) == len(serial.results) == 2
        for serial_cell, parallel_cell in zip(serial.results, parallel.results):
            assert np.array_equal(serial_cell.errors, parallel_cell.errors)


class TestSharedMemoryShipping:
    """Dataset columns travel through multiprocessing.shared_memory."""

    def test_export_attach_roundtrip_is_bitwise(self):
        from repro.scenarios.runner import (
            _attach_shm_array,
            _export_datasets_shm,
            _release_shm_blocks,
        )
        from repro.synthesis.datasets import load_dataset

        data = load_dataset("geant", n_weeks=2, bins_per_week=36)
        key = ("geant", 2, 36, False, None)
        payload, blocks = _export_datasets_shm({key: data})
        assert payload is not None and blocks
        segments = []
        try:
            kind, shell, weeks_meta = payload[key]
            assert kind == "cube"
            assert shell.weeks == [] and len(weeks_meta) == 2
            for (name, shape, bin_seconds), week in zip(weeks_meta, data.weeks):
                values, segment = _attach_shm_array(name, shape)
                segments.append(segment)
                assert bin_seconds == week.bin_seconds
                assert np.array_equal(values, week.values)
        finally:
            _release_shm_blocks(segments, unlink=False)
            _release_shm_blocks(blocks, unlink=True)

    def test_worker_init_reconstructs_datasets_from_shm(self):
        from repro.scenarios.runner import (
            _WORKER_DATASETS,
            _export_datasets_shm,
            _init_sweep_worker,
            _release_shm_blocks,
        )
        from repro.synthesis.datasets import load_dataset

        data = load_dataset("geant", n_weeks=2, bins_per_week=36)
        key = ("geant", 2, 36, False, None)
        payload, blocks = _export_datasets_shm({key: data})
        try:
            _init_sweep_worker({}, payload)
            rebuilt = _WORKER_DATASETS[key]
            assert rebuilt.n_weeks == 2
            assert rebuilt.topology.nodes == data.topology.nodes
            for original, mapped in zip(data.weeks, rebuilt.weeks):
                assert np.array_equal(original.values, mapped.values)
                assert original.bin_seconds == mapped.bin_seconds
        finally:
            _init_sweep_worker({})
            _release_shm_blocks(blocks, unlink=True)

    def test_sweep_falls_back_to_pickle_when_shm_unavailable(self, monkeypatch):
        import repro.scenarios.runner as runner_module

        monkeypatch.setattr(runner_module, "_export_datasets_shm", lambda datasets: (None, []))
        kwargs = dict(priors=("stable_f", "gravity"), datasets=("geant",), base=dict(SMALL))
        serial = ScenarioRunner().sweep(jobs=1, **kwargs)
        parallel = ScenarioRunner().sweep(jobs=2, **kwargs)
        assert not parallel.failures
        for serial_cell, parallel_cell in zip(serial.results, parallel.results):
            assert np.array_equal(serial_cell.errors, parallel_cell.errors)


class TestWorkerBlasThreads:
    def test_sweep_pool_workers_run_single_threaded_blas(self, monkeypatch):
        import repro.scenarios.runner as runner_module
        from repro._blas import blas_thread_counts

        if not blas_thread_counts():
            pytest.skip("no OpenBLAS pool visible in this process")
        seen = []

        class ProbedPool(runner_module.ProcessPoolExecutor):
            def __enter__(self):
                pool = super().__enter__()
                seen.append(pool.submit(blas_thread_counts).result())
                return pool

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", ProbedPool)
        result = ScenarioRunner().sweep(
            priors=("stable_f", "gravity"), datasets=("geant",), base=dict(SMALL), jobs=2
        )
        assert len(result.results) == 2
        [counts] = seen
        assert counts and all(count <= 1 for count in counts.values())

    def test_spawned_workers_start_with_single_threaded_blas(self, monkeypatch):
        import repro.scenarios.executors as executors
        from repro.scenarios import SpawnedWorkers

        launched = []

        def no_launch(command, **kwargs):
            launched.append(kwargs["env"])
            raise OSError("not launched")

        monkeypatch.setattr(executors.subprocess, "Popen", no_launch)
        with pytest.raises(OSError):
            SpawnedWorkers(1)
        [env] = launched
        assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
