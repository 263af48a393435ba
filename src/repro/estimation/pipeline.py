"""End-to-end traffic-matrix estimation pipeline.

:class:`TMEstimator` wires together the three steps of the blueprint in
Section 6 — prior, least-squares refinement against the link counts, and
iterative proportional fitting against the marginals — and evaluates the
result against ground truth.  The Figure 11-13 experiments are thin wrappers
around this class that only differ in which prior they feed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import percent_improvement, rel_l2_temporal_error
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ValidationError
from repro.estimation.fastpath import FactorizationCache, IPFSolveCache
from repro.estimation.ipf import iterative_proportional_fitting_series
from repro.estimation.linear_system import LinkLoadSystem
from repro.estimation.tomogravity import tomogravity_estimate
from repro.obs import get_metrics, get_tracer
from repro.estimation.entropy import entropy_estimate
from repro.registry import register_estimator

__all__ = [
    "EstimationResult",
    "TMEstimator",
    "SPARSE_SYSTEM_MIN_NODES",
    "make_tomogravity_estimator",
    "make_entropy_estimator",
]

# Network size at which the auto mode switches the tomogravity refinement to
# the sparse stacked operator.  The paper-scale topologies (22/23 PoPs) stay
# on the historical dense path, whose numbers are locked by the bit-identity
# hashes; beyond this the dense (n_links + 2n) x n^2 operator and its SVD
# dominate memory and the sparse path wins.
SPARSE_SYSTEM_MIN_NODES = 48


@dataclass
class EstimationResult:
    """Outcome of running the estimation pipeline on one measurement series.

    Attributes
    ----------
    estimate:
        The estimated traffic-matrix series.  ``None`` for streamed runs
        that chose not to materialise the estimate (the per-bin errors are
        the deliverable there).
    prior:
        The prior series the pipeline started from (``None`` for streamed
        runs, which never materialise the prior).
    errors:
        Relative L2 temporal error of the estimate per bin (only when ground
        truth was supplied, otherwise ``None``).
    prior_errors:
        Error of the raw prior per bin, same caveat.
    """

    estimate: TrafficMatrixSeries | None
    prior: TrafficMatrixSeries | None
    errors: np.ndarray | None = None
    prior_errors: np.ndarray | None = None

    @property
    def mean_error(self) -> float:
        """Mean per-bin error of the refined estimate."""
        if self.errors is None:
            raise ValidationError("ground truth was not supplied; errors are unavailable")
        return float(np.mean(self.errors))

    def improvement_over(self, other: "EstimationResult") -> np.ndarray:
        """Per-bin percentage improvement of this estimate over ``other``."""
        if self.errors is None or other.errors is None:
            raise ValidationError("both results need ground-truth errors to compare")
        return percent_improvement(other.errors, self.errors)


class TMEstimator:
    """Three-step traffic-matrix estimator (prior → least squares → IPF).

    Parameters
    ----------
    method:
        Refinement method for step 2: ``"tomogravity"`` (default, weighted
        least squares) or ``"entropy"`` (KL-divergence regularised).
    use_marginals_in_refinement:
        Whether the ingress/egress rows are appended to the routing matrix in
        the least-squares step (the augmented system).  The paper's ingress
        and egress counts are always available, so this defaults to true.
    ipf_iterations:
        Iteration cap for the proportional-fitting step.
    use_sparse_system:
        Whether the least-squares step runs against the ``scipy.sparse``
        stacked operator instead of densifying the routing matrix.  ``None``
        (the default) chooses automatically: sparse for tomogravity on
        networks of :data:`SPARSE_SYSTEM_MIN_NODES` or more PoPs, dense
        otherwise (the historical, bit-stable path for the paper-scale
        topologies).  The entropy method always densifies.
    fast_path:
        Enable the incremental fast path (:mod:`repro.estimation.fastpath`):
        the tomogravity factorisation is cached per (operator, prior
        version) and reused bit-identically for bins whose weights repeat,
        reused within ≤1e-10 for bins that are an exact rescaling of the
        cached base, and recomputed exactly otherwise; the IPF stage gains
        the matching equal/scaled solve memo.  Off by default so batch
        reproduction (fig11–13) stays byte-identical to the historical
        path.  Dense and sparse operators go through the same cache.
    warm_start:
        Seed each bin's iterative solve (IPF scale state, entropy L-BFGS-B
        start) from the previous bin's solution.  ``None`` (default)
        follows ``fast_path``.  Warm-started solves agree with cold ones
        up to the solver's own stopping tolerance rather than bitwise, so
        batch reproduction keeps this off.
    """

    def __init__(
        self,
        *,
        method: str = "tomogravity",
        use_marginals_in_refinement: bool = True,
        ipf_iterations: int = 50,
        use_sparse_system: bool | None = None,
        fast_path: bool = False,
        warm_start: bool | None = None,
    ):
        if method not in ("tomogravity", "entropy"):
            raise ValidationError(f"unknown refinement method {method!r}")
        self._method = method
        self._augment = bool(use_marginals_in_refinement)
        self._ipf_iterations = int(ipf_iterations)
        self._use_sparse = use_sparse_system
        self._fast_path = bool(fast_path)
        self._warm_start = self._fast_path if warm_start is None else bool(warm_start)
        self._factor_cache = FactorizationCache() if self._fast_path else None
        self._ipf_cache = IPFSolveCache() if self._fast_path else None
        self._entropy_seed: np.ndarray | None = None

    @property
    def fast_path_enabled(self) -> bool:
        return self._fast_path

    @property
    def warm_start_enabled(self) -> bool:
        return self._warm_start

    def invalidate_fast_path(self) -> None:
        """Drop every cached factorisation/solution (e.g. after a prior swap)."""
        if self._factor_cache is not None:
            self._factor_cache.invalidate()
        if self._ipf_cache is not None:
            self._ipf_cache.invalidate()
        self._entropy_seed = None

    def fast_path_stats(self) -> dict | None:
        """Cumulative cache statistics, or ``None`` when the fast path is off."""
        if not self._fast_path:
            return None
        return {
            "enabled": True,
            "warm_start": self._warm_start,
            "factor_cache": self._factor_cache.stats(),
            "ipf_cache": self._ipf_cache.stats(),
        }

    def _publish_fast_metrics(self) -> None:
        """Mirror cache totals into the ambient metrics registry."""
        metrics = get_metrics()
        factor = self._factor_cache
        metrics.counter("repro_estimate_factor_cache_hits", mode="equal").set_total(
            float(factor.hits_equal)
        )
        metrics.counter("repro_estimate_factor_cache_hits", mode="scaled").set_total(
            float(factor.hits_scaled)
        )
        metrics.counter("repro_estimate_factor_cache_misses").set_total(float(factor.misses))
        ipf = self._ipf_cache
        metrics.counter("repro_estimate_ipf_cache_hits", mode="equal").set_total(
            float(ipf.hits_equal)
        )
        metrics.counter("repro_estimate_ipf_cache_hits", mode="scaled").set_total(
            float(ipf.hits_scaled)
        )
        metrics.counter("repro_estimate_ipf_cache_misses").set_total(float(ipf.solved))

    def _fast_block(
        self,
        prior_vectors: np.ndarray,
        matrix,
        observed_block: np.ndarray,
        ingress_block: np.ndarray,
        egress_block: np.ndarray,
        n: int,
        *,
        prior_version,
    ) -> np.ndarray:
        """One chunk of bins through the cached fast path.

        Matches the slow path bit-for-bit for equal-weight and recomputed
        bins, and to ≤1e-10 for scaled-tier and warm-started bins.
        """
        if self._method == "tomogravity":
            refined, _ = self._factor_cache.refine(
                prior_vectors, matrix, observed_block, key=prior_version
            )
        else:
            refined = entropy_estimate(
                prior_vectors,
                matrix,
                observed_block,
                warm_start=self._warm_start,
                x0=self._entropy_seed if self._warm_start else None,
            )
            if self._warm_start:
                self._entropy_seed = refined[-1].copy()
        estimates, _, counts = self._ipf_cache.fit(
            refined.reshape(-1, n, n),
            ingress_block,
            egress_block,
            max_iterations=self._ipf_iterations,
            warm_start=self._warm_start,
        )
        if counts.size:
            histogram = get_metrics().histogram("repro_estimate_warm_start_iterations")
            for count in counts:
                histogram.observe(float(count))
        self._publish_fast_metrics()
        return estimates

    def _resolve_sparse(self, system: LinkLoadSystem) -> bool:
        """Whether this run uses the sparse stacked operator."""
        if self._method != "tomogravity":
            return False
        if self._use_sparse is None:
            return system.n_nodes >= SPARSE_SYSTEM_MIN_NODES
        return bool(self._use_sparse)

    def _observation_system(self, system: LinkLoadSystem):
        """The ``(B, Z)`` pair the refinement step solves against."""
        as_sparse = self._resolve_sparse(system)
        if self._augment:
            return system.augmented_system(as_sparse=as_sparse)
        matrix = system.routing.sparse if as_sparse else system.routing.matrix
        return matrix, system.link_loads

    def estimate(
        self,
        system: LinkLoadSystem,
        prior: TrafficMatrixSeries,
        *,
        ground_truth: TrafficMatrixSeries | None = None,
    ) -> EstimationResult:
        """Run the pipeline over every bin of the measurement series.

        Parameters
        ----------
        system:
            The observed link loads, marginals and routing matrix.
        prior:
            Prior traffic-matrix series (one matrix per measurement bin).
        ground_truth:
            When provided, per-bin errors of both the prior and the estimate
            are computed and stored on the result.
        """
        if prior.n_timesteps != system.n_timesteps:
            raise ValidationError(
                f"prior has {prior.n_timesteps} bins but the measurements have {system.n_timesteps}"
            )
        if prior.n_nodes != system.n_nodes:
            raise ValidationError(
                f"prior has {prior.n_nodes} nodes but the routing matrix has {system.n_nodes}"
            )
        n = system.n_nodes
        matrix, observations = self._observation_system(system)

        prior_vectors = prior.to_vectors()
        if self._fast_path:
            estimates = self._fast_block(
                prior_vectors,
                matrix,
                observations,
                system.ingress,
                system.egress,
                n,
                prior_version=0,
            )
        else:
            if self._method == "tomogravity":
                refined = tomogravity_estimate(prior_vectors, matrix, observations)
            else:
                refined = entropy_estimate(prior_vectors, matrix, observations)
            estimates = iterative_proportional_fitting_series(
                refined.reshape(system.n_timesteps, n, n),
                system.ingress,
                system.egress,
                max_iterations=self._ipf_iterations,
            )
        estimate_series = TrafficMatrixSeries(
            estimates, prior.nodes, bin_seconds=prior.bin_seconds
        )
        errors = prior_errors = None
        if ground_truth is not None:
            errors = rel_l2_temporal_error(ground_truth, estimate_series)
            prior_errors = rel_l2_temporal_error(ground_truth, prior)
        return EstimationResult(
            estimate=estimate_series, prior=prior, errors=errors, prior_errors=prior_errors
        )

    def estimate_stream(
        self,
        system: LinkLoadSystem,
        prior_stream,
        *,
        ground_truth_stream=None,
        collect_estimate: bool = False,
        chunk_sink=None,
        prior_version: int = 0,
    ) -> EstimationResult:
        """Run the pipeline chunk by chunk over a streamed prior.

        Every stage of the pipeline is per-bin (the batched tomogravity,
        entropy and IPF drivers carry no state across bins), so feeding it
        ``(T_chunk, n, n)`` blocks produces exactly the numbers of the
        materialised :meth:`estimate` while holding only one chunk of
        ``n^2``-sized data — the working-set drops from the refinement's
        ``O(T n_obs n^2)`` stacks to ``O(chunk n_obs n^2)``.

        Parameters
        ----------
        system:
            The observed link loads, marginals and routing matrix.
        prior_stream:
            Prior traffic as a cube or :class:`repro.streaming.ChunkStream`
            covering the measurement bins.
        ground_truth_stream:
            Optional ground truth (cube or stream, same chunking); enables
            the per-bin error series on the result.
        collect_estimate:
            Materialise the estimated series on the result (costs the
            ``O(T n^2)`` cube the streaming path otherwise avoids).
        chunk_sink:
            Optional callable receiving every ``(t0, estimates_block)`` as it
            is produced — the out-of-core alternative to
            ``collect_estimate``: spill writers persist the blocks (e.g. as
            ``.npz`` shards) without this process ever holding the cube.
        prior_version:
            Opaque token identifying the prior model these bins were drawn
            from.  Only consulted when ``fast_path`` is on: a version change
            atomically invalidates the cached factorisation, which is how
            the ingest service's rolling prior swaps keep the cache honest.
        """
        from repro.streaming import as_chunk_stream, zip_chunks

        prior_stream = as_chunk_stream(prior_stream)
        if prior_stream.n_bins != system.n_timesteps:
            raise ValidationError(
                f"prior has {prior_stream.n_bins} bins but the measurements have {system.n_timesteps}"
            )
        if prior_stream.n_nodes != system.n_nodes:
            raise ValidationError(
                f"prior has {prior_stream.n_nodes} nodes but the routing matrix has {system.n_nodes}"
            )
        n = system.n_nodes
        t = system.n_timesteps
        matrix, observations = self._observation_system(system)

        streams = [prior_stream]
        if ground_truth_stream is not None:
            streams.append(
                as_chunk_stream(ground_truth_stream, chunk_bins=prior_stream.chunk_bins)
            )
        errors = np.empty(t) if ground_truth_stream is not None else None
        prior_errors = np.empty(t) if ground_truth_stream is not None else None
        collected = np.empty((t, n, n)) if collect_estimate else None
        tracer = get_tracer()
        for t0, blocks in zip_chunks(*streams):
            prior_block = blocks[0]
            with tracer.span("estimate_chunk", t0=t0, bins=int(prior_block.shape[0])):
                stop = t0 + prior_block.shape[0]
                prior_vectors = prior_block.reshape(prior_block.shape[0], n * n)
                if self._fast_path:
                    estimates = self._fast_block(
                        prior_vectors,
                        matrix,
                        observations[t0:stop],
                        system.ingress[t0:stop],
                        system.egress[t0:stop],
                        n,
                        prior_version=prior_version,
                    )
                else:
                    if self._method == "tomogravity":
                        refined = tomogravity_estimate(prior_vectors, matrix, observations[t0:stop])
                    else:
                        refined = entropy_estimate(prior_vectors, matrix, observations[t0:stop])
                    estimates = iterative_proportional_fitting_series(
                        refined.reshape(-1, n, n),
                        system.ingress[t0:stop],
                        system.egress[t0:stop],
                        max_iterations=self._ipf_iterations,
                    )
                if collected is not None:
                    collected[t0:stop] = estimates
                if chunk_sink is not None:
                    chunk_sink(t0, estimates)
                if errors is not None:
                    truth_block = blocks[1]
                    errors[t0:stop] = rel_l2_temporal_error(truth_block, estimates)
                    prior_errors[t0:stop] = rel_l2_temporal_error(truth_block, prior_block)
        estimate_series = (
            TrafficMatrixSeries(collected, prior_stream.nodes, bin_seconds=prior_stream.bin_seconds)
            if collected is not None
            else None
        )
        return EstimationResult(
            estimate=estimate_series, prior=None, errors=errors, prior_errors=prior_errors
        )

    def compare_priors(
        self,
        system: LinkLoadSystem,
        priors: dict[str, TrafficMatrixSeries],
        ground_truth: TrafficMatrixSeries,
    ) -> dict[str, EstimationResult]:
        """Run the same pipeline once per named prior and return all results."""
        return {
            name: self.estimate(system, prior, ground_truth=ground_truth)
            for name, prior in priors.items()
        }


@register_estimator(
    "tomogravity",
    description="Weighted least-squares refinement against link counts, then IPF",
)
def make_tomogravity_estimator(**kwargs) -> TMEstimator:
    """Factory for the default tomogravity-refinement estimator."""
    return TMEstimator(method="tomogravity", **kwargs)


@register_estimator(
    "entropy",
    description="KL-divergence regularised refinement against link counts, then IPF",
)
def make_entropy_estimator(**kwargs) -> TMEstimator:
    """Factory for the entropy-regularised estimator."""
    return TMEstimator(method="entropy", **kwargs)
