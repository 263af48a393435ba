"""Incremental fast path for per-bin estimation linear algebra.

The batch pipeline re-runs the full tomogravity gram/Cholesky chain and a
cold IPF solve for every bin, even though a live feed's bins are strongly
related in time: between :class:`~repro.ingest.rolling.ActivePrior` swaps
the prior *model* is fixed, and for the gravity family the prior's spatial
shape is fixed too — only its scale follows the total traffic.  This module
exploits that temporal structure without changing any published number
beyond documented tolerances:

* :class:`FactorizationCache` caches the Cholesky factor ``L₀`` of the
  reduced weighted gram ``B_S W₀ B_Sᵀ`` (``B_S``, ``r = rank B``
  independent rows of the operator; see
  :mod:`repro.estimation.tomogravity`) keyed by (operator identity, prior
  version).  Per bin it classifies the weight vector
  against the cached base:

  - **equal** (bitwise): the cached factor reproduces the per-bin oracle
    *bit for bit* (same operands, same operation order), so per-bin
    tomogravity keeps only its solves and skips forming and factorising
    the gram;
  - **scaled** (``w_t = s_t · w₀`` within ``rtol``): the weighted gram is
    ``G_t = s_t · G₀``, its inverse rescales by ``1/s_t``, and the scalars
    cancel in ``W_t B_Sᵀ G_t⁻¹ = W₀ B_Sᵀ G₀⁻¹`` — one factorisation serves
    every bin of the rescaled family, bit-close (≲1e-12 relative, asserted
    ≤1e-10 in the tests/bench) to the per-bin oracle;
  - **miss**: the bin runs the exact stacked path
    (:func:`~repro.estimation.tomogravity._refine_chunk` on the miss
    subset — bit-identical to the slow path) and the base is re-anchored
    to the newest miss, so a drifting prior degrades to the exact path
    plus one cheap O(n_od) structure check per bin.

* :class:`IPFSolveCache` applies the same equal/scaled memoisation to the
  proportional-fitting stage (IPF's fixed point is ``D₁ seed D₂``; equal
  inputs reuse the cached solution bitwise, an exactly rescaled problem
  rescales the cached solution) and optionally **warm-starts** the
  remaining bins: the previous solve's accumulated row/column scale
  products pre-scale the next seed, which leaves the fixed point unchanged
  (diagonal pre-scaling preserves the seed's cross-ratios) but drops the
  iteration count when consecutive bins are similar.

Both caches are owned by :class:`~repro.estimation.pipeline.TMEstimator`
behind its ``fast_path=`` / ``warm_start=`` knobs.
"""

from __future__ import annotations

import numpy as np

from repro.estimation.ipf import iterative_proportional_fitting_series
from repro.estimation.tomogravity import (
    _cho_solve,
    _cholesky,
    _project,
    _refine_chunk,
    _check_inputs,
    _row_basis,
    _weighted_grams,
    _weights,
)

__all__ = ["FactorizationCache", "IPFSolveCache", "classify_scaled_family"]

# Relative tolerance of the structure detector: a bin joins the scaled tier
# only when its vector is a scalar multiple of the base to ~float accuracy
# (rank-1 families built by rescaling a fixed shape land around 1e-14; any
# genuine shape drift is orders of magnitude larger and falls back to the
# exact path).
STRUCTURE_RTOL = 1e-12


def classify_scaled_family(
    vectors: np.ndarray, base: np.ndarray, *, rtol: float = STRUCTURE_RTOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify each row of ``vectors`` against ``base``.

    Returns ``(equal, scaled, scales)`` where ``equal[t]`` marks rows that
    are bitwise identical to ``base``, ``scaled[t]`` marks rows equal to
    ``scales[t] * base`` within ``rtol`` (relative to the row's own
    magnitude) with a strictly positive scale, and ``scales`` holds the
    least-squares scale of every row onto ``base``.  ``equal`` and
    ``scaled`` are disjoint; rows matching neither are structure misses.
    """
    vectors = np.asarray(vectors)
    base = np.asarray(base)
    equal = np.all(vectors == base, axis=1)
    denom = float(base @ base)
    if denom <= 0.0:
        scales = np.zeros(vectors.shape[0])
        return equal, np.zeros(vectors.shape[0], dtype=bool), scales
    scales = (vectors @ base) / denom
    residual = np.abs(vectors - scales[:, np.newaxis] * base).max(axis=1)
    magnitude = np.abs(vectors).max(axis=1)
    scaled = (~equal) & (scales > 0.0) & (residual <= rtol * np.maximum(magnitude, 1e-300))
    return equal, scaled, scales


class FactorizationCache:
    """Cached tomogravity factorisation keyed by (operator, prior version).

    The cache holds one *base*: the weight vector of the most recent
    structure miss plus the operator's row basis and the Cholesky factor
    of ``B_S W₀ B_Sᵀ`` built from it (and, once the scaled tier is first
    hit, the explicit operator ``G₀⁻¹ B_S W₀``).  :meth:`refine` classifies
    every bin of a chunk against the base (see module docstring) and
    dispatches each tier accordingly.
    A different operator object or a different ``key`` (the prior version)
    invalidates the whole entry — the atomic-invalidation contract the
    ingest service's prior swaps rely on.  The operator is recognised by
    identity only, so it must not be edited in place between calls; the
    pipeline passes the frozen ``RoutingMatrix.augmented_operator()``
    (dense or ``scipy.sparse``; both run the same kernel).
    """

    def __init__(self, *, rtol: float = STRUCTURE_RTOL):
        self._rtol = float(rtol)
        self._matrix = None
        self._key = None
        self._weights0: np.ndarray | None = None
        self._basis0 = None
        self._factor0: np.ndarray | None = None
        self._scaled0: np.ndarray | None = None
        self.hits_equal = 0
        self.hits_scaled = 0
        self.misses = 0
        self.invalidations = 0

    def invalidate(self) -> None:
        """Drop the cached factorisation (e.g. on a prior swap)."""
        if self._weights0 is not None:
            self.invalidations += 1
        self._matrix = None
        self._key = None
        self._weights0 = None
        self._basis0 = None
        self._factor0 = None
        self._scaled0 = None

    def stats(self) -> dict:
        return {
            "hits_equal": self.hits_equal,
            "hits_scaled": self.hits_scaled,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def _anchor(self, matrix, weights: np.ndarray, key) -> None:
        """Rebuild the base factorisation from one bin's weight vector.

        The factor comes from ``_refine_chunk``'s own helpers on a one-bin
        stack — same row basis, same gram slice, same Cholesky slice — and
        the equal tier finishes with its ``_project``, which is what makes
        that tier bit-identical to the slow path.
        """
        self._basis0 = _row_basis(matrix)
        self._factor0 = _cholesky(_weighted_grams(self._basis0, weights[np.newaxis]))[0]
        self._scaled0 = None
        self._matrix = matrix
        self._key = key
        self._weights0 = weights.copy()

    def _scaled_operator(self) -> np.ndarray:
        """``G₀⁻¹ B_S W₀`` (``r × n_od``), built once per base on first use.

        One multi-right-hand-side solve per base, so each scaled-tier chunk
        costs two GEMMs rather than a small triangular solve whose BLAS
        threading overhead dwarfs its arithmetic.
        """
        if self._scaled0 is None:
            solved = _cho_solve(self._factor0, self._basis0.reduced.toarray())
            self._scaled0 = solved * self._weights0
        return self._scaled0

    def refine(
        self,
        priors: np.ndarray,
        matrix,
        observed: np.ndarray,
        *,
        weight_floor: float | None = None,
        key=None,
    ) -> tuple[np.ndarray, dict]:
        """Refine a ``(T, n_od)`` chunk through the cache.

        Equivalent to ``tomogravity_estimate`` on the same chunk:
        bit-identical for equal-tier and miss-tier bins, ≲1e-12 relative
        for scaled-tier bins.  Returns ``(estimates, chunk_stats)``.
        """
        priors = np.asarray(priors, dtype=float)
        observed = np.asarray(observed, dtype=float)
        _check_inputs(priors, observed, weight_floor)
        if self._matrix is not None and (self._matrix is not matrix or self._key != key):
            self.invalidate()

        weights = _weights(priors, weight_floor)
        t = priors.shape[0]
        if self._weights0 is None:
            equal = np.zeros(t, dtype=bool)
            scaled = np.zeros(t, dtype=bool)
        else:
            equal, scaled, _ = classify_scaled_family(weights, self._weights0, rtol=self._rtol)
        # Snapshot the base before a miss re-anchors it.
        basis0, factor0, weights0 = self._basis0, self._factor0, self._weights0
        scaled0 = self._scaled_operator() if scaled.any() else None

        estimates = np.empty_like(priors)
        miss = np.flatnonzero(~(equal | scaled))
        if miss.size:
            # Exact stacked path on the miss subset — the slow path's own
            # kernel, so these bins match it bit for bit — then re-anchor
            # the base to the newest miss so a step change re-establishes
            # caching from the next bin on.
            estimates[miss] = _refine_chunk(priors[miss], matrix, observed[miss], weight_floor)
            self._anchor(matrix, weights[miss[-1]], key)
        if factor0 is not None:
            hit_equal = np.flatnonzero(equal)
            if hit_equal.size:
                factors = np.broadcast_to(factor0, (hit_equal.size, *factor0.shape))
                projected = _project(basis0, factors, weights0, priors[hit_equal], observed[hit_equal])
                estimates[hit_equal] = np.clip(projected, 0.0, None)
            hit_scaled = np.flatnonzero(scaled)
            if hit_scaled.size:
                # w_t = s_t w₀ makes G_t = s_t G₀ and G_t⁻¹ = G₀⁻¹ / s_t, so
                # the scalars cancel in W_t B_Sᵀ G_t⁻¹ and the base operator
                # serves the whole rescaled family.
                residuals = (observed[hit_scaled] @ basis0.projector.T
                             - (basis0.reduced @ priors[hit_scaled].T).T)
                corrections = residuals @ scaled0
                estimates[hit_scaled] = np.clip(priors[hit_scaled] + corrections, 0.0, None)

        chunk = {
            "hits_equal": int(equal.sum()),
            "hits_scaled": int(scaled.sum()),
            "misses": int(miss.size),
        }
        self.hits_equal += chunk["hits_equal"]
        self.hits_scaled += chunk["hits_scaled"]
        self.misses += chunk["misses"]
        return estimates, chunk


class IPFSolveCache:
    """Equal/scaled memoisation plus warm starts for the batched IPF stage.

    The base is the last *cold-solved* bin (a warm-started solve is never
    anchored, so equal-tier replays stay bit-identical to the slow path's
    cold solve of the same inputs).  The scaled tier additionally requires
    the base to be ``safe``: non-zero marginals and no empty-but-needed
    row/column reseeding, because the uniform reseeding constant does not
    rescale with the problem.
    """

    def __init__(self, *, rtol: float = STRUCTURE_RTOL):
        self._rtol = float(rtol)
        self._seed0: np.ndarray | None = None
        self._rows0: np.ndarray | None = None
        self._cols0: np.ndarray | None = None
        self._solution0: np.ndarray | None = None
        self._safe = False
        self._warm_row: np.ndarray | None = None
        self._warm_col: np.ndarray | None = None
        self.hits_equal = 0
        self.hits_scaled = 0
        self.solved = 0
        self.warm_solved = 0

    def invalidate(self) -> None:
        self._seed0 = None
        self._rows0 = None
        self._cols0 = None
        self._solution0 = None
        self._safe = False
        self._warm_row = None
        self._warm_col = None

    def stats(self) -> dict:
        return {
            "hits_equal": self.hits_equal,
            "hits_scaled": self.hits_scaled,
            "solved": self.solved,
            "warm_solved": self.warm_solved,
        }

    def _classify(self, seeds_flat, rows, cols):
        t = seeds_flat.shape[0]
        if self._seed0 is None:
            zeros = np.zeros(t, dtype=bool)
            return zeros, zeros, np.zeros(t)
        eq_seed, sc_seed, scales = classify_scaled_family(
            seeds_flat, self._seed0, rtol=self._rtol
        )
        eq_rows, sc_rows, _ = classify_scaled_family(rows, self._rows0, rtol=self._rtol)
        eq_cols, sc_cols, _ = classify_scaled_family(cols, self._cols0, rtol=self._rtol)
        equal = eq_seed & eq_rows & eq_cols
        # The scaled tier allows any component to be bitwise equal when the
        # overall scale is 1 — require a consistent scale across all three.
        row_scales = np.where(eq_rows, 1.0, 0.0)
        if self._rows0 is not None:
            denom = float(self._rows0 @ self._rows0)
            if denom > 0:
                row_scales = (rows @ self._rows0) / denom
        consistent = (
            np.abs(row_scales - scales) <= self._rtol * np.maximum(np.abs(scales), 1e-300)
        )
        scaled = (
            (~equal)
            & self._safe
            & (sc_seed | eq_seed)
            & (sc_rows | eq_rows)
            & (sc_cols | eq_cols)
            & (scales > 0)
            & consistent
        )
        return equal, scaled, scales

    @staticmethod
    def _base_safe(seed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> bool:
        """Whether the scaled tier may extrapolate from this base bin."""
        if rows.sum() <= 0 or cols.sum() <= 0:
            return False
        if np.any((seed.sum(axis=1) <= 0) & (rows > 0)):
            return False
        if np.any((seed.sum(axis=0) <= 0) & (cols > 0)):
            return False
        return True

    def fit(
        self,
        seeds: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        max_iterations: int = 100,
        tolerance: float = 1e-8,
        warm_start: bool = False,
    ) -> tuple[np.ndarray, dict, np.ndarray]:
        """Fit a ``(T, n, n)`` stack through the cache.

        Returns ``(solutions, chunk_stats, iteration_counts)`` where
        ``iteration_counts`` holds one entry per *solved* (non-memoised)
        bin — the convergence-iteration histogram's raw samples.
        """
        seeds = np.asarray(seeds, dtype=float)
        rows = np.asarray(rows, dtype=float)
        cols = np.asarray(cols, dtype=float)
        t, n, _ = seeds.shape
        seeds_flat = seeds.reshape(t, n * n)
        equal, scaled, scales = self._classify(seeds_flat, rows, cols)

        solutions = np.empty_like(seeds)
        if self._solution0 is not None:
            eq_idx = np.flatnonzero(equal)
            if eq_idx.size:
                solutions[eq_idx] = self._solution0[np.newaxis, :, :]
            sc_idx = np.flatnonzero(scaled)
            if sc_idx.size:
                # IPF's updates are ratios of marginals, which are invariant
                # under a global rescale: the fixed point of (s·seed, s·rows,
                # s·cols) is s times the base fixed point.
                solutions[sc_idx] = scales[sc_idx, np.newaxis, np.newaxis] * self._solution0

        solve = np.flatnonzero(~(equal | scaled))
        counts = np.zeros(0, dtype=np.intp)
        if solve.size:
            counts = np.zeros(solve.size, dtype=np.intp)
            scale_state: dict = {}
            kwargs = dict(
                max_iterations=max_iterations,
                tolerance=tolerance,
                iteration_counts=counts,
                scale_state=scale_state,
            )
            warmed = warm_start and self._warm_row is not None
            if warmed:
                row0 = np.where(
                    np.isfinite(self._warm_row) & (self._warm_row > 0), self._warm_row, 1.0
                )
                col0 = np.where(
                    np.isfinite(self._warm_col) & (self._warm_col > 0), self._warm_col, 1.0
                )
                kwargs["initial_row_scale"] = np.broadcast_to(row0, (solve.size, n))
                kwargs["initial_col_scale"] = np.broadcast_to(col0, (solve.size, n))
            solutions[solve] = iterative_proportional_fitting_series(
                seeds[solve], rows[solve], cols[solve], **kwargs
            )
            last = solve[-1]
            offset = solve.size - 1
            if not warmed:
                # Anchor the memo base from a cold solve only: warm-started
                # solutions differ from a cold solve by the convergence
                # slack, and replaying them from the equal tier would leak
                # that slack into the bit-identity guarantee.
                self._seed0 = seeds_flat[last].copy()
                self._rows0 = rows[last].copy()
                self._cols0 = cols[last].copy()
                self._solution0 = solutions[last].copy()
                self._safe = self._base_safe(seeds[last], rows[last], cols[last])
            if scale_state:
                self._warm_row = scale_state["row"][offset].copy()
                self._warm_col = scale_state["col"][offset].copy()
            if warmed:
                self.warm_solved += solve.size

        chunk = {
            "hits_equal": int(equal.sum()),
            "hits_scaled": int(scaled.sum()),
            "solved": int(solve.size),
        }
        self.hits_equal += chunk["hits_equal"]
        self.hits_scaled += chunk["hits_scaled"]
        self.solved += chunk["solved"]
        return solutions, chunk, counts
