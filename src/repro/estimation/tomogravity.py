"""Tomogravity-style least-squares refinement (step 2 of the estimation blueprint).

Given a prior traffic vector ``x_prior`` and the observation system
``B x ≈ z`` (routing rows plus, optionally, ingress/egress rows), the
tomogravity method of Zhang et al. [22] chooses the estimate closest to the
prior, in a weighted least-squares sense, among those consistent with the
observations:

.. math::

    \\min_x \\; \\| W^{-1/2} (x - x_{prior}) \\|_2^2
    \\quad \\text{s.t.} \\quad B x = z

with weights ``W = diag(max(x_prior, ε))`` so that large OD flows absorb more
of the correction.  The solution is the classic projection

.. math::

    x = x_{prior} + W B^T (B W B^T)^+ (z - B x_{prior})

followed by clipping to non-negative values (the subsequent IPF step restores
consistency with the marginals).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import EstimationError, ShapeError

__all__ = ["tomogravity_estimate"]

_EPS = 1e-9


def tomogravity_estimate(
    prior: np.ndarray,
    observation_matrix,
    observations: np.ndarray,
    *,
    weight_floor: float | None = None,
) -> np.ndarray:
    """Refine ``prior`` toward the observations ``observation_matrix @ x = observations``.

    Parameters
    ----------
    prior:
        Prior OD-flow vector, shape ``(n_od,)`` or a batch ``(T, n_od)``.
    observation_matrix:
        The matrix ``B`` of shape ``(n_obs, n_od)`` (routing matrix, possibly
        augmented with ingress/egress rows).  Either a dense array or a
        ``scipy.sparse`` matrix; the sparse form never materialises the
        ``(T, n_obs, n_od)`` weighted stack, which is what makes the
        refinement viable at large ``n`` (its floating-point summation order
        differs slightly from the dense path's).
    observations:
        Observed values ``z``, shape ``(n_obs,)`` or ``(T, n_obs)`` matching
        the prior batch.
    weight_floor:
        Minimum weight given to any OD pair; defaults to a small fraction of
        the mean prior so zero-prior flows can still receive corrections.

    Returns
    -------
    numpy.ndarray
        The refined, non-negative OD-flow vector(s), same shape as ``prior``.
    """
    prior = np.asarray(prior, dtype=float)
    observations = np.asarray(observations, dtype=float)
    is_sparse = sparse.issparse(observation_matrix)
    matrix = observation_matrix.tocsr() if is_sparse else np.asarray(observation_matrix, dtype=float)
    single = prior.ndim == 1
    prior_batch = np.atleast_2d(prior)
    obs_batch = np.atleast_2d(observations)
    if matrix.ndim != 2:
        raise ShapeError("observation_matrix must be two-dimensional")
    if prior_batch.shape[1] != matrix.shape[1]:
        raise ShapeError(
            f"prior length {prior_batch.shape[1]} does not match observation matrix columns {matrix.shape[1]}"
        )
    if obs_batch.shape != (prior_batch.shape[0], matrix.shape[0]):
        raise ShapeError(
            "observations must have shape (T, n_obs) matching the prior batch and matrix rows"
        )

    refine = _refine_chunk_sparse if is_sparse else _refine_chunk
    estimates = np.empty_like(prior_batch)
    for start, stop in _chunks(prior_batch.shape[0], matrix.shape):
        estimates[start:stop] = refine(
            prior_batch[start:stop], matrix, obs_batch[start:stop], weight_floor
        )
    return estimates[0] if single else estimates


# Budget (bytes) for the per-chunk (T_chunk, n_obs, n_od) weighted-matrix
# stack; bounds memory while still batching the gram/pinv linear algebra.
_CHUNK_BYTES = 128 * 1024 * 1024


def _chunks(n_bins: int, matrix_shape: tuple[int, int]):
    """Yield ``(start, stop)`` chunk bounds sized to the memory budget."""
    per_bin = max(int(matrix_shape[0]) * int(matrix_shape[1]) * 8, 1)
    size = max(int(_CHUNK_BYTES // per_bin), 1)
    for start in range(0, n_bins, size):
        yield start, min(start + size, n_bins)


def _refine_chunk(
    priors: np.ndarray, matrix: np.ndarray, observed: np.ndarray, weight_floor: float | None
) -> np.ndarray:
    """Refine a ``(T, n_od)`` chunk of priors with stacked linear algebra.

    The per-bin weights make every bin's normal matrix different, so the
    gram construction and pseudo-inverse are batched over the chunk; each
    slice performs exactly the operations of the former per-bin loop and the
    result is bit-identical to it.
    """
    floors = _weight_floors(priors, weight_floor)
    weights = np.maximum(priors, floors[:, np.newaxis])
    weighted = matrix[np.newaxis, :, :] * weights[:, np.newaxis, :]  # B W per bin
    gram = weighted @ matrix.T  # B W B^T, stacked
    try:
        gram_pinv = np.linalg.pinv(gram, rcond=1e-10)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise EstimationError("failed to invert the weighted normal matrix") from exc
    estimates = np.empty_like(priors)
    for t in range(priors.shape[0]):
        residual = observed[t] - matrix @ priors[t]
        correction = weighted[t].T @ gram_pinv[t] @ residual
        estimates[t] = np.clip(priors[t] + correction, 0.0, None)
    return estimates


def _weight_floors(priors: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Per-bin weight floors (shared by the dense and sparse refinements)."""
    if weight_floor is not None:
        return np.full(priors.shape[0], float(weight_floor))
    means = priors.mean(axis=1) if priors.shape[1] else np.zeros(priors.shape[0])
    return np.maximum(means * 1e-3, _EPS)


def _refine_chunk_sparse(
    priors: np.ndarray, matrix, observed: np.ndarray, weight_floor: float | None
) -> np.ndarray:
    """Refine a ``(T, n_od)`` chunk against a ``scipy.sparse`` operator.

    The weighted operator ``B W`` is formed per bin by scaling the CSR data
    in place (columns of ``B`` scaled by that bin's weights), so only the
    ``O(nnz)`` sparse structure and the small ``(n_obs, n_obs)`` gram matrix
    ever exist — the dense path's ``(T, n_obs, n_od)`` stack never does.
    """
    floors = _weight_floors(priors, weight_floor)
    weights = np.maximum(priors, floors[:, np.newaxis])
    weighted = matrix.copy()
    estimates = np.empty_like(priors)
    for t in range(priors.shape[0]):
        weighted.data = matrix.data * weights[t][matrix.indices]  # B W for this bin
        gram = (weighted @ matrix.T).toarray()
        try:
            gram_pinv = np.linalg.pinv(gram, rcond=1e-10)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise EstimationError("failed to invert the weighted normal matrix") from exc
        residual = observed[t] - matrix @ priors[t]
        correction = weighted.T @ (gram_pinv @ residual)
        estimates[t] = np.clip(priors[t] + correction, 0.0, None)
    return estimates
