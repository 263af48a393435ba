"""Tomogravity-style least-squares refinement (step 2 of the estimation blueprint).

Given a prior traffic vector ``x_prior`` and the observation system
``B x ≈ z`` (routing rows plus, optionally, ingress/egress rows), the
tomogravity method of Zhang et al. [22] chooses the estimate closest to the
prior, in a weighted least-squares sense, among those consistent with the
observations:

.. math::

    \\min_x \\; \\| W^{-1/2} (x - x_{prior}) \\|_2^2
    \\quad \\text{s.t.} \\quad B x = \\Pi_B z

with weights ``W = diag(max(x_prior, ε))`` so that large OD flows absorb more
of the correction, and ``Π_B`` the orthogonal projector onto ``range(B)``
(link and marginal counters are noisy, so ``z`` itself is generally not
reachable).  The solution is the classic projection

.. math::

    x = x_{prior} + W B^T (B W B^T)^+ (z - B x_{prior})

The augmented operator is rank-deficient (the ingress and egress rows both
sum to the total, and routing rows repeat), so the gram ``B W B^T`` is
singular and the pseudo-inverse cannot be replaced by a plain solve.  Instead
the kernel works in a row basis of ``B``: with ``Q`` (``r × n_obs``, ``r =
rank B``) an orthonormal basis of ``range(B)``, taken once per operator from
one SVD of ``B``, the reduced operator ``B_r = Q B`` has full row rank and
``B = Q^T B_r``.  Substituting,

.. math::

    (B W B^T)^+ = Q^T (B_r W B_r^T)^{-1} Q,
    \\qquad
    x = x_{prior} + W B_r^T (B_r W B_r^T)^{-1} (Q z - B_r x_{prior})

Every weight is at least the floor ``ε > 0``, so the ``r × r`` gram
``B_r W B_r^T`` is symmetric positive definite and each bin costs one
Cholesky factorisation and two triangular solves.  ``Q z`` is exactly the
projection ``Π_B z`` in basis coordinates, so inconsistent observations
get the same minimum-norm treatment as under the pseudo-inverse.  The
result is clipped to non-negative values (the subsequent IPF step restores
consistency with the marginals).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpotrs

from repro.errors import EstimationError, ShapeError, ValidationError
from repro.obs import get_tracer

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
        ``scipy.sparse`` matrix; the sparse form is never densified, which is
        what makes the refinement viable at large ``n`` (its floating-point
        summation order differs slightly from the dense path's).  The row
        basis of a frozen operator (read-only arrays owning their memory,
        such as ``RoutingMatrix.matrix`` and ``augmented_operator()``) is
        computed once and reused across calls.
    observations:
        Observed values ``z``, shape ``(n_obs,)`` or ``(T, n_obs)`` matching
        the prior batch.
    weight_floor:
        Minimum weight given to any OD pair; defaults to a small fraction of
        the mean prior so zero-prior flows can still receive corrections.
        Must be positive: the weighted normal matrix is positive definite
        only when every weight is.

    Returns
    -------
    numpy.ndarray
        The refined, non-negative OD-flow vector(s), same shape as ``prior``.

    Raises
    ------
    ValidationError
        When ``weight_floor`` is not a positive finite number.
    EstimationError
        When the prior or the observations contain NaN or infinite values,
        or the weighted normal matrix cannot be factorised.
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
    _check_inputs(prior_batch, obs_batch, weight_floor)

    refine = _refine_chunk_sparse if is_sparse else _refine_chunk
    estimates = np.empty_like(prior_batch)
    for start, stop in _chunks(prior_batch.shape[0], matrix.shape[0]):
        estimates[start:stop] = refine(
            prior_batch[start:stop], matrix, obs_batch[start:stop], weight_floor
        )
    return estimates[0] if single else estimates


def _check_inputs(priors: np.ndarray, observed: np.ndarray, weight_floor: float | None) -> None:
    """Reject inputs a Cholesky solve would turn into silently wrong estimates.

    NaN/inf values propagate through the factorisation, and a floor ``≤ 0``
    lets zero-prior OD pairs carry zero weight, which can make the reduced
    gram singular.
    """
    if weight_floor is not None and not (np.isfinite(weight_floor) and weight_floor > 0):
        raise ValidationError(f"weight_floor must be a positive finite number, got {weight_floor!r}")
    for name, values in (("prior", priors), ("observations", observed)):
        if not np.isfinite(values).all():
            raise EstimationError(f"tomogravity {name} contains NaN or infinite values")


# Budget (bytes) for the per-chunk (T_chunk, r, r) stack of weighted grams
# (r <= n_obs); bounds memory while still batching the factorisations.
_CHUNK_BYTES = 128 * 1024 * 1024


def _chunks(n_bins: int, n_obs: int):
    """Yield ``(start, stop)`` chunk bounds sized to the memory budget."""
    per_bin = max(int(n_obs) * int(n_obs) * 8, 1)
    size = max(int(_CHUNK_BYTES // per_bin), 1)
    for start in range(0, n_bins, size):
        yield start, min(start + size, n_bins)


class RowBasis(NamedTuple):
    """An orthonormal basis of an operator's range, in row form."""

    basis: np.ndarray  # Q, (r, n_obs): orthonormal rows spanning range(B)
    reduced: np.ndarray | None  # B_r = Q B, (r, n_od); dense operators only


# Row bases memoised by operator identity.  Only frozen operators are
# memoised (their contents cannot change under the cached basis), and each
# entry holds its operator so the id cannot be recycled while cached.
_BASIS_CACHE: dict[int, tuple[object, RowBasis]] = {}
_BASIS_CACHE_MAX = 8


def _row_basis(matrix) -> RowBasis:
    """The (memoised, for frozen operators) row basis of ``matrix``."""
    frozen = _is_frozen(matrix)
    if frozen:
        entry = _BASIS_CACHE.get(id(matrix))
        if entry is not None:
            return entry[1]
    try:
        row_basis = _sparse_row_basis(matrix) if sparse.issparse(matrix) else _dense_row_basis(matrix)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("failed to compute a row basis of the observation matrix") from exc
    if frozen:
        if len(_BASIS_CACHE) >= _BASIS_CACHE_MAX:
            _BASIS_CACHE.pop(next(iter(_BASIS_CACHE)))
        _BASIS_CACHE[id(matrix)] = (matrix, row_basis)
    return row_basis


def _is_frozen(matrix) -> bool:
    """Whether ``matrix`` is frozen: read-only arrays down to the memory they own.

    A read-only view of a writable array is not frozen, since its base can
    still be edited, so every array on the ``.base`` chain must be read-only.
    """
    arrays = (matrix.data, matrix.indices, matrix.indptr) if sparse.issparse(matrix) else (matrix,)
    for array in arrays:
        while isinstance(array, np.ndarray):
            if array.flags.writeable:
                return False
            array = array.base
        if array is not None:  # memory owned by a non-array object
            return False
    return True


def _significant(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Mask of ``values`` above ``numpy.linalg.matrix_rank``'s default tolerance."""
    if not values.size:
        return np.zeros(0, dtype=bool)
    return values > values.max() * max(shape) * np.finfo(float).eps


def _dense_row_basis(matrix: np.ndarray) -> RowBasis:
    u, singular, _ = np.linalg.svd(matrix, full_matrices=False)
    basis = np.ascontiguousarray(u[:, _significant(singular, matrix.shape)].T)
    return RowBasis(basis, basis @ matrix)


def _sparse_row_basis(matrix) -> RowBasis:
    """Row basis from the eigenvectors of the sparse-built ``B Bᵀ`` (``B`` stays sparse).

    The rank test applies ``matrix_rank``'s tolerance to the eigenvalues
    ``σ²`` themselves: they carry absolute error ~``eps · σ_max²``, so a
    squared singular-value threshold would sit below their rounding noise.
    """
    eigenvalues, vectors = np.linalg.eigh((matrix @ matrix.T).toarray())
    basis = np.ascontiguousarray(vectors[:, _significant(eigenvalues, matrix.shape)].T)
    return RowBasis(basis, None)


def _cholesky(grams: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a ``(T, r, r)`` stack of SPD grams, one slice per bin."""
    try:
        return np.linalg.cholesky(grams)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("failed to factorise the weighted normal matrix") from exc


def _weighted_grams(reduced: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``B_r W_t B_r^T`` for every row of ``weights``, one slice per bin.

    Formed as ``(B_r W^{1/2})(B_r W^{1/2})^T``: exactly symmetric, and the
    self-product runs as a rank-k update at half the cost of a general
    matrix product.
    """
    roots = np.sqrt(weights)
    grams = np.empty((weights.shape[0], reduced.shape[0], reduced.shape[0]))
    for t in range(weights.shape[0]):
        scaled = reduced * roots[t]
        grams[t] = scaled @ scaled.T
    return grams


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L Lᵀ x = rhs`` given the C-ordered lower factor ``L``.

    ``Lᵀ`` is the Fortran-ordered upper factor, so LAPACK reads it without
    the copy ``scipy.linalg.cho_solve`` would make of a C-ordered ``L``.
    """
    if not factor.shape[0]:  # rank-0 operator: nothing to correct
        return np.zeros_like(rhs)
    solution, _ = dpotrs(factor.T, rhs, lower=0)
    return solution


def _project(
    row_basis: RowBasis,
    factor: np.ndarray,
    weights: np.ndarray,
    prior: np.ndarray,
    observed: np.ndarray,
) -> np.ndarray:
    """One bin's projection ``p + W B_r^T (B_r W B_r^T)^{-1} (Q z - B_r p)``, unclipped."""
    residual = row_basis.basis @ observed - row_basis.reduced @ prior
    return prior + weights * (row_basis.reduced.T @ _cho_solve(factor, residual))


def _refine_chunk(
    priors: np.ndarray, matrix: np.ndarray, observed: np.ndarray, weight_floor: float | None
) -> np.ndarray:
    """Refine a ``(T, n_od)`` chunk of priors against a dense operator.

    The grams and their factorisations are stacked over the chunk but every
    slice, residual and correction is computed per bin, so a bin's result
    does not depend on which chunk it lands in: the batch equals the
    per-bin loop bit for bit.
    """
    weights = _weights(priors, weight_floor)
    row_basis = _row_basis(matrix)
    tracer = get_tracer()
    with tracer.span("refine.gram", bins=priors.shape[0], rank=row_basis.basis.shape[0]):
        grams = _weighted_grams(row_basis.reduced, weights)
    with tracer.span("refine.solve", bins=priors.shape[0]):
        factors = _cholesky(grams)
        estimates = np.empty_like(priors)
        for t in range(priors.shape[0]):
            estimates[t] = _project(row_basis, factors[t], weights[t], priors[t], observed[t])
    return np.clip(estimates, 0.0, None, out=estimates)


def _weight_floors(priors: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Per-bin weight floors (shared by the dense and sparse refinements)."""
    if weight_floor is not None:
        return np.full(priors.shape[0], float(weight_floor))
    means = priors.mean(axis=1) if priors.shape[1] else np.zeros(priors.shape[0])
    return np.maximum(means * 1e-3, _EPS)


def _weights(priors: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Per-bin weight vectors ``max(prior, floor)``."""
    return np.maximum(priors, _weight_floors(priors, weight_floor)[:, np.newaxis])


def _refine_chunk_sparse(
    priors: np.ndarray, matrix, observed: np.ndarray, weight_floor: float | None
) -> np.ndarray:
    """Refine a ``(T, n_od)`` chunk against a ``scipy.sparse`` operator.

    The same projection as :func:`_refine_chunk` without ever forming
    ``B_r``: each bin builds ``B W^{1/2}`` by scaling the CSR data (columns
    of ``B`` scaled by that bin's root weights), so only the ``O(nnz)``
    sparse structure, the ``(n_obs, n_obs)`` gram ``B W B^T`` and its
    ``(r, r)`` reduction ``Q (B W B^T) Q^T`` ever exist.
    """
    weights = _weights(priors, weight_floor)
    basis = _row_basis(matrix).basis
    roots = np.sqrt(weights)
    scaled = matrix.copy()
    tracer = get_tracer()
    with tracer.span("refine.gram", bins=priors.shape[0], rank=basis.shape[0]):
        grams = np.empty((priors.shape[0], basis.shape[0], basis.shape[0]))
        for t in range(priors.shape[0]):
            scaled.data = matrix.data * roots[t][matrix.indices]  # B W^{1/2} for this bin
            grams[t] = basis @ (scaled @ scaled.T).toarray() @ basis.T
    with tracer.span("refine.solve", bins=priors.shape[0]):
        factors = _cholesky(grams)
        estimates = np.empty_like(priors)
        for t in range(priors.shape[0]):
            residual = basis @ (observed[t] - matrix @ priors[t])
            step = _cho_solve(factors[t], residual)
            correction = weights[t] * (matrix.T @ (basis.T @ step))
            estimates[t] = np.clip(priors[t] + correction, 0.0, None)
    return estimates
