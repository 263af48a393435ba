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
the kernel works on ``r = rank B`` of ``B``'s own rows.  Once per operator,
an orthonormal basis ``Q`` (``r × n_obs``) of ``range(B)`` — from one SVD of
a dense ``B``, or from ``eigh`` of the sparse-built ``B B^T`` — is
column-pivoted (``scipy.linalg.qr``) to pick ``r`` linearly independent rows
``S``.  Every row of ``B`` is a combination of the rows in ``S``, so
``B x = \\Pi_B z`` holds exactly when ``B_S x = (\\Pi_B z)_S``, and

.. math::

    x = x_{prior} + W B_S^T (B_S W B_S^T)^{-1}
        \\left( (\\Pi_B z)_S - B_S x_{prior} \\right),
    \\qquad
    (\\Pi_B z)_S = Q_S^T Q z

with ``Q_S`` the ``S`` columns of ``Q``.  ``B_S`` keeps the 0/1/ECMP
entries of the routing and marginal rows, so it is stored sparse, and the
weighted gram is linear in the weights: its upper triangle is
``P w`` for the column-wise Khatri–Rao *pair map* ``P`` with entries
``B_S[a,k] B_S[b,k]`` (``a ≤ b``).  A chunk of ``T`` bins forms all its grams
in one sparse product ``P W^T`` whose cost follows the sparsity of ``B``
(~5k multiply-adds per Geant bin against ~2.1M for the dense rotated
operator), and dense and ``scipy.sparse`` operators run the same code:
nothing of size ``n_obs × n_od`` is densified.  Every weight is at least the
floor ``ε > 0``, so each ``r × r`` gram is symmetric positive definite and a
bin costs one in-place Cholesky factorisation (LAPACK ``dpotrf``) and two
pairs of triangular solves (the solve and one refinement step).  The result is clipped to non-negative values (the
subsequent IPF step restores consistency with the marginals).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import qr
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs

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
        ``scipy.sparse`` matrix; both run the same kernel and neither is
        densified.  Only the basis of ``range(B)`` is computed differently
        (SVD of ``B``, or ``eigh`` of ``B Bᵀ``, accurate to ~``eps · κ(B)²``),
        so the two forms agree to that accuracy.  The row basis of a frozen operator
        (read-only arrays owning their memory, such as
        ``RoutingMatrix.matrix`` and ``augmented_operator()``) is computed
        once and reused across calls.
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

    estimates = np.empty_like(prior_batch)
    for start, stop in _chunks(prior_batch.shape[0], matrix.shape[0]):
        estimates[start:stop] = _refine_chunk(
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
    """``r = rank B`` independent rows of an operator and the maps the kernel needs."""

    rows: np.ndarray  # S, (r,): indices of linearly independent rows of B
    projector: np.ndarray  # Q_Sᵀ Q, (r, n_obs): maps z to the S rows of Π_B z
    reduced: sparse.csr_matrix  # B_S = B[S], (r, n_od)
    pairs: sparse.csr_matrix  # (r(r+1)/2, n_od): B_S[a,k]·B_S[b,k] for a ≤ b


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
        basis = _sparse_range_basis(matrix) if sparse.issparse(matrix) else _dense_range_basis(matrix)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("failed to compute a row basis of the observation matrix") from exc
    rows = _independent_rows(basis)
    reduced = sparse.csr_matrix(matrix[rows])
    # Q_Sᵀ Q through einsum's own loops: OpenBLAS's GEMM result depends on
    # its thread count, and the basis must not.
    projector = np.einsum("ai,aj->ij", basis[:, rows], basis)
    row_basis = RowBasis(rows, projector, reduced, _pair_map(reduced))
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


def _dense_range_basis(matrix: np.ndarray) -> np.ndarray:
    """``Q`` (``r × n_obs``): orthonormal rows spanning ``range(B)``, from one SVD."""
    u, singular, _ = np.linalg.svd(matrix, full_matrices=False)
    return np.ascontiguousarray(u[:, _significant(singular, matrix.shape)].T)


def _sparse_range_basis(matrix) -> np.ndarray:
    """``Q`` from the eigenvectors of the sparse-built ``B Bᵀ`` (``B`` stays sparse).

    The rank test applies ``matrix_rank``'s tolerance to the eigenvalues
    ``σ²`` themselves: they carry absolute error ~``eps · σ_max²``, so a
    squared singular-value threshold would sit below their rounding noise.
    """
    eigenvalues, vectors = np.linalg.eigh((matrix @ matrix.T).toarray())
    return np.ascontiguousarray(vectors[:, _significant(eigenvalues, matrix.shape)].T)


def _independent_rows(basis: np.ndarray) -> np.ndarray:
    """Sorted indices ``S`` of ``r`` rows of ``B`` whose columns ``Q_S`` are independent.

    Column pivoting picks the best-conditioned columns of ``Q`` first, so
    ``B_S = Q_Sᵀ (Q B)`` has full row rank.
    """
    rank = basis.shape[0]
    if not rank:
        return np.zeros(0, dtype=np.intp)
    _, pivots = qr(basis, mode="r", pivoting=True)
    return np.sort(pivots[:rank])


def _pair_starts(rank: int) -> np.ndarray:
    """Offset of gram row ``a``'s pairs ``(a, a), (a, a+1), …`` in the pair map."""
    rows = np.arange(rank + 1)
    return rows * rank - rows * (rows - 1) // 2


def _pair_map(reduced: sparse.csr_matrix) -> sparse.csr_matrix:
    """The column-wise Khatri–Rao map ``w ↦`` upper triangle of ``B_S W B_Sᵀ``.

    Pair ``(a, b)``, ``a ≤ b``, is row ``_pair_starts(r)[a] + b - a`` and
    holds ``B_S[a,k] · B_S[b,k]`` in column ``k``: one entry per pair of
    non-zeros sharing a column of ``B_S``.  Columns with the same number of
    non-zeros are expanded together.
    """
    rank, n_od = reduced.shape
    columns = reduced.tocsc()
    columns.sort_indices()
    counts = np.diff(columns.indptr)
    starts = _pair_starts(rank)
    pair_rows, pair_cols, values = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for count in np.unique(counts[counts > 0]):
        cols = np.flatnonzero(counts == count)
        entries = columns.indptr[cols, np.newaxis] + np.arange(count)
        first, second = np.triu_indices(count)
        a = columns.indices[entries[:, first]]
        b = columns.indices[entries[:, second]]
        pair_rows.append((starts[a] + b - a).ravel())
        pair_cols.append(np.repeat(cols, first.size))
        values.append((columns.data[entries[:, first]] * columns.data[entries[:, second]]).ravel())
    return sparse.csr_matrix(
        (np.concatenate(values), (np.concatenate(pair_rows), np.concatenate(pair_cols))),
        shape=(int(starts[rank]), n_od),
    )


def _weighted_grams(row_basis: RowBasis, weights: np.ndarray) -> np.ndarray:
    """``B_S W_t B_Sᵀ`` for every row of ``weights``, one slice per bin.

    One sparse product ``pairs @ Wᵀ`` gives every bin's upper triangle as
    a column.  It is copied into the stack one gram row at a time (each
    block a cache-sized ``(r - a) × T`` slab), which lays it out per bin
    without transposing the whole product.  Only the upper triangle of each
    C-ordered slice is written: read in Fortran order it is the lower
    triangle :func:`_cholesky` factorises in place; the other is unset.
    """
    rank = row_basis.reduced.shape[0]
    by_pair = row_basis.pairs @ np.ascontiguousarray(weights.T)
    grams = np.empty((weights.shape[0], rank, rank))
    starts = _pair_starts(rank)
    for a in range(rank):
        grams[:, a, a:] = by_pair[starts[a]:starts[a + 1]].T
    return grams


def _cholesky(grams: np.ndarray) -> np.ndarray:
    """Factorise a stack from :func:`_weighted_grams` in place, one ``dpotrf`` per bin.

    Each slice's Fortran lower triangle becomes ``L`` with ``gram = L Lᵀ``;
    returns ``grams``, now holding the factors.
    """
    for gram in grams:
        _, info = dpotrf(gram.T, lower=1, clean=0, overwrite_a=1)
        if info:
            raise EstimationError("failed to factorise the weighted normal matrix")
    return grams


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram · x = rhs`` given one slice of :func:`_cholesky`'s output.

    A vector right-hand side takes two BLAS-2 triangular solves, which skip
    the packing LAPACK's ``dpotrs`` does for a matrix of right-hand sides.
    """
    if not factor.shape[0]:  # rank-0 operator: nothing to correct
        return np.zeros_like(rhs)
    if rhs.ndim == 1:
        forward = dtrsv(factor.T, rhs, lower=1)
        return dtrsv(factor.T, forward, lower=1, trans=1, overwrite_x=1)
    solution, _ = dpotrs(factor.T, rhs, lower=1)
    return solution


def _project(
    row_basis: RowBasis,
    factors: np.ndarray,
    weights: np.ndarray,
    priors: np.ndarray,
    observed: np.ndarray,
) -> np.ndarray:
    """Each bin's ``p + W B_Sᵀ (B_S W B_Sᵀ)⁻¹ ((Π_B z)_S - B_S p)``, unclipped.

    The normal equations of ``B_S`` lose digits when the weights span
    orders of magnitude (~1e-11 relative on small operators with zero
    priors), so the solution is refined once: the constraint residual
    ``(Π_B z)_S - B_S x`` of the first solution is solved again with the
    same factors, which recovers ~1e-14.  The sparse products run over the
    whole ``(T, n_od)`` batch and sum each entry in the same order whatever
    ``T`` is, and the dense projection and solves run per bin, so a bin's
    result does not depend on the batch it is in.
    """
    reduced = row_basis.reduced
    targets = np.empty((priors.shape[0], reduced.shape[0]))
    for t in range(priors.shape[0]):
        targets[t] = row_basis.projector @ observed[t]
    estimates = priors
    for _ in range(2):  # the solve, then one step of iterative refinement
        steps = targets - (reduced @ estimates.T).T
        for t in range(priors.shape[0]):
            steps[t] = _cho_solve(factors[t], steps[t])
        estimates = estimates + weights * (reduced.T @ steps.T).T
    return estimates


def _refine_chunk(priors: np.ndarray, matrix, observed: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Refine a ``(T, n_od)`` chunk of priors against a dense or sparse operator.

    Every gram, factorisation, residual and correction of a bin is
    computed from that bin alone, so the batch equals the per-bin loop bit
    for bit, whatever the chunking.
    """
    weights = _weights(priors, weight_floor)
    row_basis = _row_basis(matrix)
    tracer = get_tracer()
    with tracer.span("refine.gram", bins=priors.shape[0], rank=row_basis.reduced.shape[0]):
        grams = _weighted_grams(row_basis, weights)
    with tracer.span("refine.solve", bins=priors.shape[0]):
        estimates = _project(row_basis, _cholesky(grams), weights, priors, observed)
    return np.clip(estimates, 0.0, None, out=estimates)


def _weight_floors(priors: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Per-bin weight floors."""
    if weight_floor is not None:
        return np.full(priors.shape[0], float(weight_floor))
    means = priors.mean(axis=1) if priors.shape[1] else np.zeros(priors.shape[0])
    return np.maximum(means * 1e-3, _EPS)


def _weights(priors: np.ndarray, weight_floor: float | None) -> np.ndarray:
    """Per-bin weight vectors ``max(prior, floor)``."""
    return np.maximum(priors, _weight_floors(priors, weight_floor)[:, np.newaxis])
