"""The benchmark's own reference for the estimation pipeline's outputs.

Written from the method's definition, not from the program's kernels: the
tomogravity refinement is the weighted least-squares projection

    x = p + W^(1/2) C^+ (z - B p),   C = B W^(1/2),   W = diag(max(p, floor))

solved through ``numpy.linalg.lstsq`` on ``C`` (the program forms the gram
``B W B^T`` and calls ``pinv`` on it; both give the same minimum-norm
correction), clipped at zero, then fitted to the measured ingress/egress
totals by a plain per-bin IPF loop.  ``floor`` is the program's documented
weight floor: 1e-3 of the bin's mean prior, at least 1e-9.
"""

from __future__ import annotations

import numpy as np

# The pipeline's IPF stopping rule (``TMEstimator(ipf_iterations=50)``,
# tolerance 1e-8 on the largest relative marginal mismatch).
IPF_ITERATIONS = 50
IPF_TOLERANCE = 1e-8
# Relative (norm-wise) agreement demanded between program and oracle.
MATCH_RTOL = 1e-8


def observation_operator(routing_matrix: np.ndarray, n: int) -> np.ndarray:
    """Stack the routing rows with the ingress (row-sum) and egress (column-sum) rows."""
    eye = np.eye(n)
    ones = np.ones((1, n))
    ingress_rows = np.kron(eye, ones)  # x[i*n + j] summed over j
    egress_rows = np.kron(ones, eye)  # x[i*n + j] summed over i
    return np.vstack([routing_matrix, ingress_rows, egress_rows])


def refine(prior: np.ndarray, operator: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Weighted least-squares projection of one prior vector onto ``operator x = observed``."""
    floor = max(prior.mean() * 1e-3, 1e-9)
    root_w = np.sqrt(np.maximum(prior, floor))
    residual = observed - operator @ prior
    step, *_ = np.linalg.lstsq(operator * root_w, residual, rcond=1e-8)
    return np.clip(prior + root_w * step, 0.0, None)


def ipf(seed: np.ndarray, rows: np.ndarray, cols: np.ndarray, *, tolerance: float = IPF_TOLERANCE,
        max_iterations: int = IPF_ITERATIONS) -> np.ndarray:
    """Scale ``seed`` until its row/column sums match ``rows``/``cols``."""
    grand = 0.5 * (rows.sum() + cols.sum())
    if rows.sum() <= 0 or cols.sum() <= 0:
        return np.zeros_like(seed)
    rows = rows * (grand / rows.sum())
    cols = cols * (grand / cols.sum())
    x = seed.copy()
    x[(x.sum(axis=1) <= 0) & (rows > 0), :] = 1.0
    empty_cols = (x.sum(axis=0) <= 0) & (cols > 0)
    x[:, empty_cols] = np.maximum(x[:, empty_cols], 1.0)

    def mismatch(actual, target):
        mask = target > 0
        return float(np.max(np.abs(actual[mask] - target[mask]) / target[mask])) if mask.any() else 0.0

    for _ in range(max_iterations):
        r = x.sum(axis=1)
        x *= np.divide(rows, r, out=np.zeros_like(r), where=r > 0)[:, None]
        c = x.sum(axis=0)
        x *= np.divide(cols, c, out=np.zeros_like(c), where=c > 0)[None, :]
        if max(mismatch(x.sum(axis=1), rows), mismatch(x.sum(axis=0), cols)) < tolerance:
            break
    return x


def estimate_bin(prior: np.ndarray, routing_matrix: np.ndarray, link_loads: np.ndarray,
                 ingress: np.ndarray, egress: np.ndarray, **ipf_kwargs) -> np.ndarray:
    """Oracle estimate of one ``(n, n)`` bin from its prior and measurements."""
    n = ingress.shape[0]
    operator = observation_operator(routing_matrix, n)
    observed = np.concatenate([link_loads, ingress, egress])
    refined = refine(prior.reshape(n * n), operator, observed)
    return ipf(refined.reshape(n, n), ingress, egress, **ipf_kwargs)


def rel_l2(truth: np.ndarray, estimate: np.ndarray) -> float:
    """The paper's per-bin relative L2 error ``||X - X_hat|| / ||X||``."""
    return float(np.linalg.norm(truth - estimate) / np.linalg.norm(truth))


def close(actual, expected, rtol: float = MATCH_RTOL) -> bool:
    """Norm-wise relative agreement, false on any non-finite value."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if not (np.all(np.isfinite(actual)) and np.all(np.isfinite(expected))):
        return False
    scale = max(float(np.linalg.norm(expected)), 1e-300)
    return float(np.linalg.norm(actual - expected)) <= rtol * scale
