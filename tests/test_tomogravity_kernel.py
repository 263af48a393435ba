"""The tomogravity kernel against independent references.

The kernel solves the weighted projection
``x = p + W Bᵀ (B W Bᵀ)⁺ (z - B p)`` on ``r = rank B`` independent rows
``B_S`` of ``B``, with one sparse gram product per chunk and one Cholesky
factorisation per bin.  Three references check it:

* the historical pseudo-inverse kernels, kept here verbatim as the oracle
  (one SVD of the full ``n_obs × n_obs`` gram per bin);
* the orthonormal row-basis kernel that replaced them, kept here
  verbatim (dense grams of ``B_r = Q B``, then ``numpy.linalg.cholesky``);
* an independent minimum-norm least-squares projection through
  ``numpy.linalg.lstsq`` on ``B W^{1/2}``, which never forms a gram.

Agreement is checked per bin and norm-wise on the priors the pipeline
actually refines (Geant/Totem × measured, stable-fP, stable-f and gravity),
on a sparse operator at large ``n``, and as hypothesis properties over
random rank-deficient operators (including chunking and dense/sparse
invariance).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg.lapack import dpotrs

import repro.estimation.pipeline as pipeline
import repro.estimation.tomogravity as tomogravity
from repro.core.priors import marginal_operators
from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import EstimationError, ValidationError
from repro.estimation.fastpath import FactorizationCache
from repro.estimation.linear_system import simulate_link_loads
from repro.estimation.tomogravity import (
    _cholesky,
    _project,
    _row_basis,
    _weight_floors,
    _weighted_grams,
    _weights,
    tomogravity_estimate,
)
from repro.scenarios import Scenario, ScenarioRunner
from repro.topology.library import random_topology
from repro.topology.routing import RoutingMatrix, build_routing_matrix


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def pinv_refine_chunk(priors, matrix, observed, weight_floor=None):
    """The former dense kernel: stacked grams and one ``pinv`` per bin."""
    floors = _weight_floors(priors, weight_floor)
    weights = np.maximum(priors, floors[:, np.newaxis])
    weighted = matrix[np.newaxis, :, :] * weights[:, np.newaxis, :]
    gram = weighted @ matrix.T
    gram_pinv = np.linalg.pinv(gram, rcond=1e-10)
    estimates = np.empty_like(priors)
    for t in range(priors.shape[0]):
        residual = observed[t] - matrix @ priors[t]
        correction = weighted[t].T @ gram_pinv[t] @ residual
        estimates[t] = np.clip(priors[t] + correction, 0.0, None)
    return estimates


def pinv_refine_chunk_sparse(priors, matrix, observed, weight_floor=None):
    """The former sparse kernel: per-bin sparse gram and ``pinv``."""
    floors = _weight_floors(priors, weight_floor)
    weights = np.maximum(priors, floors[:, np.newaxis])
    weighted = matrix.copy()
    estimates = np.empty_like(priors)
    for t in range(priors.shape[0]):
        weighted.data = matrix.data * weights[t][matrix.indices]
        gram = (weighted @ matrix.T).toarray()
        gram_pinv = np.linalg.pinv(gram, rcond=1e-10)
        residual = observed[t] - matrix @ priors[t]
        correction = weighted.T @ (gram_pinv @ residual)
        estimates[t] = np.clip(priors[t] + correction, 0.0, None)
    return estimates


def qbasis_row_basis(matrix):
    """``(Q, B_r = Q B)``: an orthonormal basis of ``range(B)`` from one SVD."""
    u, singular, _ = np.linalg.svd(matrix, full_matrices=False)
    significant = singular > singular.max() * max(matrix.shape) * np.finfo(float).eps
    basis = np.ascontiguousarray(u[:, significant].T)
    return basis, basis @ matrix


def qbasis_weighted_grams(reduced, weights):
    """``B_r W_t B_r^T`` for every row of ``weights``, one slice per bin."""
    roots = np.sqrt(weights)
    grams = np.empty((weights.shape[0], reduced.shape[0], reduced.shape[0]))
    for t in range(weights.shape[0]):
        scaled = reduced * roots[t]
        grams[t] = scaled @ scaled.T
    return grams


def qbasis_cho_solve(factor, rhs):
    """Solve ``L Lᵀ x = rhs`` given the C-ordered lower factor ``L``."""
    if not factor.shape[0]:  # rank-0 operator: nothing to correct
        return np.zeros_like(rhs)
    solution, _ = dpotrs(factor.T, rhs, lower=0)
    return solution


def qbasis_refine_chunk(priors, matrix, observed, weight_floor=None):
    """The former row-basis kernel: dense ``Q B`` grams and ``numpy.linalg.cholesky``."""
    weights = _weights(priors, weight_floor)
    basis, reduced = qbasis_row_basis(matrix)
    factors = np.linalg.cholesky(qbasis_weighted_grams(reduced, weights))
    estimates = np.empty_like(priors)
    for t in range(priors.shape[0]):
        residual = basis @ observed[t] - reduced @ priors[t]
        estimates[t] = priors[t] + weights[t] * (reduced.T @ qbasis_cho_solve(factors[t], residual))
    return np.clip(estimates, 0.0, None, out=estimates)


def lstsq_refine(priors, matrix, observed):
    """Minimum-norm least squares on ``B W^{1/2}``: no gram is ever formed."""
    roots = np.sqrt(_weights(priors, None))
    estimates = np.empty_like(priors)
    for t in range(priors.shape[0]):
        residual = observed[t] - matrix @ priors[t]
        step, *_ = np.linalg.lstsq(matrix * roots[t], residual, rcond=None)
        estimates[t] = np.clip(priors[t] + roots[t] * step, 0.0, None)
    return estimates


def worst_rel_error(actual, expected) -> float:
    """Largest per-bin relative error, norm-wise."""
    return float(np.max(np.linalg.norm(actual - expected, axis=1)
                        / np.linalg.norm(expected, axis=1)))


# ---------------------------------------------------------------------------
# the pipeline's own refinement inputs
# ---------------------------------------------------------------------------

PRIORS = ("measured", "stable_fp", "stable_f", "gravity")


@pytest.fixture(scope="module")
def refinement_inputs():
    """``(priors, B, Z)`` of each scenario's own refinement call, by (dataset, prior)."""
    captured = {}
    calls = []
    original = pipeline.tomogravity_estimate

    def capture(priors, matrix, observations, **kwargs):
        calls.append((np.array(priors), matrix, np.array(observations)))
        return original(priors, matrix, observations, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "tomogravity_estimate", capture)
        for dataset in ("geant", "totem"):
            for prior in PRIORS:
                calls.clear()
                ScenarioRunner().run(
                    Scenario(dataset=dataset, prior=prior, bins_per_week=36, max_bins=6)
                )
                captured[dataset, prior] = calls[-1]
    return captured


@pytest.mark.parametrize("dataset", ["geant", "totem"])
@pytest.mark.parametrize("prior", PRIORS)
def test_kernel_matches_pinv_oracle(refinement_inputs, dataset, prior):
    priors, matrix, observed = refinement_inputs[dataset, prior]
    assert worst_rel_error(tomogravity_estimate(priors, matrix, observed),
                           pinv_refine_chunk(priors, matrix, observed)) <= 1e-11


@pytest.mark.parametrize("dataset", ["geant", "totem"])
@pytest.mark.parametrize("prior", PRIORS)
def test_kernel_matches_qbasis_oracle(refinement_inputs, dataset, prior):
    priors, matrix, observed = refinement_inputs[dataset, prior]
    assert worst_rel_error(tomogravity_estimate(priors, matrix, observed),
                           qbasis_refine_chunk(priors, matrix, observed)) <= 1e-12


@pytest.mark.parametrize("dataset", ["geant", "totem"])
@pytest.mark.parametrize("prior", PRIORS)
def test_kernel_matches_lstsq_projection(refinement_inputs, dataset, prior):
    priors, matrix, observed = refinement_inputs[dataset, prior]
    assert worst_rel_error(tomogravity_estimate(priors, matrix, observed),
                           lstsq_refine(priors, matrix, observed)) <= 1e-12


@pytest.mark.parametrize("dataset, rank", [("geant", 94), ("totem", 97)])
def test_row_basis_rank_of_augmented_operator(refinement_inputs, dataset, rank):
    _, matrix, _ = refinement_inputs[dataset, "gravity"]
    row_basis = _row_basis(matrix)
    assert row_basis.rows.shape == (rank,)
    np.testing.assert_array_equal(row_basis.reduced.toarray(), matrix[row_basis.rows])
    assert np.linalg.matrix_rank(row_basis.reduced.toarray()) == rank
    assert np.linalg.matrix_rank(matrix) == rank
    u, _, _ = np.linalg.svd(matrix, full_matrices=False)
    u = u[:, :rank]
    np.testing.assert_allclose(row_basis.projector, (u @ u.T)[row_basis.rows], atol=1e-12)
    weights = np.linspace(0.5, 2.0, matrix.shape[1])
    gram = np.triu(_weighted_grams(row_basis, weights[np.newaxis])[0])
    dense = row_basis.reduced.toarray()
    np.testing.assert_allclose(gram, np.triu((dense * weights) @ dense.T), rtol=1e-13)


def test_read_only_operator_basis_is_memoised(refinement_inputs):
    _, matrix, _ = refinement_inputs["geant", "gravity"]
    assert not matrix.flags.writeable
    assert _row_basis(matrix) is _row_basis(matrix)
    writable = np.array(matrix)
    assert _row_basis(writable) is not _row_basis(writable)


def test_read_only_view_of_writable_array_is_not_memoised(refinement_inputs):
    priors, matrix, observed = refinement_inputs["geant", "gravity"]
    base = np.array(matrix)
    view = base.view()
    view.flags.writeable = False
    first = tomogravity_estimate(priors, view, observed)
    np.testing.assert_array_equal(first, tomogravity_estimate(priors, matrix, observed))
    base[:5] *= 2.0  # edit the operator through its writable base
    expected = tomogravity_estimate(priors, np.array(base), observed)
    assert not np.array_equal(expected, first)
    np.testing.assert_array_equal(tomogravity_estimate(priors, view, observed), expected)


def test_routing_matrix_does_not_alias_the_callers_array():
    built = build_routing_matrix(random_topology(6, seed=1))
    source = np.array(built.matrix)
    routing = RoutingMatrix(source, built.links, built.nodes)
    frozen = routing.matrix
    assert frozen is routing.matrix and not frozen.flags.writeable
    source[:] = 0.0
    assert frozen.any()
    assert _row_basis(routing.augmented_operator()) is _row_basis(routing.augmented_operator())
    sparse_operator = routing.augmented_operator(as_sparse=True)
    assert _row_basis(sparse_operator) is _row_basis(sparse_operator)


# ---------------------------------------------------------------------------
# the sparse branch
# ---------------------------------------------------------------------------

def test_sparse_kernel_matches_pinv_oracle_at_large_n():
    topology = random_topology(60, seed=4)
    rng = np.random.default_rng(9)
    n = topology.n_nodes
    truth = rng.gamma(0.6, 50.0, (4, n * n))
    series = TrafficMatrixSeries(truth.reshape(4, n, n), topology.nodes)
    system = simulate_link_loads(topology, series, noise_std=0.01, seed=2)
    matrix, observed = system.augmented_system(as_sparse=True)
    assert sparse.issparse(matrix)
    priors = truth * rng.uniform(0.5, 1.5, truth.shape)
    estimates = tomogravity_estimate(priors, matrix, observed)
    assert worst_rel_error(estimates, pinv_refine_chunk_sparse(priors, matrix, observed)) <= 1e-10


@pytest.mark.parametrize("as_sparse", [False, True])
def test_rank_zero_operator_returns_clipped_prior(as_sparse):
    prior = np.array([[1.0, -2.0, 3.0, 4.0], [0.0, 5.0, -1.0, 2.0]])
    operator = np.zeros((3, 4))
    operator = sparse.csr_matrix(operator) if as_sparse else operator
    refined = tomogravity_estimate(prior, operator, np.ones((2, 3)))
    np.testing.assert_array_equal(refined, np.clip(prior, 0.0, None))


# ---------------------------------------------------------------------------
# invalid inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["prior", "observations"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("as_sparse", [False, True])
def test_non_finite_input_raises(refinement_inputs, which, bad, as_sparse):
    priors, matrix, observed = refinement_inputs["geant", "gravity"]
    priors, observed = priors.copy(), observed.copy()
    (priors if which == "prior" else observed)[2, 5] = bad
    operator = sparse.csr_matrix(matrix) if as_sparse else matrix
    with pytest.raises(EstimationError, match=which):
        tomogravity_estimate(priors, operator, observed)


@pytest.mark.parametrize("floor", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("as_sparse", [False, True])
def test_non_positive_weight_floor_rejected(refinement_inputs, floor, as_sparse):
    priors, matrix, observed = refinement_inputs["geant", "gravity"]
    operator = sparse.csr_matrix(matrix) if as_sparse else matrix
    with pytest.raises(ValidationError, match="weight_floor"):
        tomogravity_estimate(priors, operator, observed, weight_floor=floor)


@pytest.mark.parametrize("floor", [0.0, -1.0])
def test_fast_path_rejects_non_positive_weight_floor(refinement_inputs, floor):
    priors, matrix, observed = refinement_inputs["geant", "gravity"]
    with pytest.raises(ValidationError, match="weight_floor"):
        FactorizationCache().refine(priors, matrix, observed, weight_floor=floor)


# ---------------------------------------------------------------------------
# properties over random rank-deficient operators
# ---------------------------------------------------------------------------

@st.composite
def observation_problems(draw):
    """A random routing-like ``B = [R; H; G]`` with duplicated rows, priors and ``z``."""
    n = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    links = draw(st.integers(min_value=1, max_value=2 * n))
    routing = (rng.random((links, n * n)) < 0.35) * rng.choice([0.5, 1.0], (links, n * n))
    duplicates = draw(st.integers(min_value=0, max_value=links))
    routing = np.vstack([routing, routing[rng.integers(0, links, duplicates)]])
    _, _, marginals = marginal_operators(n)
    matrix = np.vstack([routing, marginals])
    t = draw(st.integers(min_value=1, max_value=4))
    priors = rng.gamma(0.7, 10.0, (t, n * n)) * (rng.random((t, n * n)) < 0.7)
    if draw(st.booleans()):
        priors[0] = 0.0
    observed = rng.gamma(2.0, 10.0, (t, matrix.shape[0]))  # generally inconsistent
    return priors, matrix, observed


@given(observation_problems())
@settings(max_examples=60, deadline=None)
def test_projection_lands_on_range_projection_of_z(problem):
    priors, matrix, observed = problem
    weights = _weights(priors, None)
    row_basis = _row_basis(matrix)
    factors = _cholesky(_weighted_grams(row_basis, weights))
    u, singular, _ = np.linalg.svd(matrix, full_matrices=False)
    u = u[:, singular > singular.max() * max(matrix.shape) * np.finfo(float).eps]
    unclipped = _project(row_basis, factors, weights, priors, observed)
    for t in range(priors.shape[0]):
        target = u @ (u.T @ observed[t])
        assert np.linalg.norm(matrix @ unclipped[t] - target) <= 1e-9 * max(np.linalg.norm(target), 1e-300)


@given(observation_problems())
@settings(max_examples=40, deadline=None)
def test_batch_equals_per_bin_loop_bitwise(problem):
    priors, matrix, observed = problem
    loop = np.stack([tomogravity_estimate(priors[t], matrix, observed[t])
                     for t in range(priors.shape[0])])
    assert np.array_equal(tomogravity_estimate(priors, matrix, observed), loop)


@given(observation_problems(), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_result_is_bitwise_independent_of_chunking(problem, chunk_bins):
    priors, matrix, observed = problem
    whole = tomogravity_estimate(priors, matrix, observed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomogravity, "_CHUNK_BYTES", chunk_bins * matrix.shape[0] ** 2 * 8)
        assert np.array_equal(tomogravity_estimate(priors, matrix, observed), whole)


@given(observation_problems())
@settings(max_examples=60, deadline=None)
def test_dense_and_sparse_forms_agree(problem):
    """Within 1e-12, or the sparse basis's own accuracy on ill-conditioned operators.

    The sparse form takes its basis from ``eigh`` of ``B Bᵀ``, whose range
    is accurate to ~``eps · κ(B)²`` against the SVD's ``eps · κ(B)``
    (4,000 random problems: at most 12 ``eps · κ²``, above 1e-12 only for
    κ ≥ 76).
    """
    priors, matrix, observed = problem
    singular = np.linalg.svd(matrix, compute_uv=False)
    singular = singular[singular > singular.max() * max(matrix.shape) * np.finfo(float).eps]
    kappa = singular.max() / singular.min() if singular.size else 1.0
    bound = max(1e-12, 50 * np.finfo(float).eps * kappa**2)
    assert worst_rel_error(tomogravity_estimate(priors, sparse.csr_matrix(matrix), observed),
                           tomogravity_estimate(priors, matrix, observed)) <= bound
