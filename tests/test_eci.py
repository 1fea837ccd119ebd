"""Transition matrices, second eigenpairs, and index standardization."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import binary
from ecx import (DegenerateSpectrumError, NonConvergenceError,
                 build_transition, compute_indices, second_eigenpair)
from ecx.eci import _standardize_oriented
from oracles import eci_oracle

NESTED_2 = [[1, 1], [1, 0]]


def test_transition_worked_example():
    t = build_transition(binary(NESTED_2), "region")
    assert np.allclose(t.values, [[0.75, 0.25], [0.5, 0.5]], atol=1e-15)


def test_transition_rows_sum_to_one():
    t = build_transition(binary(NESTED_2), "region")
    assert np.allclose(t.values.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(t.values >= 0)


def test_second_eigenpair_worked_example():
    t = build_transition(binary(NESTED_2), "region")
    pair = second_eigenpair(t)
    assert pair.eigenvalue == pytest.approx(0.25, abs=1e-12)
    # eigenvector proportional to (1, -2), unit norm, residual tiny
    ratio = pair.eigenvector[0] / pair.eigenvector[1]
    assert ratio == pytest.approx(-0.5, abs=1e-10)
    assert np.linalg.norm(pair.eigenvector) == pytest.approx(1.0, abs=1e-12)
    assert pair.residual_norm <= 1e-9
    lhs = t.values @ pair.eigenvector
    assert np.allclose(lhs, pair.eigenvalue * pair.eigenvector, atol=1e-8)


def test_indices_worked_example():
    res = compute_indices(binary(NESTED_2))
    assert res.eci == pytest.approx([1.0, -1.0], abs=1e-12)
    assert res.pci == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert res.second_eigenvalue_region == pytest.approx(0.25, abs=1e-12)
    assert res.second_eigenvalue_sector == pytest.approx(0.25, abs=1e-12)
    assert res.spectral_gap == pytest.approx(0.75, abs=1e-12)
    assert res.method_region == "dense"


def test_eci_signs_follow_diversification():
    # the diversified region carries the positive index, the ubiquitous
    # sector the negative one
    res = compute_indices(binary([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    assert res.eci[0] > 0 > res.eci[2]
    assert res.pci[0] < 0 < res.pci[2]


def test_standardize_sign_flip_invariance():
    v = np.array([0.3, -0.9, 0.6, 0.1])
    anchor = np.array([4.0, 1.0, 3.0, 2.0])
    a = _standardize_oriented(v, anchor, +1)
    b = _standardize_oriented(-v, anchor, +1)
    assert np.array_equal(a, b)


def test_standardize_zero_covariance_tiebreak():
    v = np.array([1.0, -1.0])
    flat = np.array([3.0, 3.0])   # no correlation signal at all
    z = _standardize_oriented(v, flat, +1)
    assert z[0] > 0
    assert np.array_equal(_standardize_oriented(-v, flat, +1), z)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_identity_matrix_degenerate(n):
    with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
        compute_indices(binary(np.eye(n, dtype=np.int64)))


def test_tied_subleading_eigenvalues_degenerate():
    ring = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    with pytest.raises(DegenerateSpectrumError):
        compute_indices(binary(ring))


def _random_nondegenerate(p, s, seed):
    rng = np.random.default_rng(seed)
    while True:
        m = (rng.random((p, s)) < 0.45).astype(np.int64)
        if np.all(m.sum(axis=1) > 0) and np.all(m.sum(axis=0) > 0):
            try:
                return m, compute_indices(binary(m))
            except DegenerateSpectrumError:
                continue


def test_power_path_matches_independent_solver():
    m, res = _random_nondegenerate(70, 90, seed=11)
    assert res.method_region == "power"
    assert res.method_sector == "power"
    lam, z = eci_oracle(m)
    assert res.second_eigenvalue_region == pytest.approx(lam, abs=1e-8)
    sign = 1.0 if np.dot(z, res.eci) >= 0 else -1.0
    assert np.allclose(res.eci, sign * z, atol=1e-6)


def test_power_path_reports_nonconvergence():
    m, _ = _random_nondegenerate(70, 90, seed=12)
    with pytest.raises(NonConvergenceError, match="power iteration"):
        compute_indices(binary(m), max_iter=3)


def test_dense_path_matches_independent_solver():
    m, res = _random_nondegenerate(12, 17, seed=5)
    assert res.method_region == "dense"
    lam, z = eci_oracle(m)
    assert res.second_eigenvalue_region == pytest.approx(lam, abs=1e-10)
    sign = 1.0 if np.dot(z, res.eci) >= 0 else -1.0
    assert np.allclose(res.eci, sign * z, atol=1e-8)


def test_build_transition_rejects_unknown_kind():
    from ecx import InputDataError
    with pytest.raises(InputDataError, match="kind"):
        build_transition(binary(NESTED_2), "country")


binary_pattern = arrays(
    np.int64, st.tuples(st.integers(3, 8), st.integers(3, 8)),
    elements=st.integers(0, 1),
)


def _indices_or_none(pattern):
    if np.any(pattern.sum(axis=1) == 0) or np.any(pattern.sum(axis=0) == 0):
        return None
    try:
        return compute_indices(binary(pattern))
    except DegenerateSpectrumError:
        return None


@given(binary_pattern)
@settings(max_examples=60, deadline=None)
def test_standardization_moments(pattern):
    res = _indices_or_none(pattern)
    assume(res is not None)
    assert res.eci.mean() == pytest.approx(0.0, abs=1e-10)
    assert res.eci.std() == pytest.approx(1.0, abs=1e-10)   # population std
    assert res.pci.mean() == pytest.approx(0.0, abs=1e-10)
    assert res.pci.std() == pytest.approx(1.0, abs=1e-10)


# most small random patterns are degenerate or have an eigenvector
# orthogonal to the degree anchor, so the assumes below discard many
# draws by design; that is not a reason to abort the run
@given(binary_pattern, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_permutation_equivariance(pattern, rnd):
    res = _indices_or_none(pattern)
    assume(res is not None)
    # when the eigenvector is (near-)orthogonal to the degree anchor the
    # sign falls to an index-based tie-break, which permutation moves;
    # equivariance is only claimed for the generic case
    k_p0 = pattern.sum(axis=1).astype(float)
    k_s0 = pattern.sum(axis=0).astype(float)
    assume(abs(np.dot(res.eci, k_p0 - k_p0.mean())) > 1e-6)
    assume(abs(np.dot(res.pci, k_s0 - k_s0.mean())) > 1e-6)
    perm = list(range(pattern.shape[0]))
    rnd.shuffle(perm)
    permuted = compute_indices(binary(pattern[perm]))
    # ECI follows the rows wherever they moved
    assert np.allclose(permuted.eci, res.eci[perm], atol=1e-8)
    assert np.allclose(permuted.pci, res.pci, atol=1e-8)
