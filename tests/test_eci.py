"""Transition matrices, second eigenpairs, and index standardization."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import binary, run_python
from ecx import (DegenerateSpectrumError, NonConvergenceError,
                 build_transition, compute_indices, second_eigenpair)
from ecx.cli import main
from ecx.eci import _standardize_oriented
from ecx.matrixio import write_csv, write_matrix_csv
from ecx.synth import _modular_matrix
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
    pair, sector_pair = second_eigenpair(binary(NESTED_2))
    assert sector_pair.eigenvalue == pair.eigenvalue
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
    assert res.region_pair.eigenvalue == pytest.approx(0.25, abs=1e-12)
    assert res.sector_pair.eigenvalue == pytest.approx(0.25, abs=1e-12)
    assert res.spectral_gap == pytest.approx(0.75, abs=1e-12)


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


def _module_ring(n):
    # a full 3-module ring: spectrum 1, 1/4, 1/4, 0, ... on both sides
    return _modular_matrix(n, n, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("n", [66, 99, 150])
def test_module_ring_degenerate(n):
    with pytest.raises(DegenerateSpectrumError, match="second and third"):
        compute_indices(binary(_module_ring(n)))


def test_module_ring_cli_exits_3(tmp_path, capsys):
    m = binary(_module_ring(66))
    for name, catalog in (("catalog_regions.csv", m.regions),
                          ("catalog_sectors.csv", m.sectors)):
        rows = iter(catalog.to_csv_rows())
        write_csv(tmp_path / name, next(rows), rows)
    write_matrix_csv(tmp_path / "m.csv", m.values, m.regions.codes,
                     m.sectors.codes, binary=True)
    assert main(["eci", "--out", str(tmp_path)]) == 3
    assert "degenerate spectrum" in capsys.readouterr().err
    assert not (tmp_path / "eci.csv").exists()


def _random_nondegenerate(p, s, seed):
    rng = np.random.default_rng(seed)
    while True:
        m = (rng.random((p, s)) < 0.45).astype(np.int64)
        if np.all(m.sum(axis=1) > 0) and np.all(m.sum(axis=0) > 0):
            try:
                return m, compute_indices(binary(m))
            except DegenerateSpectrumError:
                continue


@pytest.mark.parametrize("p,s,seed", [(12, 17, 5), (70, 90, 11)],
                         ids=["12x17", "70x90"])
def test_matches_independent_solver(p, s, seed):
    m, res = _random_nondegenerate(p, s, seed)
    lam, z = eci_oracle(m)
    assert res.region_pair.eigenvalue == pytest.approx(lam, abs=1e-10)
    sign = 1.0 if np.dot(z, res.eci) >= 0 else -1.0
    assert np.allclose(res.eci, sign * z, atol=1e-8)


def test_residual_check_refuses_an_inexact_vector(monkeypatch):
    m, _ = _random_nondegenerate(12, 17, seed=5)
    svd = np.linalg.svd

    def nudged(a, full_matrices=True):
        u, sigma, vt = svd(a, full_matrices=full_matrices)
        u[0, 1] += 1e-6
        return u, sigma, vt

    monkeypatch.setattr(np.linalg, "svd", nudged)
    with pytest.raises(NonConvergenceError, match="residual"):
        compute_indices(binary(m))


def test_indices_identical_across_blas_thread_counts():
    script = """
        import json
        import numpy as np
        from conftest import binary
        from ecx import compute_indices
        m = np.random.default_rng(3).random((200, 400)) < 0.35
        res = compute_indices(binary(m))
        print(json.dumps([res.eci.tobytes().hex(), res.pci.tobytes().hex(),
                          res.region_pair.eigenvalue.hex(),
                          res.sector_pair.eigenvalue.hex()]))
    """
    outputs = []
    for threads in ("1", "2"):
        proc = run_python(script, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]


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


@st.composite
def nested_pattern(draw):
    """A nested 3..8 x 3..8 0/1 pattern, rows and columns shuffled.

    The shorter side's degrees are distinct and one of them is full, so
    no row or column is empty.  Each of the 432 such patterns (up to the
    shuffle, which leaves the spectrum alone) has an isolated second
    eigenvalue, checked by enumerating them, so no draw is degenerate.
    """
    p, s = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    short, long_ = min(p, s), max(p, s)
    degrees = [long_, *draw(st.lists(st.integers(1, long_ - 1), unique=True,
                                     min_size=short - 1,
                                     max_size=short - 1))]
    m = (np.arange(long_)[None, :] < np.array(degrees)[:, None]).astype(int)
    if p > s:
        m = m.T
    rows = draw(st.permutations(range(p)))
    cols = draw(st.permutations(range(s)))
    return m[rows][:, cols]


@given(nested_pattern())
@settings(max_examples=60, deadline=None)
def test_standardization_moments(pattern):
    res = compute_indices(binary(pattern))
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
