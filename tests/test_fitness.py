"""The coupled fitness/complexity iteration and the ordered-matrix view."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import binary, fat_nested
from ecx import (DegenerateMatrixError, InputDataError, anti_diagonal_column,
                 convergence_report, fitness_complexity, order_by_rank)
from ecx.fitness import _step
from ecx.matrixio import read_matrix_csv
from oracles import fitness_reference

COLLAPSING = [[1, 1], [1, 0], [1, 0]]


def test_hand_computed_first_steps():
    """Three Jacobi steps on the dominant-row matrix, done on paper.

    Both updates read the previous step's vectors, so the second
    region's fitness walks 1 -> 0.75 -> 0.5 -> 0.375 while the first
    runs away with the mean.
    """
    res = fitness_complexity(binary(COLLAPSING), max_iter=3)
    assert np.allclose(res.history[0], [1.0, 1.0, 1.0], atol=0)
    assert np.allclose(res.history[1], [1.5, 0.75, 0.75], atol=1e-15)
    assert np.allclose(res.history[2], [2.0, 0.5, 0.5], atol=1e-15)
    assert np.allclose(res.history[3], [2.25, 0.375, 0.375], atol=1e-15)
    assert res.iterations == 3
    assert not res.converged


def test_collapse_detected_not_converged():
    res = fitness_complexity(binary(COLLAPSING), max_iter=200)
    assert res.min_fitness < 1e-3
    assert not res.converged
    assert res.iterations <= 200
    # the stop rule fired (changes below tol) but the floor verdict wins
    assert res.deltas[-1] < res.tol


@pytest.mark.parametrize("n", range(3, 11))
def test_nested_fixed_points_match_high_precision_reference(n):
    res = fitness_complexity(binary(fat_nested(n)))
    assert res.converged
    assert res.iterations < 1000
    assert res.min_fitness > 0
    f_ref, q_ref, _ = fitness_reference(fat_nested(n))
    assert np.allclose(res.fitness, f_ref, atol=1e-6)
    assert np.allclose(res.complexity, q_ref, atol=1e-6)


def test_fixed_point_independent_of_tolerance_path():
    m = binary(fat_nested(6))
    loose = fitness_complexity(m, tol=1e-8)
    tight = fitness_complexity(m, tol=1e-12, max_iter=5000)
    assert np.allclose(loose.fitness, tight.fitness, atol=1e-6)
    with pytest.raises(InputDataError, match="tol"):
        fitness_complexity(m, tol=0.0)
    with pytest.raises(InputDataError, match="max_iter"):
        fitness_complexity(m, max_iter=0)


@pytest.mark.parametrize("pattern", [
    [[1, 0, 1, 1, 1], [0, 1, 1, 1, 1], [1, 1, 0, 1, 1]],
    [[1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1], [0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1],
     [1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1]],
    [[1, 1, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 1, 0, 1, 1],
     [1, 1, 0, 1, 0, 1, 1, 0]],
], ids=["rounding", "rounding-wide", "residual"])
def test_constant_fixed_point_is_reported_exactly(pattern):
    """Every region's sum of 1/k_s is equal, so F = 1 is the fixed point;
    what rounding (1 ulp) or the stop rule (about 1e-10) leaves of it
    must not order or correlate the regions."""
    res = fitness_complexity(binary(pattern))
    assert res.converged
    assert np.array_equal(res.fitness, np.ones(3))


def test_degenerate_matrix_rejected():
    with pytest.raises(DegenerateMatrixError):
        fitness_complexity(binary([[1, 0], [1, 0]]))


def test_lowering_one_fitness_never_raises_complexity():
    rng = np.random.default_rng(3)
    values = (rng.random((6, 5)) < 0.5).astype(float)
    values[values.sum(axis=1) == 0, 0] = 1
    values[:, values.sum(axis=0) == 0] = 1
    f = rng.random(6) + 0.5
    q = rng.random(5) + 0.5
    _, q_before = _step(values, f, q)
    for p in range(6):
        f_low = f.copy()
        f_low[p] *= 0.25
        _, q_after = _step(values, f_low, q)
        holds = values[p] > 0
        assert np.all(q_after[holds] <= q_before[holds] + 1e-15)
        assert np.allclose(q_after[~holds], q_before[~holds], atol=0)


binary_pattern = arrays(
    np.int64, st.tuples(st.integers(2, 7), st.integers(2, 7)),
    elements=st.integers(0, 1),
)


@given(binary_pattern, st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_both_vectors_keep_mean_one(pattern, steps):
    assume(np.all(pattern.sum(axis=1) > 0) and np.all(pattern.sum(axis=0) > 0))
    res = fitness_complexity(binary(pattern), max_iter=steps)
    assert np.allclose(res.history.mean(axis=1), 1.0, atol=1e-12)
    assert res.complexity.mean() == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.fitness >= 0) and np.all(res.complexity >= 0)


@given(binary_pattern, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_iteration_permutation_equivariance(pattern, rnd):
    assume(np.all(pattern.sum(axis=1) > 0) and np.all(pattern.sum(axis=0) > 0))
    base = fitness_complexity(binary(pattern), max_iter=60)
    perm = list(range(pattern.shape[0]))
    rnd.shuffle(perm)
    permuted = fitness_complexity(binary(pattern[perm]), max_iter=60)
    assert np.allclose(permuted.fitness, base.fitness[perm], atol=1e-12)
    assert np.allclose(permuted.complexity, base.complexity, atol=1e-12)


def test_anti_diagonal_column_corners():
    assert anti_diagonal_column(0, 4, 9) == 8     # top row -> rightmost
    assert anti_diagonal_column(3, 4, 9) == 0     # bottom row -> leftmost
    assert anti_diagonal_column(0, 1, 5) == 4     # single-row edge case
    cols = [anti_diagonal_column(i, 6, 6) for i in range(6)]
    assert cols == [5, 4, 3, 2, 1, 0]


def test_ordered_view_nested_clearance():
    m = binary([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
    res = fitness_complexity(m, max_iter=50)
    view = order_by_rank(m, res)
    assert view.row_codes == ("R01", "R02", "R03")
    assert view.col_codes == ("S01", "S02", "S03")
    assert np.array_equal(view.matrix, m.values)
    assert view.diagonal_clearance == pytest.approx(1.0 / 3.0)


def test_ordered_view_collapse_clearance_zero():
    m = binary(COLLAPSING)
    res = fitness_complexity(m, max_iter=50)
    view = order_by_rank(m, res)
    assert view.diagonal_clearance == pytest.approx(0.0, abs=1e-12)


def test_ordered_view_sorts_by_rank_with_code_ties():
    m = binary(COLLAPSING)
    res = fitness_complexity(m, max_iter=50)
    view = order_by_rank(m, res)
    # R02 and R03 share a fitness value; codes break the tie
    assert view.row_codes == ("R01", "R02", "R03")


def test_convergence_report_shape(tmp_path):
    res = fitness_complexity(binary(fat_nested(4)))
    convergence_report(res, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,R01,R02,R03,R04"
    assert len(lines) == res.iterations + 2
    assert lines[1] == "0,1.0,1.0,1.0,1.0"
    values, iterations, regions = read_matrix_csv(tmp_path / "trace.csv")
    assert iterations == tuple(str(n) for n in range(res.iterations + 1))
    assert regions == res.region_codes
    assert np.array_equal(values, res.history)
