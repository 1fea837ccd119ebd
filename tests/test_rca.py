"""RCA ratios, binarization, and degree profiles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import binary, make_region_catalog, make_sector_catalog
from ecx import (DegenerateMatrixError, InputDataError, SalesMatrix, binarize,
                 compute_rca, degree_profile)


def sales_matrix(values, p=None, s=None):
    values = np.asarray(values, dtype=float)
    p, s = values.shape
    return SalesMatrix(values, make_region_catalog(p), make_sector_catalog(s))


def test_diagonal_specialists():
    rca = compute_rca(sales_matrix([[10.0, 0.0], [0.0, 10.0]]))
    assert np.array_equal(rca.values, [[2.0, 0.0], [0.0, 2.0]])


def test_mild_specialization():
    rca = compute_rca(sales_matrix([[8.0, 2.0], [2.0, 8.0]]))
    # every intermediate here is exact in binary floating point
    assert np.array_equal(rca.values, [[1.6, 0.4], [0.4, 1.6]])


def test_zero_cells_stay_zero():
    rca = compute_rca(sales_matrix([[5.0, 0.0], [3.0, 2.0]]))
    assert rca.values[0, 1] == 0.0
    assert np.all(np.isfinite(rca.values))


def test_zero_rows_and_columns_dropped_and_reported():
    rca = compute_rca(sales_matrix([[5.0, 0.0, 1.0],
                                    [0.0, 0.0, 0.0],
                                    [3.0, 0.0, 2.0]]))
    assert rca.values.shape == (2, 2)
    assert rca.regions.codes == ("R01", "R03")
    assert rca.sectors.codes == ("S01", "S03")
    assert rca.dropped.zero_sales_regions == ("R02",)
    assert rca.dropped.zero_sales_sectors == ("S02",)


def test_empty_economy():
    with pytest.raises(InputDataError, match="empty economy"):
        compute_rca(sales_matrix([[0.0, 0.0], [0.0, 0.0]]))


def test_binarize_boundary_is_inclusive():
    rca = compute_rca(sales_matrix([[10.0, 0.0], [0.0, 10.0]]))
    m = binarize(rca, threshold=2.0)   # RCA is exactly 2.0 on the diagonal
    assert np.array_equal(m.values, [[1, 0], [0, 1]])
    assert m.threshold == 2.0


def test_binarize_drops_rows_below_threshold():
    rca = compute_rca(sales_matrix([[10.0, 0.0], [0.0, 10.0], [5.0, 5.0]]))
    m = binarize(rca, threshold=1.9)
    assert m.regions.codes == ("R01", "R02")
    assert m.dropped.empty_regions == ("R03",)
    assert np.array_equal(m.values, [[1, 0], [0, 1]])


def test_binarize_carries_earlier_drops_forward():
    rca = compute_rca(sales_matrix([[10.0, 0.0, 0.0],
                                    [0.0, 10.0, 0.0],
                                    [0.0, 0.0, 0.0]]))
    m = binarize(rca)
    assert m.dropped.zero_sales_regions == ("R03",)
    assert m.dropped.zero_sales_sectors == ("S03",)
    assert m.dropped.empty_regions == ()


def test_binarize_all_below_threshold_is_degenerate():
    rca = compute_rca(sales_matrix([[10.0, 0.0], [0.0, 10.0]]))
    with pytest.raises(DegenerateMatrixError, match="degenerate matrix"):
        binarize(rca, threshold=100.0)


def test_binarize_rejects_nonpositive_threshold():
    rca = compute_rca(sales_matrix([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(InputDataError, match="threshold"):
        binarize(rca, threshold=0.0)


def test_degree_profile_nested_example():
    prof = degree_profile(binary([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    assert np.array_equal(prof.k_p0, [3, 2, 1])
    assert np.array_equal(prof.k_s0, [3, 2, 1])
    assert np.array_equal(prof.k_p1, [2.0, 2.5, 3.0])
    assert np.array_equal(prof.k_s1, [2.0, 2.5, 3.0])
    assert prof.mean_k_p0 == 2.0
    assert prof.mean_k_p1 == pytest.approx(2.5)


def test_degree_profile_requires_nondegenerate():
    from ecx.rca import BinaryBipartiteMatrix
    with pytest.raises(DegenerateMatrixError, match="zero row or column"):
        m = BinaryBipartiteMatrix(np.array([[1, 0], [1, 0]]),
                                  make_region_catalog(2),
                                  make_sector_catalog(2))
        degree_profile(m)


positive_sales = arrays(
    np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.one_of(st.just(0.0), st.floats(0.01, 100.0)),
)


@given(positive_sales)
@settings(max_examples=80, deadline=None)
def test_rca_row_share_identity(values):
    assume(values.sum() > 0)
    rca = compute_rca(sales_matrix(values))
    w = values[np.ix_(
        [i for i, c in enumerate(make_region_catalog(values.shape[0]).codes)
         if c in rca.regions.codes],
        [j for j, c in enumerate(make_sector_catalog(values.shape[1]).codes)
         if c in rca.sectors.codes],
    )]
    col_share = w.sum(axis=0) / w.sum()
    lhs = rca.values @ col_share
    assert np.allclose(lhs, 1.0, atol=1e-12, rtol=0)


@given(positive_sales, st.floats(0.2, 1.0), st.floats(1.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_binarize_monotone_in_threshold(values, lo, hi):
    assume(values.sum() > 0)
    rca = compute_rca(sales_matrix(values))
    try:
        m_lo = binarize(rca, lo)
        m_hi = binarize(rca, hi)
    except DegenerateMatrixError:
        assume(False)
    pairs_lo = {(r, s)
                for i, r in enumerate(m_lo.regions.codes)
                for j, s in enumerate(m_lo.sectors.codes)
                if m_lo.values[i, j]}
    pairs_hi = {(r, s)
                for i, r in enumerate(m_hi.regions.codes)
                for j, s in enumerate(m_hi.sectors.codes)
                if m_hi.values[i, j]}
    assert pairs_hi <= pairs_lo


binary_pattern = arrays(
    np.int64, st.tuples(st.integers(2, 7), st.integers(2, 7)),
    elements=st.integers(0, 1),
)


@given(binary_pattern)
@settings(max_examples=80, deadline=None)
def test_degree_identities(pattern):
    assume(np.all(pattern.sum(axis=1) > 0) and np.all(pattern.sum(axis=0) > 0))
    m = binary(pattern)
    prof = degree_profile(m)
    ones = int(pattern.sum())
    assert int(prof.k_p0.sum()) == ones
    assert int(prof.k_s0.sum()) == ones
    # k_p1 recomputed the slow way: mean ubiquity over the row's sectors
    for i in range(pattern.shape[0]):
        cols = np.flatnonzero(pattern[i])
        assert prof.k_p1[i] == pytest.approx(prof.k_s0[cols].mean(), rel=1e-12)
    assert np.all((1 <= prof.k_p1) & (prof.k_p1 <= pattern.shape[0]))
