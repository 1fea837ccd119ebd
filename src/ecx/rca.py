"""Revealed comparative advantage, binarization, and degree profiles.

RCA[p][s] = (w[p][s] / sum_s w[p][s]) / (sum_p w[p][s] / sum_ps w[p][s]).
The binary bipartite matrix keeps a 1 wherever RCA >= threshold (the
boundary value itself counts).  Regions with zero total sales and
all-zero sector columns are dropped before the ratio is formed, and
rows/columns that end up empty after thresholding are dropped as well;
every drop is reported so downstream indices stay dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .catalogs import RegionCatalog, SectorCatalog
from .errors import DegenerateMatrixError, InputDataError
from .ingest import SalesMatrix


@dataclass(frozen=True)
class DropReport:
    """Codes removed on the way from sales to the binary matrix."""

    zero_sales_regions: Tuple[str, ...] = ()
    zero_sales_sectors: Tuple[str, ...] = ()
    empty_regions: Tuple[str, ...] = ()      # all RCA below threshold
    empty_sectors: Tuple[str, ...] = ()

    def as_dict(self):
        return {
            "zero_sales_regions": list(self.zero_sales_regions),
            "zero_sales_sectors": list(self.zero_sales_sectors),
            "empty_regions": list(self.empty_regions),
            "empty_sectors": list(self.empty_sectors),
        }


@dataclass(frozen=True)
class RcaMatrix:
    values: np.ndarray
    regions: RegionCatalog
    sectors: SectorCatalog
    dropped: DropReport = field(default_factory=DropReport)


@dataclass(frozen=True)
class BinaryBipartiteMatrix:
    values: np.ndarray          # (P, S) of 0/1 ints
    regions: RegionCatalog
    sectors: SectorCatalog
    threshold: float = 1.0
    dropped: DropReport = field(default_factory=DropReport)

    def __post_init__(self):
        if self.values.size == 0:
            raise DegenerateMatrixError("degenerate matrix: empty")
        if (np.any(self.values.sum(axis=1) == 0)
                or np.any(self.values.sum(axis=0) == 0)):
            raise DegenerateMatrixError(
                "degenerate matrix: zero row or column present"
            )

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class DegreeProfile:
    k_p0: np.ndarray            # diversification (row sums)
    k_s0: np.ndarray            # ubiquity (column sums)
    k_p1: np.ndarray            # mean ubiquity of a region's sectors
    k_s1: np.ndarray            # mean diversification of a sector's regions
    mean_k_p0: float
    mean_k_p1: float


def compute_rca(sales: SalesMatrix) -> RcaMatrix:
    """RCA ratios; zero-total rows/columns are dropped and reported."""
    w = sales.values
    total = w.sum()
    if total <= 0:
        raise InputDataError("empty economy: total sales are zero")
    row_keep = np.flatnonzero(w.sum(axis=1) > 0)
    col_keep = np.flatnonzero(w.sum(axis=0) > 0)
    rset, cset = set(row_keep), set(col_keep)
    dropped = DropReport(
        zero_sales_regions=tuple(
            c for i, c in enumerate(sales.regions.codes) if i not in rset
        ),
        zero_sales_sectors=tuple(
            c for j, c in enumerate(sales.sectors.codes) if j not in cset
        ),
    )
    w = w[np.ix_(row_keep, col_keep)]
    regions = sales.regions.subset(row_keep)
    sectors = sales.sectors.subset(col_keep)
    row_share = w / w.sum(axis=1, keepdims=True)
    col_share = w.sum(axis=0, keepdims=True) / w.sum()
    rca = row_share / col_share
    rca[w == 0] = 0.0
    return RcaMatrix(rca, regions, sectors, dropped)


def binarize(rca: RcaMatrix, threshold: float = 1.0) -> BinaryBipartiteMatrix:
    """Threshold RCA into M (boundary included); drop empty rows/columns."""
    if not (threshold > 0):
        raise InputDataError(f"threshold must be positive, got {threshold}")
    m = (rca.values >= threshold).astype(np.int64)
    row_keep = np.flatnonzero(m.sum(axis=1) > 0)
    col_keep = np.flatnonzero(m.sum(axis=0) > 0)
    if row_keep.size == 0 or col_keep.size == 0:
        raise DegenerateMatrixError(
            "degenerate matrix: no rows or columns survive binarization "
            f"at threshold {threshold}"
        )
    rset, cset = set(row_keep), set(col_keep)
    dropped = DropReport(
        zero_sales_regions=rca.dropped.zero_sales_regions,
        zero_sales_sectors=rca.dropped.zero_sales_sectors,
        empty_regions=tuple(
            c for i, c in enumerate(rca.regions.codes) if i not in rset
        ),
        empty_sectors=tuple(
            c for j, c in enumerate(rca.sectors.codes) if j not in cset
        ),
    )
    m = m[np.ix_(row_keep, col_keep)]
    return BinaryBipartiteMatrix(
        m, rca.regions.subset(row_keep), rca.sectors.subset(col_keep),
        threshold, dropped,
    )


def degree_profile(m: BinaryBipartiteMatrix) -> DegreeProfile:
    """Diversification/ubiquity degrees and mean nearest-neighbour degrees."""
    values = m.values
    k_p0 = values.sum(axis=1)
    k_s0 = values.sum(axis=0)
    k_p1 = (values @ k_s0) / k_p0
    k_s1 = (values.T @ k_p0) / k_s0
    return DegreeProfile(
        k_p0=k_p0, k_s0=k_s0, k_p1=k_p1, k_s1=k_s1,
        mean_k_p0=float(k_p0.mean()), mean_k_p1=float(k_p1.mean()),
    )
