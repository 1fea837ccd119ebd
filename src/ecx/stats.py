"""Correlations, log-space fits, quadrants, group averages, rank agreement.

Pearson p-values are two-sided, from the exact t-transform
t = r·sqrt(n-2)/sqrt(1-r²) evaluated through the regularized incomplete
beta function (p = I_{df/(df+t²)}(df/2, 1/2) = I_{1-r²}(df/2, 1/2)),
computed here by a continued fraction; |r| = 1 underflows to the
smallest positive double rather than 0.  Exponential (y = a·e^{bx}) and
power (y = a·x^b) fits are ordinary least squares in log space, matching
the straight lines the source figures draw on semi-log and log-log axes;
residuals are reported in log space, where OLS makes them sum to zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .catalogs import RegionCatalog
from .errors import InputDataError, NonConvergenceError
from .ingest import MacroIndicators
from .rca import DegreeProfile

MIN_P = 5e-324   # smallest positive subnormal double
_CF_MAX_TERMS = 1000   # b = 1/2 takes under 60 up to n = 10^7


@dataclass(frozen=True)
class Correlation:
    r: float
    p_value: float
    n: int

    @property
    def df(self) -> int:
        return self.n - 2


@dataclass(frozen=True)
class FitResult:
    model: str                   # "exponential" | "power"
    a: float
    b: float
    residuals: np.ndarray        # log-space, one per input point
    rmse_log: float

    def expected(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.model == "exponential":
            return self.a * np.exp(self.b * x)
        return self.a * np.power(x, self.b)


@dataclass(frozen=True)
class QuadrantClassification:
    codes: tuple
    quadrants: tuple             # "Q1".."Q4" per region
    mean_k_p0: float
    mean_k_p1: float


QUADRANT_NAMES = {
    "Q1": "diversified-ubiquitous",
    "Q2": "concentrated-ubiquitous",
    "Q3": "concentrated-specialized",
    "Q4": "diversified-specialized",
}


@dataclass(frozen=True)
class GroupStats:
    name: str
    count: int
    mean_eci: float
    mean_gpp_per_capita: float
    mean_income_per_person: float


@dataclass(frozen=True)
class RegionSummary:
    groups: Tuple[GroupStats, ...]
    gpp_correlation: Optional[Correlation]
    income_correlation: Optional[Correlation]
    highlight: Optional[str] = None
    # the highlighted region's home group recomputed without it, for
    # comparison with the primary (all-members) average
    home_group_excluding: Optional[GroupStats] = None


def _paired(x, y) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InputDataError("pearson needs two equal-length vectors")
    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep]


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by modified Lentz (Numerical
    Recipes §6.4); it converges fast for x < (a+1)/(a+b+2)."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        for term in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x
                     / ((a + 2 * m) * (a + 2 * m + 1))):
            # Lentz's tiny stands in for an exactly zero denominator
            d = 1.0 / (1.0 + term * d or 1e-300)
            c = 1.0 + term / c or 1e-300
            h *= d * c
        if abs(d * c - 1.0) <= sys.float_info.epsilon:
            return h
    raise NonConvergenceError(f"incomplete beta fraction at a={a}, b={b}, "
                              f"x={x} did not converge")


def correlation_p_value(r: float, n: int) -> float:
    """Two-sided p-value of a Pearson r under the null of no correlation.

    Uses the exact transform t = r·sqrt(df)/sqrt(1-r²) with df = n-2 and
    evaluates the Student-t tail through the regularized incomplete beta
    function, so extreme values stay accurate far below float epsilon
    (down to the smallest positive double instead of rounding to 0).
    """
    if n < 3:
        raise InputDataError(f"need at least 3 observations, have {n}")
    if not (-1.0 <= r <= 1.0):
        raise InputDataError(f"correlation must lie in [-1, 1], got {r}")
    a, r = 0.5 * (n - 2), abs(r)
    if r == 1.0:
        return MIN_P
    if r == 0.0:
        return 1.0
    # p = I_x(a, 1/2) at x = 1 - r² = (1-r)(1+r): both logs of the
    # prefactor x^a (1-x)^(1/2) / B(a, 1/2) come without cancelling
    log_front = (a * (math.log1p(-r) + math.log1p(r)) + math.log(r)
                 + math.lgamma(a + 0.5) - math.lgamma(a) - math.lgamma(0.5))
    x = (1.0 - r) * (1.0 + r)
    if x < (a + 1.0) / (a + 2.5):
        p = math.exp(log_front) * _beta_fraction(a, 0.5, x) / a
    else:   # the symmetry I_x(a, b) = 1 - I_{1-x}(b, a), with 1-x = r²
        p = 1.0 - 2.0 * math.exp(log_front) * _beta_fraction(0.5, a, r * r)
    return min(1.0, max(p, MIN_P))


def pearson(x: Sequence[float], y: Sequence[float]) -> Correlation:
    """Product-moment correlation with a two-sided t-distribution p-value.

    Pairs with a non-finite member are dropped (pairwise-complete).
    """
    x, y = _paired(x, y)
    n = x.size
    if n < 3:
        raise InputDataError(f"need at least 3 paired observations, have {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0 or syy == 0:
        raise InputDataError("zero variance in correlation input")
    # one sqrt of the product: exactly collinear data then lands on +-1
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return Correlation(r, correlation_p_value(r, n), n)


def _log_fit(u: np.ndarray, logy: np.ndarray) -> Tuple[float, float]:
    if np.ptp(u) == 0:
        raise InputDataError("zero variance in fit regressor")
    b, loga = np.polyfit(u, logy, 1)
    return float(loga), float(b)


def _positive_or_names(v: np.ndarray, labels, what: str) -> None:
    bad = np.flatnonzero(~(v > 0))
    if bad.size:
        names = ", ".join(
            str(labels[i]) if labels is not None else f"#{i}" for i in bad[:10]
        )
        raise InputDataError(f"{what} must be positive; offending: {names}")


def fit_exponential(x, y, labels=None) -> FitResult:
    """OLS of ln y on x: y = a·exp(b·x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _positive_or_names(y, labels, "exponential fit y values")
    logy = np.log(y)
    loga, b = _log_fit(x, logy)
    residuals = logy - (loga + b * x)
    return FitResult("exponential", math.exp(loga), b, residuals,
                     float(np.sqrt(np.mean(residuals ** 2))))


def fit_power(x, y, labels=None) -> FitResult:
    """OLS of ln y on ln x: y = a·x^b."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _positive_or_names(x, labels, "power fit x values")
    _positive_or_names(y, labels, "power fit y values")
    logx = np.log(x)
    logy = np.log(y)
    loga, b = _log_fit(logx, logy)
    residuals = logy - (loga + b * logx)
    return FitResult("power", math.exp(loga), b, residuals,
                     float(np.sqrt(np.mean(residuals ** 2))))


def residual_ranking(fit: FitResult, labels) -> List[Tuple[str, float]]:
    """Labels ordered by ascending residual (most below the line first)."""
    if len(labels) != fit.residuals.size:
        raise InputDataError("label count does not match residuals")
    return sorted(zip(labels, map(float, fit.residuals)),
                  key=lambda t: (t[1], t[0]))


def quadrants(profile: DegreeProfile, codes) -> QuadrantClassification:
    """Classify regions by (k_p0, k_p1) deviations from the means.

    Boundary points (exact mean) count as the positive side.  Q1 is
    diversified-ubiquitous (+,+), Q2 concentrated-ubiquitous (-,+),
    Q3 concentrated-specialized (-,-), Q4 diversified-specialized (+,-).
    """
    out = []
    for i in range(len(codes)):
        high_div = profile.k_p0[i] >= profile.mean_k_p0
        high_ubi = profile.k_p1[i] >= profile.mean_k_p1
        if high_div:
            out.append("Q1" if high_ubi else "Q4")
        else:
            out.append("Q2" if high_ubi else "Q3")
    return QuadrantClassification(tuple(codes), tuple(out),
                                  profile.mean_k_p0, profile.mean_k_p1)


def _group_mean(values: np.ndarray, idx: List[int]) -> float:
    sub = values[idx]
    sub = sub[np.isfinite(sub)]
    return float(sub.mean()) if sub.size else float("nan")


def region_averages(eci: np.ndarray, eci_codes, macro: MacroIndicators,
                    catalog: RegionCatalog,
                    highlight: Optional[str] = None) -> RegionSummary:
    """Per-super-region means of ECI and the macro indicators.

    Group means run over all member regions ("the average is taken over
    all the prefectures of a region"); if ``highlight`` names a region
    it additionally becomes its own group, and its home group's mean
    without it is reported for comparison.  When at least 3 groups have
    complete data, the correlation of mean ECI against each macro mean
    is attached.
    """
    eci_by_code = dict(zip(eci_codes, map(float, eci)))
    members: Dict[str, List[str]] = {}
    for code in eci_codes:
        if code not in catalog:
            raise InputDataError(f"missing group mapping for {code!r}")
        members.setdefault(catalog[code].super_region, []).append(code)

    def stats_for(name: str, codes: List[str]) -> GroupStats:
        idx = [catalog[c].region_id for c in codes]
        return GroupStats(
            name=name,
            count=len(codes),
            mean_eci=float(np.mean([eci_by_code[c] for c in codes])),
            mean_gpp_per_capita=_group_mean(macro.gpp_per_capita, idx),
            mean_income_per_person=_group_mean(macro.income_per_person, idx),
        )

    groups = [stats_for(name, codes) for name, codes in sorted(members.items())]
    home_excl = None
    if highlight is not None:
        if highlight not in eci_by_code:
            raise InputDataError(f"highlight region {highlight!r} not present")
        home = catalog[highlight].super_region
        groups.append(stats_for(catalog[highlight].name, [highlight]))
        rest = [c for c in members[home] if c != highlight]
        if rest:
            home_excl = stats_for(home, rest)

    def corr(attr: str) -> Optional[Correlation]:
        xs = [g.mean_eci for g in groups]
        ys = [getattr(g, attr) for g in groups]
        try:
            return pearson(xs, ys)
        except InputDataError:
            return None

    return RegionSummary(
        groups=tuple(groups),
        gpp_correlation=corr("mean_gpp_per_capita"),
        income_correlation=corr("mean_income_per_person"),
        highlight=highlight,
        home_group_excluding=home_excl,
    )


def rank_agreement(ranking_a: Dict[str, int], ranking_b: Dict[str, int]):
    """Kendall's tau-b plus a merged (label, rank_a, rank_b) table."""
    if set(ranking_a) != set(ranking_b):
        only_a = sorted(set(ranking_a) - set(ranking_b))[:5]
        only_b = sorted(set(ranking_b) - set(ranking_a))[:5]
        raise InputDataError(
            f"label mismatch between rankings (a-only {only_a}, b-only {only_b})"
        )
    labels = sorted(ranking_a, key=lambda c: (ranking_a[c], c))
    ra = np.array([ranking_a[c] for c in labels])
    rb = np.array([ranking_b[c] for c in labels])
    # tau-b = sum sa·sb / sqrt(sum sa² · sum sb²) over all ordered pairs,
    # sa = sign(ra_i - ra_j): a pair tied in a adds nothing to sum sa²
    sa = np.sign(np.subtract.outer(ra, ra))
    sb = np.sign(np.subtract.outer(rb, rb))
    norm = float(np.sum(sa * sa)) * float(np.sum(sb * sb))
    tau = float(np.sum(sa * sb)) / math.sqrt(norm) if norm else math.nan
    table = [(c, ranking_a[c], ranking_b[c]) for c in labels]
    return tau, table


def order_of(values: np.ndarray, codes) -> Tuple[int, ...]:
    """Indices by descending value; ties break by code."""
    return tuple(sorted(range(len(codes)),
                        key=lambda i: (-values[i], codes[i])))


def rank_of(values: np.ndarray, codes) -> Dict[str, int]:
    """Competition-free ranks, 1 = largest value; ties break by code."""
    return {codes[i]: pos + 1 for pos, i in enumerate(order_of(values, codes))}
