"""Spectral complexity indices from the bipartite matrix.

The region transition matrix T[p][p'] = sum_s M[p][s]·M[p'][s] /
(k_p0[p]·k_s0[s]) is row-stochastic: its leading eigenpair is (1,
uniform) and carries no information.  The index is the eigenvector of
the second-largest eigenvalue, standardized to mean 0 and population
standard deviation 1 (ECI on the region side, PCI on the sector side).

One thin SVD serves both sides (the spectral reading of Mealy, Farmer &
Teytelboym, "Interpreting economic complexity", Sci. Adv. 2019).  With
A = D_p^{-1/2} M D_s^{-1/2} = U Σ Vᵀ, the region matrix
T = D_p^{-1} M D_s^{-1} Mᵀ is similar to AAᵀ and the sector matrix
D_s^{-1} Mᵀ D_p^{-1} M to AᵀA.  Both have eigenvalues σᵢ² (plus zeros
on the longer side), with eigenvectors D_p^{-1/2}uᵢ and D_s^{-1/2}vᵢ.
The spectrum is real and nonnegative by construction; the solver still
refuses to pick a direction when λ2 is not isolated from λ1 or λ3
("degenerate spectrum").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InputDataError,
    NonConvergenceError,
    NumericalError,
)
from .rca import BinaryBipartiteMatrix, degree_profile

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class TransitionMatrix:
    values: np.ndarray          # square, row-stochastic
    kind: str                   # "region" | "sector"
    codes: tuple


@dataclass(frozen=True)
class EigenPair:
    eigenvalue: float
    eigenvector: np.ndarray     # unit Euclidean norm, canonical sign
    residual_norm: float


@dataclass(frozen=True)
class ComplexityIndices:
    eci: np.ndarray
    pci: np.ndarray
    region_codes: tuple
    sector_codes: tuple
    region_pair: EigenPair
    sector_pair: EigenPair

    @property
    def spectral_gap(self) -> float:
        """1 - λ2 of the region transition matrix."""
        return 1.0 - self.region_pair.eigenvalue


def build_transition(m: BinaryBipartiteMatrix, kind: str) -> TransitionMatrix:
    """Row-stochastic co-occurrence transition matrix of the given kind.

    A diagnostic: the solver never builds it.
    """
    values = m.values.astype(float)
    k_p0 = values.sum(axis=1)
    k_s0 = values.sum(axis=0)
    if kind == "region":
        t = (values / k_p0[:, None]) @ (values / k_s0[None, :]).T
        codes = m.regions.codes
    elif kind == "sector":
        t = (values / k_s0[None, :]).T @ (values / k_p0[:, None])
        codes = m.sectors.codes
    else:
        raise InputDataError(f"unknown transition kind {kind!r}")
    return TransitionMatrix(t, kind, codes)


def _check_gap(lam_hi: float, lam_lo: float, tol: float, which: str) -> None:
    lam_hi, lam_lo = float(lam_hi), float(lam_lo)
    if abs(lam_hi - lam_lo) < tol:
        raise DegenerateSpectrumError(
            f"degenerate spectrum: {which} eigenvalues "
            f"{lam_hi!r} and {lam_lo!r} differ by less than tol={tol!r}"
        )


def _checked_pair(v: np.ndarray, lam: float, transition,
                  tol: float) -> EigenPair:
    """Unit-norm, canonically signed eigenpair, refused if Tv != λv."""
    v = v / np.linalg.norm(v)
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    residual = float(np.max(np.abs(transition(v) - lam * v)))
    if residual > max(tol, 1e-9):
        raise NonConvergenceError(
            f"eigenpair residual {residual!r} exceeds tolerance"
        )
    return EigenPair(lam, v, residual)


def second_eigenpair(m: BinaryBipartiteMatrix, tol: float = DEFAULT_TOL
                     ) -> Tuple[EigenPair, EigenPair]:
    """(region, sector) eigenpairs of the second-largest eigenvalue of the
    two transition matrices, from one thin SVD."""
    if not (math.isfinite(tol) and tol > 0):
        raise InputDataError(f"tol must be finite and positive, got {tol}")
    values = m.values.astype(float)
    if min(values.shape) < 2:
        raise InputDataError("transition matrices must be at least 2x2")
    k_p0 = values.sum(axis=1)
    k_s0 = values.sum(axis=0)
    u, sigma, vt = np.linalg.svd(
        values / np.sqrt(k_p0)[:, None] / np.sqrt(k_s0)[None, :],
        full_matrices=False)
    lam = sigma ** 2
    _check_gap(lam[0], lam[1], tol, "first and second")
    lam2 = float(lam[1])
    lam3 = lam[2] if lam.size > 2 else 0.0

    def region_transition(x):       # T x without building T
        return values @ ((x @ values) / k_s0) / k_p0

    def sector_transition(y):
        return ((values @ y) / k_p0) @ values / k_s0

    pairs = []
    for v, transition in ((u[:, 1] / np.sqrt(k_p0), region_transition),
                          (vt[1] / np.sqrt(k_s0), sector_transition)):
        if v.size > 2:
            _check_gap(lam2, lam3, tol, "second and third")
        pairs.append(_checked_pair(v, lam2, transition, tol))
    return tuple(pairs)


def _standardize_oriented(v: np.ndarray, anchor: np.ndarray,
                          orient: int) -> np.ndarray:
    """Mean-0 / population-std-1 scaling with a deterministic sign.

    The sign is chosen so the Pearson correlation with ``orient*anchor``
    is >= 0; an exactly-zero correlation falls back to making the first
    nonzero component positive.
    """
    std = v.std()
    if std == 0:
        raise NumericalError("cannot standardize a constant eigenvector")
    z = (v - v.mean()) / std
    cov = float(z @ (anchor - anchor.mean()))
    if orient * cov < 0:
        z = -z
    elif cov == 0:
        nz = np.flatnonzero(z)
        if nz.size and z[nz[0]] < 0:
            z = -z
    return z


def compute_indices(m: BinaryBipartiteMatrix,
                    tol: float = DEFAULT_TOL) -> ComplexityIndices:
    """ECI per region and PCI per sector.

    ECI is oriented to correlate non-negatively with diversification
    k_p0; PCI to correlate non-negatively with -k_s0 (complex sectors
    are the less ubiquitous ones).
    """
    prof = degree_profile(m)
    pair_r, pair_s = second_eigenpair(m, tol)
    eci = _standardize_oriented(pair_r.eigenvector, prof.k_p0.astype(float), +1)
    pci = _standardize_oriented(pair_s.eigenvector, prof.k_s0.astype(float), -1)
    return ComplexityIndices(
        eci=eci,
        pci=pci,
        region_codes=m.regions.codes,
        sector_codes=m.sectors.codes,
        region_pair=pair_r,
        sector_pair=pair_s,
    )
