"""Fitness-complexity fixed-point iteration and the ordered-matrix view.

Each step reads the previous step's vectors (Jacobi updates):

    F~[p] = sum_s M[p][s] * Q[s]          (diversification weighted by
                                           sector complexity)
    Q~[s] = 1 / sum_p M[p][s] * (1/F[p])  (complexity bounded by the
                                           least fit holders)

followed by normalization of both vectors to mean 1.  Iteration starts
from all-ones and stops when max(||dF||_inf, ||dQ||_inf) < tol or at
max_iter.  Whether the stopped point is a genuine fixed point depends
on the matrix structure: on nested (staircase-support) matrices the
values settle at strictly positive levels, while matrices whose support
concentrates on one dominant row drive the other fitness values to zero
geometrically — the step-to-step changes then shrink below any tol even
though the values keep sliding toward 0.  The ``converged`` verdict
therefore requires both that the stop rule fired and that min(fitness)
stayed above ``COLLAPSE_FLOOR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import InputDataError
from .matrixio import write_matrix_csv
from .rca import BinaryBipartiteMatrix
from .stats import order_of

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 1000
COLLAPSE_FLOOR = 1e-6
_RECIPROCAL_GUARD = 1e-300   # floor inside 1/F sums only, never stored


@dataclass(frozen=True)
class FitnessResult:
    fitness: np.ndarray              # per region, mean 1
    complexity: np.ndarray           # per sector, mean 1
    iterations: int
    converged: bool
    tol: float
    region_codes: tuple
    sector_codes: tuple
    history: np.ndarray              # (iterations+1, P) fitness per step
    deltas: np.ndarray               # (iterations,) max |dF|, |dQ| per step

    @property
    def min_fitness(self) -> float:
        return float(self.fitness.min())


@dataclass(frozen=True)
class OrderedMatrixView:
    permutation_rows: Tuple[int, ...]   # source row index per output row
    permutation_cols: Tuple[int, ...]
    matrix: np.ndarray
    row_codes: tuple
    col_codes: tuple
    diagonal_clearance: float


def _step(values: np.ndarray, f: np.ndarray,
          q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One raw (prenormalized) update; both outputs read the inputs only."""
    f_t = values @ q
    q_t = 1.0 / (values.T @ (1.0 / np.maximum(f, _RECIPROCAL_GUARD)))
    return f_t, q_t


def fitness_complexity(m: BinaryBipartiteMatrix, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER, *,
                       f0: np.ndarray = None,
                       q0: np.ndarray = None) -> FitnessResult:
    """Run the coupled iteration from F = Q = 1 (or given start vectors).

    Non-convergence is a legitimate, reported outcome — the history,
    the step deltas and the final values are always returned.
    ``f0``/``q0`` exist so tests can assert scale invariance of the
    start; production runs use the all-ones default.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InputDataError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise InputDataError(f"max_iter must be >= 1, got {max_iter}")
    values = m.values.astype(float)
    p, s = values.shape
    f = np.ones(p) if f0 is None else np.asarray(f0, dtype=float).copy()
    q = np.ones(s) if q0 is None else np.asarray(q0, dtype=float).copy()
    if f.shape != (p,) or q.shape != (s,):
        raise InputDataError("start vectors do not match the matrix shape")
    if np.any(f <= 0) or np.any(q <= 0):
        raise InputDataError("start vectors must be positive")

    history: List[np.ndarray] = [f.copy()]
    deltas: List[float] = []
    stopped = False
    iterations = 0
    for n in range(1, max_iter + 1):
        f_t, q_t = _step(values, f, q)
        f_new = f_t / f_t.mean()
        q_new = q_t / q_t.mean()
        delta = max(np.max(np.abs(f_new - f)), np.max(np.abs(q_new - q)))
        f, q = f_new, q_new
        iterations = n
        history.append(f.copy())
        deltas.append(delta)
        if delta < tol:
            stopped = True
            break
    converged = stopped and float(f.min()) > COLLAPSE_FLOOR
    return FitnessResult(
        fitness=f, complexity=q, iterations=iterations, converged=converged,
        tol=tol, region_codes=m.regions.codes, sector_codes=m.sectors.codes,
        history=np.vstack(history), deltas=np.array(deltas),
    )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def anti_diagonal_column(i: int, p: int, s: int) -> int:
    """Column hit by the top-right -> bottom-left diagonal in row i."""
    if p == 1:
        return s - 1
    return _ceil_div((s - 1) * (p - 1 - i), p - 1)


def order_by_rank(m: BinaryBipartiteMatrix,
                  result: FitnessResult) -> OrderedMatrixView:
    """Rows by descending fitness, columns by ascending complexity.

    Ties break lexicographically by label code.  ``diagonal_clearance``
    is (fraction of rows whose anti-diagonal cell is 1) minus the
    overall density of the matrix: positive when the diagonal from the
    top-right corner runs through occupied cells rather than the vacant
    region, i.e. when the ordered matrix looks triangular.
    """
    if not (np.all(np.isfinite(result.fitness))
            and np.all(np.isfinite(result.complexity))):
        raise InputDataError("fitness result contains non-finite values")
    rcodes = m.regions.codes
    ccodes = m.sectors.codes
    rows = order_of(result.fitness, rcodes)
    cols = order_of(-result.complexity, ccodes)
    matrix = m.values[np.ix_(rows, cols)]
    p, s = matrix.shape
    on_diag = sum(int(matrix[i, anti_diagonal_column(i, p, s)]) for i in range(p))
    clearance = on_diag / p - matrix.sum() / (p * s)
    return OrderedMatrixView(
        permutation_rows=rows,
        permutation_cols=cols,
        matrix=matrix,
        row_codes=tuple(rcodes[i] for i in rows),
        col_codes=tuple(ccodes[j] for j in cols),
        diagonal_clearance=float(clearance),
    )


def convergence_report(result: FitnessResult, path) -> None:
    """Write the plot-ready trace: one row of region fitness values per
    iteration, the start included, under an ``iteration`` corner."""
    write_matrix_csv(path, result.history,
                     [str(n) for n in range(result.iterations + 1)],
                     result.region_codes, corner="iteration")
