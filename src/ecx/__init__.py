"""Economic-complexity analytics over region x sector activity data.

The package turns a firm-level sales table into: an RCA-thresholded
bipartite matrix, eigenvector-based complexity indices (ECI/PCI), the
fitness/complexity fixed point, similarity projections with a
maximum-similarity spanning tree, and correlations of the indices
against macro indicators.  ``ecx.cli`` exposes the same steps as the
``ecx`` command-line tool.
"""

import os

# Every BLAS call runs on one thread, so the thread count never changes
# an output bit.  This wheel's OpenBLAS reads OPENBLAS_NUM_THREADS,
# ahead of GOTO_NUM_THREADS and OMP_NUM_THREADS, once, when numpy first
# loads it; the caller's value is put back, so child processes inherit
# the environment unchanged.  A program that imported numpy before ecx
# keeps numpy's thread count.
_saved = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy  # noqa: F401
finally:
    if _saved is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _saved
del os, _saved, numpy

from .catalogs import (DIVISIONS, SUPER_REGIONS, Region, RegionCatalog,
                       Sector, SectorCatalog, bundled_fixture_dir,
                       bundled_path, bundled_regions, bundled_sectors)
from .eci import (ComplexityIndices, EigenPair, TransitionMatrix,
                  build_transition, compute_indices, second_eigenpair)
from .errors import (DegenerateMatrixError, DegenerateSpectrumError,
                     DisconnectedGraphError, EcxError, InputDataError,
                     NonConvergenceError, NumericalError)
from .fitness import (FitnessResult, OrderedMatrixView, anti_diagonal_column,
                      convergence_report, fitness_complexity, order_by_rank)
from .ingest import (MacroIndicators, SalesMatrix, aggregate_sales,
                     parse_firms, parse_macro)
from .pipeline import RunConfig, run_pipeline
from .projections import (ProjectionMatrix, SimilarityMatrix, SpanningTree,
                          export_tree, max_similarity_tree, project,
                          similarity)
from .rca import (BinaryBipartiteMatrix, DegreeProfile, DropReport, RcaMatrix,
                  binarize, compute_rca, degree_profile)
from .stats import (Correlation, FitResult, correlation_p_value,
                    fit_exponential, fit_power, pearson, quadrants,
                    region_averages)
from .synth import SyntheticEconomy, generate_synthetic, nested_matrix, \
    write_synthetic

__all__ = [
    "BinaryBipartiteMatrix", "ComplexityIndices", "Correlation",
    "DegenerateMatrixError", "DegenerateSpectrumError", "DegreeProfile",
    "DisconnectedGraphError", "DIVISIONS", "DropReport", "EcxError",
    "EigenPair", "FitnessResult", "FitResult",
    "InputDataError", "MacroIndicators", "NonConvergenceError",
    "NumericalError", "OrderedMatrixView", "ProjectionMatrix", "RcaMatrix",
    "Region", "RegionCatalog", "RunConfig", "SalesMatrix", "Sector",
    "SectorCatalog", "SimilarityMatrix", "SpanningTree", "SUPER_REGIONS",
    "SyntheticEconomy", "TransitionMatrix", "aggregate_sales",
    "anti_diagonal_column", "binarize", "build_transition",
    "bundled_fixture_dir", "bundled_path", "bundled_regions",
    "bundled_sectors", "compute_indices", "compute_rca",
    "convergence_report", "correlation_p_value", "degree_profile",
    "export_tree",
    "fit_exponential", "fit_power", "fitness_complexity",
    "generate_synthetic", "max_similarity_tree", "nested_matrix",
    "order_by_rank", "parse_firms", "parse_macro", "pearson", "project",
    "quadrants", "region_averages", "run_pipeline", "second_eigenpair",
    "similarity", "write_synthetic",
]
