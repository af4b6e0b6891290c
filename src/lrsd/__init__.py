"""Low-rank + sparse decomposition of multi-study association summary statistics."""

__version__ = "0.1.0"

from .matrix import DenseMatrix, read_tsv, write_tsv
from .metrics import BenchmarkRow, DetectionReport, benchmark, score
from .reporting import embed_studies
from .simulate import PatternSpec, SimulatedInstance, compute_snr, factor_vectors, generate
from .solver import (
    SolverConfig,
    SolverResult,
    auto_config,
    detect,
    estimate_sigma,
    objective,
    optimality_residual,
    resolve_params,
    soft_threshold,
    solve,
    svt,
)
from .sumstats import AlignedPanel, StudySummary, align, p_to_z, parse_study

__all__ = [
    "AlignedPanel",
    "BenchmarkRow",
    "DenseMatrix",
    "DetectionReport",
    "PatternSpec",
    "SimulatedInstance",
    "SolverConfig",
    "SolverResult",
    "StudySummary",
    "align",
    "auto_config",
    "benchmark",
    "compute_snr",
    "detect",
    "embed_studies",
    "estimate_sigma",
    "factor_vectors",
    "generate",
    "objective",
    "optimality_residual",
    "p_to_z",
    "parse_study",
    "read_tsv",
    "resolve_params",
    "score",
    "soft_threshold",
    "solve",
    "svt",
    "write_tsv",
]
