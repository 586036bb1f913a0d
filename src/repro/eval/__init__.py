"""Evaluation harness: runners, storage model, and figure/table renderers."""

from repro.eval.cache import ResultCache, cell_key, default_cache_dir
from repro.eval.parallel import SweepCell, SweepExecutor, SweepStats, sweep_matrix
from repro.eval.runner import (
    RunResult,
    normalized_exec,
    run_inter,
    run_intra,
    stall_fractions,
)
from repro.eval.storage import StorageReport, storage_report

__all__ = [
    "ResultCache",
    "RunResult",
    "StorageReport",
    "SweepCell",
    "SweepExecutor",
    "SweepStats",
    "cell_key",
    "default_cache_dir",
    "normalized_exec",
    "run_inter",
    "run_intra",
    "stall_fractions",
    "storage_report",
    "sweep_matrix",
]
