"""Evaluation harness: benchmark suite, experiment registry, table output."""

from .benchsuite import Benchmark, by_name, standard_suite, suite
from .experiments import (
    Experiment,
    ExperimentResult,
    all_experiments,
    get_experiment,
)
from .tables import format_table

__all__ = [
    "Benchmark",
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "by_name",
    "format_table",
    "get_experiment",
    "standard_suite",
    "suite",
]
