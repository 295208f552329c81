"""Workload generation: synthetic distributions, probability assignment,
the synthetic NYSE trace, and horizontal partitioning."""

from .io import (
    load_tuples,
    load_tuples_csv,
    load_tuples_jsonl,
    save_tuples,
    save_tuples_csv,
    save_tuples_jsonl,
)
from .nyse import attach_uncertainty, generate_nyse_trades, nyse_preference
from .partition import (
    partition_angle,
    partition_range,
    partition_round_robin,
    partition_uniform,
)
from .probabilities import (
    constant_probabilities,
    gaussian_probabilities,
    generate_probabilities,
    uniform_probabilities,
)
from .synthetic import DISTRIBUTIONS, anticorrelated, correlated, generate_values, independent
from .workload import (
    QueryDraw,
    Workload,
    make_nyse_workload,
    make_synthetic_workload,
    sample_query_mix,
)

__all__ = [
    "independent",
    "correlated",
    "anticorrelated",
    "generate_values",
    "DISTRIBUTIONS",
    "uniform_probabilities",
    "gaussian_probabilities",
    "constant_probabilities",
    "generate_probabilities",
    "partition_uniform",
    "partition_round_robin",
    "partition_range",
    "partition_angle",
    "generate_nyse_trades",
    "attach_uncertainty",
    "nyse_preference",
    "load_tuples",
    "save_tuples",
    "load_tuples_csv",
    "save_tuples_csv",
    "load_tuples_jsonl",
    "save_tuples_jsonl",
    "Workload",
    "make_synthetic_workload",
    "make_nyse_workload",
    "QueryDraw",
    "sample_query_mix",
]
