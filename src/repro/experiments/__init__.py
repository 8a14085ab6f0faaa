"""One experiment module per paper figure (9-16) plus a CLI runner."""

from . import (
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
)
from .base import ExperimentResult, assert_shape
from .runner import EXPERIMENTS, experiment_module, run_experiments
from .store import VersionStore

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "VersionStore",
    "assert_shape",
    "experiment_module",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "run_experiments",
]
