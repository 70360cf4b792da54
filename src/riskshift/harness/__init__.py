"""Experiment harness: configs, runners, CSV emission, CLI, and self tests."""

from riskshift.harness.config import ExperimentConfig, config_from_mapping, load_config
from riskshift.harness.runners import RUNNERS, run_and_write, write_csv

__all__ = [
    "ExperimentConfig",
    "config_from_mapping",
    "load_config",
    "RUNNERS",
    "run_and_write",
    "write_csv",
]
