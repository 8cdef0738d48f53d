"""Measurement-driven approximate eigensolver for finite Hermitian operators.

A learning agent holds a unitary basis, probes a black-box evolution one
column at a time, and reacts to single-shot measurement outcomes with
reward/punish feedback until the basis approximately diagonalizes the
hidden operator.  The :mod:`eigenrl.harness` layer repeats the protocol
many times and aggregates convergence statistics.
"""
__version__ = "0.1.0"

from .harness import ExperimentConfig, load_config, run_experiment

__all__ = ["ExperimentConfig", "__version__", "load_config", "run_experiment"]
