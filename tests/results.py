"""Reads the results CSV back, for tests that check what ``eigenrl run`` wrote.

The package only writes results files; nothing in it reads them.
"""
from __future__ import annotations

import json

import numpy as np

from eigenrl.errors import ConfigError


def read_results(path: str) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a CSV result file back into (metadata, ks, stages, W, F)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read results {path}: {exc}") from exc
    if len(lines) < 3 or not lines[0].startswith("# "):
        raise ConfigError(f"{path} is not a results CSV")
    header = lines[1].split(",")
    if header[:3] != ["k", "stage", "W"]:
        raise ConfigError(f"unexpected header in {path}: {lines[1]!r}")
    rows = [line.split(",") for line in lines[2:] if line]
    if any(len(row) != len(header) for row in rows):
        raise ConfigError(f"{path} has rows that do not match its header")
    try:
        metadata = json.loads(lines[0][2:])
        ks = np.array([int(row[0]) for row in rows])
        stages = np.array([int(row[1]) for row in rows])
        search = np.array([float(row[2]) for row in rows])
        fidelity = np.array(
            [[float(row[3 + j]) for row in rows] for j in range(len(header) - 3)]
        )
    except ValueError as exc:
        raise ConfigError(f"bad value in {path}: {exc}") from exc
    return metadata, ks, stages, search, fidelity
