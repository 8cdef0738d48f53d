"""The committed perf trajectory: every ``bench/BENCH_*.json`` that
``scripts/trajectory.py`` writes has its keys and names its commit.  No
time is gated here."""
import json
import re
from pathlib import Path

import pytest

FILES = sorted((Path(__file__).resolve().parent.parent / "bench").glob("BENCH_*.json"))
WORKLOADS = {"fig6_dim4", "fig3_dense", "resample_dim16", "fig6_random2q"}
FIGURES = {"wall_s", "run_s", "us_per_iter", "setup_s", "peak_rss_mb"}


def test_the_trajectory_is_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_every_bench_file_has_its_keys_and_names_its_commit(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{doc['pr']}.json"
    assert re.fullmatch(r"[0-9a-f]{40}", doc["commit"])
    assert isinstance(doc["working_tree"], bool)
    for key in ("session", "python", "numpy", "cpu"):
        assert isinstance(doc[key], str) and doc[key], key
    assert isinstance(doc["correct"], bool) and isinstance(doc["failures"], list)
    assert set(doc["cut"]) <= WORKLOADS
    assert set(doc["final_fidelity_min"]) == set(doc["workloads"]) == WORKLOADS
    for name, figures in doc["workloads"].items():
        # a tree whose run failed or was cut at its limit has no figures for it
        assert set(figures) in (FIGURES, set()), name
        assert (not figures) == (doc["final_fidelity_min"][name] is None), name
        for figure, stats in figures.items():
            assert stats["q1"] <= stats["median"] <= stats["q3"] and stats["n"] >= 1, figure
