"""Cost gate: the calls a run makes, by layer, which no timing noise hides.

``costs.json`` maps every package function a run calls, as
``module:qualname``, to one layer: ``build`` (the set-up: environment,
seeds and engine), ``black box``, ``round``, ``fold`` (the reduction and
the results file) or ``trace`` (repetition 0's capture and its file).  For
each workload it holds the Python calls and the C calls that package frames
make, summed per layer, over a run and the writing of its files.  A call
counts once for the package function that makes it, whatever the callee
does inside, so NumPy's own frames are not counted.  A change that moves a
count updates the table, which ``PYTHONPATH=src python tests/test_costs.py``
rewrites, and says per round in CHANGES.md what moved.

The counts hold for the Python minor version and the NumPy version that
the table names, the ones CI pins: comprehensions are frames of their own
in Python 3.11 and are inlined from 3.12, and which NumPy functions are
Python code varies by release.  On any other version the count test is
skipped with a reason that names both versions, and the names are still
resolved.

Each workload also sums the reward, punish and neutral iterations of each
stage from the ``EnsembleRecord`` stream.  A fixed-budget stage's three
add up to its budget times the repetitions.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import eigenrl
from eigenrl import harness, protocol

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("costs.json")
PACKAGE = f"{Path(eigenrl.__file__).parent}{os.sep}"  # what the package's file names start with
VERSIONS = {"python": f"{sys.version_info[0]}.{sys.version_info[1]}", "numpy": np.__version__}


def load_table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def resolve(name: str):
    """The function or code object that ``module:qualname`` names in the
    package: attributes down to the first ``<locals>``, then the nested code
    objects by name."""
    module, qualname = name.split(":")
    target = importlib.import_module(f"eigenrl.{module}")
    parts = qualname.split(".")
    while parts and parts[0] != "<locals>":
        target = getattr(target, parts.pop(0))
        target = getattr(target, "fget", target)  # a property's getter
    while parts:
        assert parts.pop(0) == "<locals>" and parts, name
        inner = parts.pop(0)
        code = getattr(target, "__code__", target)
        target = next(c for c in code.co_consts
                      if isinstance(c, types.CodeType) and c.co_name == inner)
    return target


def _name(frame) -> str:
    return f"{frame.f_globals['__name__'].removeprefix('eigenrl.')}:{frame.f_code.co_qualname}"


def _ours(frame) -> bool:
    return frame is not None and frame.f_code.co_filename.startswith(PACKAGE)


def count_calls(run) -> tuple[Counter, Counter, set]:
    """The Python calls and the C calls that package frames make while
    ``run()`` runs, by the function that makes them, and every package
    function that ran."""
    python, c, ran = Counter(), Counter(), set()

    def hook(frame, event, arg):
        if event == "call":
            if _ours(frame):
                ran.add(_name(frame))
            if _ours(frame.f_back):
                python[_name(frame.f_back)] += 1
        elif event == "c_call" and _ours(frame):
            c[_name(frame)] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return python, c, ran


def decisions(records: list, dim: int) -> list[list[int]]:
    """Reward, punish and neutral iterations of each stage over the records."""
    totals = np.zeros((dim - 1, 3), dtype=np.int64)
    for rec in records:
        m = protocol._count(rec.cumulative[:, None, 1:], rec.u[:, :, None])  # (s, L) outcomes
        ran = np.arange(rec.u.shape[1]) < rec.length[:, None]
        t = rec.stage[:, None]
        for kind, hit in enumerate((m == t, m > t, m < t)):
            totals[:, kind] += np.bincount(np.broadcast_to(t, m.shape)[hit & ran],
                                           minlength=dim - 1)
    return totals.tolist()


def measure(spec: dict, layers: dict, tmp_path: Path) -> tuple[dict, set]:
    """One workload's row of the table, and the package functions it ran: a
    first run, whose records give the rounds and the decisions, then a
    second, counted run."""
    raw = json.loads((ROOT / spec["config"]).read_text(encoding="utf-8"))
    raw.update(spec.get("overrides", {}))
    config = harness.config_from_dict(raw)
    trace = spec.get("trace", False)
    records = []

    def recording(state, interact, observer):
        def both(state, rec):
            observer(state, rec)
            records.append(rec)
        return protocol.run_stages(state, interact, both)

    def run():
        result = harness.run_experiment(config, trace=trace)
        harness.write_results(result, str(tmp_path / "results.csv"))
        if trace:
            result.trace.write(str(tmp_path / "run.trace"))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_stages", recording)
        run()
    python, c, ran = count_calls(run)
    layer = {name: group for group, names in layers.items() for name in names}
    unmapped = sorted((ran | set(python) | set(c)) - set(layer))
    assert not unmapped, f"functions with no layer in costs.json: {unmapped}"
    totals = decisions(records, config.dim)
    if config.stopping.kind == "fixed-budget":  # each stage runs its budget in every repetition
        budgets = config.stopping.budgets[:config.dim - 1]
        assert [sum(row) for row in totals] == [config.repetitions * b for b in budgets]
    row = {"rounds": len(records), "decisions": totals}
    for key, counts in (("python_calls", python), ("c_calls", c)):
        row[key] = dict.fromkeys(layers, 0)
        for name, count in counts.items():
            row[key][layer[name]] += count
    return row, ran


def test_every_name_resolves_to_a_package_function():
    """A renamed or deleted function fails here, whatever the versions."""
    layers = load_table()["layers"]
    assert list(layers) == ["build", "black box", "round", "fold", "trace"]
    names = [name for group in layers.values() for name in group]
    assert len(names) == len(set(names)), "a function sits in two layers"
    for name in names:
        target = resolve(name)
        code = getattr(target, "__code__", target)
        assert isinstance(code, types.CodeType) and code.co_filename.startswith(PACKAGE), name


def test_calls_by_layer_match_the_table(tmp_path):
    table = load_table()
    recorded = {"python": table["python"], "numpy": table["numpy"]}
    if recorded != VERSIONS:
        pytest.skip(f"call counts recorded under Python {recorded['python']} with NumPy "
                    f"{recorded['numpy']}, this is Python {VERSIONS['python']} with NumPy "
                    f"{VERSIONS['numpy']}: PYTHONPATH=src python tests/test_costs.py "
                    "records them")
    ran = set()
    for name, spec in table["workloads"].items():
        got, names = measure(spec, table["layers"], tmp_path)
        assert got == {key: spec[key] for key in got}, name
        ran |= names
    listed = {name for group in table["layers"].values() for name in group}
    assert sorted(listed - ran) == [], "listed functions that no workload runs"


if __name__ == "__main__":  # record the counts of this Python and NumPy in the table
    import tempfile

    table = load_table()
    with tempfile.TemporaryDirectory() as scratch:
        for spec in table["workloads"].values():
            spec.update(measure(spec, table["layers"], Path(scratch))[0])
    table.update(VERSIONS)
    TABLE.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
